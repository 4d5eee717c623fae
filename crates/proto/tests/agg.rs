//! Protocol-level tests of the AGG system (relocated from the old
//! `agg.rs` unit tests; same scenarios, driven through the public API).

use pimdsm_mem::CacheCfg;
use pimdsm_obs::Tracer;
use pimdsm_proto::dnode::Master;
use pimdsm_proto::{AggCfg, AggSystem, AmState, CompactNode, Level, MemSystem, LAT};

fn sys(n_p: usize, n_d: usize, p_am_lines: u64, d_lines: u64) -> AggSystem {
    AggSystem::new(AggCfg::paper(n_p, n_d, 8, 32, p_am_lines, d_lines))
}

#[test]
fn placement_interleaves_roles() {
    let s = sys(4, 2, 256, 1024);
    assert_eq!(s.p_nodes().len(), 4);
    assert_eq!(s.d_nodes().len(), 2);
    let mut all: Vec<usize> = s.p_nodes().iter().chain(s.d_nodes()).copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..6).collect::<Vec<_>>());
}

#[test]
fn first_read_grants_mastership_to_reader() {
    let mut s = sys(2, 1, 256, 1024);
    let p = s.p_nodes()[0];
    let d = s.d_nodes()[0];
    let a = s.read(p, 0x1000, 0);
    assert_eq!(a.level, Level::Hop2);
    assert_eq!(s.am_state(p, 64), Some(AmState::SharedMaster));
    let e = s.dnode(d).entry(64).expect("directory entry exists");
    assert_eq!(e.master, Master::Node(CompactNode::new(p)));
    assert!(e.in_mem, "home keeps its copy after a first read");
    assert_eq!(s.dnode(d).shared_list_len(), 1);
    s.check_invariants();
}

#[test]
fn second_read_hits_local_memory() {
    let mut s = sys(2, 1, 256, 1024);
    let p = s.p_nodes()[0];
    s.read(p, 0x1000, 0);
    s.purge_caches(p, 0x1000);
    let a = s.read(p, 0x1000, 10_000);
    assert_eq!(a.level, Level::LocalMem, "master copy hits local memory");
}

#[test]
fn write_makes_dirty_and_frees_home_slot() {
    let mut s = sys(2, 1, 256, 1024);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    let d = s.d_nodes()[0];
    s.read(p0, 0x1000, 0);
    s.read(p1, 0x1000, 1_000);
    let free_before = s.dnode(d).free_slots();
    let a = s.write(p1, 0x1000, 10_000);
    assert_eq!(a.level, Level::Hop2);
    let e = s.dnode(d).entry(64).expect("entry");
    assert_eq!(e.owner.map(CompactNode::get), Some(p1));
    assert!(!e.in_mem, "owned line releases its home Data slot");
    assert_eq!(s.dnode(d).free_slots(), free_before + 1);
    assert_eq!(s.am_state(p0, 64), None, "sharer invalidated");
}

#[test]
fn read_of_dirty_line_is_three_hops() {
    let mut s = sys(3, 1, 256, 1024);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.write(p0, 0x1000, 0);
    let a = s.read(p1, 0x1000, 10_000);
    assert_eq!(a.level, Level::Hop3);
    assert_eq!(
        s.am_state(p0, 64),
        Some(AmState::SharedMaster),
        "previous owner keeps the master copy"
    );
}

#[test]
fn displaced_master_writes_back_home_no_injection() {
    let mut cfg = AggCfg::paper(2, 1, 8, 32, 4, 1024);
    cfg.p_am = CacheCfg::new(64, 1); // one-line AM forces displacement
    cfg.l1 = CacheCfg::new(64, 1);
    cfg.l2 = CacheCfg::new(64, 1);
    let mut s = AggSystem::new(cfg);
    let p = s.p_nodes()[0];
    let d = s.d_nodes()[0];
    s.write(p, 0, 0);
    s.write(p, 64, 10_000); // displaces line 0 from the 1-line AM
    assert_eq!(s.stats().write_backs, 1, "AGG writes back to the home");
    assert_eq!(s.stats().injections, 0, "AGG never injects");
    let e = s.dnode(d).entry(0).expect("entry survives");
    assert_eq!(e.owner, None);
    assert_eq!(e.master, Master::Home);
    assert!(e.in_mem, "home re-absorbed the line");
}

#[test]
fn home_copy_reclaim_causes_three_hop_reads() {
    // D-node with only 2 data lines: the third mapped line must reclaim
    // an in-memory copy whose master lives outside.
    let mut s = AggSystem::new(AggCfg::paper(2, 1, 8, 32, 4096, 2));
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.read(p0, 0, 0);
    s.read(p0, 64, 100_000);
    s.read(p0, 128, 200_000);
    let d = s.d_nodes()[0];
    assert!(
        !s.dnode(d).entry(0).expect("entry").in_mem,
        "oldest home copy reclaimed"
    );
    let a = s.read(p1, 0, 10_000_000);
    assert_eq!(a.level, Level::Hop3, "data must come from the master");
    assert!(s.stats().master_fetches >= 1);
}

#[test]
fn pageout_when_nothing_reclaimable() {
    let mut cfg = AggCfg::paper(2, 1, 8, 32, 4096, 4);
    cfg.dnode.reuse_shared_list = false;
    let mut s = AggSystem::new(cfg);
    let p = s.p_nodes()[0];
    for i in 0..6u64 {
        s.read(p, i * 4096, i * 100_000);
    }
    assert!(s.stats().page_outs >= 1, "D-node paged out under pressure");
}

/// A system of `n_p` P-nodes with one-line memories and caches (every
/// fill displaces the previous line) and one D-node of `d_lines` Data
/// lines that never reclaims its SharedList, so a write-back that finds
/// no free slot must page out.
fn one_line_nodes(n_p: usize, d_lines: u64) -> AggSystem {
    let mut cfg = AggCfg::paper(n_p, 1, 8, 32, 4, d_lines);
    cfg.p_am = CacheCfg::new(64, 1);
    cfg.l1 = CacheCfg::new(64, 1);
    cfg.l2 = CacheCfg::new(64, 1);
    cfg.dnode.reuse_shared_list = false;
    AggSystem::new(cfg)
}

#[test]
fn page_out_spares_the_page_of_the_walk_that_triggered_it() {
    let mut s = one_line_nodes(2, 2);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    // Pages 1 and 2 fill both Data slots; page 3 is dirty at p1 without
    // a slot.
    s.read(p0, 0x1000, 0);
    s.read(p0, 0x2000, 100_000);
    s.write(p1, 0x3000, 200_000);
    // The write into page 1 displaces 0x3000 from p1, whose write-back
    // must page out. Page 1 is the least recently served, and every page
    // has a cached line, but the walk's own line is in page 1.
    s.write(p1, 0x1040, 300_000);
    s.check_coherence();
    s.check_invariants();
    assert_eq!(s.stats().page_outs, 1);
    assert_eq!(s.am_state(p1, 0x41), Some(AmState::Dirty));
    let d = s.d_nodes()[0];
    assert!(s.dnode(d).entry(0x80).unwrap().paged_out, "page 2 went");
    assert!(
        s.dnode(d).entry(0xC0).unwrap().in_mem,
        "0x3000 was taken in"
    );
}

#[test]
fn write_back_spills_to_disk_when_only_the_walks_page_is_left() {
    let mut s = one_line_nodes(1, 1);
    let p = s.p_nodes()[0];
    // Page 1 is dirty at p without a slot.
    s.write(p, 0x1000, 0);
    // The read takes the only Data slot and displaces 0x1000. Paging out
    // page 1 frees nothing, and page 2 holds the walk's own line.
    s.read(p, 0x2000, 100_000);
    s.check_coherence();
    s.check_invariants();
    assert_eq!(s.stats().disk_spills, 1);
    assert_eq!(s.am_state(p, 0x80), Some(AmState::SharedMaster));
    let d = s.d_nodes()[0];
    assert!(s.dnode(d).entry(0x40).unwrap().paged_out);
}

/// A 2P/1D system whose single D-node has paged lines out to disk, and
/// the address of the first paged-out line.
fn paged_out_system() -> (AggSystem, u64) {
    let mut cfg = AggCfg::paper(2, 1, 8, 32, 4096, 4);
    cfg.dnode.reuse_shared_list = false;
    let mut s = AggSystem::new(cfg);
    let p = s.p_nodes()[0];
    for i in 0..6u64 {
        s.read(p, i * 4096, i * 100_000);
    }
    let d = s.d_nodes()[0];
    let paged: Vec<u64> = s
        .dnode(d)
        .iter_deterministic()
        .filter(|(_, e)| e.paged_out)
        .map(|(l, _)| l)
        .collect();
    assert!(!paged.is_empty(), "something was paged out");
    (s, paged[0] << 6)
}

#[test]
fn disk_fault_on_paged_out_line() {
    let (mut s, addr) = paged_out_system();
    let faults_before = s.stats().disk_faults;
    let p1 = s.p_nodes()[1];
    let a = s.read(p1, addr, 10_000_000);
    assert_eq!(s.stats().disk_faults, faults_before + 1);
    assert!(
        a.done_at - 10_000_000 >= LAT.disk,
        "disk fault pays the disk latency"
    );
}

#[test]
fn paged_out_write_emits_its_remote_span() {
    let (mut s, addr) = paged_out_system();
    let tracer = Tracer::enabled();
    s.attach_tracer(tracer.clone());
    let faults_before = s.stats().disk_faults;
    let p1 = s.p_nodes()[1];
    let a = s.write(p1, addr, 10_000_000);
    assert_eq!(
        s.stats().disk_faults,
        faults_before + 1,
        "took the page-in path"
    );
    assert_eq!(a.level, Level::Hop2);
    let spans = tracer
        .events_sorted()
        .iter()
        .filter(|e| e.name == "write.remote")
        .count() as u64;
    assert_eq!(s.stats().remote_writes, 1);
    assert_eq!(
        spans,
        s.stats().remote_writes,
        "every remote write emits one write.remote span"
    );
}

#[test]
fn convert_p_to_d_flushes_and_switches_role() {
    let mut s = sys(3, 1, 256, 4096);
    let p2 = s.p_nodes()[2];
    s.write(p2, 0x5000, 0);
    let (_, flushed) = s.convert_p_to_d(p2, 100_000);
    assert_eq!(flushed, 1, "the dirty line was flushed home");
    assert_eq!(s.p_nodes().len(), 2);
    assert_eq!(s.d_nodes().len(), 2);
    let home = s.fabric().pages.home(0x5000 >> 12).unwrap();
    let e = s.dnode(home).entry(0x5000 >> 6).expect("entry");
    assert_eq!(e.owner, None, "flushed line is clean at home");
    assert!(e.in_mem);
}

#[test]
fn convert_d_to_p_migrates_pages() {
    let mut s = sys(2, 2, 256, 4096);
    let p = s.p_nodes()[0];
    for i in 0..8u64 {
        s.read(p, i * 4096, i * 1000);
    }
    let (keep_d, victim_d) = (s.d_nodes()[0], s.d_nodes()[1]);
    let before = s.fabric().pages.pages_at(keep_d);
    let (_, moved, _) = s.convert_d_to_p(victim_d, 1_000_000);
    assert_eq!(s.d_nodes(), [keep_d]);
    assert_eq!(s.fabric().pages.pages_at(keep_d), before + moved);
    assert_eq!(s.fabric().pages.pages_at(victim_d), 0);
}

#[test]
fn offload_books_dnode_and_replies() {
    let mut s = sys(2, 1, 256, 4096);
    let p = s.p_nodes()[0];
    let d = s.d_nodes()[0];
    let t0 = s.offload(p, d, 16, 10_000, 64 * 1024, 256, 0);
    assert!(t0 >= 10_000);
    let t1 = s.offload(p, d, 16, 10_000, 64 * 1024, 256, 0);
    assert!(t1 > t0, "second request queues behind the first");
}

#[test]
fn census_matches_protocol_state() {
    let mut s = sys(3, 1, 4096, 4096);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.read(p0, 0, 0);
    s.write(p1, 0x1000, 0);
    s.write(p0, 0x2000, 0);
    let c = s.census();
    assert_eq!(c.dirty_in_p, 2);
    assert_eq!(c.shared_in_p, 1);
    assert_eq!(c.shared_with_home_copy, 1);
    assert_eq!(c.d_node_only, 0);
}
