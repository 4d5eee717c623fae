//! Protocol-level tests of the flat-COMA system (relocated from the old
//! `coma.rs` unit tests; same scenarios, driven through the public API).

use pimdsm_mem::CacheCfg;
use pimdsm_obs::Tracer;
use pimdsm_proto::{AmState, ComaCfg, ComaSystem, CompactNode, Level, MemSystem};

fn sys(am_lines: u64) -> ComaSystem {
    ComaSystem::new(ComaCfg::paper(4, 8, 32, am_lines))
}

#[test]
fn cold_read_materializes_master_locally() {
    let mut s = sys(4096);
    let a = s.read(0, 0x1000, 0);
    assert_eq!(a.level, Level::LocalMem);
    assert_eq!(s.am_state(0, 0x1000 >> 6), Some(AmState::SharedMaster));
}

#[test]
fn remote_read_attracts_copy() {
    let mut s = sys(4096);
    s.read(0, 0x1000, 0); // master at 0
    let a = s.read(1, 0x1000, 1000);
    assert_eq!(a.level, Level::Hop2);
    // The copy is now attracted: a re-read after cache eviction hits the
    // local attraction memory.
    s.purge_caches(1, 0x1000);
    let b = s.read(1, 0x1000, 100_000);
    assert_eq!(b.level, Level::LocalMem);
}

#[test]
fn read_of_dirty_line_leaves_shared_master_at_owner() {
    let mut s = sys(4096);
    s.write(0, 0x1000, 0);
    let a = s.read(1, 0x1000, 1000);
    assert_ne!(a.level, Level::LocalMem);
    assert_eq!(s.am_state(0, 64), Some(AmState::SharedMaster));
    assert_eq!(s.am_state(1, 64), Some(AmState::Shared));
    let e = s.dir_entry(64).expect("entry");
    assert_eq!(e.owner, None);
    assert_eq!(e.master.map(CompactNode::get), Some(0));
}

#[test]
fn write_invalidates_other_copies() {
    let mut s = sys(4096);
    s.read(0, 0x1000, 0);
    s.read(1, 0x1000, 1000);
    let tracer = Tracer::enabled();
    s.attach_tracer(tracer.clone());
    s.write(2, 0x1000, 10_000);
    assert_eq!(s.am_state(0, 64), None);
    assert_eq!(s.am_state(1, 64), None);
    let mut acks: Vec<u32> = tracer
        .events_sorted()
        .iter()
        .filter(|e| (e.name, e.cat) == ("Ack", "proto.handler"))
        .map(|e| e.tid)
        .collect();
    acks.sort_unstable();
    assert_eq!(
        acks,
        [0, 1],
        "one Ack span per fan-out target, on its track"
    );
    assert_eq!(s.am_state(2, 64), Some(AmState::Dirty));
    assert_eq!(
        s.dir_entry(64).expect("entry").owner.map(CompactNode::get),
        Some(2)
    );
}

#[test]
fn upgrade_of_am_dirty_is_local() {
    let mut s = sys(4096);
    s.write(0, 0x1000, 0);
    s.read(0, 0x1000, 100);
    s.purge_caches(0, 0x1000);
    s.read(0, 0x1000, 200); // refill caches Shared, AM stays Dirty
    let a = s.write(0, 0x1000, 300);
    assert!(
        a.done_at - 300 < 60,
        "AM-dirty upgrade stays local, took {}",
        a.done_at - 300
    );
}

#[test]
fn replacement_prefers_shared_over_master() {
    let mut cfg = ComaCfg::paper(2, 8, 32, 4);
    // Two-line, 2-way AM: the third distinct line forces a replacement.
    cfg.am = CacheCfg::new(2 * 64, 2, 6);
    let mut s = ComaSystem::new(cfg);
    s.write(0, 0, 0); // line 0: Dirty (master) at 0
    s.read(1, 64, 0); // line 1: master at 1
    s.read(0, 64, 1000); // line 1: shared copy at 0
    s.write(0, 128, 10_000); // forces a victim in node 0's AM
    assert!(s.am_state(0, 0).is_some(), "dirty master kept");
    assert!(s.am_state(0, 2).is_some(), "incoming line resident");
    assert!(s.am_state(0, 1).is_none(), "shared copy was the victim");
    assert_eq!(s.injections(), 0, "shared victims drop silently");
}

#[test]
fn master_replacement_injects() {
    let mut cfg = ComaCfg::paper(3, 8, 32, 4);
    cfg.am = CacheCfg::new(64, 1, 6); // one-line AM
    cfg.l1 = CacheCfg::new(64, 1, 6);
    cfg.l2 = CacheCfg::new(64, 1, 6);
    let mut s = ComaSystem::new(cfg);
    s.write(0, 0, 0); // line 0 dirty at node 0
    s.write(0, 64, 1000); // displaces line 0 -> inject
    assert_eq!(s.injections(), 1);
    let holder = s
        .dir_entry(0)
        .expect("entry")
        .owner
        .expect("still owned")
        .get();
    assert!(s.am_state(holder, 0).is_some(), "line lives at {holder}");
    assert_ne!(holder, 0);
}

#[test]
fn forced_injection_spills_displaced_master_to_disk() {
    let mut cfg = ComaCfg::paper(2, 8, 32, 4);
    cfg.am = CacheCfg::new(64, 1, 6);
    cfg.l1 = CacheCfg::new(64, 1, 6);
    cfg.l2 = CacheCfg::new(64, 1, 6);
    cfg.injection_max_tries = 1;
    let mut s = ComaSystem::new(cfg);
    s.write(0, 0, 0); // node 0 holds line 0 dirty
    s.write(1, 64, 0); // node 1 holds line 1 dirty
                       // Node 0 writes line 2: displaces line 0, which must inject into node
                       // 1's only way, displacing line 1 to disk.
    s.write(0, 128, 1000);
    assert_eq!(s.stats().disk_spills, 1);
    assert_eq!(
        s.dir_entry(0).expect("entry").owner.map(CompactNode::get),
        Some(1)
    );
    assert!(s.am_state(1, 0).is_some());
    assert!(s.dir_entry(1).expect("entry").on_disk);
    // Reading the spilled line pays the disk fault.
    let a = s.read(0, 64, 1_000_000);
    assert!(a.done_at - 1_000_000 >= s.cfg().lat.disk);
    assert_eq!(s.stats().disk_faults, 1);
}

#[test]
fn three_hop_when_home_displaced() {
    let mut s = sys(4096);
    s.read(0, 0x1000, 0); // home+master at 0
    s.write(1, 0x1000, 1000); // dirty at 1
    let a = s.read(2, 0x1000, 10_000);
    assert_eq!(a.level, Level::Hop3, "home 0, owner 1, reader 2");
}

#[test]
fn cache_hit_levels() {
    let mut s = sys(4096);
    s.read(0, 0x1000, 0);
    let a = s.read(0, 0x1000, 100);
    assert_eq!(a.level, Level::L1);
}
