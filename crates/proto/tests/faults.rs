//! Protocol-level fault-injection tests: node kills, rejoins, retry
//! waits and the coherence oracle across all three architectures.
//!
//! The acceptance bar for the fault subsystem is that the full-sweep
//! oracle holds after a kill in every architecture, including the two
//! hard cases: the victim owns dirty lines, and the victim is home for
//! pages other nodes are using.

use pimdsm_faults::{Durability, RecoveryStats};
use pimdsm_proto::dnode::Master;
use pimdsm_proto::{
    AggCfg, AggSystem, AmState, ComaCfg, ComaSystem, CompactNode, Level, MemSystem, NumaCfg,
    NumaSystem,
};

fn agg(n_p: usize, n_d: usize) -> AggSystem {
    AggSystem::new(AggCfg::paper(n_p, n_d, 8, 32, 256, 1024))
}

fn coma() -> ComaSystem {
    ComaSystem::new(ComaCfg::paper(4, 8, 32, 4096))
}

fn numa() -> NumaSystem {
    NumaSystem::new(NumaCfg::paper(4, 8, 32, 4096))
}

// ---------------------------------------------------------------- AGG --

#[test]
fn agg_kill_p_while_it_owns_dirty_lines() {
    let mut s = agg(3, 2);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.write(p0, 0x1000, 0); // p0 dirty owner of line 64
    s.write(p0, 0x2000, 1_000); // p0 dirty owner of line 128
    s.read(p1, 0x3000, 2_000); // p1 master of line 192
    s.read(p0, 0x3000, 3_000); // p0 a plain sharer of line 192

    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(p0, 10_000, Durability::None, &mut rs);
    assert!(done > 10_000, "recovery takes time");
    assert!(
        rs.lines_lost >= 2,
        "both dirty lines die with the owner, got {}",
        rs.lines_lost
    );
    assert!(!s.compute_nodes().contains(&p0));

    // Reconfiguration under failure: a D-node is drafted to restore
    // compute capacity, so the machine is back to 3 P-nodes.
    assert_eq!(s.p_nodes().len(), 3);
    assert_eq!(s.d_nodes().len(), 1);

    // The dirty entries were written off to disk-resident state.
    let h = s.fabric().pages.home(1).expect("page 1 mapped");
    let e = s.dnode(h).entry(64).expect("entry survives the kill");
    assert_eq!(e.owner, None);
    assert!(e.paged_out, "no durable copy without replication");

    // The shared entry just dropped the victim's sharer bit.
    let h3 = s.fabric().pages.home(3).expect("page 3 mapped");
    let e3 = s.dnode(h3).entry(192).expect("entry");
    assert!(!e3.sharers.contains(p0));
    assert_eq!(e3.master, Master::Node(CompactNode::new(p1)));

    s.check_coherence();
    s.check_invariants();
}

#[test]
fn agg_kill_p_reelects_master_onto_surviving_sharer() {
    let mut s = agg(3, 2);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.read(p0, 0x1000, 0); // p0 master
    s.read(p1, 0x1000, 1_000); // p1 sharer

    let mut rs = RecoveryStats::default();
    s.apply_kill(p0, 10_000, Durability::None, &mut rs);

    let h = s.fabric().pages.home(1).expect("page 1 mapped");
    let e = s.dnode(h).entry(64).expect("entry");
    assert_eq!(
        e.master,
        Master::Node(CompactNode::new(p1)),
        "mastership re-elected"
    );
    assert_eq!(s.am_state(p1, 64), Some(AmState::SharedMaster));
    assert!(rs.lines_recalled >= 1);
    s.check_coherence();
    s.check_invariants();
}

#[test]
fn agg_kill_d_while_it_is_home_for_remote_pages() {
    let mut s = agg(2, 2);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    let victim = s.d_nodes()[0];
    s.write(p0, 0x1000, 0); // page 1, homed at the other D
    s.write(p0, 0x2000, 1_000); // page 2, homed at the victim, dirty at p0
    s.read(p1, 0x3000, 2_000); // page 3, other D
    s.read(p0, 0x4000, 3_000); // page 4, victim home keeps a copy

    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(victim, 10_000, Durability::None, &mut rs);
    assert_eq!(rs.pages_rehomed, 2, "pages 2 and 4 re-homed");
    assert!(!s.d_nodes().contains(&victim));
    let survivor = s.d_nodes()[0];
    assert_eq!(s.fabric().pages.home(2), Some(survivor));
    assert_eq!(s.fabric().pages.home(4), Some(survivor));

    // The dirty line at a live P-node survives with ownership intact.
    let e = s.dnode(survivor).entry(128).expect("entry moved home");
    assert_eq!(e.owner.map(CompactNode::get), Some(p0));
    // The victim's in-memory home copy of page 4 died; its master is
    // still the reader.
    let e4 = s.dnode(survivor).entry(256).expect("entry moved home");
    assert!(!e4.in_mem, "home copy died with the victim");
    assert_eq!(e4.master, Master::Node(CompactNode::new(p0)));
    assert!(rs.lines_recalled >= 2);

    s.check_coherence();
    s.check_invariants();

    // The re-homed dirty line is still reachable after recovery.
    let a = s.read(p1, 0x2000, done + 1);
    assert_eq!(a.level, Level::Hop3, "data still comes from the owner");
    s.check_coherence();
}

#[test]
fn agg_replication_preserves_dirty_lines() {
    let mut s = agg(3, 2);
    let p0 = s.p_nodes()[0];
    s.write(p0, 0x1000, 0);

    let mut rs = RecoveryStats::default();
    s.apply_kill(p0, 10_000, Durability::Replication, &mut rs);
    assert_eq!(rs.lines_lost, 0, "replication loses nothing");

    let h = s.fabric().pages.home(1).expect("page 1 mapped");
    let e = s.dnode(h).entry(64).expect("entry");
    assert_eq!(e.owner, None);
    s.check_coherence();
    s.check_invariants();

    // The restored line is still readable by a survivor.
    let p = s.p_nodes()[0];
    let a = s.read(p, 0x1000, 100_000);
    assert!(a.done_at > 100_000);
    s.check_coherence();
}

#[test]
fn agg_transaction_racing_recovery_pays_retry_wait() {
    let mut s = agg(3, 2);
    let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
    s.write(p0, 0x1000, 0);

    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(p0, 10_000, Durability::None, &mut rs);
    assert!(done > 10_001);
    assert!(!s.fabric().recovering.is_empty());

    let a = s.read(p1, 0x1000, 10_001);
    assert!(s.fabric().retries >= 1, "racing read probed the page");
    assert!(s.fabric().retry_wait_cycles > 0);
    assert!(a.done_at >= done, "read completes only after recovery");
    s.check_coherence();
}

#[test]
fn agg_rejoin_restores_compute_binding() {
    let mut s = agg(3, 2);
    let p0 = s.p_nodes()[0];
    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(p0, 10_000, Durability::None, &mut rs);
    assert!(!s.compute_nodes().contains(&p0));

    let up = s.apply_rejoin(p0, done + 1_000);
    assert!(up > done + 1_000, "cold start takes the disk latency");
    assert!(s.compute_nodes().contains(&p0));

    // The returned node issues transactions again, from a cold cache.
    let a = s.read(p0, 0x5000, up);
    assert!(a.done_at > up);
    s.check_coherence();
    s.check_invariants();
}

#[test]
fn agg_kill_recovery_is_deterministic() {
    fn fingerprint() -> (u64, RecoveryStats) {
        let mut s = agg(3, 2);
        let (p0, p1) = (s.p_nodes()[0], s.p_nodes()[1]);
        s.write(p0, 0x1000, 0);
        s.read(p1, 0x2000, 1_000);
        let mut rs = RecoveryStats::default();
        let durability = Durability::Checkpoint { interval: 4_000 };
        let done = s.apply_kill(p0, 10_000, durability, &mut rs);
        (done, rs)
    }
    assert_eq!(fingerprint(), fingerprint());
}

// --------------------------------------------------------------- COMA --

#[test]
fn coma_kill_of_dirty_owner_scrubs_to_disk() {
    let mut s = coma();
    s.write(0, 0x1000, 0); // node 0 dirty owner and first-touch home

    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);
    let e = s.dir_entry(64).expect("entry");
    assert_eq!(e.owner, None);
    assert!(e.on_disk, "only disk-resident state survives");
    assert_eq!(rs.lines_lost, 1);
    assert!(rs.pages_rehomed >= 1, "victim was the page's home");
    assert_ne!(s.fabric().pages.home(1), Some(0));
    s.check_coherence();

    // A survivor still reaches the line through the disk-fault path.
    let a = s.read(1, 0x1000, done + 1);
    assert!(a.done_at > done);
    s.check_coherence();
}

#[test]
fn coma_kill_reelects_master_onto_surviving_sharer() {
    let mut s = coma();
    s.read(0, 0x1000, 0); // node 0 master
    s.read(1, 0x1000, 1_000); // node 1 sharer

    let mut rs = RecoveryStats::default();
    s.apply_kill(0, 10_000, Durability::None, &mut rs);
    let e = s.dir_entry(64).expect("entry");
    assert_eq!(
        e.master.map(CompactNode::get),
        Some(1),
        "mastership re-elected"
    );
    assert_eq!(s.am_state(1, 64), Some(AmState::SharedMaster));
    assert!(!e.sharers.contains(0));
    assert!(rs.lines_recalled >= 1);
    s.check_coherence();
}

#[test]
fn coma_replication_recalls_instead_of_losing() {
    let mut s = coma();
    s.write(0, 0x1000, 0);
    let mut rs = RecoveryStats::default();
    s.apply_kill(0, 10_000, Durability::Replication, &mut rs);
    assert_eq!(rs.lines_lost, 0);
    assert!(rs.lines_recalled >= 1);
    s.check_coherence();
}

#[test]
fn coma_transaction_racing_recovery_pays_retry_wait() {
    let mut s = coma();
    s.write(0, 0x1000, 0);
    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);
    assert!(done > 10_001);

    s.read(1, 0x1000, 10_001);
    assert!(s.fabric().retries >= 1);
    assert!(s.fabric().retry_wait_cycles > 0);
    s.check_coherence();
}

#[test]
fn coma_rejoin_restores_compute_binding() {
    let mut s = coma();
    s.read(0, 0x1000, 0);
    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);
    assert_eq!(s.compute_nodes(), vec![1, 2, 3]);

    let up = s.apply_rejoin(0, done + 1_000);
    assert!(up > done + 1_000);
    assert_eq!(s.compute_nodes(), vec![0, 1, 2, 3]);
    let a = s.read(0, 0x1000, up);
    assert!(a.done_at > up);
    s.check_coherence();
}

// --------------------------------------------------------------- NUMA --

#[test]
fn numa_kill_clears_dirty_ownership_and_rehomes_pages() {
    let mut s = numa();
    s.read(0, 0x1000, 0); // node 0 first-touch home of page 1
    s.write(0, 0x2000, 100); // dirty at the victim, homed at the victim
    s.write(1, 0x1000, 200); // dirty at a survivor, homed at the victim

    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);

    // A survivor's dirty copy keeps its ownership across the re-home.
    let e64 = s.dir_entry(64).expect("entry");
    assert_eq!(e64.owner.map(CompactNode::get), Some(1));
    // The victim's own dirty line is scrubbed and written off.
    let e128 = s.dir_entry(128).expect("entry");
    assert_eq!(e128.owner, None);
    assert!(rs.lines_lost >= 1);
    assert_eq!(rs.pages_rehomed, 2);
    assert_ne!(s.fabric().pages.home(1), Some(0));
    assert_ne!(s.fabric().pages.home(2), Some(0));
    s.check_coherence();

    // Both lines stay reachable: one from the new home's memory, one
    // three-hop from the surviving owner.
    let a = s.read(2, 0x2000, done + 1);
    assert!(a.done_at > done);
    let b = s.read(3, 0x1000, done + 10_000);
    assert_eq!(b.level, Level::Hop3, "owner still serves the dirty line");
    s.check_coherence();
}

#[test]
fn numa_replication_recalls_instead_of_losing() {
    let mut s = numa();
    s.write(0, 0x1000, 0);
    let mut rs = RecoveryStats::default();
    s.apply_kill(0, 10_000, Durability::Replication, &mut rs);
    assert_eq!(rs.lines_lost, 0);
    assert!(rs.lines_recalled >= 1);
    s.check_coherence();
}

#[test]
fn numa_transaction_racing_recovery_pays_retry_wait() {
    let mut s = numa();
    s.write(0, 0x2000, 0);
    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);
    assert!(done > 10_001);

    s.read(2, 0x2000, 10_001);
    assert!(s.fabric().retries >= 1);
    assert!(s.fabric().retry_wait_cycles > 0);
    s.check_coherence();
}

#[test]
fn numa_rejoin_restores_compute_binding() {
    let mut s = numa();
    s.read(0, 0x1000, 0);
    let mut rs = RecoveryStats::default();
    let done = s.apply_kill(0, 10_000, Durability::None, &mut rs);
    assert_eq!(s.compute_nodes(), vec![1, 2, 3]);

    let up = s.apply_rejoin(0, done + 1_000);
    assert_eq!(s.compute_nodes(), vec![0, 1, 2, 3]);
    let a = s.read(0, 0x3000, up);
    assert!(a.done_at > up);
    s.check_coherence();
}

#[test]
fn recovery_histogram_is_populated() {
    let mut s = numa();
    s.read(0, 0x1000, 0);
    s.read(0, 0x2000, 100);
    let mut rs = RecoveryStats::default();
    s.apply_kill(0, 10_000, Durability::None, &mut rs);
    assert!(rs.recovery.count() >= 2, "one recovery sample per page");
    assert!(rs.recovery_p99() >= rs.recovery_p50());
}
