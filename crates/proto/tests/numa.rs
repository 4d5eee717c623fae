//! Protocol-level tests of the CC-NUMA system (relocated from the old
//! `numa.rs` unit tests; same scenarios, driven through the public API).

use pimdsm_obs::Tracer;
use pimdsm_proto::{Level, MemSystem, NumaCfg, NumaSystem};

fn sys() -> NumaSystem {
    NumaSystem::new(NumaCfg::paper(4, 8, 32, 4096))
}

#[test]
fn first_read_is_local_after_first_touch() {
    let mut s = sys();
    let a = s.read(0, 0x1000, 0);
    assert_eq!(a.level, Level::LocalMem);
    // Round trip within a few cycles of Table 1 (37) plus probe/fill.
    assert!(a.done_at < 70, "local read took {}", a.done_at);
}

#[test]
fn cache_hits_after_fill() {
    let mut s = sys();
    s.read(0, 0x1000, 0);
    let a = s.read(0, 0x1000, 100);
    assert_eq!(a.level, Level::L1);
    assert_eq!(a.done_at, 103);
}

#[test]
fn remote_read_is_two_hops() {
    let mut s = sys();
    s.read(0, 0x1000, 0); // node 0 first-touches the page
    let a = s.read(1, 0x1000, 1000);
    assert_eq!(a.level, Level::Hop2);
    assert!(a.done_at - 1000 > 100, "remote read too fast");
}

#[test]
fn dirty_remote_read_is_three_hops() {
    let mut s = sys();
    s.read(0, 0x1000, 0); // home = node 0
    s.write(1, 0x1000, 100); // node 1 owns it dirty
    let a = s.read(2, 0x1000, 10_000);
    assert_eq!(a.level, Level::Hop3);
}

#[test]
fn read_after_dirty_remote_finds_clean_home() {
    let mut s = sys();
    s.read(0, 0x1000, 0);
    s.write(1, 0x1000, 100);
    s.read(2, 0x1000, 10_000); // forces sharing write-back to home 0
    let a = s.read(3, 0x1000, 100_000);
    assert_eq!(a.level, Level::Hop2, "home has a clean copy again");
}

#[test]
fn write_hit_dirty_is_cheap() {
    let mut s = sys();
    s.write(0, 0x1000, 0);
    let a = s.write(0, 0x1000, 500);
    assert_eq!(a.level, Level::L1);
    assert_eq!(a.done_at, 503);
}

#[test]
fn upgrade_invalidates_sharers() {
    let mut s = sys();
    s.read(0, 0x1000, 0);
    s.read(1, 0x1000, 1000);
    s.read(2, 0x1000, 2000);
    let before = s.stats().invalidations;
    let tracer = Tracer::enabled();
    s.attach_tracer(tracer.clone());
    s.write(1, 0x1000, 10_000);
    assert!(s.stats().invalidations >= before + 2, "0 and 2 invalidated");
    let mut acks: Vec<u32> = tracer
        .events_sorted()
        .iter()
        .filter(|e| (e.name, e.cat) == ("Ack", "proto.handler"))
        .map(|e| e.tid)
        .collect();
    acks.sort_unstable();
    assert_eq!(
        acks,
        [0, 2],
        "one Ack span per fan-out target, on its track"
    );
    // Node 2's cached copy is gone: reading again is remote.
    let a = s.read(2, 0x1000, 100_000);
    assert_ne!(a.level, Level::L1);
    assert_ne!(a.level, Level::L2);
}

#[test]
fn local_write_to_uncached_line() {
    let mut s = sys();
    let a = s.write(0, 0x2000, 0);
    assert_eq!(a.level, Level::LocalMem);
}

#[test]
fn census_counts_states() {
    let mut s = sys();
    s.read(0, 0x0, 0); // shared
    s.write(1, 0x4000, 0); // dirty at 1 (page homed at 1)
    let c = s.census();
    assert_eq!(c.shared_in_p, 1);
    assert_eq!(c.dirty_in_p, 1);
}

#[test]
fn first_touch_spills_when_node_full() {
    // Tiny memory: 64 lines per node = 1 page of 64 lines.
    let mut cfg = NumaCfg::paper(2, 8, 32, 64);
    cfg.page_shift = 12;
    let mut s = NumaSystem::new(cfg);
    s.read(0, 0, 0); // page 0 -> node 0 (fills its 1-page capacity)
    s.read(0, 0x1000, 100); // page 1 must spill to node 1
    assert_eq!(s.fabric().pages.home(0), Some(0));
    assert_eq!(s.fabric().pages.home(1), Some(1));
}
