//! Property-based tests: every generated workload is well-formed — the
//! machine driver relies on these invariants to avoid deadlock.
#![expect(
    clippy::disallowed_types,
    reason = "HashMap tallies arrivals as a reference model, never simulation state"
)]

use std::collections::HashMap;

use proptest::prelude::*;

use pimdsm_workloads::{build, AppId, Op, Scale, ALL_APPS};

fn drain(w: &dyn pimdsm_workloads::Workload, tid: usize) -> Vec<Op> {
    let mut g = w.spawn(tid);
    let mut ops = Vec::new();
    while let Some(op) = g.next_op() {
        ops.push(op);
        assert!(ops.len() < 3_000_000, "generator runaway");
    }
    ops
}

fn app_strategy() -> impl Strategy<Value = AppId> {
    proptest::sample::select(ALL_APPS.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every thread of a workload emits the same barrier-id sequence for
    /// the barriers it participates in, with per-id arrival counts that
    /// match the declared widths — the condition for deadlock freedom.
    #[test]
    fn barrier_arrivals_match_declared_widths(
        app in app_strategy(),
        threads in 2usize..6,
    ) {
        let w = build(app, threads, Scale::ci());
        let mut arrivals: HashMap<u32, usize> = HashMap::new();
        for tid in 0..threads {
            for op in drain(&*w, tid) {
                if let Op::Barrier(id) = op {
                    *arrivals.entry(id).or_insert(0) += 1;
                }
            }
        }
        for (id, count) in arrivals {
            prop_assert_eq!(
                count,
                w.barrier_width(id),
                "barrier {} arrival mismatch in {:?}", id, app
            );
        }
    }

    /// Locks are always released by their acquirer, in nesting-free
    /// acquire/release pairs.
    #[test]
    fn locks_are_balanced_and_unnested(app in app_strategy(), threads in 2usize..5) {
        let w = build(app, threads, Scale::ci());
        for tid in 0..threads {
            let mut held: Option<u32> = None;
            for op in drain(&*w, tid) {
                match op {
                    Op::Lock(id) => {
                        prop_assert!(held.is_none(), "nested lock in {:?}", app);
                        held = Some(id);
                    }
                    Op::Unlock(id) => {
                        prop_assert_eq!(held, Some(id), "unbalanced unlock in {:?}", app);
                        held = None;
                    }
                    _ => {}
                }
            }
            prop_assert!(held.is_none(), "thread ended holding a lock in {:?}", app);
        }
    }

    /// All generated addresses stay inside the declared footprint (the
    /// machine sizes memory from it).
    #[test]
    fn addresses_within_footprint(app in app_strategy(), threads in 2usize..5) {
        let w = build(app, threads, Scale::ci());
        let fp = w.footprint_bytes();
        let check = |a: u64| a < fp;
        for tid in 0..threads {
            for op in drain(&*w, tid) {
                let ok = match op {
                    Op::Load(a) | Op::Store(a) => check(a),
                    Op::LoadBatch { base, stride, count }
                    | Op::StoreBatch { base, stride, count } => {
                        check(base + stride as u64 * (count.max(1) as u64 - 1))
                    }
                    Op::Gather(b) | Op::Scatter(b) => b.addrs().iter().all(|&a| check(a)),
                    Op::OffloadScan { chunk_addr, bytes, .. } => check(chunk_addr + bytes - 1),
                    _ => true,
                };
                prop_assert!(ok, "address outside footprint in {:?}", app);
            }
        }
    }

    /// Preload regions stay inside the footprint and are attributed to
    /// valid threads.
    #[test]
    fn preload_regions_are_valid(app in app_strategy(), threads in 2usize..6) {
        let w = build(app, threads, Scale::ci());
        for r in w.preload_regions() {
            prop_assert!(r.base + r.bytes <= w.footprint_bytes());
            prop_assert!(r.owner_tid < threads);
            prop_assert!(r.bytes >= 64);
        }
    }

    /// Generators are deterministic: two spawns of the same thread yield
    /// identical streams.
    #[test]
    fn spawns_are_deterministic(app in app_strategy(), threads in 2usize..4) {
        let w = build(app, threads, Scale::ci());
        for tid in 0..threads {
            prop_assert_eq!(drain(&*w, tid), drain(&*w, tid));
        }
    }
}
