//! Allocation budget guard for the hot path.
//!
//! The data-layout work (sorted event queue, slab caches, page-chunked
//! directories, pooled workload buffers, fixed-capacity node lists) took
//! the steady-state simulation loop to near-zero heap traffic: what
//! remains is machine construction plus a handful of cold-path sweeps.
//! This test pins that property with *committed ceilings* on the
//! allocation count of three Figure 6 points, so a regression that
//! reintroduces per-event, per-transaction or per-preloaded-line
//! allocation fails CI instead of silently eroding the speedup. A fourth
//! ceiling bounds how far the live heap grows while a long service point
//! runs, so run-phase storage that grows with simulated time fails too.
//!
//! This file is its own integration-test binary on purpose: the counting
//! allocator tallies process-wide, and sibling tests allocating on other
//! threads would charge our window. Keep it to a single `#[test]`.

use pimdsm_lab::{find, PointSpec, SuiteCtx, WorkloadSpec};
use pimdsm_workloads::{AppId, Scale};

/// Committed ceiling on allocation calls for one CI-scale fig6 AGG point
/// (FFT:1/2AGG75, measured 403; the slack covers small legitimate drift,
/// not a per-event regression — this point runs hundreds of thousands
/// of events, so even one allocation per event blows the budget a
/// hundred times over).
const AGG_ALLOC_CEILING: u64 = 10_000;

/// Ceiling on allocated bytes for the same point (measured 554,359 B).
/// Dominated by the machine's fixed arenas (slab caches, page-table and
/// directory chunks, resource-timeline chunks), so it scales with
/// configuration, not with simulated work. With 2 KiB timeline chunks
/// (eight-byte windows) and a route buffer per network the same point
/// allocated 653,943 B, with 16-byte tag entries and 16-byte line-queue
/// slots (64-bit line keys) as well 772,759 B, and with 48-byte D-node
/// directory slots (`usize` node ids) as well 1,018,519 B; all fail
/// this ceiling.
const AGG_BYTE_CEILING: u64 = 600 << 10;

/// Committed ceiling on allocation calls for one CI-scale fig6 COMA
/// point (Swim:COMA75, measured 820). COMA has no backing store, so
/// building the machine preloads every initialised line into some
/// attraction memory; placing a line must not allocate. The sort-based
/// placement this replaced allocated once per preloaded line and fails
/// this ceiling (25,691 allocations at the same point).
const COMA_ALLOC_CEILING: u64 = 5_000;

/// Ceiling on allocated bytes for the COMA point (measured 1,918,752 B).
/// Building the machine allocates every node's attraction-memory tags
/// and on-chip LRU, and preloading fills the home directory, so the
/// bytes follow the per-line entry sizes; the run adds resource-timeline
/// chunks. With 2 KiB timeline chunks the same point allocated
/// 2,226,208 B, with 16-byte tags and 16-byte queue slots (64-bit line
/// keys) as well 2,835,008 B, with 48-byte directory slots as well
/// 3,625,536 B, and with 24-byte tags and 24-byte queue nodes plus
/// index slots as well ~5.1 MB; all fail this ceiling.
const COMA_BYTE_CEILING: u64 = 2 << 20;

/// Committed ceiling on allocation calls for one CI-scale fig6 NUMA
/// point (Swim:NUMA, measured 424). The home directory allocates one
/// entry chunk per page it tracks; the per-line `BTreeMap` directory
/// this replaced made 1,742 allocations at the same point and fails
/// this ceiling.
const NUMA_ALLOC_CEILING: u64 = 1_000;

/// Ceiling on allocated bytes for the NUMA point (measured 684,828 B).
/// With 2 KiB timeline chunks the same point allocated 898,076 B, with
/// 16-byte L1/L2 tag entries and on-chip LRU slots (64-bit line keys) as
/// well 1,045,436 B, and with 24-byte directory slots as well
/// 1,110,972 B; all fail this ceiling.
const NUMA_BYTE_CEILING: u64 = 768 << 10;

/// Committed ceiling on live-heap growth inside `Machine::run` for the
/// fig-svc point `1/1AGG75 kv-0.6` (CI scale, 4 threads; measured
/// 1.0 MiB over 166.8M simulated cycles, most of them spent waiting on
/// 2M-cycle disk faults). Resource timelines free their windows behind
/// the engine's pop time; when every window lived until the end of the
/// run, the heap grew 11.8 MiB here, in proportion to simulated time.
const RUN_HEAP_CEILING: u64 = 4 << 20;

/// Allocation calls and bytes of one build-and-run of `point`, after a
/// warm-up run so suite registries, workload tables and other one-time
/// lazy state do not count against the per-point budget.
fn measure(point: &PointSpec) -> (u64, u64) {
    let warm = point.build_machine().run();
    assert!(warm.total_cycles > 0, "the warm-up actually simulated");

    let before = pimdsm_prof::alloc::totals();
    let report = point.build_machine().run();
    let after = pimdsm_prof::alloc::totals();

    assert_eq!(
        warm.total_cycles, report.total_cycles,
        "both runs simulate the same machine"
    );
    (after.allocs - before.allocs, after.bytes - before.bytes)
}

/// Peak live-heap growth of `point` inside `Machine::run`: the peak is
/// rebased to the live heap right after the machine is built.
fn run_heap_growth(point: &PointSpec) -> u64 {
    let mut machine = point.build_machine();
    pimdsm_prof::reset();
    let before = pimdsm_prof::alloc::totals().live_bytes;
    let report = machine.run();
    let peak = pimdsm_prof::alloc::totals().peak_bytes;
    assert!(report.total_cycles > 0, "the point actually simulated");
    peak - before
}

#[test]
fn fig6_point_stays_under_the_committed_alloc_budget() {
    if !pimdsm_prof::alloc::counting_enabled() {
        eprintln!("skipped: count-alloc is not linked in");
        return;
    }

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let points = find("fig6").expect("fig6 suite exists").points(&ctx);
    let point = |app: AppId, label: &str| {
        points
            .iter()
            .find(|p| {
                p.label == label
                    && matches!(p.workload, WorkloadSpec::App { app: a, .. } if a == app)
            })
            .unwrap_or_else(|| panic!("fig6 has the {app:?}:{label} point"))
    };

    for (p, alloc_ceiling, byte_ceiling) in [
        (
            point(AppId::Fft, "1/2AGG75"),
            AGG_ALLOC_CEILING,
            AGG_BYTE_CEILING,
        ),
        (
            point(AppId::Swim, "COMA75"),
            COMA_ALLOC_CEILING,
            COMA_BYTE_CEILING,
        ),
        (
            point(AppId::Swim, "NUMA"),
            NUMA_ALLOC_CEILING,
            NUMA_BYTE_CEILING,
        ),
    ] {
        let (allocs, bytes) = measure(p);
        eprintln!("fig6/{}: {allocs} allocs, {bytes} bytes", p.label);
        assert!(
            allocs <= alloc_ceiling,
            "fig6 point {} made {allocs} allocations (budget {alloc_ceiling}): \
             something on the build or simulation path allocates per line, \
             per event or per transaction again",
            p.label
        );
        assert!(
            bytes <= byte_ceiling,
            "fig6 point {} allocated {bytes} bytes (budget {byte_ceiling})",
            p.label
        );
    }

    let svc = find("fig-svc").expect("fig-svc suite exists").points(&ctx);
    let kv = svc
        .iter()
        .find(|p| p.label == "1/1AGG75 kv-0.6")
        .expect("fig-svc has the 1/1AGG75 kv-0.6 point");
    let growth = run_heap_growth(kv);
    eprintln!("fig-svc/{}: run grew the heap {growth} bytes", kv.label);
    assert!(
        growth <= RUN_HEAP_CEILING,
        "fig-svc point {} grew the live heap {growth} bytes while running \
         (budget {RUN_HEAP_CEILING}): some run-phase storage grows with \
         simulated time again",
        kv.label
    );
}
