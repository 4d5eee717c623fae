//! Hierarchical wall-clock phase timers.
//!
//! A phase is a [`Phase`] scope entered via [`crate::phase!`]. Scopes
//! nest: entering a child remembers the parent and restores it on drop,
//! and a phase's recorded wall time is *inclusive* of its children (the
//! timer runs for the whole scope). Per phase, the crate accumulates an
//! **enter count** (deterministic) and **wall nanoseconds**
//! (non-deterministic, explicitly so-named); with the `count-alloc`
//! feature, allocations made while a phase is active on a thread are
//! attributed to it (see [`crate::alloc`]).
//!
//! Phases are a closed vocabulary: the [`Phase`] enum. Its variant index
//! is what makes the allocator's attribution allocation-free (a
//! fixed-size atomic array indexed by phase slot), its name order is
//! what gives bench reports a stable schema, and a misspelled phase is a
//! compile error. To add a phase: add a variant in name order, extend
//! [`Phase::ALL`] and [`Phase::name`], then enter it from exactly one
//! subsystem.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the phase timer reads the wall clock into WALL_NS, which only stats() reads back; sim crates name only phase! and Phase::SvcBuild here"
)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A profiler phase. Declared in name order, so slot order, bench
/// documents and [`Phase::ALL`] all list the phases sorted by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `pimdsm-lab bench`'s measured runs.
    BenchMeasure,
    /// Building one point's machine and workload.
    PointBuild,
    /// Running one point's machine.
    PointRun,
    /// A suite's point sweep.
    SuitePoints,
    /// A suite's text render.
    SuiteRender,
    /// Building a service workload.
    SvcBuild,
}

impl Phase {
    /// Every phase, in declaration (= name) order.
    pub const ALL: [Phase; 6] = [
        Phase::BenchMeasure,
        Phase::PointBuild,
        Phase::PointRun,
        Phase::SuitePoints,
        Phase::SuiteRender,
        Phase::SvcBuild,
    ];

    /// The phase's name in bench documents.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::BenchMeasure => "bench.measure",
            Phase::PointBuild => "point.build",
            Phase::PointRun => "point.run",
            Phase::SuitePoints => "suite.points",
            Phase::SuiteRender => "suite.render",
            Phase::SvcBuild => "svc.build",
        }
    }

    /// Attribution slot: the variant's index + 1 (slot 0 is unphased).
    const fn slot(self) -> usize {
        self as usize + 1
    }
}

/// Attribution slots: one per phase plus slot 0 for code running outside
/// any phase.
pub(crate) const SLOTS: usize = Phase::ALL.len() + 1;

/// Display name of an attribution slot.
pub(crate) fn slot_name(slot: usize) -> &'static str {
    if slot == 0 {
        "(unphased)"
    } else {
        Phase::ALL[slot - 1].name()
    }
}

std::thread_local! {
    /// The active phase slot of this thread (0 = no phase). Const-init
    /// `Cell` so the allocator may read it with no lazy initialization
    /// and no destructor.
    static CURRENT: Cell<usize> = const { Cell::new(0) };
}

/// The current thread's active attribution slot (for the allocator).
#[cfg_attr(not(feature = "count-alloc"), allow(dead_code))]
#[inline]
pub(crate) fn current_slot() -> usize {
    CURRENT.try_with(Cell::get).unwrap_or(0)
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Times each phase was entered, by slot. Deterministic.
static ENTERS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
/// Inclusive wall nanoseconds per phase, by slot. NON-deterministic.
static WALL_NS: [AtomicU64; SLOTS] = [ZERO; SLOTS];

/// An active phase scope; records on drop and restores the parent phase.
#[derive(Debug)]
pub struct PhaseGuard {
    slot: usize,
    prev: usize,
    start: Instant,
}

/// Enters `phase` on the current thread until the guard drops. Prefer
/// the [`crate::phase!`] macro, which holds the guard to the end of the
/// enclosing block.
pub fn enter(phase: Phase) -> PhaseGuard {
    let slot = phase.slot();
    let prev = CURRENT.with(|c| c.replace(slot));
    PhaseGuard {
        slot,
        prev,
        start: Instant::now(),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        ENTERS[self.slot].fetch_add(1, Relaxed);
        WALL_NS[self.slot].fetch_add(ns, Relaxed);
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Aggregate statistics of one phase (or of the `(unphased)` slot 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// [`Phase::name`], or `"(unphased)"`.
    pub name: &'static str,
    /// Times the phase was entered. **Deterministic.**
    pub enters: u64,
    /// Inclusive wall nanoseconds inside the phase. **Non-deterministic.**
    pub wall_ns: u64,
    /// Allocations attributed while active (0 without `count-alloc`).
    /// **Deterministic** for a deterministic program.
    pub allocs: u64,
    /// Bytes requested by those allocations. **Deterministic.**
    pub alloc_bytes: u64,
}

/// Snapshot of every slot's aggregates, `(unphased)` first, then the
/// phases in [`Phase::ALL`] order.
pub fn stats() -> Vec<PhaseStats> {
    (0..SLOTS)
        .map(|slot| {
            let (allocs, alloc_bytes) = crate::alloc::phase_allocs(slot);
            PhaseStats {
                name: slot_name(slot),
                enters: ENTERS[slot].load(Relaxed),
                wall_ns: WALL_NS[slot].load(Relaxed),
                allocs,
                alloc_bytes,
            }
        })
        .collect()
}

/// Zeroes every slot's enter count and wall time.
pub(crate) fn reset() {
    for slot in 0..SLOTS {
        ENTERS[slot].store(0, Relaxed);
        WALL_NS[slot].store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_sorted_by_unique_name_and_slotted_by_index() {
        assert!(
            Phase::ALL.windows(2).all(|w| w[0].name() < w[1].name()),
            "sorted, no dups"
        );
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.slot(), i + 1);
            assert_eq!(slot_name(p.slot()), p.name());
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        // Tests share the process-global table, so assert deltas only on
        // this thread's CURRENT slot, which is test-local.
        assert_eq!(current_slot(), 0);
        {
            crate::phase!(Phase::PointBuild);
            let outer = current_slot();
            assert_eq!(slot_name(outer), "point.build");
            {
                crate::phase!(Phase::PointRun);
                assert_eq!(slot_name(current_slot()), "point.run");
            }
            assert_eq!(current_slot(), outer, "child restores parent");
        }
        assert_eq!(current_slot(), 0, "outermost scope restores unphased");
    }

    #[test]
    fn stats_cover_every_slot_in_order() {
        let st = stats();
        assert_eq!(st.len(), Phase::ALL.len() + 1);
        assert_eq!(st[0].name, "(unphased)");
        for (s, p) in st[1..].iter().zip(Phase::ALL) {
            assert_eq!(s.name, p.name());
        }
    }
}
