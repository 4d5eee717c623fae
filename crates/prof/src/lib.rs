//! Host-side performance observability for the simulator itself.
//!
//! PR 1 gave the repository *simulated-time* observability (tracing,
//! epoch metrics); this crate is the symmetric *wall-clock* layer: it
//! measures the simulator as a program — how fast the event loop drains,
//! where the orchestrator spends its time, what allocates. It is a leaf
//! crate with no dependencies so that the engine, the protocols and the
//! lab can all feed it without cycles.
//!
//! # The determinism split
//!
//! Everything here is strictly partitioned into two kinds of data, and
//! the partition is part of the crate's contract:
//!
//! * **Deterministic counters** ([`counters`], plus the per-phase
//!   `enters` and allocation attribution) count *what the program did* —
//!   events popped, transaction walks finished, allocations made. For a
//!   deterministic simulator these are byte-identical across repeated
//!   runs of the same configuration, and `pimdsm-lab bench` asserts as
//!   much (`tests/determinism.rs`).
//! * **Non-deterministic timings** (the `wall_ns` of [`phase!`] scopes,
//!   peak live heap bytes) measure *how long / how big it happened to
//!   be* on this machine, this run. They are kept in separately named
//!   fields and never mixed into the deterministic set.
//!
//! Nothing in this crate feeds back into simulation: counters are
//! observed, never read by sim code, so enabling profiling (including
//! the `count-alloc` allocator) cannot change a single simulated cycle.
//! `tests/determinism.rs` guards that with exact event-sequence
//! comparisons.
//!
//! # Phases
//!
//! A *phase* is a named wall-clock scope entered with the [`phase!`]
//! macro. Phases are the closed [`Phase`] enum, so a misspelled phase
//! does not compile, and the `count-alloc` allocator can attribute
//! allocations to the active phase with a fixed-size atomic table
//! indexed by variant and no allocation of its own.

pub mod alloc;
pub mod counters;
pub mod phase;

pub use alloc::AllocTotals;
pub use counters::Snapshot;
pub use phase::{Phase, PhaseStats};

/// Attributes the rest of the enclosing block to a profiler [`Phase`].
///
/// Expands to a scope guard: the phase is active until the end of the
/// enclosing block, wall time and an enter count are recorded on drop,
/// and (with the `count-alloc` feature) allocations made while the phase
/// is active on this thread are attributed to it.
///
/// ```
/// use pimdsm_prof::Phase;
///
/// fn render() {
///     pimdsm_prof::phase!(Phase::SuiteRender);
///     // ... work attributed to "suite.render" ...
/// }
/// ```
///
/// A phase name is not a phase, so a typo cannot reach run time:
///
/// ```compile_fail,E0308
/// pimdsm_prof::phase!("point.rnu");
/// ```
#[macro_export]
macro_rules! phase {
    ($phase:expr) => {
        let _pimdsm_prof_phase_guard = $crate::phase::enter($phase);
    };
}

/// Resets every global profiling aggregate: per-phase enter counts and
/// wall times, and (when counting) the per-phase allocation attribution,
/// with the live-heap peak rebased to the current live size. Thread-local
/// [`counters`] are unaffected. `pimdsm-lab bench` calls this between
/// measured runs.
pub fn reset() {
    phase::reset();
    alloc::reset();
}
