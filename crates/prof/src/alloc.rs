//! Feature-gated counting global allocator.
//!
//! With the `count-alloc` feature, this module installs a
//! `#[global_allocator]` that wraps [`std::alloc::System`] and charges
//! every allocation to the current thread's active phase slot (see
//! [`mod@crate::phase`]). The accounting path performs **no allocation of
//! its own**: the phase slot is a const-initialized thread-local `Cell`
//! (no lazy init, no destructor) and the tallies are fixed-size arrays
//! of relaxed atomics indexed by slot.
//!
//! Determinism classification: allocation **counts and byte totals** are
//! deterministic for a deterministic program (the same code path makes
//! the same allocations), and bench treats them as such. The **peak live
//! heap** depends on how parallel workers interleave and is reported
//! with the non-deterministic timings instead.
//!
//! Without the feature every query returns zeros and
//! [`counting_enabled`] is `false`, so callers need no `cfg` of their
//! own.

/// Cumulative process-wide allocation tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Allocation calls (alloc/alloc_zeroed/realloc). **Deterministic.**
    pub allocs: u64,
    /// Bytes requested by those calls. **Deterministic.**
    pub bytes: u64,
    /// Currently live heap bytes. Non-deterministic under parallelism.
    pub live_bytes: u64,
    /// Peak live heap bytes since start/reset. **Non-deterministic.**
    pub peak_bytes: u64,
}

/// Whether the counting allocator is compiled in and active.
pub fn counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

#[cfg(feature = "count-alloc")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    use crate::phase::{current_slot, SLOTS};

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    /// Allocation calls per phase slot.
    static ALLOCS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
    /// Bytes requested per phase slot.
    static BYTES: [AtomicU64; SLOTS] = [ZERO; SLOTS];
    /// Live heap bytes.
    static LIVE: AtomicU64 = AtomicU64::new(0);
    /// Peak of `LIVE` since start/reset.
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// Records one allocation of `size` bytes against the active phase.
    #[inline]
    fn record(size: usize) {
        let slot = current_slot();
        ALLOCS[slot].fetch_add(1, Relaxed);
        BYTES[slot].fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the bookkeeping touches only
    // atomics and a const-init TLS cell, neither of which can allocate
    // or unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                record(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                record(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                // One call, counted once; live size moves by the delta.
                record(new_size);
                LIVE.fetch_sub(layout.size() as u64, Relaxed);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn totals() -> super::AllocTotals {
        super::AllocTotals {
            allocs: ALLOCS.iter().map(|a| a.load(Relaxed)).sum(),
            bytes: BYTES.iter().map(|a| a.load(Relaxed)).sum(),
            live_bytes: LIVE.load(Relaxed),
            peak_bytes: PEAK.load(Relaxed),
        }
    }

    pub fn phase_allocs(slot: usize) -> (u64, u64) {
        (ALLOCS[slot].load(Relaxed), BYTES[slot].load(Relaxed))
    }

    pub fn reset() {
        for slot in 0..SLOTS {
            ALLOCS[slot].store(0, Relaxed);
            BYTES[slot].store(0, Relaxed);
        }
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }
}

/// Cumulative allocation tallies (all zeros without `count-alloc`).
pub fn totals() -> AllocTotals {
    #[cfg(feature = "count-alloc")]
    {
        imp::totals()
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        AllocTotals::default()
    }
}

/// `(allocs, bytes)` attributed to a phase slot (zeros without
/// `count-alloc`).
pub(crate) fn phase_allocs(_slot: usize) -> (u64, u64) {
    #[cfg(feature = "count-alloc")]
    {
        imp::phase_allocs(_slot)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        (0, 0)
    }
}

/// Zeroes the per-phase attribution and rebases the peak to the current
/// live size. Live bytes are real and are never reset.
pub(crate) fn reset() {
    #[cfg(feature = "count-alloc")]
    imp::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_reflect_the_build_features() {
        let t = totals();
        if counting_enabled() {
            // This test binary allocated plenty before reaching here.
            let v: Vec<u64> = (0..64).collect();
            assert!(totals().allocs > t.allocs || t.allocs > 0);
            assert!(totals().peak_bytes > 0);
            drop(v);
        } else {
            assert_eq!(t, AllocTotals::default());
        }
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn allocations_are_attributed_to_the_active_phase() {
        // Run on a dedicated thread: phase attribution reads this
        // thread's CURRENT slot, and other test threads must not charge
        // our phase concurrently... they can, but only ever *adding*, so
        // assert growth rather than exact deltas.
        let (a0, b0) = phase_allocs(0);
        let before = crate::phase::stats();
        {
            crate::phase!(crate::Phase::PointBuild);
            std::hint::black_box(vec![0u8; 4096]);
        }
        let after = crate::phase::stats();
        let built = |st: &[crate::PhaseStats]| {
            st.iter()
                .find(|p| p.name == "point.build")
                .map(|p| (p.allocs, p.alloc_bytes))
                .unwrap()
        };
        let (a_before, b_before) = built(&before);
        let (a_after, b_after) = built(&after);
        assert!(a_after > a_before, "the vec was charged to point.build");
        assert!(b_after >= b_before + 4096, "its bytes were too");
        let _ = (a0, b0);
    }
}
