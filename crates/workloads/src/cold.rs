//! Cold-data wrapper: gives a workload the footprint-vs-active-set ratio
//! of real applications.
//!
//! The paper's memory pressure is *mapped footprint* over machine DRAM,
//! and its applications map considerably more memory than they actively
//! sweep (whole tables of which a query reads a few columns, auxiliary
//! arrays, allocator slack). Our synthetic generators re-reference their
//! entire layout, so sizing machines against that alone would overstate
//! pressure on the caching memories. [`WithColdData`] appends a cold
//! region that is populated (via [`Workload::preload_regions`]) before
//! the measured run begins, sitting in the backing memories exactly like
//! the "D-Node Only" population of Figure 8 — restoring a realistic
//! active:mapped ratio without simulating initialization traffic the
//! paper also excludes from its measurement window.

use pimdsm_mem::PAGE_BYTES;

use crate::layout::Region;
use crate::ops::{PreloadRegion, ThreadGen, Workload};

/// A workload plus a once-written cold region.
pub struct WithColdData {
    inner: Box<dyn Workload>,
    cold: Region,
    participants: usize,
}

impl WithColdData {
    /// Wraps `inner`, appending `factor` × its footprint of cold data.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn new(inner: Box<dyn Workload>, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "bad cold factor");
        let base = inner.footprint_bytes();
        let cold_bytes = ((base as f64 * factor) as u64).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        // Leave a guard page between the inner layout and the cold region.
        let cold_base = base.div_ceil(PAGE_BYTES) * PAGE_BYTES + PAGE_BYTES;
        let participants = (0..inner.threads())
            .filter(|&t| !inner.delayed_start(t))
            .count();
        WithColdData {
            inner,
            cold: Region::from_raw(cold_base, cold_bytes),
            participants,
        }
    }

    /// The cold region (tests).
    pub fn cold_region(&self) -> Region {
        self.cold
    }
}

impl Workload for WithColdData {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn footprint_bytes(&self) -> u64 {
        self.cold.base() + self.cold.bytes()
    }

    fn l1_kb(&self) -> u64 {
        self.inner.l1_kb()
    }

    fn l2_kb(&self) -> u64 {
        self.inner.l2_kb()
    }

    fn reconfig_barrier(&self) -> Option<u32> {
        self.inner.reconfig_barrier()
    }

    fn barrier_width(&self, id: u32) -> usize {
        self.inner.barrier_width(id)
    }

    fn delayed_start(&self, tid: usize) -> bool {
        self.inner.delayed_start(tid)
    }

    fn preload_regions(&self) -> Vec<PreloadRegion> {
        let mut regions = self.inner.preload_regions();
        if self.cold.bytes() >= 64 {
            for tid in 0..self.participants {
                let slice = self.cold.split(self.participants, tid);
                if slice.bytes() >= 64 {
                    regions.push(PreloadRegion {
                        base: slice.base(),
                        bytes: slice.bytes(),
                        owner_tid: tid,
                        kind: crate::ops::PreloadKind::ColdPrivate,
                    });
                }
            }
        }
        regions
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        self.inner.spawn(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::PrivateStream;

    fn wrapped(factor: f64) -> WithColdData {
        WithColdData::new(Box::new(PrivateStream::new(2, 8192, 1)), factor)
    }

    #[test]
    fn footprint_grows_by_factor() {
        let plain = PrivateStream::new(2, 8192, 1).footprint_bytes();
        let w = wrapped(1.0);
        assert!(w.footprint_bytes() >= plain * 2);
    }

    #[test]
    fn preload_regions_cover_cold_region() {
        let w = wrapped(1.0);
        let cold = w.cold_region();
        let regions = w.preload_regions();
        assert_eq!(regions.len(), 2);
        let total: u64 = regions.iter().map(|r| r.bytes).sum();
        assert_eq!(total, cold.bytes());
        assert_eq!(regions[0].base, cold.base());
        assert_eq!(regions[0].owner_tid, 0);
        assert_eq!(regions[1].owner_tid, 1);
    }

    #[test]
    fn cold_region_beyond_inner_footprint() {
        let inner = PrivateStream::new(2, 8192, 1);
        let inner_fp = inner.footprint_bytes();
        let w = WithColdData::new(Box::new(inner), 0.5);
        assert!(w.cold_region().base() >= inner_fp);
    }

    #[test]
    fn zero_factor_adds_nothing() {
        let w = wrapped(0.0);
        assert!(w.preload_regions().is_empty());
        let mut g = w.spawn(0);
        assert!(g.next_op().is_some());
    }

    #[test]
    fn inner_metadata_passes_through() {
        let w = wrapped(1.0);
        assert_eq!(w.name(), "PrivateStream");
        assert_eq!(w.threads(), 2);
        assert_eq!(w.l1_kb(), 8);
        assert_eq!(w.reconfig_barrier(), None);
        assert_eq!(w.barrier_width(0), 2);
    }
}
