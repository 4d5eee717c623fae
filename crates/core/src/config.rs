//! Machine sizing rules (Section 3 of the paper).
//!
//! All compared machines hold the *same total DRAM* and run the same
//! number of application threads. The swept parameter is **memory
//! pressure** — application footprint divided by total DRAM (25%, 50% or
//! 75%). For AGG, half the memory lives in P-nodes and half in D-nodes
//! whatever the D:P ratio (1/1AGG: 32+32 equal nodes; 1/4AGG: 8 D-nodes
//! with 4× the memory each), which matches the paper's "keep total memory
//! constant while varying the ratio".

use pimdsm_mem::{CacheCfg, LINE_BYTES};
use pimdsm_proto::{AggCfg, ComaCfg, NumaCfg};
use pimdsm_workloads::Workload;

/// Which architecture to build, with its architecture-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchSpec {
    /// CC-NUMA baseline: one node per thread, double-width links.
    Numa,
    /// Flat COMA baseline: one node per thread, double-width links.
    Coma,
    /// AGG with one P-node per thread and `n_d` D-nodes.
    Agg {
        /// Number of D-nodes.
        n_d: usize,
    },
    /// AGG with explicit per-node memory sizing (Figure 9 keeps total
    /// D-memory fixed while node counts vary).
    AggExplicit {
        /// Number of D-nodes.
        n_d: usize,
        /// Lines of tagged local memory per P-node.
        p_am_lines: u64,
        /// Data-array lines per D-node.
        d_data_lines: u64,
    },
}

impl ArchSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArchSpec::Numa => "NUMA",
            ArchSpec::Coma => "COMA",
            ArchSpec::Agg { .. } | ArchSpec::AggExplicit { .. } => "AGG",
        }
    }
}

/// Fully resolved sizing for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCfg {
    /// Application threads (= compute nodes).
    pub threads: usize,
    /// Total machine DRAM, in lines.
    pub total_mem_lines: u64,
    /// L1 size in bytes after clamping.
    pub l1_bytes: u64,
    /// L2 size in bytes after clamping.
    pub l2_bytes: u64,
}

/// Rounds `lines` up to a valid 4-way set-associative capacity.
fn round_cache_lines(lines: u64, ways: u64) -> u64 {
    lines.div_ceil(ways).max(1) * ways
}

/// Computes the resolved sizing for a workload at a pressure.
///
/// Cache sizes start from the application's Table 3 values but are
/// clamped so the hierarchy stays inclusive when problem sizes are scaled
/// down: L2 is at most half the per-P-node local memory (the paper's own
/// FFT configuration has local memory only ~1.3× L2), and L1 at most half
/// of L2.
pub fn resolve(workload: &dyn Workload, pressure: f64) -> MachineCfg {
    assert!(
        pressure > 0.0 && pressure <= 1.0,
        "memory pressure must be in (0, 1]"
    );
    let threads = workload.threads();
    let footprint_lines = workload.footprint_bytes().div_ceil(LINE_BYTES);
    let total = ((footprint_lines as f64 / pressure).ceil() as u64).max(threads as u64 * 64);

    // Clamp caches against the smallest local memory they will coexist
    // with: the AGG 1/1 P-node memory at 75% pressure.
    let worst_total = ((footprint_lines as f64 / 0.75).ceil() as u64).max(threads as u64 * 64);
    let worst_p_am_bytes = worst_total / 2 / threads as u64 * LINE_BYTES;
    let l2_bytes = (workload.l2_kb() * 1024)
        .min(worst_p_am_bytes / 2)
        .max(2048);
    let l1_bytes = (workload.l1_kb() * 1024).min(l2_bytes / 2).max(1024);
    // Round to valid geometries (L1 direct-mapped, L2 4-way).
    let l1_bytes = round_cache_lines(l1_bytes / LINE_BYTES, 1) * LINE_BYTES;
    let l2_bytes = round_cache_lines(l2_bytes / LINE_BYTES, 4) * LINE_BYTES;

    MachineCfg {
        threads,
        total_mem_lines: total,
        l1_bytes,
        l2_bytes,
    }
}

impl MachineCfg {
    fn l1(&self) -> CacheCfg {
        CacheCfg::new(self.l1_bytes, 1)
    }

    fn l2(&self) -> CacheCfg {
        CacheCfg::new(self.l2_bytes, 4)
    }

    /// Builds the NUMA system configuration.
    pub fn numa(&self) -> NumaCfg {
        let node_lines = round_cache_lines(self.total_mem_lines / self.threads as u64, 1);
        let mut cfg = NumaCfg::paper(self.threads, 1, 1, node_lines);
        cfg.l1 = self.l1();
        cfg.l2 = self.l2();
        cfg
    }

    /// Builds the COMA system configuration.
    pub fn coma(&self) -> ComaCfg {
        let node_lines = round_cache_lines(self.total_mem_lines / self.threads as u64, 4);
        let mut cfg = ComaCfg::paper(self.threads, 1, 1, node_lines);
        cfg.l1 = self.l1();
        cfg.l2 = self.l2();
        cfg.am = CacheCfg::new(node_lines * LINE_BYTES, 4).with_hashed_index();
        cfg
    }

    /// Builds the AGG system configuration: half the memory in P-nodes,
    /// half in D-nodes.
    pub fn agg(&self, n_d: usize) -> AggCfg {
        let p_am = round_cache_lines(self.total_mem_lines / 2 / self.threads as u64, 4);
        let d_data = (self.total_mem_lines / 2 / n_d as u64).max(8 * 64);
        self.agg_explicit(n_d, p_am, d_data)
    }

    /// Builds an AGG configuration with explicit per-node memory sizes.
    pub fn agg_explicit(&self, n_d: usize, p_am_lines: u64, d_data_lines: u64) -> AggCfg {
        let p_am = round_cache_lines(p_am_lines, 4);
        let mut cfg = AggCfg::paper(self.threads, n_d, 1, 1, p_am.max(8), d_data_lines.max(16));
        cfg.p_am = cfg.p_am.with_hashed_index();
        cfg.l1 = self.l1();
        cfg.l2 = self.l2();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdsm_workloads::{build, AppId, Scale};

    #[test]
    fn pressure_scales_total_memory() {
        let w = build(AppId::Fft, 4, Scale::ci());
        let hi = resolve(&*w, 0.75);
        let lo = resolve(&*w, 0.25);
        assert!(lo.total_mem_lines > hi.total_mem_lines * 2);
        // Caches identical across pressures.
        assert_eq!(hi.l1_bytes, lo.l1_bytes);
        assert_eq!(hi.l2_bytes, lo.l2_bytes);
    }

    #[test]
    fn caches_fit_under_local_memory() {
        for app in pimdsm_workloads::ALL_APPS {
            let w = build(app, 4, Scale::ci());
            let cfg = resolve(&*w, 0.75);
            let agg = cfg.agg(4);
            assert!(
                agg.l2.size_bytes() <= agg.p_am.size_bytes(),
                "{app:?}: L2 {} > AM {}",
                agg.l2.size_bytes(),
                agg.p_am.size_bytes()
            );
            assert!(agg.l1.size_bytes() <= agg.l2.size_bytes());
        }
    }

    #[test]
    fn total_memory_matches_across_archs() {
        let w = build(AppId::Radix, 8, Scale::ci());
        let cfg = resolve(&*w, 0.5);
        let numa_total = cfg.numa().node_mem_lines * 8;
        let coma_total = cfg.coma().am.capacity_lines() * 8;
        let agg = cfg.agg(8);
        let agg_total = agg.p_am.capacity_lines() * 8 + agg.dnode.data_lines * 8;
        let spread = |a: u64, b: u64| (a as f64 / b as f64 - 1.0).abs();
        assert!(spread(numa_total, coma_total) < 0.05);
        assert!(spread(numa_total, agg_total) < 0.05);
    }

    #[test]
    fn agg_ratio_keeps_total_d_memory() {
        // bench scale: large enough that the 8-page D-node floor is moot.
        let w = build(AppId::Swim, 8, Scale::bench());
        let cfg = resolve(&*w, 0.75);
        let one_one = cfg.agg(8);
        let one_four = cfg.agg(2);
        let a = one_one.dnode.data_lines * 8;
        let b = one_four.dnode.data_lines * 2;
        assert!(
            a.abs_diff(b) <= 8,
            "total D memory constant across ratios up to rounding: {a} vs {b}"
        );
    }

    #[test]
    #[should_panic(expected = "pressure")]
    fn rejects_bad_pressure() {
        let w = build(AppId::Fft, 2, Scale::ci());
        resolve(&*w, 0.0);
    }
}
