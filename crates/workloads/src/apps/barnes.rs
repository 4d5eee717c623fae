//! Barnes (SPLASH-2): Barnes-Hut N-body, 16K bodies.
//!
//! Each step alternates a *tree build* phase — lock-protected scattered
//! writes into the shared octree — and a *force computation* phase where
//! every thread gathers tree cells with a strongly skewed (Zipf) reuse
//! pattern: cells near the root are read by everyone, leaves rarely. The
//! skew gives large read-sharing working sets that reward big caching
//! space.

use pimdsm_engine::{SimRng, Zipf};

use crate::layout::{Layout, Region};
use crate::ops::{partition, Batch, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload};

/// The Barnes workload model.
#[derive(Debug, Clone)]
pub struct Barnes {
    threads: usize,
    bodies: u64,
    body_bytes: u64,
    steps: u32,
    tree_cells: u64,
    cell_bytes: u64,
    bodies_region: Region,
    tree: Region,
    footprint: u64,
    zipf: Zipf,
    seed: u64,
}

impl Barnes {
    /// Builds an N-body run over `bodies` bodies and `steps` time steps.
    ///
    /// # Panics
    ///
    /// Panics if there are too few bodies per thread.
    pub fn new(threads: usize, bodies: u64, steps: u32) -> Self {
        assert!(threads > 0);
        assert!(bodies >= threads as u64 * 32, "too few bodies per thread");
        let body_bytes = 128;
        let tree_cells = (bodies / 2).max(256);
        let cell_bytes = 64;
        let mut l = Layout::new();
        let bodies_region = l.alloc(bodies * body_bytes);
        let tree = l.alloc(tree_cells * cell_bytes);
        Barnes {
            threads,
            bodies,
            body_bytes,
            steps,
            tree_cells,
            cell_bytes,
            bodies_region,
            tree,
            footprint: l.footprint(),
            zipf: Zipf::new(tree_cells as usize, 1.1),
            seed: 0xBA41E5,
        }
    }
}

impl Barnes {
    /// Number of cells in the shared tree region.
    pub fn tree_cells(&self) -> u64 {
        self.tree_cells
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Build,
    Force,
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        8
    }

    fn l2_kb(&self) -> u64 {
        32
    }

    /// Bodies and the initial tree are built by the main thread before
    /// the time steps begin (SPLASH-2 Barnes), homing their pages at
    /// thread 0's node under first-touch.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        vec![
            PreloadRegion {
                base: self.bodies_region.base(),
                bytes: self.bodies_region.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
            PreloadRegion {
                base: self.tree.base(),
                bytes: self.tree.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
        ]
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let app = self.clone();
        let (b0, blen) = partition(app.bodies, app.threads, tid);
        let chunk = 32u64.min(blen);
        let mut rng = SimRng::new(app.seed ^ (tid as u64 + 1).wrapping_mul(0x9E37));
        let mut step = 0u32;
        let mut phase = Phase::Build;
        let mut pos = 0u64;
        let mut barrier = 0u32;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if step >= app.steps {
                return false;
            }
            let n = chunk.min(blen - pos);
            let my_bodies = app.bodies_region.base() + (b0 + pos) * app.body_bytes;
            match phase {
                Phase::Build => {
                    // Read own bodies, insert into the shared tree:
                    // lock-protected writes to Zipf-distributed cells.
                    out.push(Op::LoadBatch {
                        base: my_bodies,
                        stride: app.body_bytes as u32,
                        count: n as u32,
                    });
                    out.push(Op::Compute(40 * n));
                    let mut addrs = [0u64; 16];
                    let na = n.min(16) as usize;
                    for a in &mut addrs[..na] {
                        let cell = app.zipf.sample(&mut rng) as u64;
                        *a = app.tree.at(cell * app.cell_bytes);
                    }
                    let lock = (rng.range(0, 64)) as u32;
                    out.push(Op::Lock(lock));
                    out.push(Op::Scatter(Batch::new(&addrs[..na])));
                    out.push(Op::Unlock(lock));
                }
                Phase::Force => {
                    // For each own body gather ~12 tree cells (Zipf) and
                    // compute the interaction, then update the body.
                    out.push(Op::LoadBatch {
                        base: my_bodies,
                        stride: app.body_bytes as u32,
                        count: n as u32,
                    });
                    for _ in 0..n {
                        let mut addrs = [0u64; 12];
                        for a in &mut addrs {
                            let cell = app.zipf.sample(&mut rng) as u64;
                            *a = app.tree.at(cell * app.cell_bytes);
                        }
                        out.push(Op::Gather(Batch::new(&addrs)));
                        out.push(Op::Compute(120));
                    }
                    out.push(Op::StoreBatch {
                        base: my_bodies,
                        stride: app.body_bytes as u32,
                        count: n as u32,
                    });
                }
            }
            pos += n;
            if pos >= blen {
                pos = 0;
                out.push(Op::Barrier(barrier));
                barrier += 1;
                phase = match phase {
                    Phase::Build => Phase::Force,
                    Phase::Force => {
                        step += 1;
                        Phase::Build
                    }
                };
            }
            true
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &Barnes, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 2_000_000);
        }
        v
    }

    #[test]
    fn two_barriers_per_step() {
        let w = Barnes::new(4, 1024, 3);
        let n = drain(&w, 2)
            .iter()
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count();
        assert_eq!(n, 6);
    }

    #[test]
    fn tree_reads_are_skewed() {
        let w = Barnes::new(2, 512, 1);
        let ops = drain(&w, 0);
        let mut counts = std::collections::BTreeMap::new();
        for op in &ops {
            if let Op::Gather(b) = op {
                for &a in b.addrs() {
                    *counts.entry(a).or_insert(0u32) += 1;
                }
            }
        }
        assert!(!counts.is_empty());
        let max = counts.values().max().copied().unwrap();
        let mean = counts.values().sum::<u32>() as f64 / counts.len() as f64;
        assert!(
            max as f64 > mean * 3.0,
            "expected skew: max {max} vs mean {mean:.1}"
        );
    }

    #[test]
    fn gathers_stay_in_tree_region() {
        let w = Barnes::new(2, 512, 1);
        for op in drain(&w, 1) {
            if let Op::Gather(b) = op {
                for &a in b.addrs() {
                    assert!(a >= w.tree.base() && a < w.tree.base() + w.tree.bytes());
                }
            }
        }
    }

    #[test]
    fn per_thread_streams_differ_but_are_deterministic() {
        let w = Barnes::new(2, 512, 1);
        assert_eq!(drain(&w, 0), drain(&w, 0));
        assert_ne!(drain(&w, 0), drain(&w, 1));
    }
}
