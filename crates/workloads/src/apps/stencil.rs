//! Generic row-partitioned iterative stencil, modeling Ocean (SPLASH-2),
//! Swim and Tomcatv (SPEC95, SUIF-parallelized).
//!
//! All three codes sweep 2D grids partitioned by blocks of rows: each
//! iteration reads a thread's own rows plus the boundary rows of its
//! neighbours (nearest-neighbour sharing), computes, writes its own rows,
//! and barriers. They differ in grid size, number of arrays, compute
//! density, and whether a global reduction (Tomcatv's error norm)
//! serializes on a lock each iteration.

use crate::layout::{Layout, Region};
use crate::ops::{partition, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload};

/// Parameters of a stencil application.
#[derive(Debug, Clone, Copy)]
pub struct StencilCfg {
    /// Application name.
    pub name: &'static str,
    /// Grid rows.
    pub rows: u64,
    /// Bytes per row per array.
    pub row_bytes: u64,
    /// Number of grid arrays swept per iteration.
    pub arrays: usize,
    /// Outer iterations.
    pub iters: u32,
    /// Compute cycles per row per array.
    pub compute_per_row: u64,
    /// Whether each iteration ends with a lock-protected global reduction.
    pub reduction: bool,
    /// How many of the arrays one thread initialized before the measured
    /// region (0 = fully parallel init). SUIF-parallelized SPEC95 codes
    /// keep their serial initialization loops (all arrays); SPLASH-2
    /// Ocean initializes its read-mostly coefficient grids in the master
    /// thread. Serially-initialized pages first-touch — and in CC-NUMA,
    /// home — at thread 0's node.
    pub serial_init_arrays: usize,
    /// L1 KiB (Table 3).
    pub l1_kb: u64,
    /// L2 KiB (Table 3).
    pub l2_kb: u64,
}

/// A built stencil workload.
#[derive(Debug, Clone)]
pub struct Stencil {
    cfg: StencilCfg,
    threads: usize,
    arrays: Vec<Region>,
    reduction_cell: u64,
    footprint: u64,
}

impl Stencil {
    /// Lays out the grid arrays and builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the number of rows.
    pub fn new(cfg: StencilCfg, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(
            threads as u64 <= cfg.rows,
            "more threads ({threads}) than rows ({})",
            cfg.rows
        );
        let mut l = Layout::new();
        let arrays: Vec<Region> = (0..cfg.arrays)
            .map(|_| l.alloc(cfg.rows * cfg.row_bytes))
            .collect();
        let red = l.alloc(64);
        Stencil {
            cfg,
            threads,
            arrays,
            reduction_cell: red.base(),
            footprint: l.footprint(),
        }
    }

    fn row_addr(&self, array: usize, row: u64) -> u64 {
        self.arrays[array].at(row * self.cfg.row_bytes)
    }
}

impl Workload for Stencil {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        self.cfg.l1_kb
    }

    fn l2_kb(&self) -> u64 {
        self.cfg.l2_kb
    }

    fn preload_regions(&self) -> Vec<PreloadRegion> {
        self.arrays
            .iter()
            .rev()
            .take(self.cfg.serial_init_arrays)
            .map(|r| PreloadRegion {
                base: r.base(),
                bytes: r.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            })
            .collect()
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads, "thread {tid} out of range");
        let app = self.clone();
        let (row0, nrows) = partition(app.cfg.rows, app.threads, tid);
        let lines_per_row = (app.cfg.row_bytes / 64).max(1) as u32;
        let mut iter = 0u32;
        let mut row = 0u64;
        let mut barrier_id = 0u32;
        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if iter >= app.cfg.iters {
                return false;
            }
            let r = row0 + row;
            // Read own row of every array, plus neighbour boundary rows.
            for a in 0..app.cfg.arrays {
                out.push(Op::LoadBatch {
                    base: app.row_addr(a, r),
                    stride: 64,
                    count: lines_per_row,
                });
            }
            if row == 0 && r > 0 {
                out.push(Op::LoadBatch {
                    base: app.row_addr(0, r - 1),
                    stride: 64,
                    count: lines_per_row,
                });
            }
            if row == nrows - 1 && r + 1 < app.cfg.rows {
                out.push(Op::LoadBatch {
                    base: app.row_addr(0, r + 1),
                    stride: 64,
                    count: lines_per_row,
                });
            }
            out.push(Op::Compute(app.cfg.compute_per_row * app.cfg.arrays as u64));
            // Write own row of the first half of the arrays (outputs).
            for a in 0..(app.cfg.arrays / 2).max(1) {
                out.push(Op::StoreBatch {
                    base: app.row_addr(a, r),
                    stride: 64,
                    count: lines_per_row,
                });
            }

            row += 1;
            if row == nrows {
                row = 0;
                if app.cfg.reduction {
                    out.push(Op::Lock(0));
                    out.push(Op::Load(app.reduction_cell));
                    out.push(Op::Compute(20));
                    out.push(Op::Store(app.reduction_cell));
                    out.push(Op::Unlock(0));
                }
                out.push(Op::Barrier(barrier_id));
                barrier_id += 1;
                iter += 1;
            }
            true
        }))
    }
}

/// Ocean: 256×256 current simulation (Table 3), ~5 working arrays.
pub fn ocean(threads: usize, size_div: u64, iter_div: u64) -> Stencil {
    let rows = (256 / size_div.max(1)).max(threads as u64 * 2);
    Stencil::new(
        StencilCfg {
            name: "Ocean",
            rows,
            row_bytes: 256 * 8,
            arrays: 5,
            iters: (40 / iter_div.max(1)).max(2) as u32,
            compute_per_row: 60,
            reduction: false,
            serial_init_arrays: 2,
            l1_kb: 8,
            l2_kb: 32,
        },
        threads,
    )
}

/// Swim: 512×512 weather prediction, many arrays, SUIF-parallelized.
pub fn swim(threads: usize, size_div: u64, iter_div: u64) -> Stencil {
    let rows = (512 / size_div.max(1)).max(threads as u64 * 2);
    Stencil::new(
        StencilCfg {
            name: "Swim",
            rows,
            row_bytes: 512 * 8,
            arrays: 8,
            iters: (15 / iter_div.max(1)).max(2) as u32,
            compute_per_row: 90,
            reduction: false,
            serial_init_arrays: 8,
            l1_kb: 32,
            l2_kb: 128,
        },
        threads,
    )
}

/// Tomcatv: 513×513 mesh generation with a per-iteration error reduction.
pub fn tomcatv(threads: usize, size_div: u64, iter_div: u64) -> Stencil {
    let rows = (512 / size_div.max(1)).max(threads as u64 * 2);
    Stencil::new(
        StencilCfg {
            name: "Tomcat",
            rows,
            row_bytes: 512 * 8,
            arrays: 7,
            iters: (12 / iter_div.max(1)).max(2) as u32,
            compute_per_row: 140,
            reduction: true,
            serial_init_arrays: 7,
            l1_kb: 64,
            l2_kb: 256,
        },
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &dyn Workload, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 5_000_000, "generator runaway");
        }
        v
    }

    #[test]
    fn all_threads_reach_same_barriers() {
        let w = ocean(4, 8, 8);
        let barriers: Vec<Vec<u32>> = (0..4)
            .map(|t| {
                drain(&w, t)
                    .into_iter()
                    .filter_map(|op| match op {
                        Op::Barrier(id) => Some(id),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for t in 1..4 {
            assert_eq!(barriers[0], barriers[t], "thread {t} barrier mismatch");
        }
        assert!(!barriers[0].is_empty());
    }

    #[test]
    fn locks_are_balanced() {
        let w = tomcatv(3, 8, 4);
        for t in 0..3 {
            let ops = drain(&w, t);
            let locks = ops.iter().filter(|o| matches!(o, Op::Lock(_))).count();
            let unlocks = ops.iter().filter(|o| matches!(o, Op::Unlock(_))).count();
            assert_eq!(locks, unlocks);
            assert!(locks > 0);
        }
    }

    #[test]
    fn addresses_stay_inside_footprint() {
        let w = swim(2, 16, 8);
        let fp = w.footprint_bytes();
        for t in 0..2 {
            for op in drain(&w, t) {
                let top = match op {
                    Op::Load(a) | Op::Store(a) => a,
                    Op::LoadBatch {
                        base,
                        stride,
                        count,
                    }
                    | Op::StoreBatch {
                        base,
                        stride,
                        count,
                    } => base + stride as u64 * (count as u64 - 1),
                    _ => continue,
                };
                assert!(
                    top < fp + 4096 * 2,
                    "address {top:#x} beyond footprint {fp:#x}"
                );
            }
        }
    }

    #[test]
    fn boundary_rows_touch_neighbours() {
        let w = ocean(4, 8, 8);
        // Thread 1 must read at least one address inside thread 0's rows.
        let (r0, n0) = partition(w.cfg.rows, 4, 0);
        let t0_last_row = w.row_addr(0, r0 + n0 - 1);
        let ops = drain(&w, 1);
        let touches = ops.iter().any(|op| match op {
            Op::LoadBatch { base, .. } => *base == t0_last_row,
            _ => false,
        });
        assert!(touches, "no neighbour boundary read found");
    }

    #[test]
    #[should_panic(expected = "more threads")]
    fn too_many_threads_rejected() {
        Stencil::new(
            StencilCfg {
                name: "x",
                rows: 2,
                row_bytes: 64,
                arrays: 1,
                iters: 1,
                compute_per_row: 1,
                reduction: false,
                serial_init_arrays: 0,
                l1_kb: 8,
                l2_kb: 32,
            },
            3,
        );
    }
}
