//! FFT (SPLASH-2): complex 1-D FFT with the six-step algorithm.
//!
//! The memory behaviour that matters: two compute phases that sweep each
//! thread's own contiguous partition (good locality, batched loads), two
//! all-to-all *transpose* phases where every thread reads a block from
//! every other thread's partition, and — crucially — a large
//! *roots-of-unity* array that a single processor initializes (as in the
//! SPLASH-2 code) and every thread then reads throughout both FFT phases.
//! Under first-touch placement the roots pages all live at node 0, so a
//! CC-NUMA machine pays remote accesses for them on every capacity miss,
//! while COMA/AGG replicate them into each node's local memory.

use pimdsm_engine::{SimRng, Zipf};

use crate::layout::{Layout, Region};
use crate::ops::{partition, Batch, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload};

/// The FFT workload model.
#[derive(Debug, Clone)]
pub struct Fft {
    threads: usize,
    points: u64,
    point_bytes: u64,
    data: Region,
    scratch: Region,
    roots: Region,
    compute_per_line: u64,
    footprint: u64,
    roots_zipf: Zipf,
}

impl Fft {
    /// Builds an FFT over `points` complex points (16 bytes each).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `points` is too small to partition.
    pub fn new(threads: usize, points: u64) -> Self {
        assert!(threads > 0);
        assert!(
            points >= threads as u64 * 64,
            "FFT of {points} points cannot feed {threads} threads"
        );
        let point_bytes = 16;
        let mut l = Layout::new();
        let data = l.alloc(points * point_bytes);
        let scratch = l.alloc(points * point_bytes);
        let roots = l.alloc(points * point_bytes / 2);
        let roots_lines = (points * point_bytes / 2 / 64).max(1) as usize;
        Fft {
            threads,
            points,
            point_bytes,
            data,
            scratch,
            roots,
            compute_per_line: 48, // ~log-n butterflies per 4 points
            footprint: l.footprint(),
            // Twiddle-factor reuse is strongly skewed: low-order roots are
            // touched by every butterfly stage.
            roots_zipf: Zipf::new(roots_lines, 0.85),
        }
    }

    /// Number of points.
    pub fn points(&self) -> u64 {
        self.points
    }
}

/// Phases of the six-step FFT we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LocalFft1,
    Transpose1,
    LocalFft2,
    Transpose2,
    Done,
}

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "FFT"
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

    /// The input data and the roots of unity are initialized by the
    /// master processor before the workers exist (as in SPLASH-2 FFT), so
    /// under first-touch their pages home at thread 0's node, spilling
    /// across the machine by capacity.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        vec![
            PreloadRegion {
                base: self.data.base(),
                bytes: self.data.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
            PreloadRegion {
                base: self.roots.base(),
                bytes: self.roots.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
        ]
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let app = self.clone();
        let t = app.threads as u64;
        let (my_start, my_len) = partition(app.points, app.threads, tid);
        let bytes_per_chunk = 4096u64; // sweep granularity: one page
        let mut phase = Phase::LocalFft1;
        let mut pos = 0u64; // byte offset within my partition
        let mut peer = 0u64; // transpose partner index
        let mut barrier = 0u32;
        let mut rng = SimRng::new(0xFF7 ^ (tid as u64 + 1).wrapping_mul(0x1234_5678));

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            let my_bytes = my_len * app.point_bytes;
            match phase {
                Phase::LocalFft1 | Phase::LocalFft2 => {
                    let region = if phase == Phase::LocalFft1 {
                        app.data
                    } else {
                        app.scratch
                    };
                    let base = region.base() + my_start * app.point_bytes + pos;
                    let chunk = bytes_per_chunk.min(my_bytes - pos);
                    let lines = (chunk / 64).max(1) as u32;
                    out.push(Op::LoadBatch {
                        base,
                        stride: 64,
                        count: lines,
                    });
                    // Each butterfly stage consumes twiddle factors from
                    // the shared roots array.
                    let mut tw = [0u64; 8];
                    for t in &mut tw {
                        let l = app.roots_zipf.sample(&mut rng) as u64;
                        *t = app.roots.at(l * 64);
                    }
                    out.push(Op::Gather(Batch::new(&tw)));
                    out.push(Op::Compute(app.compute_per_line * lines as u64));
                    out.push(Op::StoreBatch {
                        base,
                        stride: 64,
                        count: lines,
                    });
                    pos += chunk;
                    if pos >= my_bytes {
                        pos = 0;
                        out.push(Op::Barrier(barrier));
                        barrier += 1;
                        phase = if phase == Phase::LocalFft1 {
                            Phase::Transpose1
                        } else {
                            Phase::Transpose2
                        };
                    }
                }
                Phase::Transpose1 | Phase::Transpose2 => {
                    // Read my block from peer's partition, write into my
                    // partition of the other array.
                    let (src_reg, dst_reg) = if phase == Phase::Transpose1 {
                        (app.data, app.scratch)
                    } else {
                        (app.scratch, app.data)
                    };
                    let p = (tid as u64 + peer) % t;
                    let (p_start, p_len) = partition(app.points, app.threads, p as usize);
                    // The sub-block of peer p destined for me.
                    let (blk_off, blk_len) = partition(p_len, app.threads, tid);
                    let src = src_reg.base() + (p_start + blk_off) * app.point_bytes;
                    let bytes = (blk_len * app.point_bytes).max(64);
                    let lines = (bytes / 64).max(1) as u32;
                    out.push(Op::LoadBatch {
                        base: src,
                        stride: 64,
                        count: lines,
                    });
                    let dst = dst_reg.base()
                        + my_start * app.point_bytes
                        + (peer * my_bytes / t) / 64 * 64;
                    out.push(Op::Compute(8 * lines as u64));
                    out.push(Op::StoreBatch {
                        base: dst,
                        stride: 64,
                        count: lines,
                    });
                    peer += 1;
                    if peer == t {
                        peer = 0;
                        out.push(Op::Barrier(barrier));
                        barrier += 1;
                        phase = if phase == Phase::Transpose1 {
                            Phase::LocalFft2
                        } else {
                            Phase::Done
                        };
                    }
                }
                Phase::Done => return false,
            }
            true
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &Fft, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 2_000_000);
        }
        v
    }

    #[test]
    fn four_barriers_per_run() {
        let w = Fft::new(4, 4096);
        for t in 0..4 {
            let n = drain(&w, t)
                .iter()
                .filter(|o| matches!(o, Op::Barrier(_)))
                .count();
            assert_eq!(n, 4, "thread {t}");
        }
    }

    #[test]
    fn transpose_reads_every_peer() {
        let w = Fft::new(4, 4096);
        let ops = drain(&w, 0);
        // Collect load bases in the scratch region read during transpose 2
        // — they must span all four partitions of scratch.
        let mut partitions_touched = std::collections::BTreeSet::new();
        for op in &ops {
            if let Op::LoadBatch { base, .. } = op {
                if *base >= w.scratch.base() && *base < w.scratch.base() + w.scratch.bytes() {
                    let off = (base - w.scratch.base()) / 16; // point index
                    for p in 0..4 {
                        let (s, l) = partition(w.points, 4, p);
                        if off >= s && off < s + l {
                            partitions_touched.insert(p);
                        }
                    }
                }
            }
        }
        assert_eq!(partitions_touched.len(), 4, "all-to-all missing peers");
    }

    #[test]
    fn footprint_is_two_arrays() {
        let w = Fft::new(2, 4096);
        assert!(w.footprint_bytes() >= 2 * 4096 * 16);
    }

    #[test]
    fn deterministic_stream() {
        let w = Fft::new(3, 8192);
        assert_eq!(drain(&w, 1), drain(&w, 1));
    }

    #[test]
    #[should_panic(expected = "cannot feed")]
    fn too_few_points() {
        Fft::new(32, 64);
    }
}
