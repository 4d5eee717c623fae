//! Graph analytics over attraction-memory-resident CSR adjacency.
//!
//! Two irregular-access kernels, both issuing per-"request" latency
//! brackets so the serving metrics apply:
//!
//! * [`Bfs`] — pointer-chasing breadth-first expansions: a dependent
//!   row-pointer load, a sequential edge-list read, then scattered
//!   visited-flag probes of the neighbours. No two expansions touch
//!   predictable addresses, which is exactly the access pattern remote
//!   caches hate.
//! * [`PageRank`] — barrier-synchronized rank sweeps: every vertex
//!   update gathers the ranks of its (scrambled) neighbours, computes,
//!   and stores its new rank; iterations are separated by global
//!   barriers like the SPLASH kernels.

use pimdsm_engine::SimRng;
use pimdsm_workloads::ops::{
    partition, Batch, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload,
};
use pimdsm_workloads::{Layout, Region};

use crate::mix64;
use crate::stats::CLASS_OTHER;

/// Out-degree of every BFS vertex (fits one [`Batch`]).
pub const BFS_DEG: u64 = 8;
/// Out-degree of every PageRank vertex (exactly one [`Batch`]).
pub const PR_DEG: u64 = 16;

/// Expansions emitted per refill chunk.
const CHUNK_REQS: u64 = 32;

/// Pointer-chasing breadth-first search.
#[derive(Debug, Clone)]
pub struct Bfs {
    threads: usize,
    verts: u64,
    expansions_per_thread: u64,
    row: Region,
    col: Region,
    visited: Region,
    footprint: u64,
}

impl Bfs {
    /// Builds a BFS over `verts` vertices of degree [`BFS_DEG`], with
    /// `threads` workers each performing `expansions_per_thread`
    /// frontier expansions.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `verts` is zero.
    pub fn new(threads: usize, verts: u64, expansions_per_thread: u64) -> Self {
        assert!(threads > 0 && verts > 0);
        let mut l = Layout::new();
        let row = l.alloc((verts + 1) * 8);
        let col = l.alloc(verts * BFS_DEG * 8);
        let visited = l.alloc(verts);
        Bfs {
            threads,
            verts,
            expansions_per_thread,
            row,
            col,
            visited,
            footprint: l.footprint(),
        }
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        64
    }

    fn l2_kb(&self) -> u64 {
        512
    }

    /// The graph was loaded by one node; visited flags first-touch to
    /// each worker's partition.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        let mut v = vec![
            PreloadRegion {
                base: self.row.base(),
                bytes: self.row.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
            PreloadRegion {
                base: self.col.base(),
                bytes: self.col.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
        ];
        for tid in 0..self.threads {
            let part = self.visited.split(self.threads, tid);
            v.push(PreloadRegion {
                base: part.base(),
                bytes: part.bytes(),
                owner_tid: tid,
                kind: PreloadKind::ColdPrivate,
            });
        }
        v
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let app = self.clone();
        let salt = (tid as u64 + 1) << 32;
        let mut done = 0u64;
        // The frontier chases pointers: each expansion's vertex is
        // derived from the previous one, so the address stream is a
        // dependent chain, not an index loop.
        let mut frontier = mix64(salt) % app.verts;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if done >= app.expansions_per_thread {
                return false;
            }
            let batch = CHUNK_REQS.min(app.expansions_per_thread - done);
            for _ in 0..batch {
                let v = frontier;
                out.push(Op::ReqStart {
                    arrival: 0,
                    class: CLASS_OTHER,
                });
                // Dependent row-pointer load, then the edge list.
                out.push(Op::Load(app.row.elem(v, 8)));
                out.push(Op::LoadBatch {
                    base: app.col.elem(v * BFS_DEG, 8),
                    stride: 8,
                    count: BFS_DEG as u32,
                });
                // Scattered visited probes of the neighbours.
                let mut addrs = [0u64; BFS_DEG as usize];
                for (j, a) in addrs.iter_mut().enumerate() {
                    let u = mix64(v * BFS_DEG + j as u64) % app.verts;
                    *a = app.visited.at(u);
                }
                out.push(Op::Gather(Batch::new(&addrs)));
                out.push(Op::Compute(6 * BFS_DEG));
                out.push(Op::Store(app.visited.at(v)));
                out.push(Op::ReqEnd { class: CLASS_OTHER });
                frontier = mix64(v ^ salt) % app.verts;
            }
            done += batch;
            done < app.expansions_per_thread
        }))
    }
}

/// Barrier-synchronized PageRank sweeps.
#[derive(Debug, Clone)]
pub struct PageRank {
    threads: usize,
    verts: u64,
    iters: u64,
    col: Region,
    rank_old: Region,
    rank_new: Region,
    footprint: u64,
    seed: u64,
}

impl PageRank {
    /// Builds `iters` rank sweeps over `verts` vertices of degree
    /// [`PR_DEG`] shared by `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads`, `verts` or `iters` is zero.
    pub fn new(threads: usize, verts: u64, iters: u64) -> Self {
        assert!(threads > 0 && verts > 0 && iters > 0);
        let mut l = Layout::new();
        let col = l.alloc(verts * PR_DEG * 8);
        let rank_old = l.alloc(verts * 8);
        let rank_new = l.alloc(verts * 8);
        PageRank {
            threads,
            verts,
            iters,
            col,
            rank_old,
            rank_new,
            footprint: l.footprint(),
            seed: 0x94A6_E12A,
        }
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        64
    }

    fn l2_kb(&self) -> u64 {
        512
    }

    fn preload_regions(&self) -> Vec<PreloadRegion> {
        let mut v = vec![PreloadRegion {
            base: self.col.base(),
            bytes: self.col.bytes(),
            owner_tid: 0,
            kind: PreloadKind::SharedInit,
        }];
        for tid in 0..self.threads {
            for r in [&self.rank_old, &self.rank_new] {
                let part = r.split(self.threads, tid);
                v.push(PreloadRegion {
                    base: part.base(),
                    bytes: part.bytes(),
                    owner_tid: tid,
                    kind: PreloadKind::SharedInit,
                });
            }
        }
        v
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let app = self.clone();
        let mut rng = SimRng::new(app.seed ^ (tid as u64 + 11).wrapping_mul(0xC2B2_AE3D));
        let (v0, vn) = partition(app.verts, app.threads, tid);
        let mut iter = 0u64;
        let mut next = 0u64;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if iter >= app.iters {
                return false;
            }
            let batch = CHUNK_REQS.min(vn - next);
            for _ in 0..batch {
                let v = v0 + next;
                out.push(Op::ReqStart {
                    arrival: 0,
                    class: CLASS_OTHER,
                });
                out.push(Op::LoadBatch {
                    base: app.col.elem(v * PR_DEG, 8),
                    stride: 8,
                    count: PR_DEG as u32,
                });
                // Gather the neighbours' old ranks — the irregular part.
                let mut addrs = [0u64; PR_DEG as usize];
                for (j, a) in addrs.iter_mut().enumerate() {
                    let u = mix64(v * PR_DEG + j as u64 + rng.next_u64() % 7) % app.verts;
                    *a = app.rank_old.elem(u, 8);
                }
                out.push(Op::Gather(Batch::new(&addrs)));
                out.push(Op::Compute(4 * PR_DEG));
                out.push(Op::Store(app.rank_new.elem(v, 8)));
                out.push(Op::ReqEnd { class: CLASS_OTHER });
                next += 1;
            }
            if next >= vn {
                // Sweep finished: everyone syncs, ranks swap.
                out.push(Op::Barrier(iter as u32));
                iter += 1;
                next = 0;
            }
            iter < app.iters || !out.is_empty()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &dyn Workload, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 2_000_000);
        }
        v
    }

    #[test]
    fn bfs_brackets_every_expansion() {
        let w = Bfs::new(2, 4096, 150);
        let ops = drain(&w, 0);
        let starts = ops
            .iter()
            .filter(|o| matches!(o, Op::ReqStart { arrival: 0, class } if *class == CLASS_OTHER))
            .count();
        assert_eq!(starts, 150);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, Op::ReqEnd { .. }))
                .count(),
            150
        );
    }

    #[test]
    fn bfs_neighbour_probes_are_scattered() {
        let w = Bfs::new(1, 1 << 14, 50);
        let ops = drain(&w, 0);
        let mut gathers = 0;
        let mut distinct = std::collections::BTreeSet::new();
        for op in &ops {
            if let Op::Gather(b) = op {
                gathers += 1;
                distinct.extend(b.addrs().iter().copied());
            }
        }
        assert_eq!(gathers, 50);
        // 50 expansions × 8 probes over 16k vertices: collisions should
        // be rare if the scramble really scatters.
        assert!(
            distinct.len() > 300,
            "only {} distinct probes",
            distinct.len()
        );
    }

    #[test]
    fn pagerank_emits_one_barrier_per_iteration() {
        let w = PageRank::new(4, 1024, 3);
        for tid in 0..4 {
            let ops = drain(&w, tid);
            let barriers: Vec<u32> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Barrier(id) => Some(*id),
                    _ => None,
                })
                .collect();
            assert_eq!(barriers, vec![0, 1, 2]);
        }
    }

    #[test]
    fn pagerank_updates_cover_the_partition_each_iteration() {
        let w = PageRank::new(2, 100, 2);
        let ops = drain(&w, 1);
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count();
        // 50 vertices × 2 iterations.
        assert_eq!(stores, 100);
    }

    #[test]
    fn graph_generators_are_deterministic() {
        let b = Bfs::new(2, 2048, 100);
        assert_eq!(drain(&b, 1), drain(&b, 1));
        let p = PageRank::new(2, 512, 2);
        assert_eq!(drain(&p, 0), drain(&p, 0));
    }
}
