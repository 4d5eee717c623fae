//! Dbase: TPC-D query 3 on a stand-alone table system, hand-parallelized
//! (Table 3).
//!
//! Two phases with very different resource demands (Section 4.2):
//!
//! - **Hash phase**: every thread streams chunks of a large table with *no
//!   reuse*, testing each record against the select condition and
//!   inserting the qualifying ones into a shared hash table under locks.
//!   Misses continuously in the D-nodes and synchronizes often — D-node
//!   intensive.
//! - **Join phase**: the second table is divided into chunks handed to
//!   threads; once a chunk is in the caches it gets reused while its
//!   records probe the hash table. Benefits from many P-nodes.
//!
//! The phases may run with different thread counts (dynamic
//! reconfiguration, Figure 10-(a)), and both phases' table traversals can
//! be offloaded to D-node processors (computation-in-memory,
//! Figure 10-(b)) via [`Op::OffloadScan`].

use pimdsm_engine::SimRng;

use crate::layout::{Layout, Region};
use crate::ops::{partition, Batch, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload};

/// Barrier id marking the hash → join transition (the dynamic
/// reconfiguration point).
pub const PHASE_BARRIER: u32 = 0;
/// Barrier id ending the join phase.
pub const FINAL_BARRIER: u32 = 1;

/// The Dbase (TPC-D Q3) workload model.
#[derive(Debug, Clone)]
pub struct Dbase {
    hash_threads: usize,
    join_threads: usize,
    offload: bool,
    scan_table: Region,
    join_table: Region,
    hash: Region,
    results: Vec<Region>,
    record_bytes: u64,
    chunk_bytes: u64,
    selectivity: f64,
    footprint: u64,
    seed: u64,
}

impl Dbase {
    /// Builds the query model.
    ///
    /// `hash_threads` run the hash phase, `join_threads` the join phase
    /// (equal for static machines). `table_bytes` sizes each of the two
    /// tables; `offload` enables the computation-in-memory variant.
    ///
    /// # Panics
    ///
    /// Panics if either thread count is zero or the tables are too small.
    pub fn new(hash_threads: usize, join_threads: usize, table_bytes: u64, offload: bool) -> Self {
        assert!(hash_threads > 0 && join_threads > 0);
        let threads = hash_threads.max(join_threads);
        let chunk_bytes = 16 * 1024;
        assert!(
            table_bytes >= threads as u64 * chunk_bytes,
            "tables too small for {threads} threads"
        );
        let mut l = Layout::new();
        let scan_table = l.alloc(table_bytes);
        let join_table = l.alloc(table_bytes);
        let hash = l.alloc((table_bytes / 16).max(64 * 1024));
        let results = l.alloc_per_thread(threads, table_bytes / threads as u64 / 8);
        Dbase {
            hash_threads,
            join_threads,
            offload,
            scan_table,
            join_table,
            hash,
            results,
            record_bytes: 128,
            chunk_bytes,
            selectivity: 0.05,
            footprint: l.footprint(),
            seed: 0xD8A5E,
        }
    }

    fn records_per_chunk(&self) -> u64 {
        self.chunk_bytes / self.record_bytes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Hash,
    Join,
    Done,
}

impl Workload for Dbase {
    fn name(&self) -> &'static str {
        "Dbase"
    }

    fn threads(&self) -> usize {
        self.hash_threads.max(self.join_threads)
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

    fn reconfig_barrier(&self) -> Option<u32> {
        if self.hash_threads != self.join_threads {
            Some(PHASE_BARRIER)
        } else {
            None
        }
    }

    fn barrier_width(&self, id: u32) -> usize {
        match id {
            PHASE_BARRIER => self.hash_threads,
            _ => self.join_threads,
        }
    }

    fn delayed_start(&self, tid: usize) -> bool {
        tid >= self.hash_threads
    }

    /// The database loader populated both tables from one node before the
    /// query starts, so under first-touch every table page homes at
    /// thread 0's node.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        vec![
            PreloadRegion {
                base: self.scan_table.base(),
                bytes: self.scan_table.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
            PreloadRegion {
                base: self.join_table.base(),
                bytes: self.join_table.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
        ]
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads());
        let app = self.clone();
        let mut rng = SimRng::new(app.seed ^ (tid as u64 + 7).wrapping_mul(0xABCD));
        let in_hash = tid < app.hash_threads;
        let in_join = tid < app.join_threads;
        let n_chunks = app.scan_table.bytes() / app.chunk_bytes;
        let (h0, hn) = partition(n_chunks, app.hash_threads, tid.min(app.hash_threads - 1));
        let (j0, jn) = partition(n_chunks, app.join_threads, tid.min(app.join_threads - 1));
        let mut phase = if in_hash { Phase::Hash } else { Phase::Join };
        let mut chunk = 0u64;
        let mut result_pos = 0u64;
        let mut emitted_phase_barrier = false;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            let records = app.records_per_chunk();
            let matches = ((records as f64 * app.selectivity).ceil() as u64).max(1);
            match phase {
                Phase::Hash => {
                    if !in_hash || chunk >= hn {
                        if in_hash && !emitted_phase_barrier {
                            emitted_phase_barrier = true;
                            out.push(Op::Barrier(PHASE_BARRIER));
                        }
                        phase = Phase::Join;
                        chunk = 0;
                        return true;
                    }
                    let base = app.scan_table.at((h0 + chunk) * app.chunk_bytes);
                    if app.offload {
                        out.push(Op::OffloadScan {
                            chunk_addr: base,
                            bytes: app.chunk_bytes,
                            scan_cycles: records * 3,
                            reply_bytes: (matches * 8) as u32,
                        });
                    } else {
                        out.push(Op::LoadBatch {
                            base,
                            stride: 64,
                            count: (app.chunk_bytes / 64) as u32,
                        });
                        out.push(Op::Compute(records * 4));
                    }
                    // Insert qualifying records into the shared hash table.
                    for _ in 0..matches {
                        let bucket = rng.range(0, app.hash.bytes() / 64) * 64;
                        let lock = (bucket / 64 % 1024) as u32;
                        out.push(Op::Lock(lock));
                        out.push(Op::Load(app.hash.at(bucket)));
                        out.push(Op::Compute(10));
                        out.push(Op::Store(app.hash.at(bucket)));
                        out.push(Op::Unlock(lock));
                    }
                    chunk += 1;
                }
                Phase::Join => {
                    if !in_join || chunk >= jn {
                        if in_join {
                            out.push(Op::Barrier(FINAL_BARRIER));
                        }
                        phase = Phase::Done;
                        return true;
                    }
                    let base = app.join_table.at((j0 + chunk) * app.chunk_bytes);
                    if app.offload {
                        out.push(Op::OffloadScan {
                            chunk_addr: base,
                            bytes: app.chunk_bytes,
                            scan_cycles: records * 3,
                            reply_bytes: (matches * 8) as u32,
                        });
                        // Fetch just the matching records.
                        let mut addrs = [0u64; 16];
                        let mut na = 0;
                        for _ in 0..matches {
                            let r = rng.range(0, records);
                            addrs[na] = base + r * app.record_bytes;
                            na += 1;
                            if na == 16 {
                                out.push(Op::Gather(Batch::new(&addrs)));
                                na = 0;
                            }
                        }
                        if na > 0 {
                            out.push(Op::Gather(Batch::new(&addrs[..na])));
                        }
                    } else {
                        out.push(Op::LoadBatch {
                            base,
                            stride: 64,
                            count: (app.chunk_bytes / 64) as u32,
                        });
                        out.push(Op::Compute(records * 45));
                        // Chunk reuse: a second pass over part of the chunk
                        // hits in the caches.
                        out.push(Op::LoadBatch {
                            base,
                            stride: 64,
                            count: (app.chunk_bytes / 64 / 2).max(1) as u32,
                        });
                        out.push(Op::Compute(records * 25));
                    }
                    // Probe the hash table for each qualifying record and
                    // append to the local result buffer.
                    for _ in 0..matches {
                        let bucket = rng.range(0, app.hash.bytes() / 64) * 64;
                        out.push(Op::Gather(Batch::new(&[
                            app.hash.at(bucket),
                            app.hash.at((bucket + 64) % app.hash.bytes()),
                        ])));
                        out.push(Op::Compute(400));
                        let res = &app.results[tid];
                        out.push(Op::Store(res.at(result_pos % res.bytes())));
                        result_pos += 64;
                    }
                    chunk += 1;
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

    fn drain(w: &Dbase, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 3_000_000);
        }
        v
    }

    #[test]
    fn static_run_has_both_barriers_everywhere() {
        let w = Dbase::new(4, 4, 1 << 20, false);
        for t in 0..4 {
            let ids: Vec<u32> = drain(&w, t)
                .into_iter()
                .filter_map(|o| match o {
                    Op::Barrier(id) => Some(id),
                    _ => None,
                })
                .collect();
            assert_eq!(ids, vec![PHASE_BARRIER, FINAL_BARRIER]);
        }
        assert_eq!(w.reconfig_barrier(), None);
    }

    #[test]
    fn grow_reconfig_threads_skip_hash_phase() {
        let w = Dbase::new(2, 4, 1 << 20, false);
        assert_eq!(w.threads(), 4);
        assert_eq!(w.reconfig_barrier(), Some(PHASE_BARRIER));
        assert_eq!(w.barrier_width(PHASE_BARRIER), 2);
        assert_eq!(w.barrier_width(FINAL_BARRIER), 4);
        assert!(!w.delayed_start(1));
        assert!(w.delayed_start(2));
        let ops = drain(&w, 3);
        let ids: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Barrier(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![FINAL_BARRIER], "late thread: join phase only");
        assert!(
            !ops.iter().any(|o| matches!(o, Op::OffloadScan { .. })),
            "plain mode never offloads"
        );
    }

    #[test]
    fn offload_replaces_streaming_loads() {
        let plain = Dbase::new(2, 2, 1 << 20, false);
        let opt = Dbase::new(2, 2, 1 << 20, true);
        let p_ops = drain(&plain, 0);
        let o_ops = drain(&opt, 0);
        let p_loads: u64 = p_ops
            .iter()
            .map(|o| match o {
                Op::LoadBatch { count, .. } => *count as u64,
                _ => 0,
            })
            .sum();
        let o_loads: u64 = o_ops
            .iter()
            .map(|o| match o {
                Op::LoadBatch { count, .. } => *count as u64,
                Op::Gather(b) => b.len() as u64,
                _ => 0,
            })
            .sum();
        assert!(
            o_loads * 4 < p_loads,
            "offload should slash P-side loads ({o_loads} vs {p_loads})"
        );
        assert!(o_ops.iter().any(|o| matches!(o, Op::OffloadScan { .. })));
    }

    #[test]
    fn hash_phase_uses_locks() {
        let w = Dbase::new(2, 2, 1 << 20, false);
        let ops = drain(&w, 0);
        let locks = ops.iter().filter(|o| matches!(o, Op::Lock(_))).count();
        assert!(locks > 10, "hash inserts synchronize often");
    }

    #[test]
    fn shrink_reconfig_late_threads_finish_early() {
        let w = Dbase::new(4, 2, 1 << 20, false);
        assert_eq!(w.threads(), 4);
        let ops = drain(&w, 3);
        let ids: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Barrier(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![PHASE_BARRIER], "thread 3 exits after hash");
    }

    #[test]
    fn deterministic() {
        let w = Dbase::new(2, 2, 1 << 20, true);
        assert_eq!(drain(&w, 1), drain(&w, 1));
    }
}
