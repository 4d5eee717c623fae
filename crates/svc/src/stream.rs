//! Streaming scan/filter/join, optionally offloaded to D-node handlers.
//!
//! Each request scans one chunk of a large partitioned table, filters it
//! against a predicate, and probes a shared join table with the matching
//! record. In the *ship-to-P* variant the chunk's lines stream through
//! the requesting P-node's caches ([`Op::LoadBatch`] plus scan compute);
//! in the *offload* variant the scan runs in the chunk's home D-node
//! compute-in-memory handler ([`Op::OffloadScan`], the paper's
//! Section 2.4) and only the reply crosses the network. Same work, two
//! placements — the suite renders them side by side.

use pimdsm_engine::SimRng;
use pimdsm_workloads::ops::{
    partition, Batch, ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload,
};
use pimdsm_workloads::{Layout, Region};

use crate::stats::CLASS_OTHER;

/// Bytes per scanned chunk (16 cache lines).
pub const CHUNK_BYTES: u64 = 1024;
/// Bytes per record inside a chunk.
pub const RECORD_BYTES: u64 = 128;

/// The streaming scan/filter/join workload model.
#[derive(Debug, Clone)]
pub struct Stream {
    threads: usize,
    offload: bool,
    table: Region,
    join: Region,
    results: Vec<Region>,
    footprint: u64,
    seed: u64,
}

impl Stream {
    /// Builds a stream over a `table_bytes` chunked table shared by
    /// `threads` workers, with a join table an eighth its size.
    /// `offload` selects D-node compute-in-memory scans.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the table holds fewer chunks than
    /// threads.
    pub fn new(threads: usize, table_bytes: u64, offload: bool) -> Self {
        assert!(threads > 0);
        assert!(
            table_bytes >= threads as u64 * CHUNK_BYTES,
            "table too small for {threads} threads"
        );
        let mut l = Layout::new();
        let table = l.alloc(table_bytes);
        let join = l.alloc((table_bytes / 8).max(64 * 1024));
        let results = l.alloc_per_thread(threads, (table_bytes / threads as u64 / 16).max(4096));
        Stream {
            threads,
            offload,
            table,
            join,
            results,
            footprint: l.footprint(),
            seed: 0x57_AEA1,
        }
    }

    fn records_per_chunk() -> u64 {
        CHUNK_BYTES / RECORD_BYTES
    }
}

impl Workload for Stream {
    fn name(&self) -> &'static str {
        "Stream"
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

    /// Both tables were bulk-loaded before the stream starts.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        vec![
            PreloadRegion {
                base: self.table.base(),
                bytes: self.table.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
            PreloadRegion {
                base: self.join.base(),
                bytes: self.join.bytes(),
                owner_tid: 0,
                kind: PreloadKind::SharedInit,
            },
        ]
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let app = self.clone();
        let mut rng = SimRng::new(app.seed ^ (tid as u64 + 5).wrapping_mul(0x1656_67B1));
        let n_chunks = app.table.bytes() / CHUNK_BYTES;
        let (c0, cn) = partition(n_chunks, app.threads, tid);
        let mut chunk = 0u64;
        let mut result_pos = 0u64;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if chunk >= cn {
                return false;
            }
            let records = Stream::records_per_chunk();
            let base = app.table.at((c0 + chunk) * CHUNK_BYTES);
            out.push(Op::ReqStart {
                arrival: 0,
                class: CLASS_OTHER,
            });
            if app.offload {
                // Scan runs at the chunk's home D-node; only matching
                // record pointers come back.
                out.push(Op::OffloadScan {
                    chunk_addr: base,
                    bytes: CHUNK_BYTES,
                    scan_cycles: records * 3,
                    reply_bytes: 16,
                });
            } else {
                // Ship the chunk through this P-node's caches.
                out.push(Op::LoadBatch {
                    base,
                    stride: 64,
                    count: (CHUNK_BYTES / 64) as u32,
                });
                out.push(Op::Compute(records * 4));
            }
            // Probe the join table with the matching record and append
            // to the local result buffer.
            let bucket = rng.range(0, app.join.bytes() / 64) * 64;
            out.push(Op::Gather(Batch::new(&[
                app.join.at(bucket),
                app.join.at((bucket + 64) % app.join.bytes()),
            ])));
            out.push(Op::Compute(60));
            let res = &app.results[tid];
            out.push(Op::Store(res.at(result_pos % res.bytes())));
            result_pos += 64;
            out.push(Op::ReqEnd { class: CLASS_OTHER });
            chunk += 1;
            chunk < cn
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &Stream, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 2_000_000);
        }
        v
    }

    #[test]
    fn offload_variant_issues_offload_scans_only() {
        let w = Stream::new(2, 256 * 1024, true);
        let ops = drain(&w, 0);
        let offloads = ops
            .iter()
            .filter(|o| matches!(o, Op::OffloadScan { .. }))
            .count();
        let reqs = ops
            .iter()
            .filter(|o| matches!(o, Op::ReqEnd { .. }))
            .count();
        assert_eq!(offloads, reqs);
        assert!(offloads > 0);
        assert!(!ops.iter().any(|o| matches!(o, Op::LoadBatch { .. })));
    }

    #[test]
    fn ship_variant_streams_chunk_lines() {
        let w = Stream::new(2, 256 * 1024, false);
        let ops = drain(&w, 1);
        assert!(!ops.iter().any(|o| matches!(o, Op::OffloadScan { .. })));
        let loads = ops
            .iter()
            .filter(|o| matches!(o, Op::LoadBatch { count: 16, .. }))
            .count();
        let reqs = ops
            .iter()
            .filter(|o| matches!(o, Op::ReqEnd { .. }))
            .count();
        assert_eq!(loads, reqs);
    }

    #[test]
    fn chunks_partition_the_table() {
        let w = Stream::new(4, 64 * CHUNK_BYTES, true);
        let total: usize = (0..4)
            .map(|tid| {
                drain(&w, tid)
                    .iter()
                    .filter(|o| matches!(o, Op::ReqEnd { .. }))
                    .count()
            })
            .sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn variants_do_identical_join_work() {
        let ship = Stream::new(2, 128 * 1024, false);
        let off = Stream::new(2, 128 * 1024, true);
        let probes = |w: &Stream| {
            drain(w, 0)
                .iter()
                .filter(|o| matches!(o, Op::Gather(_)))
                .count()
        };
        assert_eq!(probes(&ship), probes(&off));
    }
}
