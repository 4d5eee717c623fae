//! The `Copy` parameter block the lab embeds in its point specs.

use pimdsm_workloads::{Scale, Workload};

use crate::graph::{Bfs, PageRank};
use crate::kv::KvStore;
use crate::stream::Stream;

/// Full-scale key-space size of the KV store (scaled by `size_div`).
const KV_KEYS_FULL: u64 = 1 << 20;
/// Full-scale total KV requests across all threads (scaled by
/// `size_div * iter_div` — the request stream shrinks with the keyspace
/// so cache-warming behaviour stays comparable across scales).
const KV_REQS_FULL: u64 = 2_000_000;
/// Per-thread open-loop inter-arrival period, cycles. Sized between the
/// hardware architectures' closed-loop service times and AGG's: NUMA and
/// COMA absorb this arrival rate with little queueing, AGG saturates —
/// the open-loop point exists to expose exactly that difference.
const KV_OPEN_PERIOD: u64 = 2_000;
/// Full-scale BFS vertex count (scaled by `size_div`).
const BFS_VERTS_FULL: u64 = 1 << 19;
/// Full-scale total BFS expansions across all threads (scaled by
/// `size_div * iter_div`, like the KV request stream).
const BFS_EXPANSIONS_FULL: u64 = 500_000;
/// Full-scale PageRank vertex count (scaled by `size_div`).
const PR_VERTS_FULL: u64 = 1 << 16;
/// Full-scale PageRank sweep count (scaled by `iter_div`).
const PR_ITERS_FULL: u64 = 8;
/// Full-scale stream table bytes (scaled by `size_div * iter_div` — a
/// streaming pass touches every byte exactly once, so the table size is
/// also the work count).
const STREAM_TABLE_FULL: u64 = 64 << 20;

/// One service workload configuration. Integer-only knobs (θ in
/// milli-units), so the lab's point specs compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcSpec {
    /// Zipf key-value serving.
    Kv {
        /// Client threads.
        threads: usize,
        /// Zipf exponent θ in thousandths (900 = 0.9).
        theta_milli: u32,
        /// Percentage of requests that are puts.
        write_pct: u32,
        /// Open-loop arrival schedule instead of closed-loop clients.
        open_loop: bool,
    },
    /// Pointer-chasing breadth-first search.
    Bfs {
        /// Worker threads.
        threads: usize,
    },
    /// Barrier-synchronized PageRank sweeps.
    PageRank {
        /// Worker threads.
        threads: usize,
    },
    /// Streaming scan/filter/join.
    Stream {
        /// Worker threads.
        threads: usize,
        /// Run scans in D-node compute-in-memory handlers.
        offload: bool,
    },
}

impl SvcSpec {
    /// Workload family name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SvcSpec::Kv { .. } => "KV",
            SvcSpec::Bfs { .. } => "BFS",
            SvcSpec::PageRank { .. } => "PageRank",
            SvcSpec::Stream { .. } => "Stream",
        }
    }

    /// Thread count the workload runs with.
    pub fn threads(&self) -> usize {
        match *self {
            SvcSpec::Kv { threads, .. }
            | SvcSpec::Bfs { threads }
            | SvcSpec::PageRank { threads }
            | SvcSpec::Stream { threads, .. } => threads,
        }
    }

    /// Instantiates the workload at `scale` (problem sizes shrink by
    /// `size_div`, request/iteration counts by `iter_div`, with floors so
    /// tiny CI scales still exercise every path).
    pub fn build(&self, scale: Scale) -> Box<dyn Workload> {
        pimdsm_prof::phase!(pimdsm_prof::Phase::SvcBuild);
        let size = scale.size_div.max(1);
        let iters = scale.iter_div.max(1);
        match *self {
            SvcSpec::Kv {
                threads,
                theta_milli,
                write_pct,
                open_loop,
            } => {
                let keys = (KV_KEYS_FULL / size).max(1024);
                let reqs = (KV_REQS_FULL / size / iters / threads as u64).max(64);
                let theta = f64::from(theta_milli) / 1000.0;
                let period = open_loop.then_some(KV_OPEN_PERIOD);
                Box::new(KvStore::new(threads, keys, reqs, theta, write_pct, period))
            }
            SvcSpec::Bfs { threads } => {
                let verts = (BFS_VERTS_FULL / size).max(4096);
                let exps = (BFS_EXPANSIONS_FULL / size / iters / threads as u64).max(64);
                Box::new(Bfs::new(threads, verts, exps))
            }
            SvcSpec::PageRank { threads } => {
                let verts = (PR_VERTS_FULL / size).max(threads as u64 * 64);
                let sweeps = (PR_ITERS_FULL / iters).max(1);
                Box::new(PageRank::new(threads, verts, sweeps))
            }
            SvcSpec::Stream { threads, offload } => {
                let table = (STREAM_TABLE_FULL / size / iters)
                    .max(threads as u64 * crate::stream::CHUNK_BYTES);
                Box::new(Stream::new(threads, table, offload))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> [SvcSpec; 4] {
        [
            SvcSpec::Kv {
                threads: 4,
                theta_milli: 900,
                write_pct: 10,
                open_loop: false,
            },
            SvcSpec::Bfs { threads: 4 },
            SvcSpec::PageRank { threads: 4 },
            SvcSpec::Stream {
                threads: 4,
                offload: true,
            },
        ]
    }

    #[test]
    fn build_honours_thread_counts_at_every_scale() {
        for scale in [Scale::full(), Scale::bench(), Scale::ci()] {
            for s in all_specs() {
                let w = s.build(scale);
                assert_eq!(w.threads(), 4, "{s:?}");
                assert!(w.footprint_bytes() > 0);
                assert_eq!(w.name(), s.name());
            }
        }
    }

    #[test]
    fn ci_scale_still_issues_requests() {
        let w = SvcSpec::Kv {
            threads: 4,
            theta_milli: 900,
            write_pct: 10,
            open_loop: false,
        }
        .build(Scale::ci());
        let mut g = w.spawn(0);
        let mut reqs = 0;
        while let Some(op) = g.next_op() {
            if matches!(op, pimdsm_workloads::Op::ReqEnd { .. }) {
                reqs += 1;
            }
        }
        assert!(reqs >= 64);
    }
}
