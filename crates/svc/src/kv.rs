//! Partitioned in-memory key-value store.
//!
//! Each client thread issues a stream of get/put requests against a
//! shared store: a dependent index-header load, then the value lines
//! (two cache lines for the 128 B values), then request-processing
//! compute. Key popularity is Zipf(θ); the hot keys are *scrambled*
//! across the key space so popularity does not correlate with page
//! placement (a real store hashes keys), which is what pushes hot lines
//! through the coherence protocol instead of pinning them to one home.
//!
//! Clients are either closed-loop (next request issues when the previous
//! completes) or open-loop (requests arrive on an
//! [`ArrivalGen`] schedule regardless of completion — the regime where
//! queueing shows up in p99).

use std::sync::Arc;

use pimdsm_engine::{ArrivalGen, SimRng, Zipf};
use pimdsm_workloads::ops::{ChunkGen, Op, PreloadKind, PreloadRegion, ThreadGen, Workload};
use pimdsm_workloads::{Layout, Region};

use crate::mix64;
use crate::stats::{CLASS_GET, CLASS_PUT};

/// Bytes per stored value (two cache lines).
pub const VAL_BYTES: u64 = 128;

/// How many requests each refill chunk carries.
const CHUNK_REQS: u64 = 32;

/// The key-value serving workload model.
#[derive(Debug, Clone)]
pub struct KvStore {
    threads: usize,
    keys: u64,
    reqs_per_thread: u64,
    write_pct: u32,
    open_period: Option<u64>,
    zipf: Arc<Zipf>,
    index: Region,
    values: Region,
    footprint: u64,
    seed: u64,
}

impl KvStore {
    /// Builds a store of `keys` 128 B values served by `threads` clients,
    /// each issuing `reqs_per_thread` requests with Zipf(`theta`) key
    /// popularity and `write_pct`% puts. `open_period` switches the
    /// clients to an open-loop schedule with that per-thread inter-arrival
    /// period in cycles (`None` = closed-loop).
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `keys` is zero or `write_pct > 100`.
    pub fn new(
        threads: usize,
        keys: u64,
        reqs_per_thread: u64,
        theta: f64,
        write_pct: u32,
        open_period: Option<u64>,
    ) -> Self {
        assert!(threads > 0 && keys > 0);
        assert!(write_pct <= 100, "write_pct is a percentage");
        let mut l = Layout::new();
        let index = l.alloc(keys * 8);
        let values = l.alloc(keys * VAL_BYTES);
        KvStore {
            threads,
            keys,
            reqs_per_thread,
            write_pct,
            open_period,
            zipf: Arc::new(Zipf::new(keys as usize, theta)),
            index,
            values,
            footprint: l.footprint(),
            seed: 0x5E7CE0,
        }
    }
}

impl Workload for KvStore {
    fn name(&self) -> &'static str {
        "KV"
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

    /// The store is loaded before serving starts; each thread's node
    /// first-touched its partition of the index and value space.
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        let mut v = Vec::with_capacity(2 * self.threads);
        for tid in 0..self.threads {
            for r in [&self.index, &self.values] {
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
        let mut rng = SimRng::new(app.seed ^ (tid as u64 + 3).wrapping_mul(0x9E37_79B9));
        let mut arrivals = app
            .open_period
            .map(|p| ArrivalGen::new(p, p / 2, rng.fork(0xA221)));
        let mut issued = 0u64;

        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if issued >= app.reqs_per_thread {
                return false;
            }
            let batch = CHUNK_REQS.min(app.reqs_per_thread - issued);
            for _ in 0..batch {
                // Popularity rank → scrambled slot, so hot keys spread
                // over the whole partitioned address space.
                let rank = app.zipf.sample(&mut rng) as u64;
                let slot = mix64(rank) % app.keys;
                let put = rng.chance(f64::from(app.write_pct) / 100.0);
                let class = if put { CLASS_PUT } else { CLASS_GET };
                let arrival = arrivals.as_mut().map_or(0, ArrivalGen::next_arrival);
                out.push(Op::ReqStart { arrival, class });
                // Dependent index lookup, then the value's two lines.
                out.push(Op::Load(app.index.elem(slot, 8)));
                let base = app.values.elem(slot, VAL_BYTES);
                if put {
                    out.push(Op::StoreBatch {
                        base,
                        stride: 64,
                        count: (VAL_BYTES / 64) as u32,
                    });
                    out.push(Op::Compute(40));
                } else {
                    out.push(Op::LoadBatch {
                        base,
                        stride: 64,
                        count: (VAL_BYTES / 64) as u32,
                    });
                    out.push(Op::Compute(30));
                }
                out.push(Op::ReqEnd { class });
            }
            issued += batch;
            issued < app.reqs_per_thread
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &KvStore, tid: usize) -> Vec<Op> {
        let mut g = w.spawn(tid);
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
            assert!(v.len() < 1_000_000);
        }
        v
    }

    #[test]
    fn requests_are_bracketed_and_counted() {
        let w = KvStore::new(2, 4096, 100, 0.9, 10, None);
        let ops = drain(&w, 0);
        let starts = ops
            .iter()
            .filter(|o| matches!(o, Op::ReqStart { .. }))
            .count();
        let ends = ops
            .iter()
            .filter(|o| matches!(o, Op::ReqEnd { .. }))
            .count();
        assert_eq!(starts, 100);
        assert_eq!(ends, 100);
        // Brackets alternate: no nested or dangling requests.
        let mut open = false;
        for op in &ops {
            match op {
                Op::ReqStart { .. } => {
                    assert!(!open);
                    open = true;
                }
                Op::ReqEnd { .. } => {
                    assert!(open);
                    open = false;
                }
                _ => {}
            }
        }
        assert!(!open);
    }

    #[test]
    fn closed_loop_arrivals_are_zero_and_open_loop_monotone() {
        let closed = KvStore::new(1, 1024, 50, 0.6, 0, None);
        for op in drain(&closed, 0) {
            if let Op::ReqStart { arrival, .. } = op {
                assert_eq!(arrival, 0);
            }
        }
        let open = KvStore::new(1, 1024, 50, 0.6, 0, Some(500));
        let mut prev = 0;
        for op in drain(&open, 0) {
            if let Op::ReqStart { arrival, .. } = op {
                assert!(arrival > 0 && arrival >= prev, "{arrival} after {prev}");
                prev = arrival;
            }
        }
        assert!(prev > 0);
    }

    #[test]
    fn write_mix_tracks_the_knob() {
        let w = KvStore::new(1, 4096, 2000, 0.9, 25, None);
        let puts = drain(&w, 0)
            .iter()
            .filter(|o| matches!(o, Op::ReqEnd { class } if *class == CLASS_PUT))
            .count();
        // 25% of 2000 with deterministic sampling noise.
        assert!((380..=620).contains(&puts), "puts = {puts}");
    }

    #[test]
    fn addresses_stay_inside_the_store() {
        let w = KvStore::new(2, 1024, 200, 1.2, 50, None);
        let hi = w.footprint_bytes() + 4096;
        for op in drain(&w, 1) {
            match op {
                Op::Load(a) | Op::Store(a) => assert!(a < hi),
                Op::LoadBatch {
                    base,
                    stride,
                    count,
                }
                | Op::StoreBatch {
                    base,
                    stride,
                    count,
                } => {
                    assert!(base + u64::from(stride) * u64::from(count) <= hi);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn spawn_is_deterministic_per_thread() {
        let w = KvStore::new(4, 4096, 300, 0.9, 10, Some(700));
        assert_eq!(drain(&w, 2), drain(&w, 2));
        assert_ne!(drain(&w, 0), drain(&w, 1));
    }
}
