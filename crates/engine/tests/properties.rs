//! Property-based tests for the simulation kernel.
#![expect(
    clippy::disallowed_types,
    reason = "BinaryHeap and HashMap are reference models to test against, never simulation state"
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use pimdsm_engine::{EventQueue, Histogram, SimRng, Timeline, Zipf};

/// The specification `EventQueue` is tested against: a plain min-heap of
/// `(time, seq, payload)` with an explicit insertion sequence for FIFO
/// tie-breaking.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    pops: u64,
    peak: usize,
}

impl HeapModel {
    fn push(&mut self, time: u64, payload: usize) {
        self.heap.push(Reverse((time, self.seq, payload)));
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let e = self.heap.pop();
        if e.is_some() {
            self.pops += 1;
        }
        e.map(|Reverse((t, _, p))| (t, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

proptest! {
    /// Service never starts before the request arrives, and the capacity
    /// handed out inside any 256-cycle window never exceeds the window
    /// plus one request's duration (the documented overflow tolerance).
    #[test]
    fn timeline_capacity_conservation(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..200), 1..300)
    ) {
        let mut t = Timeline::new();
        let mut per_window: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut max_dur = 0;
        for (at, dur) in reqs {
            let start = t.acquire(at, dur);
            prop_assert!(start >= at, "service started before arrival");
            *per_window.entry(start >> 8).or_insert(0) += dur;
            max_dur = max_dur.max(dur);
        }
        for (_, used) in per_window {
            prop_assert!(
                used <= 256 + max_dur,
                "window oversubscribed: {used} cycles booked"
            );
        }
    }

    /// With nondecreasing arrivals the timeline is a FIFO server up to
    /// the documented window-boundary tolerance: a service may overlap
    /// the previous one by at most one request duration (when the
    /// previous booking ran past its 256-cycle window).
    #[test]
    fn timeline_fifo_for_ordered_arrivals(
        mut gaps in proptest::collection::vec((0u64..50, 1u64..40), 1..100)
    ) {
        let mut t = Timeline::new();
        let mut at = 0;
        let mut prev_end = 0u64;
        let mut max_dur = 0u64;
        for (gap, dur) in gaps.drain(..) {
            at += gap;
            let start = t.acquire(at, dur);
            max_dur = max_dur.max(dur);
            prop_assert!(
                start + max_dur >= prev_end,
                "overlap beyond the one-request tolerance: start {start}, prev end {prev_end}"
            );
            prev_end = prev_end.max(start + dur);
        }
    }

    /// Retirement is invisible: two timelines fed the same `(at, dur)`
    /// stream, with every `at` at or after a nondecreasing floor, agree on
    /// every start and on busy cycles when one of them retires the chunks
    /// behind the floor after every floor advance. Floor steps range from
    /// a few cycles to past a chunk, plus 2M-cycle jumps (disk faults);
    /// bookings land just past the floor, across chunk boundaries, and a
    /// disk fault ahead of it.
    #[test]
    fn timeline_retirement_is_invisible(
        ops in proptest::collection::vec((0u64..7, 0u64..100_000, 1u64..300), 1..400)
    ) {
        let mut kept = Timeline::new();
        let mut retired = Timeline::new();
        let mut floor = 0u64;
        for (kind, x, dur) in ops {
            match kind {
                0 | 1 => {
                    floor += if kind == 0 { x } else { 2_000_000 + x };
                    retired.retire_before(floor);
                }
                _ => {
                    let at = floor
                        + match kind {
                            2 => x % 64,
                            3 => x % 4096,
                            4 => x,
                            5 => 2_000_000 + x,
                            _ => 0,
                        };
                    prop_assert_eq!(kept.acquire(at, dur), retired.acquire(at, dur), "at {}", at);
                }
            }
        }
        prop_assert_eq!(kept.busy_cycles(), retired.busy_cycles());
    }

    /// The event queue pops every event in time order, FIFO on ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..100, 0..200)
    ) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(t, seq);
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((pt, pseq)) = prev {
                prop_assert!(t > pt || (t == pt && seq > pseq), "order violated");
            }
            prev = Some((t, seq));
        }
        prop_assert!(q.is_empty());
    }

    /// The event queue is observationally identical to a `BinaryHeap`
    /// reference model under random interleaved push/pop traffic with
    /// heavy ties: every pop, every peek, the live length, and the
    /// lifetime `pops`/`peak_len` counters all agree. Deltas are drawn to
    /// cluster times (ties), span typical protocol latencies, and jump
    /// far ahead (disk-fault-sized latencies), so inserts land at every
    /// position of the sorted queue.
    #[test]
    fn event_queue_matches_heap_reference_model(
        ops in proptest::collection::vec((0u64..8, 0u64..2000), 1..500)
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        let mut now = 0u64;
        let mut next_payload = 0usize;
        for (kind, x) in ops {
            match kind {
                0..=4 => {
                    let delta = match kind {
                        0 => 0,
                        1 => x % 4,
                        2 => x,
                        3 => 1_000_000 + x,
                        _ => x % 64,
                    };
                    q.push(now + delta, next_payload);
                    model.push(now + delta, next_payload);
                    next_payload += 1;
                }
                _ => {
                    let got = q.pop();
                    prop_assert_eq!(got, model.pop());
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        loop {
            let got = q.pop();
            prop_assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.total_pops(), model.pops);
        prop_assert_eq!(q.peak_len(), model.peak);
    }

    /// Counter parity on a pure push-then-drain schedule: `peak_len` is
    /// the high-water mark and `total_pops` counts only successful pops,
    /// exactly as the reference model defines them.
    #[test]
    fn event_queue_counters_match_reference(
        times in proptest::collection::vec(0u64..50, 0..200)
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        for (payload, &t) in times.iter().enumerate() {
            q.push(t, payload);
            model.push(t, payload);
        }
        while q.pop().is_some() {
            model.pop();
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(model.pop(), None);
        prop_assert_eq!(q.total_pops(), model.pops);
        prop_assert_eq!(q.peak_len(), model.peak);
    }

    /// RNG ranges stay within bounds and forks are deterministic.
    #[test]
    fn rng_bounds_and_fork_determinism(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            let x = a.range(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
            prop_assert_eq!(x, b.range(lo, lo + span));
        }
        let mut fa = a.fork(7);
        let mut fb = b.fork(7);
        prop_assert_eq!(fa.next_u64(), fb.next_u64());
    }

    /// Histogram bucket indexing invariants: every recorded value lands in
    /// the documented bucket (`buckets()[i]` covers `[2^i, 2^(i+1))`, with
    /// bucket 0 holding {0, 1} and bucket 63 capped at `u64::MAX`), bucket
    /// bounds invert the mapping, counts are conserved, and percentiles are
    /// monotone and bounded by the observed maximum. Boundary values —
    /// exact powers of two, their neighbours, and `u64::MAX` — are mixed
    /// into every case.
    #[test]
    fn histogram_bucket_indexing_invariants(
        values in proptest::collection::vec(any::<u64>(), 1..100),
        shifts in proptest::collection::vec(0u32..64, 1..20)
    ) {
        let mut h = Histogram::new();
        let mut expected = [0u64; 64];
        let boundary = shifts
            .iter()
            .flat_map(|&s| {
                let p = 1u64 << s;
                [p, p.saturating_sub(1), p.saturating_add(1)]
            })
            .chain([0, 1, u64::MAX]);
        for v in values.iter().copied().chain(boundary) {
            let i = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            prop_assert!(
                (lo..=hi).contains(&v),
                "value {v} mapped to bucket {i} = [{lo}, {hi}]"
            );
            // Documented closed form: MSB position for v > 1.
            if v > 1 {
                prop_assert_eq!(i, 63 - v.leading_zeros() as usize);
            } else {
                prop_assert_eq!(i, 0);
            }
            h.record(v);
            expected[i] += 1;
        }
        prop_assert_eq!(h.buckets(), &expected);
        prop_assert_eq!(h.count(), expected.iter().sum::<u64>());
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            let q = h.percentile(p);
            prop_assert!(q >= prev, "percentile not monotone at p{p}");
            prop_assert!(q <= h.max() as f64);
            prev = q;
        }
    }

    /// Zipf samples stay in range for any size/exponent.
    #[test]
    fn zipf_in_range(n in 1usize..2000, theta in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Skew monotonicity, pointwise: Zipf is inverse-CDF sampled and
    /// `p_i ∝ i^-θ` is likelihood-ratio ordered in θ, so under common
    /// random numbers a higher exponent never yields a *colder* (higher)
    /// index than a lower one. This is the noise-free form of "higher θ
    /// puts more mass on the hot keys".
    #[test]
    fn zipf_skew_monotone_under_common_draws(
        n in 2usize..2000,
        theta in 0.0f64..1.5,
        delta in 0.01f64..1.0,
        seed in any::<u64>()
    ) {
        let cold = Zipf::new(n, theta);
        let hot = Zipf::new(n, theta + delta);
        let mut rc = SimRng::new(seed);
        let mut rh = rc.clone();
        for _ in 0..64 {
            let c = cold.sample(&mut rc);
            let h = hot.sample(&mut rh);
            prop_assert!(h <= c, "θ={theta} drew {c}, θ+{delta} drew hotter-is-colder {h}");
        }
    }

    /// Two independently constructed samplers with equal parameters and
    /// equal seeds produce bit-identical index sequences.
    #[test]
    fn zipf_equal_seeds_bit_identical(
        n in 1usize..500,
        theta in 0.0f64..2.0,
        seed in any::<u64>()
    ) {
        let z1 = Zipf::new(n, theta);
        let z2 = Zipf::new(n, theta);
        let mut r1 = SimRng::new(seed);
        let mut r2 = SimRng::new(seed);
        let a: Vec<usize> = (0..128).map(|_| z1.sample(&mut r1)).collect();
        let b: Vec<usize> = (0..128).map(|_| z2.sample(&mut r2)).collect();
        prop_assert_eq!(a, b);
    }
}
