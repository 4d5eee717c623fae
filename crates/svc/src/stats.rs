//! Per-request latency and throughput accounting.

use pimdsm_engine::Histogram;
use pimdsm_obs::{JsonValue, ToJson};

/// Request classes a [`crate::SvcSpec`] workload can open.
pub const CLASS_GET: u8 = 0;
/// Write/put requests.
pub const CLASS_PUT: u8 = 1;
/// Everything that is neither a get nor a put (graph expansions,
/// PageRank vertex updates, stream chunks).
pub const CLASS_OTHER: u8 = 2;

/// Service-level statistics for one run: completed request counts per
/// class, open-loop queueing delay, and per-request latency histograms.
///
/// The machine driver owns one per run and feeds it from the
/// `ReqStart`/`ReqEnd` op pair; all counters are integers (cycles or
/// counts) so reports carrying them render identically across runs and
/// job counts. Latency percentiles of an *empty* histogram are 0.0 by
/// `Histogram::percentile`'s contract, so zero-request points render
/// cleanly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvcStats {
    /// Completed requests, all classes.
    pub requests: u64,
    /// Completed get (read) requests.
    pub gets: u64,
    /// Completed put (write) requests.
    pub puts: u64,
    /// Completed requests of other classes.
    pub other: u64,
    /// Cycles open-loop requests spent queued behind a late thread
    /// (scheduled arrival already in the past when the client issued).
    pub queued_cycles: u64,
    /// Per-request latency, all classes.
    pub latency: Histogram,
    /// Per-request latency of gets only.
    pub get_latency: Histogram,
    /// Per-request latency of puts only.
    pub put_latency: Histogram,
}

impl SvcStats {
    /// Records one completed request of `class` with end-to-end `latency`
    /// cycles (arrival to completion, queueing included).
    pub fn record(&mut self, class: u8, latency: u64) {
        self.requests += 1;
        self.latency.record(latency);
        match class {
            CLASS_GET => {
                self.gets += 1;
                self.get_latency.record(latency);
            }
            CLASS_PUT => {
                self.puts += 1;
                self.put_latency.record(latency);
            }
            _ => self.other += 1,
        }
    }

    /// Median request latency, rounded to whole cycles.
    pub fn p50(&self) -> u64 {
        self.latency.percentile(50.0).round() as u64
    }

    /// 95th-percentile request latency, rounded to whole cycles.
    pub fn p95(&self) -> u64 {
        self.latency.percentile(95.0).round() as u64
    }

    /// 99th-percentile request latency, rounded to whole cycles.
    pub fn p99(&self) -> u64 {
        self.latency.percentile(99.0).round() as u64
    }

    /// Throughput in requests per million cycles. At the paper's 1 GHz
    /// clock one Mcycle is a millisecond, so this is also kilorequests
    /// per second.
    pub fn per_mcycle(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.requests as f64 * 1_000_000.0 / total_cycles as f64
    }
}

impl ToJson for SvcStats {
    fn to_json(&self) -> JsonValue {
        let SvcStats {
            requests,
            gets,
            puts,
            other,
            queued_cycles,
            latency,
            get_latency,
            put_latency,
        } = self;
        JsonValue::obj([
            ("requests", JsonValue::u64(*requests)),
            ("gets", JsonValue::u64(*gets)),
            ("puts", JsonValue::u64(*puts)),
            ("other", JsonValue::u64(*other)),
            ("queued_cycles", JsonValue::u64(*queued_cycles)),
            ("latency", latency.to_json()),
            ("get_latency", get_latency.to_json()),
            ("put_latency", put_latency.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_classes() {
        let mut s = SvcStats::default();
        s.record(CLASS_GET, 100);
        s.record(CLASS_GET, 200);
        s.record(CLASS_PUT, 400);
        s.record(CLASS_OTHER, 800);
        assert_eq!(s.requests, 4);
        assert_eq!(s.gets, 2);
        assert_eq!(s.puts, 1);
        assert_eq!(s.other, 1);
        assert_eq!(s.latency.count(), 4);
        assert_eq!(s.get_latency.count(), 2);
        assert_eq!(s.put_latency.count(), 1);
        assert!(s.p99() >= s.p50());
    }

    #[test]
    fn empty_stats_render_cleanly() {
        // A point that completed zero requests must not NaN/panic
        // anywhere: percentiles are 0 and throughput is 0.
        let s = SvcStats::default();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p95(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.per_mcycle(0), 0.0);
        assert_eq!(s.per_mcycle(1_000_000), 0.0);
    }

    #[test]
    fn throughput_is_requests_per_mcycle() {
        let mut s = SvcStats::default();
        for _ in 0..500 {
            s.record(CLASS_GET, 10);
        }
        let t = s.per_mcycle(2_000_000);
        assert!((t - 250.0).abs() < 1e-9, "{t}");
    }
}
