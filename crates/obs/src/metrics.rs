//! Epoch-based metrics sampling.
//!
//! The paper's evaluation reasons about *where cycles go over time* —
//! directory-controller occupancy, link contention, attraction-memory
//! behaviour — not just end-of-run totals. [`EpochSampler`] turns cheap
//! system-wide counter snapshots ([`EpochProbe`]) taken every `epoch`
//! cycles into per-epoch time-series ([`EpochSeries`]), differencing
//! cumulative counters so each point is the activity *within* the window.

use pimdsm_engine::Cycle;

/// Point-in-time snapshot of cumulative system counters.
///
/// All fields are running totals since cycle 0; the sampler differences
/// consecutive probes to get per-epoch activity. Produced by
/// `MemSystem::epoch_probe` implementations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochProbe {
    /// Sum of controller busy cycles across all directory/memory controllers.
    pub ctrl_busy: Cycle,
    /// Number of controllers contributing to `ctrl_busy`.
    pub ctrl_count: usize,
    /// Sum of busy cycles across all network links.
    pub link_busy: Cycle,
    /// Number of network links.
    pub link_count: usize,
    /// Total SharedList entries across D-nodes (instantaneous depth).
    pub shared_list_depth: u64,
    /// Total FreeList slots remaining across D-nodes (instantaneous).
    pub free_slots: u64,
    /// Cumulative reads by satisfaction level (FLC, SLC, Memory, 2Hop, 3Hop).
    pub reads_by_level: [u64; 5],
    /// Cumulative protocol messages on the network.
    pub net_messages: u64,
}

impl EpochProbe {
    pub fn total_reads(&self) -> u64 {
        self.reads_by_level.iter().sum()
    }
}

/// One recorded time-series: a name plus one point per epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub points: Vec<f64>,
}

impl Series {
    fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Mean of the points (0.0 if empty), accumulated incrementally in
    /// point order.
    fn mean(&self) -> f64 {
        let mut mean = 0.0;
        for (i, &v) in self.points.iter().enumerate() {
            mean += (v - mean) / (i + 1) as f64;
        }
        mean
    }

    /// Largest point (0.0 if empty).
    fn max(&self) -> f64 {
        self.points.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }
}

/// Completed sampling result: epoch boundaries plus the recorded series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochSeries {
    /// Cycle window of each epoch.
    pub epoch_cycles: Cycle,
    /// End-cycle of each sampled epoch (monotone increasing).
    pub ends: Vec<Cycle>,
    pub series: Vec<Series>,
}

impl EpochSeries {
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

impl crate::json::ToJson for EpochSeries {
    fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        JsonValue::obj([
            ("epoch_cycles", JsonValue::u64(self.epoch_cycles)),
            (
                "ends",
                JsonValue::arr(self.ends.iter().map(|&c| JsonValue::u64(c))),
            ),
            (
                "series",
                JsonValue::arr(self.series.iter().map(|s| {
                    JsonValue::obj([
                        ("name", JsonValue::str(s.name.clone())),
                        (
                            "points",
                            JsonValue::arr(s.points.iter().map(|&p| JsonValue::num(p))),
                        ),
                        ("mean", JsonValue::num(s.mean())),
                        ("max", JsonValue::num(s.max())),
                    ])
                })),
            ),
        ])
    }
}

/// Samples [`EpochProbe`]s at a fixed cycle cadence and builds time-series.
///
/// Usage: construct with the epoch length, call [`EpochSampler::due`] from
/// the simulation loop, and when it returns true feed a fresh probe to
/// [`EpochSampler::sample`]. Call [`EpochSampler::finish`] with the final
/// probe and cycle to close the last partial epoch.
#[derive(Clone, Debug)]
pub struct EpochSampler {
    epoch: Cycle,
    next_at: Cycle,
    prev: EpochProbe,
    prev_at: Cycle,
    out: EpochSeries,
}

const SERIES_NAMES: [&str; 8] = [
    "controller_util",
    "link_busy_frac",
    "shared_list_depth",
    "free_slots",
    "reads",
    "read_frac_local",
    "read_frac_remote",
    "net_messages",
];

impl EpochSampler {
    /// `epoch` is clamped to at least 1 cycle.
    pub fn new(epoch: Cycle) -> Self {
        let epoch = epoch.max(1);
        EpochSampler {
            epoch,
            next_at: epoch,
            prev: EpochProbe::default(),
            prev_at: 0,
            out: EpochSeries {
                epoch_cycles: epoch,
                ends: Vec::new(),
                series: SERIES_NAMES.iter().map(|n| Series::new(*n)).collect(),
            },
        }
    }

    /// True when `now` has crossed the next epoch boundary.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_at
    }

    /// Record the epoch(s) ending at or before `now` from a fresh probe.
    pub fn sample(&mut self, now: Cycle, probe: &EpochProbe) {
        if now < self.next_at {
            return;
        }
        self.record(now, probe);
        // Advance past `now`; event-driven time may leap several epochs.
        while self.next_at <= now {
            self.next_at += self.epoch;
        }
    }

    /// Close the final (possibly partial) epoch and return the series.
    pub fn finish(mut self, now: Cycle, probe: &EpochProbe) -> EpochSeries {
        if now > self.prev_at {
            self.record(now, probe);
        }
        self.out
    }

    fn record(&mut self, now: Cycle, probe: &EpochProbe) {
        let window = (now - self.prev_at).max(1) as f64;
        let d_ctrl = probe.ctrl_busy.saturating_sub(self.prev.ctrl_busy);
        let d_link = probe.link_busy.saturating_sub(self.prev.link_busy);
        let d_reads = probe.total_reads().saturating_sub(self.prev.total_reads());
        let d_msgs = probe.net_messages.saturating_sub(self.prev.net_messages);
        // Local = FLC + SLC + local memory; remote = 2Hop + 3Hop.
        let local_prev: u64 = self.prev.reads_by_level[..3].iter().sum();
        let local_now: u64 = probe.reads_by_level[..3].iter().sum();
        let d_local = local_now.saturating_sub(local_prev);
        let read_denom = d_reads.max(1) as f64;

        let ctrl_denom = window * probe.ctrl_count.max(1) as f64;
        let link_denom = window * probe.link_count.max(1) as f64;
        let values = [
            d_ctrl as f64 / ctrl_denom,
            d_link as f64 / link_denom,
            probe.shared_list_depth as f64,
            probe.free_slots as f64,
            d_reads as f64,
            d_local as f64 / read_denom,
            (d_reads - d_local.min(d_reads)) as f64 / read_denom,
            d_msgs as f64,
        ];
        for (series, v) in self.out.series.iter_mut().zip(values) {
            series.points.push(v);
        }
        self.out.ends.push(now);
        self.prev = probe.clone();
        self.prev_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(ctrl: Cycle, link: Cycle, reads: u64) -> EpochProbe {
        EpochProbe {
            ctrl_busy: ctrl,
            ctrl_count: 2,
            link_busy: link,
            link_count: 4,
            shared_list_depth: 3,
            free_slots: 10,
            reads_by_level: [reads, 0, 0, 0, 0],
            net_messages: reads / 2,
        }
    }

    #[test]
    fn differences_cumulative_counters_per_epoch() {
        let mut s = EpochSampler::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.sample(100, &probe(50, 100, 10));
        s.sample(200, &probe(150, 300, 30));
        let out = s.finish(250, &probe(175, 400, 40));
        assert_eq!(out.ends, vec![100, 200, 250]);
        let util = out.series_named("controller_util").unwrap();
        // Epoch 1: 50 busy / (100 cycles * 2 ctrls) = 0.25
        assert!((util.points[0] - 0.25).abs() < 1e-9);
        // Epoch 2: 100 busy / 200 = 0.5
        assert!((util.points[1] - 0.5).abs() < 1e-9);
        let reads = out.series_named("reads").unwrap();
        assert_eq!(reads.points, vec![10.0, 20.0, 10.0]);
    }

    #[test]
    fn json_summarizes_each_series_by_mean_and_max() {
        let out = EpochSeries {
            epoch_cycles: 10,
            ends: vec![10, 20, 30, 40],
            series: vec![
                Series {
                    name: "known".into(),
                    points: vec![0.1, 0.7, 0.2, 0.4],
                },
                Series::new("empty"),
            ],
        };
        let json = crate::json::ToJson::to_json(&out);
        let series = json.get("series").and_then(|s| s.as_arr()).unwrap();
        let summary = |i: usize, key: &str| series[i].get(key).and_then(|v| v.as_f64()).unwrap();
        // The incremental mean of 0.1, 0.7, 0.2, 0.4.
        let mut mean = 0.1;
        mean += (0.7 - mean) / 2.0;
        mean += (0.2 - mean) / 3.0;
        mean += (0.4 - mean) / 4.0;
        assert_eq!(summary(0, "mean"), mean);
        assert!((mean - 0.35).abs() < 1e-12);
        assert_eq!(summary(0, "max"), 0.7);
        assert_eq!(summary(1, "mean"), 0.0);
        assert_eq!(summary(1, "max"), 0.0);
    }

    #[test]
    fn event_time_leaps_do_not_duplicate_epochs() {
        let mut s = EpochSampler::new(10);
        s.sample(35, &probe(5, 5, 5));
        assert!(!s.due(39));
        assert!(s.due(40));
        let out = s.finish(35, &probe(5, 5, 5));
        assert_eq!(out.ends, vec![35]);
    }
}
