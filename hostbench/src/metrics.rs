//! The metric catalogue and the statistics the benchmark reports them with.
//!
//! Every number is host time or a host count unless its name says
//! *simulated* in [`PER_LAYER`]'s documentation.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off; each is the median over
/// the measured passes.
pub const END_TO_END: [MetricDef; 4] = [
    // Σ over points of workload build + Machine::build + Machine::run +
    // machine teardown.
    m("wall_s", "s", Lower),
    // Σ over points of workload build + Machine::build.
    m("setup_s", "s", Lower),
    // Txn walks ÷ Σ Machine::run seconds.
    m("walks_per_s", "walks/s", Higher),
    // Peak live heap over the pass (counting allocator).
    m("peak_heap_mb", "MiB", Lower),
];

/// Per-layer metrics, printed by the traced run. Counts and untraced
/// timings come from the measured passes; the probe timings come from the
/// traced pass. `proto.fastpath_frac` through `proto.disk_faults` and the
/// first three `net.` metrics are *simulated* statistics.
pub const PER_LAYER: [MetricDef; 33] = [
    m("workloads.ops", "count", Lower),
    m("workloads.memrefs", "count", Lower),
    m("workloads.gen_ms", "ms", Lower),
    m("core.build_ms", "ms", Lower),
    m("core.build_allocs", "count", Lower),
    m("core.build_mb", "MiB", Lower),
    m("core.run_ms", "ms", Lower),
    m("core.run_allocs", "count", Lower),
    m("core.driver_ms_est", "ms", Lower),
    m("engine.events", "count", Lower),
    m("engine.queue_peak", "count", Lower),
    m("engine.queue_ns", "ns", Lower),
    m("engine.acquire_ns", "ns", Lower),
    m("proto.walks", "count", Lower),
    m("proto.steps", "count", Lower),
    m("proto.replay_ms", "ms", Lower),
    m("proto.ns_per_access", "ns", Lower),
    m("proto.fastpath_frac", "ratio", Higher),
    m("proto.remote_reads", "count", Lower),
    m("proto.remote_writes", "count", Lower),
    m("proto.invalidations", "count", Lower),
    m("proto.write_backs", "count", Lower),
    m("proto.injections", "count", Lower),
    m("proto.page_outs", "count", Lower),
    m("proto.disk_faults", "count", Lower),
    m("mem.l2_get_ns", "ns", Lower),
    m("mem.am_insert_ns", "ns", Lower),
    m("mem.keyed_queue_ns", "ns", Lower),
    m("net.messages", "count", Lower),
    m("net.bytes", "bytes", Lower),
    m("net.queueing_kcycles", "kcycles", Lower),
    m("net.send_ns", "ns", Lower),
    m("bench.trace_overhead_frac", "ratio", Lower),
];

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of nothing");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for two values: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
