//! Run statistics in the shape of the paper's figures.

use pimdsm_engine::Cycle;
use pimdsm_faults::RecoveryStats;
use pimdsm_net::NetStats;
use pimdsm_obs::EpochSeries;
use pimdsm_proto::{Census, Level, ProtoStats};
use pimdsm_svc::SvcStats;

/// Per-thread time accounting.
///
/// The paper divides execution time into *Memory* (processor stalled on
/// memory accesses) and *Processor* (useful instructions, synchronization
/// spinning, and non-memory pipeline hazards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAcct {
    /// Cycles executing instructions (includes issue slots for memory
    /// operations).
    pub compute: Cycle,
    /// Cycles stalled on memory (load misses, full write buffer,
    /// offload waits).
    pub memory: Cycle,
    /// Cycles spinning at barriers and locks (Processor time in the
    /// paper's split).
    pub sync: Cycle,
    /// Cycle at which the thread finished.
    pub finish: Cycle,
}

impl ThreadAcct {
    /// Processor time under the paper's classification.
    pub fn processor(&self) -> Cycle {
        self.compute + self.sync
    }
}

/// Complete statistics of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture name ("NUMA", "COMA", "AGG").
    pub arch: String,
    /// Application name.
    pub app: String,
    /// Extra run label (e.g. "1/4AGG75").
    pub label: String,
    /// End-to-end execution time in cycles.
    pub total_cycles: Cycle,
    /// Per-thread accounting.
    pub threads: Vec<ThreadAcct>,
    /// Protocol statistics (read levels, invalidations, ...).
    pub proto: ProtoStats,
    /// Line-state census at end of run (Figure 8).
    pub census: Census,
    /// Network statistics.
    pub net: NetStats,
    /// Mean utilization of directory controllers / D-node processors.
    pub controller_util: f64,
    /// (total, max-per-link) busy cycles on the interconnect.
    pub link_busy: (Cycle, Cycle),
    /// Cycles spent in dynamic reconfiguration (Figure 10-(a)), if any.
    pub reconfig_cycles: Cycle,
    /// Whether a [`ReconfigPlan`](crate::ReconfigPlan) was armed for this
    /// run. Distinguishes "reconfigured for free / never reached the
    /// barrier" (`true`, `reconfig_cycles == 0`) from "no plan at all".
    pub reconfig_armed: bool,
    /// Fault-injection and recovery accounting, when a
    /// [`FaultPlan`](pimdsm_faults::FaultPlan) was attached
    /// ([`Machine::set_faults`](crate::Machine::set_faults)).
    pub faults: Option<RecoveryStats>,
    /// Per-request service statistics (latency percentiles, throughput
    /// counts), when the workload issued `ReqStart`/`ReqEnd` brackets —
    /// i.e. for the [`pimdsm_svc`] serving workloads.
    pub svc: Option<SvcStats>,
    /// Epoch-sampled metric time-series, when sampling was enabled
    /// ([`Machine::sample_epochs`](crate::Machine::sample_epochs)).
    pub epochs: Option<EpochSeries>,
}

impl RunReport {
    /// Mean per-thread memory-stall cycles (the paper's Memory bar).
    pub fn memory_time(&self) -> f64 {
        mean(self.threads.iter().map(|t| t.memory))
    }

    /// Mean per-thread processor cycles (everything that is not memory
    /// stall, measured against the run length).
    pub fn processor_time(&self) -> f64 {
        self.total_cycles as f64 - self.memory_time()
    }

    /// Fraction of execution spent stalled on memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.memory_time() / self.total_cycles as f64
        }
    }

    /// Sum of all read latencies (the quantity of Figure 7), per level.
    pub fn read_latency_by_level(&self) -> [Cycle; 5] {
        self.proto.read_latency_by_level
    }

    /// Figure 7's component decomposition: for each access level, the
    /// summed read latency split into cache / network / handler / DRAM /
    /// queueing cycles (indexed by [`pimdsm_obs::breakdown`]). Each row
    /// sums to the matching [`read_latency_by_level`](Self::read_latency_by_level)
    /// entry — the transaction walk attributes every cycle to exactly one
    /// component.
    pub fn read_breakdown_by_level(&self) -> [[Cycle; 5]; 5] {
        self.proto.read_breakdown_by_level
    }

    /// Total summed read latency.
    pub fn total_read_latency(&self) -> Cycle {
        self.proto.total_read_latency()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:>5} {:<8} {:>12} cycles  (memory {:>4.1}%, reads {}, 2hop {}, 3hop {})",
            self.arch,
            self.label,
            self.total_cycles,
            self.memory_fraction() * 100.0,
            self.proto.total_reads(),
            self.proto.reads_by_level[Level::Hop2.index()],
            self.proto.reads_by_level[Level::Hop3.index()],
        )
    }
}

impl pimdsm_obs::ToJson for ThreadAcct {
    fn to_json(&self) -> pimdsm_obs::JsonValue {
        use pimdsm_obs::JsonValue;
        let ThreadAcct {
            compute,
            memory,
            sync,
            finish,
        } = *self;
        JsonValue::obj([
            ("compute", JsonValue::u64(compute)),
            ("memory", JsonValue::u64(memory)),
            ("sync", JsonValue::u64(sync)),
            ("finish", JsonValue::u64(finish)),
        ])
    }
}

impl pimdsm_obs::ToJson for RunReport {
    fn to_json(&self) -> pimdsm_obs::JsonValue {
        use pimdsm_obs::JsonValue;
        let RunReport {
            arch,
            app,
            label,
            total_cycles,
            threads,
            proto,
            census,
            net,
            controller_util,
            link_busy: (link_total, link_max),
            reconfig_cycles,
            reconfig_armed,
            faults,
            svc,
            epochs,
        } = self;
        let mut fields = vec![
            ("arch", JsonValue::str(arch.as_str())),
            ("app", JsonValue::str(app.as_str())),
            ("label", JsonValue::str(label.as_str())),
            ("total_cycles", JsonValue::u64(*total_cycles)),
            (
                "threads",
                JsonValue::arr(threads.iter().map(|t| t.to_json())),
            ),
            ("proto", proto.to_json()),
            ("census", census.to_json()),
            ("net", net.to_json()),
            ("controller_util", JsonValue::num(*controller_util)),
            (
                "link_busy",
                JsonValue::obj([
                    ("total", JsonValue::u64(*link_total)),
                    ("max_per_link", JsonValue::u64(*link_max)),
                ]),
            ),
            ("reconfig_cycles", JsonValue::u64(*reconfig_cycles)),
            ("reconfig_armed", JsonValue::Bool(*reconfig_armed)),
            ("memory_time", JsonValue::num(self.memory_time())),
            ("processor_time", JsonValue::num(self.processor_time())),
            ("memory_fraction", JsonValue::num(self.memory_fraction())),
        ];
        if let Some(f) = faults {
            fields.push(("faults", f.to_json()));
        }
        if let Some(s) = svc {
            fields.push(("svc", s.to_json()));
        }
        if let Some(e) = epochs {
            fields.push(("epochs", e.to_json()));
        }
        JsonValue::obj(fields)
    }
}

fn mean(iter: impl Iterator<Item = Cycle>) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(threads: Vec<ThreadAcct>, total: Cycle) -> RunReport {
        RunReport {
            arch: "AGG".into(),
            app: "FFT".into(),
            label: "1/1AGG75".into(),
            total_cycles: total,
            threads,
            proto: ProtoStats::default(),
            census: Census::default(),
            net: NetStats::default(),
            controller_util: 0.0,
            link_busy: (0, 0),
            reconfig_cycles: 0,
            reconfig_armed: false,
            faults: None,
            svc: None,
            epochs: None,
        }
    }

    #[test]
    fn memory_time_is_mean_over_threads() {
        let r = report(
            vec![
                ThreadAcct {
                    memory: 100,
                    ..Default::default()
                },
                ThreadAcct {
                    memory: 300,
                    ..Default::default()
                },
            ],
            1000,
        );
        assert_eq!(r.memory_time(), 200.0);
        assert_eq!(r.processor_time(), 800.0);
        assert!((r.memory_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = report(vec![], 0);
        assert_eq!(r.memory_time(), 0.0);
        assert_eq!(r.memory_fraction(), 0.0);
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn thread_acct_processor_split() {
        let t = ThreadAcct {
            compute: 70,
            sync: 30,
            memory: 50,
            finish: 150,
        };
        assert_eq!(t.processor(), 100);
    }
}
