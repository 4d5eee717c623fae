//! # pimdsm-faults — deterministic fault injection
//!
//! Declarative fault schedules for the PIM-DSM simulator. A [`FaultPlan`]
//! is plain data — *kill node 1 at cycle 20 000, rejoin it at cycle
//! 40 000* — that the machine driver replays against the simulated cycle
//! clock. Because triggers are expressed in simulated time only, a plan is
//! bit-deterministic by construction: the same plan over the same workload
//! produces the same event sequence, reports and traces, byte for byte.
//!
//! The crate deliberately knows nothing about the protocols. It supplies:
//!
//! * the fault vocabulary ([`FaultKind`], [`FaultEvent`]),
//! * the policies: the per-run [`Durability`] and the bounded
//!   [`retry_wait`] every transaction racing a recovery pays,
//! * the runtime queue the driver pops ([`FaultSchedule`]), and
//! * the accounting sink every recovery path feeds ([`RecoveryStats`]),
//!   including a recovery-latency [`Histogram`] for p50/p99 reporting.
//!
//! The protocol crates implement what a fault *means* (re-homing pages,
//! re-electing masters, scrubbing sharer sets); the machine driver decides
//! *when* to apply one. This split keeps the fault model reusable across
//! AGG, COMA and NUMA.

#![warn(missing_docs)]

use pimdsm_engine::{Cycle, Histogram};
use pimdsm_obs::{JsonValue, ToJson};

/// Node identifier, matching the protocol crates' convention.
pub type NodeId = usize;

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node dies instantly: caches, attraction memory and any
    /// directory/home responsibility it held are lost. Surviving nodes
    /// re-home its pages and re-elect masters; what data survives depends
    /// on the run's [`Durability`] policy.
    Kill {
        /// The victim node.
        node: NodeId,
    },
    /// A previously killed node comes back cold (empty caches, no pages
    /// homed at it) and is eligible for compute binding again.
    Rejoin {
        /// The returning node.
        node: NodeId,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at (or after) which the fault fires: the first event-loop
    /// step at or after it applies the fault.
    pub at: Cycle,
    /// What fires.
    pub kind: FaultKind,
}

/// What survives a node kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Nothing: dirty data on the victim is lost and threads restart the
    /// current phase's work (lost work = cycles since the run began).
    #[default]
    None,
    /// Epoch checkpointing: work is durable up to the last checkpoint
    /// boundary, so lost work is only the cycles since then.
    Checkpoint {
        /// Checkpoint interval in cycles.
        interval: Cycle,
    },
    /// Page replication: every home/master copy has a replica elsewhere,
    /// so no line data is lost (`lines_lost` stays 0) and no work is
    /// discarded; recovery still pays the re-homing traffic.
    Replication,
}

impl Durability {
    /// Work discarded by a kill at `now` under this policy, in cycles.
    pub fn lost_work(&self, now: Cycle) -> Cycle {
        match *self {
            Durability::None => now,
            Durability::Checkpoint { interval } => {
                if interval == 0 {
                    0
                } else {
                    now % interval
                }
            }
            Durability::Replication => 0,
        }
    }
}

/// Upper bound on the total wait a transaction spends retrying a page
/// whose home is still being reconstructed after a kill, in cycles.
pub const RETRY_TIMEOUT: Cycle = 5_000;

/// Initial backoff between retry probes, in cycles; doubles each attempt.
pub const RETRY_BACKOFF: Cycle = 200;

/// Wait a transaction spends at `now` for a page that recovers at
/// `recovered_at`, together with the number of retry probes issued.
///
/// Probes back off exponentially from [`RETRY_BACKOFF`] until they span
/// the wait, which is capped by both the recovery completion and
/// [`RETRY_TIMEOUT`]; five probes span the timeout. Purely arithmetic —
/// deterministic.
pub fn retry_wait(now: Cycle, recovered_at: Cycle) -> (Cycle, u32) {
    if recovered_at <= now {
        return (0, 0);
    }
    let wait = (recovered_at - now).min(RETRY_TIMEOUT);
    let mut probes = 0u32;
    let mut t = 0;
    let mut step = RETRY_BACKOFF;
    while t < wait {
        probes += 1;
        t += step;
        step = step.saturating_mul(2);
    }
    (wait, probes)
}

/// A complete, declarative fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, applied in the order listed when several
    /// share a cycle.
    pub events: Vec<FaultEvent>,
    /// What survives a kill.
    pub durability: Durability,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a kill of `node` at `cycle`.
    pub fn kill_at(mut self, node: NodeId, cycle: Cycle) -> Self {
        self.events.push(FaultEvent {
            at: cycle,
            kind: FaultKind::Kill { node },
        });
        self
    }

    /// Adds a rejoin of `node` at `cycle`.
    pub fn rejoin_at(mut self, node: NodeId, cycle: Cycle) -> Self {
        self.events.push(FaultEvent {
            at: cycle,
            kind: FaultKind::Rejoin { node },
        });
        self
    }

    /// Sets the durability policy.
    pub fn with_durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }
}

/// Runtime queue over a [`FaultPlan`]: the driver polls it from the event
/// loop.
///
/// Events are stably sorted by cycle, preserving plan order among ties,
/// so the pop sequence is a pure function of the plan.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    by_cycle: Vec<FaultEvent>,
    next: usize,
}

impl FaultSchedule {
    /// Builds the runtime queue from a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut by_cycle = plan.events.clone();
        by_cycle.sort_by_key(|e| e.at);
        FaultSchedule { by_cycle, next: 0 }
    }

    /// Earliest still-pending trigger cycle, if any.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.by_cycle.get(self.next).map(|e| e.at)
    }

    /// Pops every event due at or before `now`, in order.
    pub fn due_at_cycle(&mut self, now: Cycle) -> Vec<FaultKind> {
        let mut out = Vec::new();
        while let Some(e) = self.by_cycle.get(self.next) {
            if e.at > now {
                break;
            }
            out.push(e.kind);
            self.next += 1;
        }
        out
    }
}

/// Accounting for everything fault injection did to a run.
///
/// The machine driver owns one of these per run; the protocol recovery
/// paths and the fabric's retry path feed it. All counters are integers in
/// simulated cycles or event counts, so reports carrying them render
/// identically across runs and job counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Nodes killed.
    pub kills: u64,
    /// Nodes rejoined.
    pub rejoins: u64,
    /// Pages whose home moved off a dead node.
    pub pages_rehomed: u64,
    /// Lines whose master/ownership was re-elected onto a survivor.
    pub lines_recalled: u64,
    /// Lines whose only up-to-date copy died with the victim.
    pub lines_lost: u64,
    /// Work discarded by kills under the run's durability policy, cycles.
    pub lost_work_cycles: u64,
    /// Retry probes issued against recovering pages.
    pub retries: u64,
    /// Total cycles transactions spent waiting on recovering pages.
    pub retry_wait_cycles: u64,
    /// Per-page recovery latency (cycles from kill to page usable again).
    pub recovery: Histogram,
}

impl RecoveryStats {
    /// Median per-page recovery latency, rounded to whole cycles.
    pub fn recovery_p50(&self) -> u64 {
        self.recovery.percentile(50.0).round() as u64
    }

    /// 99th-percentile per-page recovery latency, rounded to whole cycles.
    pub fn recovery_p99(&self) -> u64 {
        self.recovery.percentile(99.0).round() as u64
    }
}

impl ToJson for RecoveryStats {
    fn to_json(&self) -> JsonValue {
        let RecoveryStats {
            kills,
            rejoins,
            pages_rehomed,
            lines_recalled,
            lines_lost,
            lost_work_cycles,
            retries,
            retry_wait_cycles,
            recovery,
        } = self;
        JsonValue::obj([
            ("kills", JsonValue::u64(*kills)),
            ("rejoins", JsonValue::u64(*rejoins)),
            ("pages_rehomed", JsonValue::u64(*pages_rehomed)),
            ("lines_recalled", JsonValue::u64(*lines_recalled)),
            ("lines_lost", JsonValue::u64(*lines_lost)),
            ("lost_work_cycles", JsonValue::u64(*lost_work_cycles)),
            ("retries", JsonValue::u64(*retries)),
            ("retry_wait_cycles", JsonValue::u64(*retry_wait_cycles)),
            ("recovery", recovery.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_pops_cycle_events_in_order() {
        let plan = FaultPlan::new()
            .rejoin_at(2, 500)
            .kill_at(1, 100)
            .rejoin_at(3, 100);
        let mut s = FaultSchedule::new(&plan);
        assert_eq!(s.next_cycle(), Some(100));
        assert_eq!(s.due_at_cycle(99), vec![]);
        // Ties at cycle 100 keep plan order: kill before rejoin.
        assert_eq!(
            s.due_at_cycle(100),
            vec![FaultKind::Kill { node: 1 }, FaultKind::Rejoin { node: 3 }]
        );
        assert_eq!(s.next_cycle(), Some(500));
        assert_eq!(s.due_at_cycle(10_000), vec![FaultKind::Rejoin { node: 2 }]);
        assert_eq!(s.next_cycle(), None);
        assert_eq!(s.due_at_cycle(20_000), vec![]);
    }

    #[test]
    fn durability_lost_work() {
        assert_eq!(Durability::None.lost_work(12_345), 12_345);
        assert_eq!(
            Durability::Checkpoint { interval: 1000 }.lost_work(12_345),
            345
        );
        assert_eq!(Durability::Checkpoint { interval: 0 }.lost_work(12_345), 0);
        assert_eq!(Durability::Replication.lost_work(12_345), 0);
    }

    #[test]
    fn retry_wait_is_bounded_and_deterministic() {
        assert_eq!(retry_wait(500, 400), (0, 0));
        assert_eq!(retry_wait(500, 500), (0, 0));
        // Recovery 250 cycles out: probes at +200, +600 cover it.
        assert_eq!(retry_wait(0, 250), (250, 2));
        // Recovery 4 000 cycles out: probes at +200, +600, +1 400, +3 000
        // and +6 200.
        assert_eq!(retry_wait(1_000, 5_000), (4_000, 5));
        // Recovery far out: the wait is capped by the timeout, which five
        // doubling probes span.
        assert_eq!(retry_wait(0, 50_000), (RETRY_TIMEOUT, 5));
        // Determinism: same inputs, same answer.
        assert_eq!(retry_wait(0, 250), retry_wait(0, 250));
    }
}
