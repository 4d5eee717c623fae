//! The shared transaction-walk builder.
//!
//! A memory transaction is a *walk*: cache probe → AM tag check → network
//! request → handler dispatch → DRAM access → line fill, with the
//! protocol's state machine deciding which steps run. [`Txn`] threads a
//! completion frontier through those steps and attributes every cycle of
//! the walk to exactly one latency component ([`pimdsm_obs::breakdown`]),
//! so the per-component breakdown sums to the transaction's total latency
//! *by construction*.
//!
//! [`walk`] is the only way to run one: it opens the `Txn`, lends it to
//! the protocol's body and then finishes it with the [`Level`] the body
//! returns. That level is the one source of what the walk reports: it
//! records [`ProtoStats`](crate::ProtoStats) in one place for all three
//! protocols, and the walk's `read.remote`/`write.remote` span is emitted
//! exactly when the level is remote ([`Level::is_remote`]). `Txn` has no
//! public constructor and is not `Clone`, so a walk that is dropped,
//! stored, duplicated or never finished does not compile.
//!
//! The contended resources themselves (links, controllers, DRAM ports)
//! are booked by the steps' underlying [`Fabric`] and store calls in
//! walk order; `Txn` never reorders a booking, it only accounts for the
//! result.

use pimdsm_engine::{Cycle, ServerGrant};
use pimdsm_mem::{page_of_line, Line};
use pimdsm_obs::breakdown::{CACHE, DRAM, HANDLER, NETWORK, QUEUE};
use pimdsm_obs::Event;

use crate::common::{Access, Level, NodeId, LAT};
use crate::fabric::Fabric;
use crate::system::MemSystem;

/// Whether a transaction is a read or a write/upgrade — decides the span
/// category and whether [`walk`] records read statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// A read; recorded under the satisfying level.
    Read,
    /// A write or ownership upgrade; only timing is accounted.
    Write,
}

/// One in-flight transaction walk: a monotone completion frontier plus
/// the per-component attribution of every cycle since issue. Only
/// [`walk`] creates and finishes one.
#[derive(Debug)]
pub struct Txn {
    node: NodeId,
    line: Line,
    start: Cycle,
    t: Cycle,
    comps: [Cycle; 5],
    steps: u32,
}

impl Txn {
    /// Opens a walk for `node` on `line` at cycle `now`.
    fn start(node: NodeId, line: Line, now: Cycle) -> Self {
        Txn {
            node,
            line,
            start: now,
            t: now,
            comps: [0; 5],
            steps: 0,
        }
    }

    /// The walk's current completion frontier.
    pub fn at(&self) -> Cycle {
        self.t
    }

    /// Advances the frontier to `at`, attributing the added cycles to
    /// component `comp`. A target at or before the frontier (an overlapped
    /// step) adds nothing.
    pub fn to(&mut self, comp: usize, at: Cycle) -> Cycle {
        self.steps += 1;
        if at > self.t {
            self.comps[comp] += at - self.t;
            self.t = at;
        }
        self.t
    }

    /// Pays the bounded retry wait if the walk's page is mid-recovery
    /// after a kill (see [`Fabric::retry_wait`]).
    pub fn await_recovery(&mut self, fab: &mut Fabric) {
        let w = fab.retry_wait(self.node, page_of_line(self.line), self.t);
        if w > 0 {
            self.to(QUEUE, self.t + w);
        }
    }

    /// A cache/tag probe taking `cycles`.
    pub fn probe(&mut self, cycles: Cycle) -> Cycle {
        let t = self.t + cycles;
        self.to(CACHE, t)
    }

    /// Sends `bytes` from `from` to `to` at the current frontier, booking
    /// links; link queueing is attributed to the queue component, the rest
    /// of the flight time to the network component.
    pub fn send(&mut self, fab: &mut Fabric, from: NodeId, to: NodeId, bytes: u32) -> Cycle {
        let q0 = fab.net.stats().total_queueing;
        let at = self.t;
        let arrive = fab.net.send(from, to, bytes, at);
        let queued = fab.net.stats().total_queueing - q0;
        self.to(QUEUE, (at + queued).min(arrive));
        self.to(NETWORK, arrive)
    }

    /// Accounts a dispatched handler: queueing until the grant's start,
    /// then handler latency until its reply.
    pub fn handler(&mut self, g: ServerGrant) -> Cycle {
        self.to(QUEUE, g.start);
        self.to(HANDLER, g.reply_at)
    }

    /// Accounts only the queueing of a dispatched handler whose latency is
    /// overlapped with a memory access (the walk continues from the
    /// grant's start).
    pub fn handler_start(&mut self, g: ServerGrant) -> Cycle {
        self.to(QUEUE, g.start)
    }

    /// Accounts a DRAM access completing at `m`.
    pub fn dram(&mut self, m: Cycle) -> Cycle {
        self.to(DRAM, m)
    }

    /// A disk round trip for a paged-out or spilled line.
    pub fn disk(&mut self) -> Cycle {
        let t = self.t + LAT.disk;
        self.to(DRAM, t)
    }

    /// The line-fill overhead at the requestor.
    pub fn fill(&mut self) -> Cycle {
        let t = self.t + LAT.fill;
        self.to(CACHE, t)
    }

    /// Closes the walk: emits the read/write span when `level` is remote,
    /// records read statistics and the component breakdown, and returns
    /// the [`Access`].
    fn finish(self, fab: &mut Fabric, level: Level, kind: TxnKind) -> Access {
        // Host-side profiler: one thread-local bump per walk, amortized
        // over the walk's many booked steps. Pure observation.
        pimdsm_prof::counters::add(pimdsm_prof::counters::TXN_WALKS, 1);
        pimdsm_prof::counters::add(pimdsm_prof::counters::TXN_STEPS, self.steps as u64);
        let total = self.t - self.start;
        debug_assert_eq!(
            self.comps.iter().sum::<Cycle>(),
            total,
            "breakdown must sum to the walk's total latency"
        );
        if level.is_remote() {
            let ev = match kind {
                TxnKind::Read => Event::ReadRemote,
                TxnKind::Write => Event::WriteRemote,
            };
            fab.tracer.span(
                ev,
                self.node as u32,
                self.start,
                total.max(1),
                &[("line", self.line), ("level", level.index() as u64)],
            );
        }
        if kind == TxnKind::Read {
            fab.stats.record_read(level, total);
            fab.stats.record_read_breakdown(level, &self.comps);
        }
        Access {
            done_at: self.t,
            level,
            breakdown: self.comps,
        }
    }
}

/// Runs one transaction walk for `node` on `line`, issued at `now`.
///
/// Opens the [`Txn`], lends it to `body` together with the system, and
/// finishes it with the satisfaction [`Level`] `body` returns. Finishing
/// emits the walk's `read.remote`/`write.remote` span when that level is
/// remote and records the read statistics and the breakdown, so every
/// walk is accounted exactly once.
pub fn walk<S: MemSystem>(
    sys: &mut S,
    node: NodeId,
    line: Line,
    now: Cycle,
    kind: TxnKind,
    body: impl FnOnce(&mut S, &mut Txn) -> Level,
) -> Access {
    let mut tx = Txn::start(node, line, now);
    let level = body(sys, &mut tx);
    tx.finish(sys.fabric_mut(), level, kind)
}

/// The private-cache fast path: a hit at `level` costing that level's
/// Table 1 latency, recorded (for reads) without a trace span.
pub fn cache_hit(fab: &mut Fabric, level: Level, now: Cycle, record: bool) -> Access {
    let lat = match level {
        Level::L1 => LAT.l1,
        _ => LAT.l2,
    };
    let mut comps = [0; 5];
    comps[CACHE] = lat;
    if record {
        fab.stats.record_read(level, lat);
        fab.stats.record_read_breakdown(level, &comps);
    }
    Access {
        done_at: now + lat,
        level,
        breakdown: comps,
    }
}
