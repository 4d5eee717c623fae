//! The shared per-node protocol substrate.
//!
//! All three memory systems ([`AggSystem`](crate::AggSystem),
//! [`ComaSystem`](crate::ComaSystem), [`NumaSystem`](crate::NumaSystem))
//! sit on the same physical substrate: a page table mapping pages to
//! homes, a wormhole mesh, a handler cost table and the aggregate
//! statistics/tracing sinks. The machine's fixed card (line and page
//! size, Table 1 latencies, message sizes) is constants:
//! [`pimdsm_mem::addr`] and [`LAT`](crate::LAT)/[`MSG`].
//! [`Fabric`] owns that substrate once, so a protocol file holds only its
//! state machine (directory entries and per-node stores) and walks
//! transactions over the shared [`Txn`](crate::txn::Txn) steps.
//!
//! Everything here is *timing-stateful*: dispatching a handler books a
//! [`Server`], sending a message books link timelines. Callers must invoke
//! these in transaction order with explicit cycle arguments, exactly as
//! the protocol walks do.

use std::collections::BTreeMap;

use pimdsm_engine::{Cycle, Server, ServerGrant};
use pimdsm_mem::{page_of_line, Line, Page, PageTable};
use pimdsm_net::Network;
use pimdsm_obs::{EpochProbe, Event, Tracer};

use crate::common::{HandlerCosts, HandlerKind, NodeId, NodeSet, ProtoStats, MSG};

/// The trace event of a handler occupancy span.
fn handler_event(kind: HandlerKind) -> Event {
    match kind {
        HandlerKind::Read => Event::HandlerRead,
        HandlerKind::ReadExclusive => Event::HandlerReadEx,
        HandlerKind::Acknowledgment => Event::HandlerAck,
        HandlerKind::WriteBack => Event::HandlerWriteBack,
    }
}

/// The substrate shared by every protocol: homing, interconnect, handler
/// costs, statistics and tracing.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Protocol handler cost table (Table 2).
    pub handler: HandlerCosts,
    /// Page → home-node map (first-touch or interleaved, per protocol).
    pub pages: PageTable,
    /// The contended interconnect.
    pub net: Network,
    /// Aggregate protocol statistics.
    pub stats: ProtoStats,
    /// Trace sink (disabled by default).
    pub tracer: Tracer,
    /// Nodes currently dead (fault injection). Dead nodes take no new
    /// pages, serve no requests, and are excluded from compute binding.
    pub dead: NodeSet,
    /// Pages whose home is mid-reconstruction after a kill, mapped to the
    /// cycle their recovery completes. Transactions that touch one pay a
    /// bounded retry wait (see [`Fabric::retry_wait`]).
    pub recovering: BTreeMap<Page, Cycle>,
    /// Retry probes issued so far (drained into `RecoveryStats`).
    pub retries: u64,
    /// Total cycles spent in retry waits (drained into `RecoveryStats`).
    pub retry_wait_cycles: Cycle,
}

impl Fabric {
    /// Assembles a fabric over a prebuilt network.
    pub fn new(handler: HandlerCosts, net: Network) -> Self {
        Fabric {
            handler,
            pages: PageTable::new(),
            net,
            stats: ProtoStats::default(),
            tracer: Tracer::disabled(),
            dead: NodeSet::new(),
            recovering: BTreeMap::new(),
            retries: 0,
            retry_wait_cycles: 0,
        }
    }

    /// The home of a line that must already be mapped.
    ///
    /// # Panics
    ///
    /// Panics if the line's page has no home.
    pub fn mapped_home(&self, line: Line) -> NodeId {
        self.pages
            .home(page_of_line(line))
            .expect("resident line must have a home")
    }

    /// First-touch page homing with a capacity fallback (NUMA/COMA): the
    /// toucher becomes the home while it has page capacity, otherwise the
    /// least-loaded node takes the page.
    pub fn first_touch_home(
        &mut self,
        line: Line,
        toucher: NodeId,
        n_nodes: usize,
        cap_pages: u64,
    ) -> NodeId {
        let page = page_of_line(line);
        if let Some(home) = self.pages.home(page) {
            return home;
        }
        let home = if self.pages.pages_at(toucher) < cap_pages && !self.dead.contains(toucher) {
            toucher
        } else {
            (0..n_nodes)
                .filter(|&n| !self.dead.contains(n))
                .min_by_key(|&n| (self.pages.pages_at(n), n))
                .expect("machine has at least one live node")
        };
        self.pages.home_or_assign(page, || home)
    }

    /// Marks `page` as recovering until `until` (its home is being
    /// reconstructed after a kill).
    pub fn mark_recovering(&mut self, page: Page, until: Cycle) {
        let slot = self.recovering.entry(page).or_insert(until);
        *slot = (*slot).max(until);
    }

    /// Retry wait a transaction from `node` pays at `now` if `page` is
    /// still recovering: bounded timeout/backoff per
    /// [`pimdsm_faults::retry_wait`]. Returns 0 (and clears the marker)
    /// once the page's recovery has completed.
    pub fn retry_wait(&mut self, node: NodeId, page: Page, now: Cycle) -> Cycle {
        let Some(&recovered_at) = self.recovering.get(&page) else {
            return 0;
        };
        if recovered_at <= now {
            self.recovering.remove(&page);
            return 0;
        }
        let (wait, probes) = pimdsm_faults::retry_wait(now, recovered_at);
        self.retries += probes as u64;
        self.retry_wait_cycles += wait;
        self.tracer.instant(
            Event::Retry,
            node as u32,
            now,
            &[("page", page), ("wait", wait), ("probes", probes as u64)],
        );
        wait
    }

    /// Threads a tracer through the fabric and its interconnect.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.net.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Dispatches a protocol handler of `kind` (sending `invals`
    /// invalidations) on `server` at node `at_node`, and traces its
    /// occupancy span.
    pub fn dispatch(
        &mut self,
        server: &mut Server,
        at_node: NodeId,
        kind: HandlerKind,
        invals: u32,
        at: Cycle,
    ) -> ServerGrant {
        let (lat, occ) = self.handler.cost(kind, invals);
        let g = server.dispatch(at, lat, occ);
        self.tracer.span(
            handler_event(kind),
            at_node as u32,
            g.start,
            occ.max(1),
            &[("invals", invals as u64), ("queued", g.start - at)],
        );
        g
    }

    /// Books acknowledgment occupancy on `server` at node `at_node` and
    /// traces it as `ev` (a replacement hint or an invalidation ack);
    /// returns the occupancy start.
    pub fn ack_occupy(
        &mut self,
        ev: Event,
        server: &mut Server,
        at_node: NodeId,
        at: Cycle,
    ) -> Cycle {
        let (_, ack_occ) = self.handler.cost(HandlerKind::Acknowledgment, 0);
        let start = server.occupy(at, ack_occ);
        self.tracer
            .span(ev, at_node as u32, start, ack_occ.max(1), &[]);
        start
    }

    /// Invalidates a set of remote copies (NUMA/COMA shape): for each
    /// target, a control message from `from`, acknowledgment occupancy on
    /// the target's controller (traced on its track), the protocol-state
    /// effect via `invalidate`, and an ack back to `collector`. Returns
    /// the cycle at which the last ack arrives.
    pub fn invalidate_fanout(
        &mut self,
        ctrls: &mut [Server],
        targets: &[NodeId],
        from: NodeId,
        collector: NodeId,
        at: Cycle,
        mut invalidate: impl FnMut(NodeId),
    ) -> Cycle {
        let mut done = at;
        let ctrl_bytes = MSG.ctrl;
        let (ack_lat, _) = self.handler.cost(HandlerKind::Acknowledgment, 0);
        for &k in targets {
            self.stats.invalidations += 1;
            let t1 = self.net.send(from, k, ctrl_bytes, at);
            invalidate(k);
            let start = self.ack_occupy(Event::HandlerAck, &mut ctrls[k], k, t1);
            let t2 = self.net.send(k, collector, ctrl_bytes, start + ack_lat);
            done = done.max(t2);
        }
        done
    }

    /// Traces an attraction-memory hit at `node`.
    pub fn am_hit(&mut self, node: NodeId, line: Line, at: Cycle) {
        self.tracer
            .instant(Event::AmHit, node as u32, at, &[("line", line)]);
    }

    /// Traces an attraction-memory miss at `node`.
    pub fn am_miss(&mut self, node: NodeId, line: Line, at: Cycle) {
        self.tracer
            .instant(Event::AmMiss, node as u32, at, &[("line", line)]);
    }

    /// Traces an attraction-memory insertion that displaced `victim`.
    pub fn am_swap(&mut self, node: NodeId, new_line: Line, victim: Line, at: Cycle) {
        self.tracer.instant(
            Event::AmSwap,
            node as u32,
            at,
            &[("line", new_line), ("victim", victim)],
        );
    }

    /// Counts and traces a disk fault at `home` (a paged-out or spilled
    /// line coming back from disk).
    pub fn disk_fault(&mut self, home: NodeId, line: Line, at: Cycle) {
        self.stats.disk_faults += 1;
        self.tracer
            .instant(Event::DiskFault, home as u32, at, &[("line", line)]);
    }

    /// Counts and traces a COMA master-line injection into `target`.
    pub fn am_inject(&mut self, target: NodeId, line: Line, at: Cycle) {
        self.stats.injections += 1;
        self.tracer
            .instant(Event::AmInject, target as u32, at, &[("line", line)]);
    }

    /// Snapshot of cumulative counters for epoch sampling, given the
    /// protocol's controller inventory (total busy cycles and count).
    pub fn epoch_probe(&self, (ctrl_busy, ctrl_count): (Cycle, usize)) -> EpochProbe {
        let n = self.net.stats();
        EpochProbe {
            ctrl_busy,
            ctrl_count,
            link_busy: self.net.total_link_busy(),
            link_count: self.net.num_links(),
            reads_by_level: self.stats.reads_by_level,
            net_messages: n.messages,
            ..EpochProbe::default()
        }
    }

    /// Mean utilization of `count` controllers with `busy` total busy
    /// cycles over `elapsed` cycles.
    pub fn utilization(busy: Cycle, count: usize, elapsed: Cycle) -> f64 {
        if elapsed == 0 || count == 0 {
            0.0
        } else {
            busy as f64 / (elapsed as f64 * count as f64)
        }
    }
}
