//! The machine driver: executes workload threads against a memory system.
//!
//! Threads are scheduled through a global time-ordered event queue. Each
//! scheduler step executes one operation of one thread and books its
//! timing against the (contended) memory system, so cross-thread
//! interference — link queueing, D-node occupancy, DRAM ports — emerges
//! from resource timelines rather than from message-level simulation.
//!
//! The processor model follows Table 1: batched independent loads overlap
//! through a 16-entry load-buffer window; stores retire through a
//! 32-entry write buffer and only stall the processor when it fills;
//! latencies up to the L2 hit time are hidden by the out-of-order core
//! (charged as Processor time), anything longer is Memory stall time.

use std::collections::{BTreeMap, VecDeque};

use pimdsm_engine::{Cycle, EventQueue, Timeline};
use pimdsm_faults::{FaultKind, FaultPlan, FaultSchedule, RecoveryStats};
use pimdsm_obs::{EpochSampler, Event, Tracer};
use pimdsm_proto::{AggSystem, ComaSystem, MemSystem, NodeId, NumaSystem};
use pimdsm_svc::SvcStats;
use pimdsm_workloads::{Op, ThreadGen, Workload};

use crate::config::{resolve, ArchSpec};
use crate::report::{RunReport, ThreadAcct};

/// Write-buffer capacity (Table 1: 32-entry fully associative).
const WRITE_BUFFER_ENTRIES: usize = 32;
/// Load-buffer window (Table 1: 16 outstanding loads).
const LOAD_WINDOW: usize = 16;
/// Latency fully hidden by the out-of-order core (the L2 hit time).
const HIDDEN_LATENCY: Cycle = 6;
/// Cost of leaving a barrier once released.
const BARRIER_EXIT: Cycle = 40;

/// A dynamic reconfiguration order (Figure 10-(a)): at the workload's
/// reconfiguration barrier, change the machine to `target_p` P-nodes and
/// `target_d` D-nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigPlan {
    /// P-node count after reconfiguration.
    pub target_p: usize,
    /// D-node count after reconfiguration.
    pub target_d: usize,
    /// Base cost: setup, synchronization, decision making.
    pub base_cycles: Cycle,
    /// Page-mapping update cost per 10 pages moved.
    pub per_10_pages: Cycle,
    /// TLB update cost per P-node processor.
    pub tlb_per_p: Cycle,
}

impl ReconfigPlan {
    /// The paper's overhead model: 100,000 base cycles, 1,000 per 10
    /// pages, 1,000 per P-node TLB update.
    pub fn paper(target_p: usize, target_d: usize) -> Self {
        ReconfigPlan {
            target_p,
            target_d,
            base_cycles: 100_000,
            per_10_pages: 1_000,
            tlb_per_p: 1_000,
        }
    }
}

/// Why a [`ReconfigPlan`] cannot be attached to this machine/workload
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigError {
    /// The workload declares no reconfiguration barrier.
    NoReconfigPoint,
    /// Only AGG machines can trade P-nodes for D-nodes.
    NotAgg,
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::NoReconfigPoint => {
                write!(f, "workload has no reconfiguration point")
            }
            ReconfigError::NotAgg => write!(f, "only AGG machines reconfigure"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Live state of an attached [`FaultPlan`]: the pending schedule, the
/// run's durability policy, the accounting sink, and the threads frozen
/// by a kill.
struct FaultRuntime {
    schedule: FaultSchedule,
    durability: pimdsm_faults::Durability,
    stats: RecoveryStats,
    /// Threads frozen until their node's recovery completes.
    thread_stall: BTreeMap<usize, Cycle>,
}

enum SystemBox {
    Numa(NumaSystem),
    Coma(ComaSystem),
    Agg(AggSystem),
}

impl SystemBox {
    fn sys(&mut self) -> &mut dyn MemSystem {
        match self {
            SystemBox::Numa(s) => s,
            SystemBox::Coma(s) => s,
            SystemBox::Agg(s) => s,
        }
    }

    fn sys_ref(&self) -> &dyn MemSystem {
        match self {
            SystemBox::Numa(s) => s,
            SystemBox::Coma(s) => s,
            SystemBox::Agg(s) => s,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Parked,
    Delayed,
    Done,
}

struct ThreadState {
    gen: Box<dyn ThreadGen>,
    node: NodeId,
    acct: ThreadAcct,
    wb: VecDeque<Cycle>,
    status: Status,
    /// Open service request: (start cycle, class). See [`Op::ReqStart`].
    req: Option<(Cycle, u8)>,
}

#[derive(Default)]
struct BarrierState {
    waiting: Vec<(usize, Cycle)>,
}

#[derive(Default)]
struct LockState {
    holder: Option<usize>,
    waiters: VecDeque<(usize, Cycle)>,
}

/// A configured machine ready to run one workload.
pub struct Machine {
    system: SystemBox,
    workload: Box<dyn Workload>,
    threads: Vec<ThreadState>,
    queue: EventQueue<usize>,
    barriers: BTreeMap<u32, BarrierState>,
    locks: BTreeMap<u32, LockState>,
    lock_base: u64,
    reconfig: Option<ReconfigPlan>,
    reconfig_cycles: Cycle,
    faults: Option<FaultRuntime>,
    svc: SvcStats,
    svc_used: bool,
    label: String,
    tracer: Tracer,
    epoch: Option<Cycle>,
}

impl Machine {
    /// Builds a machine of the given architecture, sized for `workload`
    /// at `pressure` (Section 3's sizing rules).
    ///
    /// # Panics
    ///
    /// Panics if the architecture cannot host the workload's thread count.
    pub fn build(spec: ArchSpec, workload: Box<dyn Workload>, pressure: f64) -> Machine {
        let mut cfg = resolve(&*workload, pressure);
        // Threads that only start after a dynamic reconfiguration don't
        // get a P-node yet; those nodes begin life as D-nodes.
        let initial_p = (0..workload.threads())
            .filter(|&t| !workload.delayed_start(t))
            .count();
        cfg.threads = initial_p;
        let system = match spec {
            ArchSpec::Numa => SystemBox::Numa(NumaSystem::new(cfg.numa())),
            ArchSpec::Coma => SystemBox::Coma(ComaSystem::new(cfg.coma())),
            ArchSpec::Agg { n_d } => SystemBox::Agg(AggSystem::new(cfg.agg(n_d))),
            ArchSpec::AggExplicit {
                n_d,
                p_am_lines,
                d_data_lines,
            } => SystemBox::Agg(AggSystem::new(cfg.agg_explicit(
                n_d,
                p_am_lines,
                d_data_lines,
            ))),
        };
        let mut machine = Self::assemble(system, workload, spec.name().to_string());
        machine.apply_preloads();
        machine
    }

    /// Builds an AGG machine whose configuration is adjusted by `tweak`
    /// after the standard sizing — the hook the ablation benches use to
    /// vary handler costs, SharedList policy, associativity, or the
    /// on-chip fraction.
    pub fn build_custom_agg(
        workload: Box<dyn Workload>,
        pressure: f64,
        n_d: usize,
        tweak: impl FnOnce(&mut pimdsm_proto::AggCfg),
    ) -> Machine {
        let mut cfg = resolve(&*workload, pressure);
        cfg.threads = (0..workload.threads())
            .filter(|&t| !workload.delayed_start(t))
            .count();
        let mut agg_cfg = cfg.agg(n_d);
        tweak(&mut agg_cfg);
        let system = SystemBox::Agg(AggSystem::new(agg_cfg));
        let mut machine = Self::assemble(system, workload, "AGG".to_string());
        machine.apply_preloads();
        machine
    }

    /// Installs initialization-time data (page homes + resident clean
    /// copies) without simulated time; see
    /// [`Workload::preload_regions`].
    fn apply_preloads(&mut self) {
        let regions = self.workload.preload_regions();
        if regions.is_empty() {
            return;
        }
        let line = 64u64;
        for r in regions {
            let owner_node = self
                .threads
                .get(r.owner_tid)
                .map(|t| t.node)
                .filter(|&n| n != usize::MAX)
                .unwrap_or_else(|| self.threads[0].node);
            let kind = match r.kind {
                pimdsm_workloads::PreloadKind::ColdPrivate => {
                    pimdsm_proto::PreloadKind::ColdPrivate
                }
                pimdsm_workloads::PreloadKind::SharedInit => pimdsm_proto::PreloadKind::SharedInit,
            };
            let sys = self.system.sys();
            let mut addr = r.base;
            while addr < r.base + r.bytes {
                sys.preload(addr, owner_node, kind);
                addr += line;
            }
        }
    }

    fn assemble(system: SystemBox, workload: Box<dyn Workload>, label: String) -> Machine {
        let compute = system.sys_ref().compute_nodes();
        let n = workload.threads();
        let mut threads = Vec::with_capacity(n);
        let mut next_node = 0;
        for tid in 0..n {
            let delayed = workload.delayed_start(tid);
            let node = if delayed {
                usize::MAX
            } else {
                assert!(
                    next_node < compute.len(),
                    "workload needs {n} compute nodes, machine has {}",
                    compute.len()
                );
                let nd = compute[next_node];
                next_node += 1;
                nd
            };
            threads.push(ThreadState {
                gen: workload.spawn(tid),
                node,
                acct: ThreadAcct::default(),
                wb: VecDeque::with_capacity(WRITE_BUFFER_ENTRIES),
                status: if delayed {
                    Status::Delayed
                } else {
                    Status::Ready
                },
                req: None,
            });
        }
        // Locks live past the end of the data footprint, page-aligned.
        let lock_base = (workload.footprint_bytes() + (1 << 16)) & !0xFFF;
        Machine {
            system,
            workload,
            threads,
            queue: EventQueue::new(),
            barriers: BTreeMap::new(),
            locks: BTreeMap::new(),
            lock_base,
            reconfig: None,
            reconfig_cycles: 0,
            faults: None,
            svc: SvcStats::default(),
            svc_used: false,
            label,
            tracer: Tracer::disabled(),
            epoch: None,
        }
    }

    /// Attaches a display label to the run (e.g. `"1/4AGG75"`).
    pub fn with_label(mut self, label: impl Into<String>) -> Machine {
        self.label = label.into();
        self
    }

    /// Attaches a [`Tracer`]; an enabled tracer records structured events
    /// (protocol handler occupancy, attraction-memory hits/misses/swaps,
    /// link transfers, reconfiguration) for Chrome-trace export. The
    /// default disabled tracer makes every emission site a single branch.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.system.sys().attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Enables epoch metrics sampling: every `epoch` cycles the run loop
    /// snapshots the memory system's cumulative counters and the finished
    /// [`RunReport`] carries the per-epoch time-series in
    /// [`RunReport::epochs`].
    pub fn sample_epochs(&mut self, epoch: Cycle) {
        self.epoch = Some(epoch.max(1));
    }

    /// Schedules a dynamic reconfiguration at the workload's
    /// reconfiguration barrier.
    ///
    /// A plan targeting the machine's current shape is accepted as a
    /// checked no-op: the barrier fires, nothing converts, and the run
    /// charges zero reconfiguration cycles.
    ///
    /// # Errors
    ///
    /// Fails if the workload has no reconfiguration point or the machine
    /// is not AGG; the machine is left unchanged.
    pub fn set_reconfig(&mut self, plan: ReconfigPlan) -> Result<(), ReconfigError> {
        if self.workload.reconfig_barrier().is_none() {
            return Err(ReconfigError::NoReconfigPoint);
        }
        if !matches!(self.system, SystemBox::Agg(_)) {
            return Err(ReconfigError::NotAgg);
        }
        self.reconfig = Some(plan);
        Ok(())
    }

    /// Attaches a declarative fault schedule (see [`pimdsm_faults`]): the
    /// run loop replays its kills and rejoins against the simulated
    /// clock, and the finished [`RunReport`] carries the recovery
    /// accounting in [`RunReport::faults`].
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultRuntime {
            schedule: FaultSchedule::new(&plan),
            durability: plan.durability,
            stats: RecoveryStats::default(),
            thread_stall: BTreeMap::new(),
        });
    }

    /// Runs the workload to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (threads parked with nothing runnable), which
    /// indicates a workload barrier/lock bug.
    pub fn run(&mut self) -> RunReport {
        for tid in 0..self.threads.len() {
            if self.threads[tid].status == Status::Ready {
                self.queue.push(0, tid);
            }
        }
        let mut sampler = self.epoch.map(EpochSampler::new);
        // Pop times never decrease and every access books its resources
        // at or after the pop time that issued it, so timeline windows in
        // chunks wholly before `now`'s are dead: free them once per chunk.
        let mut live_chunk = 0;
        while let Some((now, tid)) = self.queue.pop() {
            let chunk = now / Timeline::CHUNK_CYCLES;
            if chunk > live_chunk {
                live_chunk = chunk;
                self.system.sys().retire_before(now);
            }
            if let Some(s) = &mut sampler {
                if s.due(now) {
                    let probe = self.system.sys_ref().epoch_probe();
                    s.sample(now, &probe);
                }
            }
            if self
                .faults
                .as_ref()
                .and_then(|f| f.schedule.next_cycle())
                .is_some_and(|c| c <= now)
            {
                let due = self
                    .faults
                    .as_mut()
                    .map(|f| f.schedule.due_at_cycle(now))
                    .unwrap_or_default();
                for kind in due {
                    self.apply_fault(kind, now);
                }
            }
            self.step(tid, now);
        }
        // Feed the host-side profiler: events drained and peak queue
        // depth are deterministic observations, never simulation inputs.
        pimdsm_prof::counters::add(
            pimdsm_prof::counters::ENGINE_EVENTS,
            self.queue.total_pops(),
        );
        pimdsm_prof::counters::observe_max(
            pimdsm_prof::counters::ENGINE_QUEUE_PEAK,
            self.queue.peak_len() as u64,
        );
        let parked: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Done)
            .map(|(i, _)| i)
            .collect();
        assert!(
            parked.is_empty(),
            "deadlock: threads {parked:?} never finished (barrier/lock mismatch)"
        );

        let total = self
            .threads
            .iter()
            .map(|t| t.acct.finish)
            .max()
            .unwrap_or(0);
        let epochs = sampler.map(|s| s.finish(total, &self.system.sys_ref().epoch_probe()));
        // Fold the fabric's retry accounting into the recovery stats: the
        // protocol substrate counts the probes, the driver owns the sink.
        let faults = self.faults.as_ref().map(|f| {
            let fab = self.system.sys_ref().fabric();
            let mut rs = f.stats.clone();
            rs.retries += fab.retries;
            rs.retry_wait_cycles += fab.retry_wait_cycles;
            rs
        });
        RunReport {
            arch: self.system.sys_ref().name().to_string(),
            app: self.workload.name().to_string(),
            label: self.label.clone(),
            total_cycles: total,
            threads: self.threads.iter().map(|t| t.acct).collect(),
            proto: self.system.sys_ref().stats().clone(),
            census: self.system.sys_ref().census(),
            net: self.system.sys_ref().net_stats(),
            controller_util: self.system.sys_ref().controller_utilization(total),
            link_busy: self.system.sys_ref().net_link_busy(),
            reconfig_cycles: self.reconfig_cycles,
            reconfig_armed: self.reconfig.is_some(),
            faults,
            svc: self.svc_used.then(|| self.svc.clone()),
            epochs,
        }
    }

    /// Applies one fault at `now`: the protocol-level effect, the trace
    /// event, and the driver-level consequences (thread re-binding and
    /// stalls).
    fn apply_fault(&mut self, kind: FaultKind, now: Cycle) {
        match kind {
            FaultKind::Kill { node } => self.apply_kill_fault(node, now),
            FaultKind::Rejoin { node } => {
                self.tracer
                    .instant(Event::Rejoin, 0, now, &[("node", node as u64)]);
                self.system.sys().apply_rejoin(node, now);
                self.faults.as_mut().expect("fault runtime").stats.rejoins += 1;
            }
        }
    }

    /// Kills `node`: the memory system recovers (re-homing, re-election,
    /// scrubbing), threads bound to nodes that left the compute set are
    /// re-bound to survivors, and every affected thread stalls until the
    /// recovery completes.
    fn apply_kill_fault(&mut self, node: NodeId, now: Cycle) {
        self.tracer
            .instant(Event::Kill, 0, now, &[("node", node as u64)]);
        let durability = self.faults.as_ref().expect("fault runtime").durability;
        // Take the stats out so the system and the sink can be borrowed
        // together; put the updated sink back below.
        let mut rs = std::mem::take(&mut self.faults.as_mut().expect("fault runtime").stats);
        let recovered_at = self.system.sys().apply_kill(node, now, durability, &mut rs);
        rs.kills += 1;
        rs.lost_work_cycles += durability.lost_work(now);
        self.tracer.span(
            Event::Recovery,
            0,
            now,
            (recovered_at - now).max(1),
            &[("node", node as u64)],
        );

        // Re-bind threads whose node left the compute set, preferring
        // compute nodes no thread currently uses (smallest first).
        let compute = self.system.sys_ref().compute_nodes();
        let mut free: Vec<NodeId> = compute
            .iter()
            .copied()
            .filter(|n| !self.threads.iter().any(|t| t.node == *n))
            .collect();
        let mut stalled: Vec<usize> = Vec::new();
        for tid in 0..self.threads.len() {
            let t = &self.threads[tid];
            if t.status == Status::Done || t.node == usize::MAX {
                continue;
            }
            if !compute.contains(&t.node) {
                let new_node = if free.is_empty() {
                    compute[tid % compute.len()]
                } else {
                    free.remove(0)
                };
                self.threads[tid].node = new_node;
                stalled.push(tid);
            }
        }
        let f = self.faults.as_mut().expect("fault runtime");
        f.stats = rs;
        // The re-bound threads lost their context: they resume (cold)
        // once the recovery completes.
        for tid in stalled {
            let slot = f.thread_stall.entry(tid).or_insert(recovered_at);
            *slot = (*slot).max(recovered_at);
        }
    }

    /// Runs the full-sweep coherence oracle over the memory system's
    /// current state (see `pimdsm_proto::check`).
    ///
    /// # Panics
    ///
    /// Panics if any coherence invariant is violated.
    pub fn check_coherence(&self) {
        self.system.sys_ref().check_coherence();
    }

    /// Access to the underlying AGG system (for tests and benches).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not AGG.
    pub fn agg(&self) -> &AggSystem {
        match &self.system {
            SystemBox::Agg(s) => s,
            _ => panic!("machine is not AGG"),
        }
    }

    fn lock_addr(&self, id: u32) -> u64 {
        self.lock_base + id as u64 * 4096
    }

    fn step(&mut self, tid: usize, now: Cycle) {
        // A thread whose node is mid-recovery is frozen until the memory
        // system finished reconstructing; it resumes where it left off.
        if let Some(f) = &mut self.faults {
            if let Some(&until) = f.thread_stall.get(&tid) {
                if now < until {
                    self.queue.push(until, tid);
                    return;
                }
                f.thread_stall.remove(&tid);
            }
        }
        let Some(op) = self.threads[tid].gen.next_op() else {
            self.threads[tid].acct.finish = now;
            self.threads[tid].status = Status::Done;
            return;
        };
        match op {
            Op::Compute(n) => {
                self.threads[tid].acct.compute += n;
                self.queue.push(now + n, tid);
            }
            Op::Load(a) => {
                let node = self.threads[tid].node;
                let done = self.system.sys().read(node, a, now).done_at;
                self.charge_load(tid, now, done);
                self.queue.push(done, tid);
            }
            Op::LoadBatch {
                base,
                stride,
                count,
            } => {
                let done = self.exec_load_window(tid, now, |i| base + stride as u64 * i, count);
                self.queue.push(done, tid);
            }
            Op::Gather(b) => {
                let done =
                    self.exec_load_window(tid, now, |i| b.addrs()[i as usize], b.len() as u32);
                self.queue.push(done, tid);
            }
            Op::Store(a) => {
                let t = self.exec_store(tid, now, a);
                self.queue.push(t + 1, tid);
            }
            Op::StoreBatch {
                base,
                stride,
                count,
            } => {
                let mut t = now;
                for i in 0..count as u64 {
                    t = self.exec_store(tid, t, base + stride as u64 * i) + 1;
                }
                self.queue.push(t, tid);
            }
            Op::Scatter(b) => {
                let mut t = now;
                for &a in b.addrs() {
                    t = self.exec_store(tid, t, a) + 1;
                }
                self.queue.push(t, tid);
            }
            Op::Barrier(id) => self.arrive_barrier(tid, id, now),
            Op::Lock(id) => self.acquire_lock(tid, id, now),
            Op::Unlock(id) => self.release_lock(tid, id, now),
            Op::OffloadScan {
                chunk_addr,
                bytes,
                scan_cycles,
                reply_bytes,
            } => {
                let node = self.threads[tid].node;
                match &mut self.system {
                    SystemBox::Agg(agg) => {
                        let d = agg.home_for_addr(chunk_addr, node);
                        let done = agg.offload(node, d, 16, scan_cycles, bytes, reply_bytes, now);
                        self.threads[tid].acct.memory += done - now;
                        self.queue.push(done, tid);
                    }
                    _ => {
                        // No D-node processors: the thread scans locally.
                        let done = self.exec_load_window(
                            tid,
                            now,
                            |i| chunk_addr + i * 64,
                            (bytes / 64).max(1) as u32,
                        );
                        self.threads[tid].acct.compute += scan_cycles;
                        self.queue.push(done + scan_cycles, tid);
                    }
                }
            }
            Op::ReqStart { arrival, class } => {
                self.svc_used = true;
                let t = &mut self.threads[tid];
                assert!(
                    t.req.is_none(),
                    "thread {tid} opened a request inside a request"
                );
                if arrival > now {
                    // Open loop, early: the client idles until the
                    // scheduled arrival.
                    t.req = Some((arrival, class));
                    self.queue.push(arrival, tid);
                } else {
                    // Closed loop (arrival == 0), or an open-loop request
                    // that arrived while the client was still busy — the
                    // lag is queueing delay and counts toward latency.
                    let start = if arrival == 0 { now } else { arrival };
                    self.svc.queued_cycles += now - start;
                    t.req = Some((start, class));
                    self.queue.push(now, tid);
                }
            }
            Op::ReqEnd { class } => {
                let (start, opened) = self.threads[tid]
                    .req
                    .take()
                    .unwrap_or_else(|| panic!("thread {tid} ended a request it never opened"));
                debug_assert_eq!(opened, class, "request class changed mid-flight");
                let lat = now - start;
                self.svc.record(class, lat);
                self.tracer.span(
                    Event::Request,
                    tid as u32,
                    start,
                    lat.max(1),
                    &[("class", u64::from(class))],
                );
                self.queue.push(now, tid);
            }
        }
    }

    /// Splits a load's latency into pipelined (Processor) and stalled
    /// (Memory) time.
    fn charge_load(&mut self, tid: usize, issued: Cycle, done: Cycle) {
        let lat = done - issued;
        let hidden = lat.min(HIDDEN_LATENCY);
        let acct = &mut self.threads[tid].acct;
        acct.compute += hidden;
        acct.memory += lat - hidden;
    }

    /// Issues `count` independent loads through the 16-entry load-buffer
    /// window; returns the cycle the last one completes.
    fn exec_load_window(
        &mut self,
        tid: usize,
        now: Cycle,
        addr_of: impl Fn(u64) -> u64,
        count: u32,
    ) -> Cycle {
        let node = self.threads[tid].node;
        // Fixed ring of completion times: `head` is the oldest in-flight
        // load once the window has filled. Loads issue and retire in FIFO
        // order, so this reproduces the old deque exactly without an
        // allocation per batch.
        let mut window = [0 as Cycle; LOAD_WINDOW];
        let mut filled = 0usize;
        let mut head = 0usize;
        let mut last_done = now;
        for i in 0..count as u64 {
            let issue = if filled == LOAD_WINDOW {
                window[head].max(now + i)
            } else {
                now + i
            };
            let done = self.system.sys().read(node, addr_of(i), issue).done_at;
            if filled == LOAD_WINDOW {
                window[head] = done;
                head = (head + 1) % LOAD_WINDOW;
            } else {
                window[filled] = done;
                filled += 1;
            }
            last_done = last_done.max(done);
        }
        // Issue slots are Processor time; the remainder of the span is
        // overlap-adjusted Memory stall.
        let span = last_done - now;
        let issue_cycles = count as Cycle + HIDDEN_LATENCY.min(span);
        let acct = &mut self.threads[tid].acct;
        acct.compute += issue_cycles.min(span);
        acct.memory += span.saturating_sub(issue_cycles);
        last_done
    }

    /// Retires one store through the write buffer; returns the cycle the
    /// store was accepted (the processor continues from there).
    fn exec_store(&mut self, tid: usize, now: Cycle, addr: u64) -> Cycle {
        let mut t = now;
        {
            let wb = &mut self.threads[tid].wb;
            while let Some(&front) = wb.front() {
                if front <= t {
                    wb.pop_front();
                } else {
                    break;
                }
            }
            if wb.len() >= WRITE_BUFFER_ENTRIES {
                let free = wb.pop_front().expect("buffer full");
                self.threads[tid].acct.memory += free - t;
                t = free;
            }
        }
        let node = self.threads[tid].node;
        let done = self.system.sys().write(node, addr, t).done_at;
        self.threads[tid].wb.push_back(done);
        self.threads[tid].acct.compute += 1;
        t
    }

    fn arrive_barrier(&mut self, tid: usize, id: u32, now: Cycle) {
        let width = self.workload.barrier_width(id);
        assert!(width > 0, "barrier {id} has zero width");
        let state = self.barriers.entry(id).or_default();
        state.waiting.push((tid, now));
        if state.waiting.len() < width {
            self.threads[tid].status = Status::Parked;
            return;
        }
        let waiting = std::mem::take(&mut state.waiting);
        self.barriers.remove(&id);

        let mut release_at = now;
        if self.workload.reconfig_barrier() == Some(id) {
            if let Some(plan) = self.reconfig {
                release_at = self.do_reconfig(plan, now);
                self.reconfig_cycles += release_at - now;
            }
        }
        self.tracer.instant(
            Event::Barrier,
            0,
            release_at,
            &[("id", id as u64), ("width", width as u64)],
        );
        for (t, arrived) in waiting {
            self.threads[t].acct.sync += release_at - arrived;
            self.threads[t].status = Status::Ready;
            self.queue.push(release_at + BARRIER_EXIT, t);
        }
        // Wake threads that only start after the reconfiguration point.
        let delayed: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Delayed)
            .map(|(i, _)| i)
            .collect();
        if self.workload.reconfig_barrier() == Some(id) {
            for t in delayed {
                assert_ne!(
                    self.threads[t].node,
                    usize::MAX,
                    "delayed thread {t} was never assigned a node"
                );
                self.threads[t].status = Status::Ready;
                self.queue.push(release_at + BARRIER_EXIT, t);
            }
        }
    }

    /// Performs the machine transformation of Section 2.3 and returns the
    /// cycle at which execution resumes.
    fn do_reconfig(&mut self, plan: ReconfigPlan, now: Cycle) -> Cycle {
        let SystemBox::Agg(agg) = &mut self.system else {
            panic!("only AGG machines reconfigure");
        };
        let cur_p = agg.p_nodes().len();
        let cur_d = agg.d_nodes().len();
        assert_eq!(
            plan.target_p + plan.target_d,
            cur_p + cur_d,
            "reconfiguration must preserve the node count"
        );
        if plan.target_p == cur_p && plan.target_d == cur_d {
            // Checked no-op: the machine already has the target shape, so
            // no node converts and no overhead is charged.
            return now;
        }
        let mut t = now + plan.base_cycles;
        let mut pages_moved = 0u64;

        if plan.target_p > cur_p {
            // Convert D-nodes (from the tail of the D list) into P-nodes.
            // The conversions proceed in parallel: each node streams its
            // own memory out over its own links.
            let converts: Vec<NodeId> = agg
                .d_nodes()
                .iter()
                .rev()
                .take(plan.target_p - cur_p)
                .copied()
                .collect();
            let start = t;
            let mut new_nodes = Vec::new();
            for d in converts {
                let (done, pages, _lines) = agg.convert_d_to_p(d, start);
                t = t.max(done);
                pages_moved += pages;
                new_nodes.push(d);
            }
            // Hand the new P-nodes to the delayed threads.
            let mut it = new_nodes.into_iter();
            for thread in &mut self.threads {
                if thread.status == Status::Delayed && thread.node == usize::MAX {
                    thread.node = it
                        .next()
                        .unwrap_or_else(|| panic!("not enough new P-nodes for delayed threads"));
                }
            }
        } else if plan.target_d > cur_d {
            // Convert the P-nodes of the highest-numbered (now finished)
            // threads into D-nodes.
            let victims: Vec<NodeId> = self
                .threads
                .iter()
                .skip(plan.target_p)
                .map(|th| th.node)
                .filter(|&n| n != usize::MAX)
                .take(plan.target_d - cur_d)
                .collect();
            let start = t;
            for p in victims {
                let (done, _flushed) = agg.convert_p_to_d(p, start);
                t = t.max(done);
            }
        }

        t += pages_moved.div_ceil(10) * plan.per_10_pages;
        t += plan.tlb_per_p * plan.target_p as Cycle;
        self.tracer.span(
            Event::Reconfig,
            0,
            now,
            (t - now).max(1),
            &[
                ("target_p", plan.target_p as u64),
                ("target_d", plan.target_d as u64),
                ("pages_moved", pages_moved),
            ],
        );
        t
    }

    fn acquire_lock(&mut self, tid: usize, id: u32, now: Cycle) {
        let addr = self.lock_addr(id);
        let state = self.locks.entry(id).or_default();
        if state.holder.is_none() {
            state.holder = Some(tid);
            let node = self.threads[tid].node;
            let acc = self.system.sys().write(node, addr, now);
            self.threads[tid].acct.sync += acc.done_at - now;
            self.queue.push(acc.done_at, tid);
        } else {
            state.waiters.push_back((tid, now));
            self.threads[tid].status = Status::Parked;
        }
    }

    fn release_lock(&mut self, tid: usize, id: u32, now: Cycle) {
        let addr = self.lock_addr(id);
        let node = self.threads[tid].node;
        let rel = self.system.sys().write(node, addr, now);
        self.threads[tid].acct.sync += rel.done_at - now;
        self.queue.push(rel.done_at, tid);

        let state = self
            .locks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unlock of never-locked lock {id}"));
        assert_eq!(state.holder, Some(tid), "unlock by non-holder");
        state.holder = None;
        if let Some((w, arrived)) = state.waiters.pop_front() {
            state.holder = Some(w);
            let wnode = self.threads[w].node;
            let acc = self.system.sys().write(wnode, addr, rel.done_at);
            self.threads[w].acct.sync += acc.done_at - arrived;
            self.threads[w].status = Status::Ready;
            self.queue.push(acc.done_at, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdsm_workloads::kernels::{HotSpot, PrivateStream, SharedRead};
    use pimdsm_workloads::{build, build_dbase, AppId, Scale};

    fn run(spec: ArchSpec, w: Box<dyn Workload>, pressure: f64) -> RunReport {
        Machine::build(spec, w, pressure).run()
    }

    #[test]
    fn private_stream_runs_on_all_archs() {
        for spec in [ArchSpec::Numa, ArchSpec::Coma, ArchSpec::Agg { n_d: 2 }] {
            let w = Box::new(PrivateStream::new(4, 256 * 1024, 2));
            let r = run(spec, w, 0.5);
            assert!(r.total_cycles > 0, "{spec:?}");
            assert_eq!(r.threads.len(), 4);
            assert!(r.proto.total_reads() > 100);
        }
    }

    #[test]
    fn second_pass_hits_local_memory_on_agg() {
        // At 25% pressure each P-node's attraction memory comfortably
        // holds its thread's whole 512 KiB working set.
        let w = Box::new(PrivateStream::new(2, 512 * 1024, 3));
        let r = run(ArchSpec::Agg { n_d: 2 }, w, 0.25);
        let local = r.proto.reads_by_level[pimdsm_proto::Level::LocalMem.index()];
        let hop2 = r.proto.reads_by_level[pimdsm_proto::Level::Hop2.index()];
        assert!(
            local > hop2,
            "after the first pass data is attracted locally: {local} vs {hop2}"
        );
    }

    #[test]
    fn hotspot_generates_invalidations() {
        let w = Box::new(HotSpot::new(4, 8, 500));
        let r = run(ArchSpec::Agg { n_d: 2 }, w, 0.25);
        assert!(r.proto.invalidations > 50, "{}", r.proto.invalidations);
    }

    #[test]
    fn shared_read_replicates_without_invalidations() {
        let w = Box::new(SharedRead::new(4, 128 * 1024, 2_000));
        let r = run(ArchSpec::Coma, w, 0.25);
        assert_eq!(r.proto.invalidations, 0);
    }

    #[test]
    fn all_apps_complete_on_agg() {
        for app in pimdsm_workloads::ALL_APPS {
            let w = build(app, 4, Scale::ci());
            let r = run(ArchSpec::Agg { n_d: 4 }, w, 0.75);
            assert!(r.total_cycles > 0, "{app:?}");
            let done = r.threads.iter().all(|t| t.finish > 0);
            assert!(done, "{app:?} left unfinished threads");
        }
    }

    #[test]
    fn all_apps_complete_on_numa_and_coma() {
        for app in pimdsm_workloads::ALL_APPS {
            for spec in [ArchSpec::Numa, ArchSpec::Coma] {
                let w = build(app, 2, Scale::ci());
                let r = run(spec, w, 0.75);
                assert!(r.total_cycles > 0, "{app:?} on {spec:?}");
            }
        }
    }

    #[test]
    fn read_breakdown_decomposes_read_latency() {
        // Figure 7's decomposition must be exact on every architecture:
        // each level's component breakdown sums to that level's total
        // summed read latency.
        for spec in [ArchSpec::Numa, ArchSpec::Coma, ArchSpec::Agg { n_d: 2 }] {
            let w = build(AppId::Radix, 4, Scale::ci());
            let r = run(spec, w, 0.75);
            let latency = r.read_latency_by_level();
            let breakdown = r.read_breakdown_by_level();
            for (lvl, row) in breakdown.iter().enumerate() {
                assert_eq!(
                    row.iter().sum::<Cycle>(),
                    latency[lvl],
                    "{spec:?} level {lvl}: breakdown must sum to the read latency"
                );
            }
            assert!(
                latency.iter().sum::<Cycle>() > 0,
                "{spec:?}: run recorded no read latency"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || build(AppId::Radix, 4, Scale::ci());
        let a = run(ArchSpec::Agg { n_d: 2 }, mk(), 0.75);
        let b = run(ArchSpec::Agg { n_d: 2 }, mk(), 0.75);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.proto.reads_by_level, b.proto.reads_by_level);
    }

    #[test]
    fn dynamic_reconfiguration_grows_p_nodes() {
        let w = build_dbase(2, 4, Scale::ci(), false);
        let mut m = Machine::build(ArchSpec::Agg { n_d: 6 }, w, 0.5);
        // 2 threads running on 2 of the... build gives compute nodes for
        // max(t1,t2)=4 threads; 2 start, 2 delayed.
        m.set_reconfig(ReconfigPlan::paper(4, 4)).unwrap();
        let r = m.run();
        assert!(r.reconfig_cycles >= 100_000, "{}", r.reconfig_cycles);
        assert!(r.reconfig_armed);
        assert!(r.threads.iter().all(|t| t.finish > 0));
    }

    #[test]
    fn reconfig_to_current_shape_is_noop() {
        // 4 → 2 threads: a phased workload with no delayed starters, so a
        // shape-preserving plan has genuinely nothing to do.
        let w = build_dbase(4, 2, Scale::ci(), false);
        let mut m = Machine::build(ArchSpec::Agg { n_d: 4 }, w, 0.5);
        let (p, d) = (m.agg().p_nodes().len(), m.agg().d_nodes().len());
        m.set_reconfig(ReconfigPlan::paper(p, d)).unwrap();
        let r = m.run();
        assert_eq!(r.reconfig_cycles, 0, "no-op charges nothing");
        assert!(r.reconfig_armed, "the plan was armed, even if idle");
        assert_eq!(m.agg().p_nodes().len(), p);
        assert_eq!(m.agg().d_nodes().len(), d);
    }

    #[test]
    fn offload_scan_runs_on_agg_and_falls_back_elsewhere() {
        let w = build_dbase(2, 2, Scale::ci(), true);
        let agg = run(ArchSpec::Agg { n_d: 2 }, w, 0.5);
        assert!(agg.total_cycles > 0);
        let w = build_dbase(2, 2, Scale::ci(), true);
        let numa = run(ArchSpec::Numa, w, 0.5);
        assert!(numa.total_cycles > 0);
    }

    #[test]
    fn reconfig_requires_phased_workload() {
        let w = build(AppId::Fft, 2, Scale::ci());
        let mut m = Machine::build(ArchSpec::Agg { n_d: 2 }, w, 0.5);
        let err = m.set_reconfig(ReconfigPlan::paper(2, 2)).unwrap_err();
        assert_eq!(err, ReconfigError::NoReconfigPoint);
        assert_eq!(err.to_string(), "workload has no reconfiguration point");
    }

    #[test]
    fn reconfig_requires_agg_machine() {
        let w = build_dbase(2, 4, Scale::ci(), false);
        let mut m = Machine::build(ArchSpec::Numa, w, 0.5);
        let err = m.set_reconfig(ReconfigPlan::paper(4, 2)).unwrap_err();
        assert_eq!(err, ReconfigError::NotAgg);
        assert_eq!(err.to_string(), "only AGG machines reconfigure");
    }

    #[test]
    fn fault_kill_mid_run_completes_on_all_archs() {
        use pimdsm_faults::{Durability, FaultPlan};
        for spec in [ArchSpec::Numa, ArchSpec::Coma, ArchSpec::Agg { n_d: 2 }] {
            let w = build(AppId::Radix, 4, Scale::ci());
            let mut m = Machine::build(spec, w, 0.75);
            let victim = match spec {
                ArchSpec::Agg { .. } => m.agg().p_nodes()[0],
                _ => 0,
            };
            let plan = FaultPlan::new()
                .kill_at(victim, 5_000)
                .with_durability(Durability::None);
            m.set_faults(plan);
            let r = m.run();
            assert!(r.total_cycles > 0, "{spec:?}");
            assert!(r.threads.iter().all(|t| t.finish > 0), "{spec:?}");
            let rs = r.faults.as_ref().expect("fault accounting present");
            assert_eq!(rs.kills, 1, "{spec:?}");
            // The kill fires at the first event-loop step at or after its
            // trigger cycle; Durability::None discards everything so far.
            assert!(rs.lost_work_cycles >= 5_000, "{spec:?}");
            assert!(rs.recovery.count() > 0, "{spec:?}: no recovery samples");
            m.check_coherence();
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        use pimdsm_faults::{Durability, FaultPlan};
        let go = || {
            let w = build(AppId::Radix, 4, Scale::ci());
            let mut m = Machine::build(ArchSpec::Agg { n_d: 2 }, w, 0.75);
            let victim = m.agg().p_nodes()[0];
            let plan = FaultPlan::new()
                .kill_at(victim, 5_000)
                .rejoin_at(victim, 400_000)
                .with_durability(Durability::Checkpoint { interval: 10_000 });
            m.set_faults(plan);
            m.run()
        };
        let a = go();
        let b = go();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.proto.reads_by_level, b.proto.reads_by_level);
    }

    #[test]
    fn write_buffer_absorbs_store_bursts() {
        // Stores complete into the write buffer: issue time advances by
        // ~1 cycle per store while the buffer has room.
        let w = Box::new(PrivateStream::new(1, 64 * 1024, 1));
        let r = run(ArchSpec::Numa, w, 0.5);
        // Sanity only: the run completes and charges compute time.
        assert!(r.threads[0].compute > 0);
    }

    #[test]
    fn barrier_sync_time_is_charged() {
        // Radix has barriers; some thread must spin.
        let w = build(AppId::Radix, 4, Scale::ci());
        let r = run(ArchSpec::Agg { n_d: 2 }, w, 0.5);
        let total_sync: u64 = r.threads.iter().map(|t| t.sync).sum();
        assert!(total_sync > 0);
    }
}
