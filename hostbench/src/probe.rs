//! The traced pass: each point is built, run and checked inside spans, then
//! its inputs drive standalone probes of single layers.
//!
//! The probes time one layer's public API on the point's own inputs: the
//! drained access stream, the machine geometry `resolve` gives it, and the
//! counts its run produced. They are host-cost probes, not simulations:
//! their simulated results are discarded.

use std::hint::black_box;
use std::time::Instant;

use pimdsm::config::resolve;
use pimdsm::ArchSpec;
use pimdsm_engine::{EventQueue, Timeline};
use pimdsm_mem::{CacheCfg, KeyedQueue, SetAssocCache};
use pimdsm_net::{Mesh, NetCfg, Network};
use pimdsm_prof::{counters, Snapshot};
use pimdsm_proto::{
    AggCfg, AggSystem, ComaCfg, ComaSystem, MemSystem, NodeId, NumaCfg, NumaSystem, PreloadKind,
};
use pimdsm_workloads::{Op, Workload};

use crate::measure::{check_breakdown, guarded, report_digest, SimStats};
use crate::points::Point;
use crate::reference::Reference;
use crate::spans::Spans;

/// Most operations one mem/engine/net probe times per point; enough for a
/// stable ns/op, few enough that the traced pass stays short.
const PROBE_OPS: u64 = 1 << 16;
/// Bytes of a control message and of a data message (one 64 B line plus
/// header) in the network probe.
const PROBE_MSG_BYTES: [u32; 2] = [8, 72];

/// Operations timed by one probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probe {
    /// Host ns the timed loop took.
    pub ns: u64,
    /// Operations it performed.
    pub ops: u64,
}

impl Probe {
    fn time(ops: u64, f: impl FnOnce()) -> Probe {
        let t = Instant::now();
        f();
        Probe {
            ns: t.elapsed().as_nanos() as u64,
            ops,
        }
    }
}

/// What the traced pass measured for one point.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedPoint {
    /// Host ns in `Machine::build`, traced.
    pub build_ns: u64,
    /// Host ns in `Machine::run`, traced.
    pub run_ns: u64,
    /// Engine and Txn counters of the traced run.
    pub counters: Snapshot,
    /// Digest of the traced run's report.
    pub digest: u64,
    /// Operations the workload's threads generate.
    pub ops: u64,
    /// Loads and stores among them (batches expanded; lock traffic,
    /// which only the driver generates, excluded).
    pub memrefs: u64,
    /// Host ns draining every thread generator standalone.
    pub gen_ns: u64,
    /// The access stream replayed through a standalone memory system.
    pub replay: Probe,
    /// L2-geometry cache lookups (with a fill on a miss).
    pub l2_get: Probe,
    /// Attraction-memory-geometry cache inserts (none on NUMA).
    pub am_insert: Probe,
    /// On-chip LRU keyed-queue updates (none on NUMA).
    pub keyed_queue: Probe,
    /// Event-queue pop+push pairs at the run's queue peak.
    pub queue: Probe,
    /// `Timeline::acquire` calls.
    pub acquire: Probe,
    /// `Network::send` calls on the point's mesh.
    pub send: Probe,
    /// Factor from this point's host times to the reference speed.
    pub host_scale: f64,
}

/// The traced pass over every point, with its spans.
#[derive(Debug)]
pub struct TracedPass {
    /// Per point, in point order.
    pub points: Vec<Result<TracedPoint, String>>,
    /// The spans recorded around every layer call.
    pub spans: Spans,
}

/// Runs every point once with spans and probes, with a reference slice
/// between points (outside the spans).
pub(crate) fn traced_pass(points: &[Point], reference: &mut Reference) -> TracedPass {
    let mut spans = Spans::default();
    let points = reference
        .bracket(points, |p| {
            spans.begin_point(p.key());
            guarded(|| trace_point(p, &mut spans))
        })
        .into_iter()
        .map(|(t, host_scale)| t.map(|t| TracedPoint { host_scale, ..t }))
        .collect();
    TracedPass { points, spans }
}

fn trace_point(p: &Point, spans: &mut Spans) -> Result<TracedPoint, String> {
    spans
        .span("bench.point", |s| {
            let (workload, _) = s.span("workloads.build", |_| p.build_workload());
            let (mut machine, build_ns) =
                s.span("core.machine_build", |_| p.build_machine(workload));
            let ((report, counters), run_ns) =
                s.span("core.machine_run", |_| counters::scoped(|| machine.run()));
            let (digest, _) = s.span("proto.check", |_| {
                machine.check_coherence();
                check_breakdown(&report).map(|()| report_digest(&report))
            });
            drop(machine);
            let sim = SimStats::of(&report);

            let (workload, _) = s.span("workloads.build", |_| p.build_workload());
            let ((ops, memrefs), gen_ns) = s.span("workloads.drain", |_| drain(&*workload));
            let ((cfg, stream, compute, replay), _) = s.span("proto.replay", |_| {
                let cfg = SysCfg::resolve(p, &*workload);
                let stream = access_stream(&*workload);
                let (compute, replay) = replay(&cfg, &*workload, &stream);
                (cfg, stream, compute, replay)
            });
            let ((l2_get, am_insert, keyed_queue), _) =
                s.span("mem.probe", |_| mem_probe(&cfg, &stream));
            let ((queue, acquire), _) = s.span("engine.probe", |_| {
                (
                    queue_probe(counters.engine_queue_peak(), counters.engine_events()),
                    acquire_probe(counters.txn_walks(), sim.total_cycles),
                )
            });
            let (send, _) = s.span("net.probe", |_| {
                send_probe(&cfg, &stream, &compute, sim.messages, sim.total_cycles)
            });
            Ok(TracedPoint {
                build_ns,
                run_ns,
                counters,
                digest: digest?,
                ops,
                memrefs,
                gen_ns,
                replay,
                l2_get,
                am_insert,
                keyed_queue,
                queue,
                acquire,
                send,
                host_scale: 1.0,
            })
        })
        .0
}

/// Loads and stores an op performs.
fn memrefs(op: &Op) -> u64 {
    match *op {
        Op::Load(_) | Op::Store(_) => 1,
        Op::LoadBatch { count, .. } | Op::StoreBatch { count, .. } => u64::from(count),
        Op::Gather(b) | Op::Scatter(b) => b.len() as u64,
        _ => 0,
    }
}

/// Drains every thread's generator: `(ops, memrefs)`.
fn drain(w: &dyn Workload) -> (u64, u64) {
    let (mut ops, mut refs) = (0, 0);
    for tid in 0..w.threads() {
        let mut gen = w.spawn(tid);
        while let Some(op) = gen.next_op() {
            ops += 1;
            refs += memrefs(&black_box(op));
        }
    }
    (ops, refs)
}

/// Marks a stream entry as a store.
const STORE: u64 = 1;
/// Marks a stream entry as the first access of its op.
const OP_START: u64 = 2;
/// Marks a stream entry as a compute op of `entry >> 6` cycles.
const COMPUTE: u64 = 4;

/// Each thread's ops as a stream of entries: loads and stores as
/// line-aligned byte addresses with [`STORE`] and [`OP_START`] in the low
/// bits, compute ops as [`COMPUTE`] entries. Synchronization and service
/// brackets are left out.
fn access_stream(w: &dyn Workload) -> Vec<Vec<u64>> {
    (0..w.threads())
        .map(|tid| {
            let mut out = Vec::new();
            let mut gen = w.spawn(tid);
            while let Some(op) = gen.next_op() {
                let start = out.len();
                let mut push = |addr: u64, store: bool| {
                    out.push(addr & !63 | if store { STORE } else { 0 });
                };
                match op {
                    Op::Load(a) => push(a, false),
                    Op::Store(a) => push(a, true),
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
                        let store = matches!(op, Op::StoreBatch { .. });
                        for i in 0..u64::from(count) {
                            push(base + u64::from(stride) * i, store);
                        }
                    }
                    Op::Gather(b) => b.addrs().iter().for_each(|&a| push(a, false)),
                    Op::Scatter(b) => b.addrs().iter().for_each(|&a| push(a, true)),
                    Op::Compute(n) => {
                        out.push(n << 6 | COMPUTE);
                        continue;
                    }
                    _ => {}
                }
                if let Some(first) = out.get_mut(start) {
                    *first |= OP_START;
                }
            }
            out
        })
        .collect()
}

/// The load and store entries of a stream.
fn accesses(s: &[u64]) -> impl Iterator<Item = u64> + '_ {
    s.iter().copied().filter(|a| a & COMPUTE == 0)
}

/// The point's memory-system configuration, sized as `Machine::build`
/// sizes it.
enum SysCfg {
    Numa(NumaCfg),
    Coma(ComaCfg),
    Agg(AggCfg),
}

impl SysCfg {
    fn resolve(p: &Point, w: &dyn Workload) -> SysCfg {
        let mut cfg = resolve(w, p.pressure());
        cfg.threads = (0..w.threads()).filter(|&t| !w.delayed_start(t)).count();
        match p.arch() {
            ArchSpec::Numa => SysCfg::Numa(cfg.numa()),
            ArchSpec::Coma => SysCfg::Coma(cfg.coma()),
            ArchSpec::Agg { n_d } => SysCfg::Agg(cfg.agg(n_d)),
            other => unreachable!("benchmark points use Figure-6 machines, not {other:?}"),
        }
    }

    fn build(&self) -> Box<dyn MemSystem> {
        match self {
            SysCfg::Numa(c) => Box::new(NumaSystem::new(c.clone())),
            SysCfg::Coma(c) => Box::new(ComaSystem::new(c.clone())),
            SysCfg::Agg(c) => Box::new(AggSystem::new(c.clone())),
        }
    }

    fn l2(&self) -> CacheCfg {
        match self {
            SysCfg::Numa(c) => c.l2,
            SysCfg::Coma(c) => c.l2,
            SysCfg::Agg(c) => c.l2,
        }
    }

    /// Attraction-memory geometry and on-chip line count, if any.
    fn am(&self) -> Option<(CacheCfg, u64)> {
        match self {
            SysCfg::Numa(_) => None,
            SysCfg::Coma(c) => Some((c.am, c.onchip_lines)),
            SysCfg::Agg(c) => Some((c.p_am, c.p_onchip_lines)),
        }
    }

    /// Network timing and node count.
    fn net(&self) -> (NetCfg, usize) {
        match self {
            SysCfg::Numa(c) => (c.net, c.nodes),
            SysCfg::Coma(c) => (c.net, c.nodes),
            SysCfg::Agg(c) => (c.net, c.n_p + c.n_d),
        }
    }
}

/// Replays the stream through a standalone memory system built and
/// preloaded as the machine's is. Like the driver, it always advances the
/// thread with the earliest clock by one op, so accesses issue in
/// nondecreasing simulated time: an op's accesses on consecutive cycles, a
/// load op's thread resuming at its last completion, a store op's thread
/// one cycle per store later (write buffer), a compute op's after its
/// cycles. There are no barriers or locks. Only the replay loop is timed.
/// Returns the system's compute nodes (thread `i` runs on the `i`-th) and
/// the probe.
fn replay(cfg: &SysCfg, w: &dyn Workload, stream: &[Vec<u64>]) -> (Vec<NodeId>, Probe) {
    let mut sys = cfg.build();
    let nodes = sys.compute_nodes();
    for r in w.preload_regions() {
        let owner = nodes.get(r.owner_tid).copied().unwrap_or(nodes[0]);
        let kind = match r.kind {
            pimdsm_workloads::PreloadKind::ColdPrivate => PreloadKind::ColdPrivate,
            pimdsm_workloads::PreloadKind::SharedInit => PreloadKind::SharedInit,
        };
        for addr in (r.base..r.base + r.bytes).step_by(64) {
            sys.preload(addr, owner, kind);
        }
    }
    let total: u64 = stream.iter().map(|s| accesses(s).count() as u64).sum();
    let mut pos = vec![0usize; stream.len()];
    let mut clock = vec![0u64; stream.len()];
    let probe = Probe::time(total, || {
        while let Some(tid) = (0..stream.len())
            .filter(|&t| pos[t] < stream[t].len())
            .min_by_key(|&t| clock[t])
        {
            let s = &stream[tid][pos[tid]..];
            if s[0] & COMPUTE != 0 {
                clock[tid] += s[0] >> 6;
                pos[tid] += 1;
                continue;
            }
            let (node, issue) = (nodes[tid], clock[tid]);
            let mut resume = issue;
            for (i, &a) in s.iter().enumerate() {
                if i > 0 && a & (OP_START | COMPUTE) != 0 {
                    break;
                }
                let (addr, at) = (a & !(STORE | OP_START), issue + i as u64);
                resume = if a & STORE != 0 {
                    sys.write(node, addr, at);
                    at + 1
                } else {
                    resume.max(sys.read(node, addr, at).done_at)
                };
                pos[tid] += 1;
            }
            clock[tid] = resume;
        }
    });
    (nodes, probe)
}

/// The first `PROBE_OPS` lines of the stream, split evenly over threads.
fn probe_lines(
    stream: &[Vec<u64>],
) -> impl Iterator<Item = (usize, impl Iterator<Item = u64> + '_)> {
    let per_thread = (PROBE_OPS / stream.len().max(1) as u64) as usize;
    stream
        .iter()
        .enumerate()
        .map(move |(tid, s)| (tid, accesses(s).take(per_thread).map(|a| a >> 6)))
}

/// `(L2 get, AM insert, on-chip LRU update)` probes: one structure per
/// thread with the point's geometry, fed that thread's lines.
fn mem_probe(cfg: &SysCfg, stream: &[Vec<u64>]) -> (Probe, Probe, Probe) {
    let ops: u64 = probe_lines(stream).map(|(_, l)| l.count() as u64).sum();
    let mut l2: Vec<SetAssocCache<u8>> = stream
        .iter()
        .map(|_| SetAssocCache::new(cfg.l2()))
        .collect();
    let l2_get = Probe::time(ops, || {
        for (tid, lines) in probe_lines(stream) {
            for line in lines {
                if l2[tid].get(line).is_none() {
                    black_box(l2[tid].insert(line, 0, |_| 0));
                }
            }
        }
    });
    let Some((am_cfg, onchip)) = cfg.am() else {
        return (l2_get, Probe::default(), Probe::default());
    };
    let mut am: Vec<SetAssocCache<u8>> =
        stream.iter().map(|_| SetAssocCache::new(am_cfg)).collect();
    let am_insert = Probe::time(ops, || {
        for (tid, lines) in probe_lines(stream) {
            for line in lines {
                black_box(am[tid].insert(line, 0, |s| u32::from(*s)));
            }
        }
    });
    let mut lru: Vec<KeyedQueue<u64>> = stream.iter().map(|_| KeyedQueue::new()).collect();
    let keyed_queue = Probe::time(ops, || {
        for (tid, lines) in probe_lines(stream) {
            let q = &mut lru[tid];
            for line in lines {
                if !q.move_to_back(&line) {
                    q.push_back(line);
                    if q.len() as u64 > onchip {
                        black_box(q.pop_front());
                    }
                }
            }
        }
    });
    (l2_get, am_insert, keyed_queue)
}

/// A fixed xorshift step for probe inputs that must not be predictable.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// Pop+push pairs on an event queue holding `peak` entries, one pair per
/// engine event of the run (capped).
fn queue_probe(peak: u64, events: u64) -> Probe {
    let n = events.min(PROBE_OPS);
    let mut q = EventQueue::new();
    for i in 0..peak.max(1) {
        q.push(i * 7, i);
    }
    let mut x = 0x2545_F491_4F6C_DD1D;
    Probe::time(n, || {
        for _ in 0..n {
            let (time, id) = q.pop().expect("the probe queue never drains");
            x = xorshift(x);
            q.push(time + 1 + x % 512, id);
        }
    })
}

/// `Timeline::acquire` calls, one per Txn walk of the run (capped), at the
/// run's mean walk rate with half the gap booked (a resource half busy).
fn acquire_probe(walks: u64, total_cycles: u64) -> Probe {
    let n = walks.min(PROBE_OPS);
    let gap = (total_cycles / walks.max(1)).max(2);
    let mut t = Timeline::new();
    Probe::time(n, || {
        let mut at = 0;
        for _ in 0..n {
            at += gap;
            black_box(t.acquire(at, gap / 2));
        }
    })
}

/// `Network::send` calls, one per simulated message (capped), from each
/// access's thread node to its page's interleaved home, at the run's mean
/// message rate.
fn send_probe(
    cfg: &SysCfg,
    stream: &[Vec<u64>],
    compute: &[NodeId],
    messages: u64,
    total_cycles: u64,
) -> Probe {
    let (net_cfg, nodes) = cfg.net();
    let routes: Vec<(usize, usize)> = probe_lines(stream)
        .flat_map(|(tid, lines)| {
            let from = compute[tid];
            lines.map(move |line| (from, (line >> 6) as usize % nodes))
        })
        .collect();
    if routes.is_empty() {
        return Probe::default();
    }
    let n = messages.min(PROBE_OPS);
    let gap = (total_cycles / messages.max(1)).max(1);
    let mut net = Network::new(Mesh::for_nodes(nodes), net_cfg);
    Probe::time(n, || {
        let mut at = 0;
        for i in 0..n as usize {
            let (from, to) = routes[i % routes.len()];
            at += gap;
            black_box(net.send(from, to, PROBE_MSG_BYTES[i % 2], at));
        }
    })
}
