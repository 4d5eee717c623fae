//! Untraced passes: every point of a workload built and run back to back
//! on this thread, timed around each public layer call, with a reference
//! slice between points (see [`crate::reference`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pimdsm::RunReport;
use pimdsm_obs::ToJson;
use pimdsm_prof::{alloc, counters, Snapshot};
use pimdsm_proto::Level;

use crate::points::Point;
use crate::reference::Reference;

/// What one point cost and did in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSample {
    /// Host ns in the workload build.
    pub workload_ns: u64,
    /// Host ns in `Machine::build`.
    pub build_ns: u64,
    /// Host ns in `Machine::run`.
    pub run_ns: u64,
    /// Host ns dropping the machine.
    pub drop_ns: u64,
    /// Engine and Txn counters of the run.
    pub counters: Snapshot,
    /// Allocations inside `Machine::build`.
    pub build_allocs: u64,
    /// Bytes allocated inside `Machine::build`.
    pub build_bytes: u64,
    /// Allocations inside `Machine::run`.
    pub run_allocs: u64,
    /// Digest of the rendered run report.
    pub digest: u64,
    /// Simulated statistics of the run.
    pub sim: SimStats,
    /// Factor from this point's host times to the reference speed.
    pub host_scale: f64,
}

impl PointSample {
    /// Host ns the point took end to end.
    pub fn wall_ns(&self) -> u64 {
        self.workload_ns + self.build_ns + self.run_ns + self.drop_ns
    }

    /// Host ns of set-up: workload build plus `Machine::build`.
    pub fn setup_ns(&self) -> u64 {
        self.workload_ns + self.build_ns
    }
}

/// Simulated statistics of one run (*simulated*, not host).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulated cycles of the run.
    pub total_cycles: u64,
    /// Reads issued.
    pub reads: u64,
    /// Reads satisfied in L1 or L2.
    pub fastpath_reads: u64,
    /// Reads satisfied in two or three hops.
    pub remote_reads: u64,
    /// Writes that went remote.
    pub remote_writes: u64,
    /// Invalidations sent.
    pub invalidations: u64,
    /// Dirty write-backs.
    pub write_backs: u64,
    /// COMA injections.
    pub injections: u64,
    /// AGG page-outs.
    pub page_outs: u64,
    /// Disk faults.
    pub disk_faults: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Cycles messages queued for links.
    pub queueing: u64,
}

impl SimStats {
    /// The statistics of a finished run.
    pub fn of(r: &RunReport) -> SimStats {
        let lv = |l: Level| r.proto.reads_by_level[l.index()];
        SimStats {
            total_cycles: r.total_cycles,
            reads: r.proto.total_reads(),
            fastpath_reads: lv(Level::L1) + lv(Level::L2),
            remote_reads: lv(Level::Hop2) + lv(Level::Hop3),
            remote_writes: r.proto.remote_writes,
            invalidations: r.proto.invalidations,
            write_backs: r.proto.write_backs,
            injections: r.proto.injections,
            page_outs: r.proto.page_outs,
            disk_faults: r.proto.disk_faults,
            messages: r.net.messages,
            bytes: r.net.bytes,
            queueing: r.net.total_queueing,
        }
    }

    /// Adds `o` in.
    pub fn add(&mut self, o: &SimStats) {
        self.total_cycles += o.total_cycles;
        self.reads += o.reads;
        self.fastpath_reads += o.fastpath_reads;
        self.remote_reads += o.remote_reads;
        self.remote_writes += o.remote_writes;
        self.invalidations += o.invalidations;
        self.write_backs += o.write_backs;
        self.injections += o.injections;
        self.page_outs += o.page_outs;
        self.disk_faults += o.disk_faults;
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.queueing += o.queueing;
    }
}

/// One pass over every point: per-point samples (`Err` for a point that
/// panicked or failed its checks) and the heap the pass needed.
#[derive(Debug, Clone)]
pub struct PassSample {
    /// Per point, in point order.
    pub points: Vec<Result<PointSample, String>>,
    /// Peak live heap bytes over the pass, above the heap live at its
    /// start (the benchmark's own tables and earlier samples).
    pub peak_heap: u64,
}

impl PassSample {
    fn ok(&self) -> impl Iterator<Item = &PointSample> {
        self.points.iter().filter_map(|p| p.as_ref().ok())
    }

    /// Σ of the count `f` over the points that completed.
    pub fn sum(&self, f: impl Fn(&PointSample) -> u64) -> u64 {
        self.ok().map(f).sum()
    }

    /// Σ of the host time `f`, scaled to the reference speed, over the
    /// points that completed.
    pub fn scaled_sum(&self, f: impl Fn(&PointSample) -> u64) -> f64 {
        self.ok().map(|x| f(x) as f64 * x.host_scale).sum()
    }

    /// Engine/Txn counters merged over the completed points.
    pub fn counters(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for p in self.ok() {
            s.merge(&p.counters);
        }
        s
    }

    /// Simulated statistics summed over the completed points.
    pub fn sim(&self) -> SimStats {
        let mut s = SimStats::default();
        for p in self.ok() {
            s.add(&p.sim);
        }
        s
    }
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The digest a point's report is checked by.
pub(crate) fn report_digest(r: &RunReport) -> u64 {
    fnv64(r.to_json().render().as_bytes())
}

/// Checks that each level's read breakdown sums to its read latency.
pub(crate) fn check_breakdown(r: &RunReport) -> Result<(), String> {
    let latency = r.read_latency_by_level();
    for (lvl, row) in r.read_breakdown_by_level().iter().enumerate() {
        let sum: u64 = row.iter().sum();
        if sum != latency[lvl] {
            return Err(format!(
                "level {lvl}: read breakdown sums to {sum}, read latency is {}",
                latency[lvl]
            ));
        }
    }
    Ok(())
}

/// Runs `f`, turning a panic into an `Err` with its message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Builds and runs one point and checks its read breakdown; with
/// `coherence`, also runs the coherence oracle. Checks run outside the
/// timed regions.
fn run_point(p: &Point, coherence: bool) -> Result<PointSample, String> {
    let t0 = Instant::now();
    let workload = p.build_workload();
    let t1 = Instant::now();
    let a1 = alloc::totals();
    let mut machine = p.build_machine(workload);
    let t2 = Instant::now();
    let a2 = alloc::totals();
    let (report, counters) = counters::scoped(|| machine.run());
    let t3 = Instant::now();
    let a3 = alloc::totals();
    if coherence {
        machine.check_coherence();
    }
    check_breakdown(&report)?;
    let t4 = Instant::now();
    drop(machine);
    let t5 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Ok(PointSample {
        workload_ns: ns(t0, t1),
        build_ns: ns(t1, t2),
        run_ns: ns(t2, t3),
        drop_ns: ns(t4, t5),
        counters,
        build_allocs: a2.allocs - a1.allocs,
        build_bytes: a2.bytes - a1.bytes,
        run_allocs: a3.allocs - a2.allocs,
        digest: report_digest(&report),
        sim: SimStats::of(&report),
        host_scale: 1.0,
    })
}

/// Runs every point once, in order. The coherence oracle costs up to
/// three times the run itself, so only `--bless` and the traced pass ask
/// for it.
pub fn run_pass(points: &[Point], coherence: bool, reference: &mut Reference) -> PassSample {
    pimdsm_prof::reset();
    let live = alloc::totals().live_bytes;
    let points = reference
        .bracket(points, |p| guarded(|| run_point(p, coherence)))
        .into_iter()
        .map(|(s, host_scale)| s.map(|s| PointSample { host_scale, ..s }))
        .collect();
    PassSample {
        points,
        peak_heap: alloc::totals().peak_bytes.saturating_sub(live),
    }
}
