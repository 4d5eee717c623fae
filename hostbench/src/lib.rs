//! Host-time benchmark of the PIM-DSM simulator.
//!
//! The benchmark drives the simulator's public layer APIs directly, one
//! point at a time, from one host thread: `pimdsm_workloads::build` and
//! `SvcSpec::build` make the workload, `Machine::build` and `Machine::run`
//! simulate it. It bypasses the lab executor and its result cache on
//! purpose: a cache hit makes a re-run free, so going through them would
//! measure the cache, not the simulator.
//!
//! A run is one untimed warm-up pass, then measured passes; with tracing
//! on, one traced pass follows (see [`probe`]). Every pass checks each
//! point's read breakdown and report digest; the traced pass and `--bless`
//! also run the coherence oracle. Reported host times are scaled to the
//! reference speed (see [`reference`]). See `README.md` for the workloads
//! and metrics.

pub mod compare;
pub mod measure;
pub mod metrics;
pub mod points;
pub mod probe;
pub mod reference;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use pimdsm_obs::JsonValue;
use pimdsm_prof::Snapshot;
use pimdsm_workloads::Scale;

use measure::{run_pass, PassSample, PointSample};
use metrics::{median, MetricDef, END_TO_END, PER_LAYER};
use points::{BenchWorkload, Point};
use probe::{traced_pass, Probe, TracedPass, TracedPoint};
use reference::Reference;

/// The committed report digests of every point at seed 0 and the default
/// configuration, one `workload<TAB>point key<TAB>digest` line each;
/// regenerated with `--bless`.
const SEED0_DIGESTS: &str = include_str!("../expected/seed0.txt");

/// Application threads every default workload runs with.
const DEFAULT_THREADS: usize = 32;

/// When the measured passes stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After exactly this many passes.
    Runs(usize),
    /// After the first pass that ends at least this many seconds after
    /// the measured passes began.
    Seconds(f64),
}

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload seed (0 = nominal parameters).
    pub seed: u64,
    /// Application threads per point.
    pub threads: usize,
    /// Problem-size scaling.
    pub scale: Scale,
    /// When the measured passes stop.
    pub stop: Stop,
    /// Whether a traced pass follows the measured ones.
    pub trace: bool,
}

impl Opts {
    /// The default configuration at `seed`.
    pub fn new(seed: u64) -> Opts {
        Opts {
            seed,
            threads: DEFAULT_THREADS,
            scale: Scale::bench(),
            stop: Stop::Runs(5),
            trace: false,
        }
    }

    /// Whether the committed seed-0 digests describe these points.
    fn has_committed_digests(&self) -> bool {
        self.seed == 0 && self.threads == DEFAULT_THREADS && self.scale == Scale::bench()
    }
}

/// Parses [`SEED0_DIGESTS`]-formatted text into `(workload, key) → digest`.
fn parse_digests(text: &str) -> BTreeMap<(String, String), u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split('\t');
            let (w, k, d) = (f.next()?, f.next()?, f.next()?);
            Some((
                (w.to_string(), k.to_string()),
                u64::from_str_radix(d, 16).ok()?,
            ))
        })
        .collect()
}

/// Renders digests in the [`SEED0_DIGESTS`] format.
pub fn render_digests(rows: &[(String, String, u64)]) -> String {
    let mut out = String::from(
        "# Report digests (FNV-1a of RunReport::to_json().render()) at seed 0,\n\
         # 32 threads, Scale::bench(). Regenerate with `pimdsm-benchmark --bless`.\n",
    );
    for (w, k, d) in rows {
        out.push_str(&format!("{w}\t{k}\t{d:016x}\n"));
    }
    out
}

/// The result of running one workload.
#[derive(Debug)]
pub struct Outcome {
    /// The workload's name.
    pub workload: String,
    /// Its seed.
    pub seed: u64,
    /// The points, in run order.
    pub points: Vec<Point>,
    /// The measured passes.
    pub passes: Vec<PassSample>,
    /// The traced pass, when tracing was on.
    pub traced: Option<TracedPass>,
    /// Point-runs attempted over every pass.
    pub attempted: u64,
    /// Why each failed point-run failed.
    pub failures: Vec<String>,
}

/// Runs `workload` as `opts` says.
pub fn run(workload: BenchWorkload, opts: &Opts) -> Outcome {
    let points = workload.points(opts.threads, opts.scale, opts.seed);
    let committed = opts
        .has_committed_digests()
        .then(|| parse_digests(SEED0_DIGESTS));
    let expected = committed.map(|c| {
        points
            .iter()
            .map(|p| c.get(&(workload.name().to_string(), p.key())).copied())
            .collect()
    });
    run_points(workload.name(), points, opts, expected)
}

/// Runs explicit `points` under the name `workload`. `expected`, when
/// given, holds each point's committed digest (`None`: none committed,
/// which fails the point).
pub fn run_points(
    workload: &str,
    points: Vec<Point>,
    opts: &Opts,
    expected: Option<Vec<Option<u64>>>,
) -> Outcome {
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut fail = |pass: &str, p: &Point, why: String| {
        failures.push(format!("{pass} {}: {why}", p.key()));
    };

    let mut reference = Reference::default();
    let warmup = run_pass(&points, false, &mut reference);
    attempted += points.len() as u64;
    for (i, (p, s)) in points.iter().zip(&warmup.points).enumerate() {
        match (s, expected.as_ref().map(|e| e[i])) {
            (Err(e), _) => fail("warm-up", p, e.clone()),
            (Ok(_), Some(None)) => fail("warm-up", p, "no committed digest".into()),
            (Ok(s), Some(Some(d))) if s.digest != d => fail(
                "warm-up",
                p,
                format!("digest {:016x}, committed {d:016x}", s.digest),
            ),
            _ => {}
        }
    }

    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let pass = run_pass(&points, false, &mut reference);
        attempted += points.len() as u64;
        let label = format!("pass {}", passes.len() + 1);
        for ((p, s), w) in points.iter().zip(&pass.points).zip(&warmup.points) {
            match (s, w) {
                (Err(e), _) => fail(&label, p, e.clone()),
                (Ok(s), Ok(w)) if !same_work(s.counters, s.digest, w) => {
                    fail(&label, p, "counters or digest differ from warm-up".into())
                }
                _ => {}
            }
        }
        passes.push(pass);
        let done = match opts.stop {
            Stop::Runs(n) => passes.len() >= n.max(1),
            Stop::Seconds(s) => start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }

    let traced = opts.trace.then(|| {
        let t = traced_pass(&points, &mut reference);
        attempted += points.len() as u64;
        for ((p, s), w) in points.iter().zip(&t.points).zip(&warmup.points) {
            match (s, w) {
                (Err(e), _) => fail("traced", p, e.clone()),
                (Ok(s), Ok(w)) if !same_work(s.counters, s.digest, w) => {
                    fail("traced", p, "counters or digest differ from warm-up".into())
                }
                _ => {}
            }
        }
        t
    });

    Outcome {
        workload: workload.to_string(),
        seed: opts.seed,
        points,
        passes,
        traced,
        attempted,
        failures,
    }
}

/// Whether a later pass did exactly the warm-up's work on a point.
/// Allocation counts are left out: the warm-up also pays one-time lazy
/// set-up.
fn same_work(counters: Snapshot, digest: u64, warm: &PointSample) -> bool {
    counters == warm.counters && digest == warm.digest
}

impl Outcome {
    /// Failed point-runs.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed point-runs ÷ attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Σ over points of each point's median of the host time `f`, scaled
    /// to the reference speed, across the measured passes, in ns. Host
    /// noise comes in bursts shorter than a pass as well as longer
    /// episodes; a per-point median drops a burst that spoils one pass of
    /// any point, where a median of pass sums needs the burst to stay
    /// inside a single pass.
    fn point_medians_ns(&self, f: impl Fn(&PointSample) -> u64) -> f64 {
        (0..self.points.len())
            .filter_map(|i| {
                let v: Vec<f64> = self
                    .passes
                    .iter()
                    .filter_map(|p| p.points[i].as_ref().ok())
                    .map(|x| f(x) as f64 * x.host_scale)
                    .collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .sum()
    }

    /// The end-to-end metrics: time metrics from Σ of per-point medians of
    /// reference-scaled host time over the measured passes, the peak heap
    /// as the median over passes.
    pub fn end_to_end(&self) -> Vec<(MetricDef, f64)> {
        let heap: Vec<f64> = self.passes.iter().map(|p| p.peak_heap as f64).collect();
        end_to_end_of(Totals {
            wall_ns: self.point_medians_ns(PointSample::wall_ns),
            setup_ns: self.point_medians_ns(PointSample::setup_ns),
            run_ns: self.point_medians_ns(|x| x.run_ns),
            walks: self.passes[0].counters().txn_walks() as f64,
            heap_bytes: median(&heap),
        })
    }

    /// Each measured pass's end-to-end metrics, from its reference-scaled
    /// host times summed over its points.
    pub fn end_to_end_per_pass(&self) -> Vec<Vec<(MetricDef, f64)>> {
        let passes = self.passes.iter();
        passes
            .map(|p| {
                end_to_end_of(Totals {
                    wall_ns: p.scaled_sum(PointSample::wall_ns),
                    setup_ns: p.scaled_sum(PointSample::setup_ns),
                    run_ns: p.scaled_sum(|x| x.run_ns),
                    walks: p.counters().txn_walks() as f64,
                    heap_bytes: p.peak_heap as f64,
                })
            })
            .collect()
    }

    /// Every per-layer metric, or `None` without a traced pass.
    pub fn per_layer(&self) -> Option<Vec<(MetricDef, f64)>> {
        let traced = self.traced.as_ref()?;
        let first = &self.passes[0];
        let ms = |ns: f64| ns / 1e6;
        let tp: Vec<&TracedPoint> = traced
            .points
            .iter()
            .filter_map(|p| p.as_ref().ok())
            .collect();
        let count = |f: &dyn Fn(&TracedPoint) -> u64| tp.iter().map(|p| f(p)).sum::<u64>() as f64;
        let scaled_ns = |f: &dyn Fn(&TracedPoint) -> u64| {
            tp.iter().map(|p| f(p) as f64 * p.host_scale).sum::<f64>()
        };
        let per_op = |f: &dyn Fn(&TracedPoint) -> Probe| {
            let ops = count(&|p| f(p).ops);
            if ops == 0.0 {
                0.0
            } else {
                scaled_ns(&|p| f(p).ns) / ops
            }
        };
        let counters = first.counters();
        let sim = first.sim();
        let build_ms = ms(self.point_medians_ns(|x| x.build_ns));
        let run_ms = ms(self.point_medians_ns(|x| x.run_ns));
        let gen_ms = ms(scaled_ns(&|p| p.gen_ns));
        let replay_ms = ms(scaled_ns(&|p| p.replay.ns));
        let traced_core = ms(scaled_ns(&|p| p.build_ns + p.run_ns));
        let untraced_core = build_ms + run_ms;
        let values: BTreeMap<&str, f64> = [
            ("workloads.ops", count(&|p| p.ops)),
            ("workloads.memrefs", count(&|p| p.memrefs)),
            ("workloads.gen_ms", gen_ms),
            ("core.build_ms", build_ms),
            ("core.build_allocs", first.sum(|x| x.build_allocs) as f64),
            ("core.build_mb", first.sum(|x| x.build_bytes) as f64 / MIB),
            ("core.run_ms", run_ms),
            ("core.run_allocs", first.sum(|x| x.run_allocs) as f64),
            ("core.driver_ms_est", run_ms - replay_ms - gen_ms),
            ("engine.events", counters.engine_events() as f64),
            ("engine.queue_peak", counters.engine_queue_peak() as f64),
            ("engine.queue_ns", per_op(&|p| p.queue)),
            ("engine.acquire_ns", per_op(&|p| p.acquire)),
            ("proto.walks", counters.txn_walks() as f64),
            ("proto.steps", counters.txn_steps() as f64),
            ("proto.replay_ms", replay_ms),
            ("proto.ns_per_access", per_op(&|p| p.replay)),
            (
                "proto.fastpath_frac",
                sim.fastpath_reads as f64 / sim.reads.max(1) as f64,
            ),
            ("proto.remote_reads", sim.remote_reads as f64),
            ("proto.remote_writes", sim.remote_writes as f64),
            ("proto.invalidations", sim.invalidations as f64),
            ("proto.write_backs", sim.write_backs as f64),
            ("proto.injections", sim.injections as f64),
            ("proto.page_outs", sim.page_outs as f64),
            ("proto.disk_faults", sim.disk_faults as f64),
            ("mem.l2_get_ns", per_op(&|p| p.l2_get)),
            ("mem.am_insert_ns", per_op(&|p| p.am_insert)),
            ("mem.keyed_queue_ns", per_op(&|p| p.keyed_queue)),
            ("net.messages", sim.messages as f64),
            ("net.bytes", sim.bytes as f64),
            ("net.queueing_kcycles", sim.queueing as f64 / 1e3),
            ("net.send_ns", per_op(&|p| p.send)),
            (
                "bench.trace_overhead_frac",
                traced_core / untraced_core.max(1e-9) - 1.0,
            ),
        ]
        .into_iter()
        .collect();
        Some(PER_LAYER.iter().map(|d| (*d, values[d.name])).collect())
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (or, traced, the per-layer metrics).
    pub fn result_json(&self) -> String {
        let metrics = self.per_layer().unwrap_or_else(|| self.end_to_end());
        let metrics = metrics
            .into_iter()
            .map(|(d, v)| {
                let entry = JsonValue::obj([
                    ("value", JsonValue::num(v)),
                    ("unit", JsonValue::str(d.unit)),
                ]);
                (d.name.to_string(), entry)
            })
            .collect();
        JsonValue::obj([
            ("correct", JsonValue::Bool(self.failed() == 0)),
            ("attempted", JsonValue::u64(self.attempted)),
            ("failed", JsonValue::u64(self.failed())),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .render()
    }

    /// The run as an entry of a `--out` document: the end-to-end metrics,
    /// the failure counts, and the per-layer metrics when traced.
    pub fn to_json(&self) -> JsonValue {
        let values = |m: Vec<(MetricDef, f64)>| {
            let m = m.into_iter();
            JsonValue::Obj(
                m.map(|(d, v)| (d.name.to_string(), JsonValue::num(v)))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("workload", JsonValue::str(self.workload.as_str())),
            ("seed", JsonValue::u64(self.seed)),
            ("points", JsonValue::usize(self.points.len())),
            ("attempted", JsonValue::u64(self.attempted)),
            ("failed", JsonValue::u64(self.failed())),
            ("fail_frac", JsonValue::num(self.fail_frac())),
            ("end_to_end", values(self.end_to_end())),
        ];
        if let Some(layers) = self.per_layer() {
            fields.push(("per_layer", values(layers)));
        }
        JsonValue::obj(fields)
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// What the end-to-end metrics are computed from.
struct Totals {
    wall_ns: f64,
    setup_ns: f64,
    run_ns: f64,
    walks: f64,
    heap_bytes: f64,
}

fn end_to_end_of(t: Totals) -> Vec<(MetricDef, f64)> {
    let metric = |name: &str| match name {
        "wall_s" => t.wall_ns / 1e9,
        "setup_s" => t.setup_ns / 1e9,
        "walks_per_s" => t.walks / (t.run_ns / 1e9).max(1e-9),
        "peak_heap_mb" => t.heap_bytes / MIB,
        other => unreachable!("no end-to-end metric {other}"),
    };
    END_TO_END.iter().map(|d| (*d, metric(d.name))).collect()
}
