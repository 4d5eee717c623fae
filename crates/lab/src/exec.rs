//! The parallel sweep executor.
//!
//! Each simulation point is strictly single-threaded and deterministic;
//! the executor exploits that by running *different* points on a small
//! pool of worker threads. Workers pull the next un-started index from a
//! shared atomic counter (work stealing in its simplest form: whichever
//! worker frees up first takes the next point), and results land in a
//! slot vector indexed by point position — so the outcome order, and
//! therefore every rendered table and JSON report, is byte-identical
//! whatever `--jobs` was.
//!
//! A panicking point (a spec bug, a workload deadlock) is caught with
//! [`std::panic::catch_unwind`] and recorded as that point's failure;
//! the other points complete and their results are still cached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pimdsm::RunReport;
use pimdsm_engine::Cycle;
use pimdsm_obs::Tracer;
use pimdsm_prof::{Phase, Snapshot};

use crate::cache::ResultCache;
use crate::spec::PointSpec;

/// Per-sweep instrumentation requests (`--trace`, `--trace-only`, `--metrics`).
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// Capture a Chrome trace of one run.
    pub trace: bool,
    /// Substring filter selecting which run to trace (`APP:LABEL` keys).
    pub trace_only: Option<String>,
    /// Sample every run's counters each `epoch` cycles.
    pub epoch: Option<Cycle>,
}

impl Instrumentation {
    /// The index of the point a `--trace` request captures: the first
    /// point whose key contains the filter, or the first point when no
    /// filter is given. `None` when tracing is off or nothing matches.
    pub fn traced_index(&self, points: &[PointSpec]) -> Option<usize> {
        if !self.trace {
            return None;
        }
        match &self.trace_only {
            None => (!points.is_empty()).then_some(0),
            Some(f) => points.iter().position(|p| p.key().contains(f)),
        }
    }
}

/// The result of one point of a sweep.
pub struct PointOutcome {
    /// The spec that produced it.
    pub spec: PointSpec,
    /// The report, or the panic message of a failed point.
    pub report: Result<RunReport, String>,
    /// Whether the report came from the cache.
    pub cache_hit: bool,
    /// Wall-clock time of this point (cache lookup or simulation).
    /// Non-deterministic by nature.
    pub wall: Duration,
    /// Deterministic profiler-counter deltas of this point's simulation
    /// (all zeros for a cache hit — nothing was simulated).
    pub counters: Snapshot,
}

/// The result of a whole sweep, in point order.
pub struct SweepResult {
    /// One outcome per input point, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// Cache hits.
    pub hits: usize,
    /// Points actually simulated (including instrumented cache bypasses).
    pub misses: usize,
    /// The Chrome-trace JSON of the traced point, if one was traced.
    pub trace_json: Option<String>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Summed per-point wall time spent actually simulating (misses).
    pub cold_wall: Duration,
    /// Summed per-point wall time spent serving cache hits.
    pub hit_wall: Duration,
}

impl SweepResult {
    /// Cache hit rate over the sweep, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The first failure, if any point panicked.
    pub fn first_failure(&self) -> Option<(&PointSpec, &str)> {
        self.outcomes
            .iter()
            .find_map(|o| o.report.as_ref().err().map(|e| (&o.spec, e.as_str())))
    }

    /// Reports in point order; `None` if any point failed.
    pub fn reports(&self) -> Option<Vec<&RunReport>> {
        self.outcomes
            .iter()
            .map(|o| o.report.as_ref().ok())
            .collect()
    }

    /// Deterministic counter totals over the sweep: additive counters
    /// summed, queue peak max-merged. Order-free, so the totals do not
    /// depend on `--jobs`.
    pub fn counter_totals(&self) -> Snapshot {
        let mut total = Snapshot::default();
        for o in &self.outcomes {
            total.merge(&o.counters);
        }
        total
    }
}

/// Runs one point, instrumented as requested. Returns the report and the
/// serialized trace (when this point is the traced one).
fn run_point(spec: &PointSpec, traced: bool, epoch: Option<Cycle>) -> (RunReport, Option<String>) {
    let mut machine = {
        pimdsm_prof::phase!(Phase::PointBuild);
        spec.build_machine()
    };
    let tracer = traced.then(|| {
        let t = Tracer::enabled();
        machine.attach_tracer(t.clone());
        t
    });
    if let Some(e) = epoch {
        machine.sample_epochs(e);
    }
    let report = {
        pimdsm_prof::phase!(Phase::PointRun);
        machine.run()
    };
    // The tracer is Rc-based (deliberately not Send), so the Chrome JSON
    // must be serialized here, inside the worker that owns it.
    (report, tracer.map(|t| t.to_chrome_json()))
}

/// Executes `points` on `jobs` workers, consulting `cache` when given.
///
/// Instrumented points — the traced point, and every point when epoch
/// sampling is on — bypass the cache in both directions: a cached report
/// carries no trace or epoch series, and an instrumented report must not
/// poison the cache with one.
pub fn run_sweep(
    points: Vec<PointSpec>,
    cache: Option<&ResultCache>,
    inst: &Instrumentation,
    jobs: usize,
    progress: bool,
) -> SweepResult {
    let start = Instant::now();
    let n = points.len();
    let traced_index = inst.traced_index(&points);
    if let (Some(i), true) = (traced_index, progress) {
        eprintln!("[lab] tracing run {}", points[i].key());
    }

    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PointOutcome>>> = Mutex::new((0..n).map(|_| None).collect());
    let trace_slot: Mutex<Option<String>> = Mutex::new(None);
    let workers = jobs.max(1).min(n.max(1));

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = points[i].clone();
                let traced = traced_index == Some(i);
                let instrumented = traced || inst.epoch.is_some();

                let point_start = Instant::now();
                let mut cache_hit = false;
                let mut trace_json = None;
                let mut counters = Snapshot::default();
                let report = if let Some(r) = (!instrumented)
                    .then(|| cache.and_then(|c| c.load(&spec)))
                    .flatten()
                {
                    cache_hit = true;
                    Ok(r)
                } else {
                    let (caught, delta) = pimdsm_prof::counters::scoped(|| {
                        catch_unwind(AssertUnwindSafe(|| run_point(&spec, traced, inst.epoch)))
                    });
                    counters = delta;
                    match caught {
                        Ok((r, t)) => {
                            trace_json = t;
                            if !instrumented {
                                if let Some(c) = cache {
                                    c.store(&spec, &r);
                                }
                            }
                            Ok(r)
                        }
                        Err(panic) => Err(panic_message(panic)),
                    }
                };
                let wall = point_start.elapsed();

                if progress {
                    let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                    let tag = if cache_hit { "cached" } else { "ran" };
                    let status = if report.is_ok() { "" } else { " FAILED" };
                    eprintln!("[lab] [{done}/{n}] {tag} {}{status}", spec.key());
                }
                if let Some(t) = trace_json {
                    *trace_slot.lock().unwrap() = Some(t);
                }
                slots.lock().unwrap()[i] = Some(PointOutcome {
                    spec,
                    report,
                    cache_hit,
                    wall,
                    counters,
                });
            });
        }
    });

    let outcomes: Vec<PointOutcome> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every point produced an outcome"))
        .collect();
    let hits = outcomes.iter().filter(|o| o.cache_hit).count();
    let split = |hit: bool| {
        outcomes
            .iter()
            .filter(|o| o.cache_hit == hit)
            .map(|o| o.wall)
            .sum()
    };
    SweepResult {
        misses: n - hits,
        hits,
        trace_json: trace_slot.into_inner().unwrap(),
        wall: start.elapsed(),
        cold_wall: split(false),
        hit_wall: split(true),
        outcomes,
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Config, MachineSpec, WorkloadSpec};
    use pimdsm_obs::ToJson;
    use pimdsm_workloads::{AppId, Scale};

    fn points() -> Vec<PointSpec> {
        [AppId::Fft, AppId::Radix]
            .into_iter()
            .flat_map(|app| {
                [
                    Config::Numa,
                    Config::Agg {
                        ratio: 1,
                        pressure_pct: 75,
                    },
                ]
                .into_iter()
                .map(move |cfg| PointSpec {
                    workload: WorkloadSpec::App { app, threads: 2 },
                    machine: MachineSpec::Arch(cfg),
                    scale: Scale::ci(),
                    fault: None,
                    label: cfg.label(),
                })
            })
            .collect()
    }

    fn rendered(result: &SweepResult) -> Vec<String> {
        result
            .outcomes
            .iter()
            .map(|o| o.report.as_ref().unwrap().to_json().render_pretty())
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let inst = Instrumentation::default();
        let serial = run_sweep(points(), None, &inst, 1, false);
        let parallel = run_sweep(points(), None, &inst, 4, false);
        assert_eq!(
            rendered(&serial),
            rendered(&parallel),
            "--jobs must not change any result byte"
        );
    }

    #[test]
    fn panicking_point_is_isolated() {
        let mut pts = points();
        // An inconsistent spec: a reconfiguration plan on a workload
        // without a reconfiguration point panics inside build_machine.
        pts[1].machine = MachineSpec::CustomAgg {
            n_d: 2,
            pressure_pct: 75,
            tweak: crate::spec::Tweak::None,
            reconfig: Some((3, 1)),
        };
        let result = run_sweep(pts, None, &Instrumentation::default(), 2, false);
        assert!(result.outcomes[1].report.is_err(), "bad point fails");
        let (spec, msg) = result.first_failure().expect("failure surfaced");
        assert_eq!(spec.key(), result.outcomes[1].spec.key());
        assert!(msg.contains("reconfiguration"), "panic text kept: {msg}");
        assert!(
            result
                .outcomes
                .iter()
                .enumerate()
                .all(|(i, o)| i == 1 || o.report.is_ok()),
            "other points still complete"
        );
        assert!(result.reports().is_none());
    }

    #[test]
    fn traced_point_produces_chrome_json_and_bypasses_cache() {
        let dir = std::env::temp_dir().join(format!("pimdsm-lab-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_fingerprint(&dir, "test");
        let inst = Instrumentation {
            trace: true,
            trace_only: Some("Radix".into()),
            epoch: None,
        };
        let result = run_sweep(points(), Some(&cache), &inst, 2, false);
        let trace = result.trace_json.expect("trace captured");
        assert!(
            trace.starts_with("["),
            "chrome JSON: {}",
            &trace[..40.min(trace.len())]
        );
        // The traced point (first Radix point, index 2) bypassed the
        // cache; the rest were stored.
        let warm = run_sweep(
            points(),
            Some(&cache),
            &Instrumentation::default(),
            2,
            false,
        );
        assert_eq!(warm.hits, 3, "traced point was not cached");
        assert_eq!(warm.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_sampling_attaches_series_and_bypasses_cache() {
        let inst = Instrumentation {
            trace: false,
            trace_only: None,
            epoch: Some(1000),
        };
        let dir = std::env::temp_dir().join(format!("pimdsm-lab-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_fingerprint(&dir, "test");
        let result = run_sweep(points(), Some(&cache), &inst, 2, false);
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.report.as_ref().unwrap().epochs.is_some()));
        assert_eq!(result.hits, 0);
        let warm = run_sweep(points(), Some(&cache), &inst, 2, false);
        assert_eq!(warm.hits, 0, "epoch-sampled sweeps never consult the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
