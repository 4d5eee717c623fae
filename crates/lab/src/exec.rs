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
//! the other points still complete.
//!
//! Every invocation simulates. Within one, [`Shared`] hands a point that
//! an earlier suite already ran to the next suite that lists it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pimdsm::RunReport;
use pimdsm_engine::Cycle;
use pimdsm_obs::Tracer;
use pimdsm_prof::{Phase, Snapshot};

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
    /// Wall-clock time of this point's simulation. Non-deterministic by
    /// nature.
    pub wall: Duration,
    /// Deterministic profiler-counter deltas of this point's simulation.
    pub counters: Snapshot,
}

/// The result of a whole sweep, in point order.
pub struct SweepResult {
    /// One outcome per input point, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// Points taken from an earlier sweep of the same [`Shared`] instead
    /// of simulated; their outcomes carry zero wall time and counters.
    pub shared: usize,
    /// The Chrome-trace JSON of the traced point, if one was traced.
    pub trace_json: Option<String>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepResult {
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

/// Executes `points` on `jobs` workers.
pub fn run_sweep(
    points: Vec<PointSpec>,
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

                let point_start = Instant::now();
                let (caught, counters) = pimdsm_prof::counters::scoped(|| {
                    catch_unwind(AssertUnwindSafe(|| run_point(&spec, traced, inst.epoch)))
                });
                let report = match caught {
                    Ok((r, trace_json)) => {
                        if let Some(t) = trace_json {
                            *trace_slot.lock().unwrap() = Some(t);
                        }
                        Ok(r)
                    }
                    Err(panic) => Err(panic_message(panic)),
                };
                let wall = point_start.elapsed();

                if progress {
                    let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                    let status = if report.is_ok() { "" } else { " FAILED" };
                    eprintln!("[lab] [{done}/{n}] ran {}{status}", spec.key());
                }
                slots.lock().unwrap()[i] = Some(PointOutcome {
                    spec,
                    report,
                    wall,
                    counters,
                });
            });
        }
    });

    SweepResult {
        outcomes: slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|o| o.expect("every point produced an outcome"))
            .collect(),
        shared: 0,
        trace_json: trace_slot.into_inner().unwrap(),
        wall: start.elapsed(),
    }
}

/// The reports of one invocation's uninstrumented sweeps, so a point that
/// several suites list is simulated once: fig7 renders fig6's 49 points
/// and smoke reuses 4 of them. An instrumented sweep (traced, or
/// epoch-sampled as fig-fault always is) neither takes nor offers
/// reports, since its reports carry what the others' do not.
#[derive(Default)]
pub struct Shared {
    done: Vec<(PointSpec, RunReport)>,
}

impl Shared {
    /// Runs `points` like [`run_sweep`], but takes every point an earlier
    /// uninstrumented sweep of `self` simulated from there.
    pub fn sweep(
        &mut self,
        points: Vec<PointSpec>,
        inst: &Instrumentation,
        jobs: usize,
        progress: bool,
    ) -> SweepResult {
        if inst.trace || inst.epoch.is_some() {
            return run_sweep(points, inst, jobs, progress);
        }
        let known: Vec<Option<usize>> = points
            .iter()
            .map(|p| self.done.iter().position(|(s, _)| s == p))
            .collect();
        let fresh = points
            .iter()
            .zip(&known)
            .filter(|(_, k)| k.is_none())
            .map(|(p, _)| p.clone())
            .collect();
        let mut result = run_sweep(fresh, inst, jobs, progress);
        let mut simulated = std::mem::take(&mut result.outcomes).into_iter();
        for (spec, k) in points.into_iter().zip(known) {
            let outcome = match k {
                Some(i) => {
                    result.shared += 1;
                    PointOutcome {
                        spec,
                        report: Ok(self.done[i].1.clone()),
                        wall: Duration::ZERO,
                        counters: Snapshot::default(),
                    }
                }
                None => {
                    let o = simulated.next().expect("one outcome per simulated point");
                    if let Ok(r) = &o.report {
                        self.done.push((spec, r.clone()));
                    }
                    o
                }
            };
            result.outcomes.push(outcome);
        }
        result
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
        let serial = run_sweep(points(), &inst, 1, false);
        let parallel = run_sweep(points(), &inst, 4, false);
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
        let result = run_sweep(pts, &Instrumentation::default(), 2, false);
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
    fn traced_point_produces_chrome_json_and_is_not_shared() {
        let inst = Instrumentation {
            trace: true,
            trace_only: Some("Radix".into()),
            epoch: None,
        };
        let mut shared = Shared::default();
        let result = shared.sweep(points(), &inst, 2, false);
        let trace = result.trace_json.expect("trace captured");
        assert!(
            trace.starts_with("["),
            "chrome JSON: {}",
            &trace[..40.min(trace.len())]
        );
        let plain = shared.sweep(points(), &Instrumentation::default(), 2, false);
        assert_eq!(plain.shared, 0, "a traced sweep offers no reports");
    }

    #[test]
    fn epoch_sampling_attaches_series_and_is_not_shared() {
        let inst = Instrumentation {
            trace: false,
            trace_only: None,
            epoch: Some(1000),
        };
        let mut shared = Shared::default();
        shared.sweep(points(), &Instrumentation::default(), 2, false);
        let result = shared.sweep(points(), &inst, 2, false);
        assert_eq!(result.shared, 0, "an epoch-sampled sweep takes no reports");
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.report.as_ref().unwrap().epochs.is_some()));
    }
}
