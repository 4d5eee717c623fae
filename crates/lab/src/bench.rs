//! `pimdsm-lab bench`: repeated-run performance measurement of a suite,
//! with a schema-versioned JSON document (`BENCH_<suite>.json`) and a
//! regression comparator.
//!
//! A bench is one uncounted warm-up sweep (absorbing lazy one-time
//! initialization) followed by `runs` measured sweeps, each simulating
//! every point. Each measured run records the wall time, the
//! [deterministic counter snapshot](pimdsm_prof::Snapshot) aggregated
//! over its points, and — when the counting allocator is linked in — the
//! run's allocation count/byte deltas. The document keeps
//! *deterministic* quantities (event, walk, and allocation counts) in a
//! separate block from *non-deterministic* ones (wall times, peak heap)
//! so a diff between two committed `BENCH_*.json` files shows at a glance
//! whether the simulator did different work or merely ran at a different
//! speed.
//!
//! [`compare`] implements `bench --compare`: two documents are comparable
//! only if schema, suite, scale, thread count, job count and the simulated
//! work (engine events, queue peak, Txn walks and steps) all match; a
//! comparable current document regresses if its median wall time exceeds
//! the baseline's by more than the configured threshold factor.

use std::time::Duration;

use pimdsm_obs::{json, JsonValue};
use pimdsm_prof::{Phase, Snapshot};

use crate::exec::{run_sweep, Instrumentation, SweepResult};
use crate::suites::{Suite, SuiteCtx};

/// Schema tag every bench document carries; bump on layout changes.
pub const BENCH_SCHEMA: &str = "pimdsm-bench-v1";

/// How many of the slowest points a bench document lists.
const SLOWEST_POINTS: usize = 5;

/// One measured run of a suite.
#[derive(Debug, Clone)]
pub struct BenchSample {
    /// Wall time of the whole sweep (non-deterministic).
    pub wall: Duration,
    /// Deterministic counters aggregated over the run's points.
    pub counters: Snapshot,
    /// Allocations during the run (deterministic; 0 without `count-alloc`).
    pub allocs: u64,
    /// Bytes allocated during the run (deterministic; 0 without
    /// `count-alloc`).
    pub alloc_bytes: u64,
    /// Peak live heap observed by the end of the run (non-deterministic).
    pub peak_bytes: u64,
}

/// The outcome of [`measure_suite`]: per-run samples plus rollups.
#[derive(Debug)]
pub struct BenchResult {
    /// The benched suite's name.
    pub suite: &'static str,
    /// Points per run.
    pub points: usize,
    /// Worker threads the sweeps ran with.
    pub jobs: usize,
    /// The suite context (threads + scale) the points were built from.
    pub ctx: SuiteCtx,
    /// One sample per measured run, in run order.
    pub samples: Vec<BenchSample>,
    /// Per-phase rollup over all measured runs: `(unphased)`, then
    /// [`Phase::ALL`] in order.
    pub phases: Vec<pimdsm_prof::PhaseStats>,
    /// The last run's slowest points: `(point key, wall)`.
    pub slowest: Vec<(String, Duration)>,
}

impl BenchResult {
    fn sorted_walls(&self) -> Vec<Duration> {
        let mut walls: Vec<Duration> = self.samples.iter().map(|s| s.wall).collect();
        walls.sort();
        walls
    }

    /// Median wall time over the measured runs (lower middle for even
    /// counts — benches default to odd run counts).
    pub fn wall_median(&self) -> Duration {
        self.sorted_walls()[(self.samples.len() - 1) / 2]
    }

    /// Fastest run.
    pub fn wall_min(&self) -> Duration {
        self.sorted_walls()[0]
    }

    /// Slowest run.
    pub fn wall_max(&self) -> Duration {
        *self.sorted_walls().last().expect("at least one run")
    }

    /// Simulated events drained per wall-clock second, at the median run.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall_median().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.samples[0].counters.engine_events() as f64 / secs
    }

    /// Whether every deterministic field (counters and allocation deltas)
    /// was identical across the measured runs.
    pub fn stable_across_runs(&self) -> bool {
        let first = &self.samples[0];
        self.samples.iter().all(|s| {
            s.counters == first.counters
                && s.allocs == first.allocs
                && s.alloc_bytes == first.alloc_bytes
        })
    }

    /// Renders the schema-versioned bench document.
    pub fn to_json(&self) -> JsonValue {
        let ms = |d: Duration| round3(d.as_secs_f64() * 1e3);
        let first = &self.samples[0];
        JsonValue::obj([
            ("schema", JsonValue::str(BENCH_SCHEMA)),
            ("suite", JsonValue::str(self.suite)),
            (
                "config",
                JsonValue::obj([
                    ("jobs", JsonValue::usize(self.jobs)),
                    ("points", JsonValue::usize(self.points)),
                    ("runs", JsonValue::usize(self.samples.len())),
                    (
                        "scale",
                        JsonValue::obj([
                            ("iter_div", JsonValue::u64(self.ctx.scale.iter_div)),
                            ("size_div", JsonValue::u64(self.ctx.scale.size_div)),
                        ]),
                    ),
                    ("threads", JsonValue::usize(self.ctx.threads)),
                    ("warmup", JsonValue::usize(1)),
                ]),
            ),
            (
                "deterministic",
                JsonValue::obj([
                    ("alloc_bytes", JsonValue::u64(first.alloc_bytes)),
                    ("allocs", JsonValue::u64(first.allocs)),
                    (
                        "engine_events",
                        JsonValue::u64(first.counters.engine_events()),
                    ),
                    (
                        "engine_queue_peak",
                        JsonValue::u64(first.counters.engine_queue_peak()),
                    ),
                    (
                        "stable_across_runs",
                        JsonValue::Bool(self.stable_across_runs()),
                    ),
                    ("txn_steps", JsonValue::u64(first.counters.txn_steps())),
                    ("txn_walks", JsonValue::u64(first.counters.txn_walks())),
                ]),
            ),
            (
                "alloc",
                JsonValue::obj([
                    (
                        "counting",
                        JsonValue::Bool(pimdsm_prof::alloc::counting_enabled()),
                    ),
                    (
                        "peak_bytes",
                        JsonValue::u64(
                            self.samples.iter().map(|s| s.peak_bytes).max().unwrap_or(0),
                        ),
                    ),
                ]),
            ),
            (
                "wall_ms",
                JsonValue::obj([
                    ("max", JsonValue::num(ms(self.wall_max()))),
                    ("median", JsonValue::num(ms(self.wall_median()))),
                    ("min", JsonValue::num(ms(self.wall_min()))),
                    (
                        "per_run",
                        JsonValue::arr(self.samples.iter().map(|s| JsonValue::num(ms(s.wall)))),
                    ),
                ]),
            ),
            (
                "events_per_sec",
                JsonValue::num(self.events_per_sec().round()),
            ),
            (
                "phases",
                JsonValue::arr(self.phases.iter().map(|p| {
                    JsonValue::obj([
                        ("alloc_bytes", JsonValue::u64(p.alloc_bytes)),
                        ("allocs", JsonValue::u64(p.allocs)),
                        ("enters", JsonValue::u64(p.enters)),
                        ("name", JsonValue::str(p.name)),
                        ("wall_ms", JsonValue::num(round3(p.wall_ns as f64 / 1e6))),
                    ])
                })),
            ),
            (
                "slowest_points",
                JsonValue::arr(self.slowest.iter().map(|(key, wall)| {
                    JsonValue::obj([
                        ("point", JsonValue::str(key.clone())),
                        ("wall_ms", JsonValue::num(ms(*wall))),
                    ])
                })),
            ),
        ])
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn check(result: &SweepResult) -> Result<(), String> {
    for o in &result.outcomes {
        if let Err(e) = &o.report {
            return Err(format!("point {} failed: {e}", o.spec.key()));
        }
    }
    Ok(())
}

/// Runs `suite` once uncounted (warm-up) and then `runs` measured times,
/// each simulating every point.
///
/// The profiler's global phase/allocation state is reset after the
/// warm-up, so the returned phase rollup covers exactly the measured
/// region. Allocation deltas are captured immediately around each sweep;
/// the sample bookkeeping itself allocates only between those windows.
pub fn measure_suite(
    suite: &Suite,
    ctx: &SuiteCtx,
    runs: usize,
    jobs: usize,
    progress: bool,
) -> Result<BenchResult, String> {
    let runs = runs.max(1);
    let inst = Instrumentation {
        trace: false,
        trace_only: None,
        epoch: None,
    };
    if progress {
        eprintln!("[bench] {}: warm-up sweep...", suite.name);
    }
    let warm = run_sweep(suite.points(ctx), &inst, jobs, false);
    check(&warm)?;
    pimdsm_prof::reset();

    let points = warm.outcomes.len();
    let mut samples = Vec::with_capacity(runs);
    let mut slowest = Vec::new();
    for i in 0..runs {
        let specs = suite.points(ctx);
        let before = pimdsm_prof::alloc::totals();
        let result = {
            pimdsm_prof::phase!(Phase::BenchMeasure);
            run_sweep(specs, &inst, jobs, false)
        };
        let after = pimdsm_prof::alloc::totals();
        check(&result)?;
        samples.push(BenchSample {
            wall: result.wall,
            counters: result.counter_totals(),
            allocs: after.allocs - before.allocs,
            alloc_bytes: after.bytes - before.bytes,
            peak_bytes: after.peak_bytes,
        });
        if progress {
            eprintln!(
                "[bench] {}: run {}/{}: {:.2?}, {} events",
                suite.name,
                i + 1,
                runs,
                result.wall,
                result.counter_totals().engine_events()
            );
        }
        if i + 1 == runs {
            let mut by_wall: Vec<(String, Duration)> = result
                .outcomes
                .iter()
                .map(|o| (o.spec.key(), o.wall))
                .collect();
            by_wall.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            by_wall.truncate(SLOWEST_POINTS);
            slowest = by_wall;
        }
    }
    Ok(BenchResult {
        suite: suite.name,
        points,
        jobs,
        ctx: *ctx,
        samples,
        phases: pimdsm_prof::phase::stats(),
        slowest,
    })
}

// ------------------------------------------------------------- documents

/// The comparator's view of a bench document: identity fields, the
/// simulated-work counters, and the median wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Suite name.
    pub suite: String,
    /// Application thread count the suite ran with.
    pub threads: u64,
    /// Problem-size divisor.
    pub size_div: u64,
    /// Iteration divisor.
    pub iter_div: u64,
    /// Sweep worker threads.
    pub jobs: u64,
    /// Measured runs.
    pub runs: u64,
    /// Engine events drained per run.
    pub engine_events: u64,
    /// Peak event-queue depth.
    pub engine_queue_peak: u64,
    /// Txn walks per run.
    pub txn_walks: u64,
    /// Txn steps per run.
    pub txn_steps: u64,
    /// Median wall time in milliseconds.
    pub wall_median_ms: f64,
    /// Whether the document's deterministic fields were run-stable.
    pub stable: bool,
}

fn field<'d>(doc: &'d JsonValue, path: &[&str]) -> Result<&'d JsonValue, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("missing field {:?}", path.join(".")))?;
    }
    Ok(v)
}

fn field_u64(doc: &JsonValue, path: &[&str]) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("field {:?} is not a number", path.join(".")))
}

/// Parses and validates a bench document: schema tag, identity fields,
/// per-run array consistency, and the deterministic counter block.
pub fn validate_doc(text: &str) -> Result<BenchDoc, String> {
    let doc = json::parse(text)?;
    let schema = field(&doc, &["schema"])?
        .as_str()
        .ok_or("schema is not a string")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "schema is {schema:?}, this tool reads {BENCH_SCHEMA:?}"
        ));
    }
    let suite = field(&doc, &["suite"])?
        .as_str()
        .ok_or("suite is not a string")?
        .to_string();
    let runs = field_u64(&doc, &["config", "runs"])?;
    let per_run = field(&doc, &["wall_ms", "per_run"])?
        .as_arr()
        .ok_or("wall_ms.per_run is not an array")?;
    if per_run.len() as u64 != runs {
        return Err(format!(
            "wall_ms.per_run has {} entries for {runs} runs",
            per_run.len()
        ));
    }
    // The work counters are read into the `BenchDoc` below.
    for key in ["alloc_bytes", "allocs"] {
        field_u64(&doc, &["deterministic", key])?;
    }
    let stable = matches!(
        field(&doc, &["deterministic", "stable_across_runs"])?,
        JsonValue::Bool(true)
    );
    if field(&doc, &["phases"])?.as_arr().is_none() {
        return Err("phases is not an array".into());
    }
    Ok(BenchDoc {
        suite,
        threads: field_u64(&doc, &["config", "threads"])?,
        size_div: field_u64(&doc, &["config", "scale", "size_div"])?,
        iter_div: field_u64(&doc, &["config", "scale", "iter_div"])?,
        jobs: field_u64(&doc, &["config", "jobs"])?,
        runs,
        engine_events: field_u64(&doc, &["deterministic", "engine_events"])?,
        engine_queue_peak: field_u64(&doc, &["deterministic", "engine_queue_peak"])?,
        txn_walks: field_u64(&doc, &["deterministic", "txn_walks"])?,
        txn_steps: field_u64(&doc, &["deterministic", "txn_steps"])?,
        wall_median_ms: field(&doc, &["wall_ms", "median"])?
            .as_f64()
            .ok_or("wall_ms.median is not a number")?,
        stable,
    })
}

/// What [`compare`] concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Compared {
    /// Within threshold; the ratio is current/baseline median wall.
    Ok(f64),
    /// Median wall regressed past the threshold factor.
    Regression(f64),
    /// The documents don't measure the same thing; never compared.
    Incomparable(String),
}

/// Compares `current` against `baseline`: identity fields must match
/// exactly, and the current median wall must stay within
/// `threshold * baseline`. The simulated-work counters (engine events,
/// queue peak, Txn walks and steps) are identity fields too: a change
/// that alters simulated work is incomparable until its baseline is
/// re-measured and committed. Allocation counts stay out, because they
/// can move with the toolchain's std. Wall time is the only regression
/// axis.
pub fn compare(current: &BenchDoc, baseline: &BenchDoc, threshold: f64) -> Compared {
    let (c, b) = (current, baseline);
    let mut mismatches = Vec::new();
    for (name, cur, base) in [
        ("config.threads", c.threads, b.threads),
        ("config.scale.size_div", c.size_div, b.size_div),
        ("config.scale.iter_div", c.iter_div, b.iter_div),
        ("config.jobs", c.jobs, b.jobs),
        (
            "deterministic.engine_events",
            c.engine_events,
            b.engine_events,
        ),
        (
            "deterministic.engine_queue_peak",
            c.engine_queue_peak,
            b.engine_queue_peak,
        ),
        ("deterministic.txn_walks", c.txn_walks, b.txn_walks),
        ("deterministic.txn_steps", c.txn_steps, b.txn_steps),
    ] {
        if cur != base {
            mismatches.push(format!("{name}: current {cur} vs baseline {base}"));
        }
    }
    if current.suite != baseline.suite {
        mismatches.push(format!(
            "suite: current {:?} vs baseline {:?}",
            current.suite, baseline.suite
        ));
    }
    if !mismatches.is_empty() {
        return Compared::Incomparable(mismatches.join("; "));
    }
    let ratio = if baseline.wall_median_ms > 0.0 {
        current.wall_median_ms / baseline.wall_median_ms
    } else {
        1.0
    };
    if ratio > threshold {
        Compared::Regression(ratio)
    } else {
        Compared::Ok(ratio)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::suites::find;
    use pimdsm_workloads::Scale;

    fn ctx() -> SuiteCtx {
        SuiteCtx {
            threads: 4,
            scale: Scale::ci(),
        }
    }

    /// One smoke measurement shared by every test that reads it:
    /// `measure_suite` resets the process-wide profiler tallies, so two
    /// measurements on parallel test threads would corrupt each other's
    /// allocation deltas.
    fn smoke_result() -> &'static BenchResult {
        static RESULT: OnceLock<BenchResult> = OnceLock::new();
        RESULT.get_or_init(|| measure_suite(find("smoke").unwrap(), &ctx(), 2, 2, false).unwrap())
    }

    #[test]
    fn measure_smoke_produces_a_valid_stable_document() {
        let r = smoke_result();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.points, 4);
        assert!(r.samples[0].counters.engine_events() > 0);
        assert!(r.samples[0].counters.txn_walks() > 0);
        // The deterministic counters must not depend on the run (timing
        // and scheduling vary; the simulated work must not). Allocation
        // deltas are excluded here only because sibling tests allocate
        // concurrently in this process; the CLI asserts them too.
        assert_eq!(r.samples[0].counters, r.samples[1].counters);
        let doc = validate_doc(&r.to_json().render_pretty()).unwrap();
        assert_eq!(doc.suite, "smoke");
        assert_eq!(doc.runs, 2);
        assert_eq!(doc.threads, 4);
        assert!(doc.wall_median_ms >= 0.0);
    }

    #[test]
    fn compare_flags_injected_regression_and_config_drift() {
        let r = smoke_result();
        let doc = validate_doc(&r.to_json().render_pretty()).unwrap();
        assert!(matches!(compare(&doc, &doc, 1.5), Compared::Ok(_)));

        // Injected regression: a baseline 10x faster than the current run.
        let mut fast = doc.clone();
        fast.wall_median_ms = (doc.wall_median_ms / 10.0).max(0.001);
        assert!(matches!(
            compare(&doc, &fast, 3.0),
            Compared::Regression(r) if r > 3.0
        ));

        let mut other = doc.clone();
        other.threads = doc.threads + 1;
        assert!(matches!(
            compare(&doc, &other, 3.0),
            Compared::Incomparable(_)
        ));
        let mut renamed = doc.clone();
        renamed.suite = "fig6".into();
        assert!(matches!(
            compare(&doc, &renamed, 3.0),
            Compared::Incomparable(_)
        ));
    }

    #[test]
    fn one_extra_txn_walk_makes_documents_incomparable() {
        let base = BenchDoc {
            suite: "smoke".into(),
            threads: 32,
            size_div: 1,
            iter_div: 1,
            jobs: 1,
            runs: 3,
            engine_events: 1_000,
            engine_queue_peak: 32,
            txn_walks: 20_000,
            txn_steps: 130_000,
            wall_median_ms: 100.0,
            stable: true,
        };
        assert_eq!(compare(&base, &base, 1.5), Compared::Ok(1.0));
        let mut more = base.clone();
        more.txn_walks += 1;
        let Compared::Incomparable(why) = compare(&more, &base, 1.5) else {
            panic!("a changed walk count must not compare");
        };
        assert_eq!(
            why,
            "deterministic.txn_walks: current 20001 vs baseline 20000"
        );
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_doc("{ not json").is_err());
        assert!(validate_doc("{}").unwrap_err().contains("schema"));
        assert!(validate_doc(r#"{"schema": "pimdsm-bench-v0"}"#)
            .unwrap_err()
            .contains("pimdsm-bench-v1"));
        // A consistent document that then loses a deterministic field.
        let r = smoke_result();
        let good = r.to_json().render_pretty();
        let bad = good.replace("\"txn_walks\"", "\"txn_wlaks\"");
        assert!(validate_doc(&bad).unwrap_err().contains("txn_walks"));
    }
}
