//! The `pimdsm-lab` command-line interface.
//!
//! ```text
//! pimdsm-lab list                    # name + title + point count per suite
//! pimdsm-lab run fig6 fig7 --jobs 8  # run suites in parallel
//! pimdsm-lab run --all               # every suite
//! pimdsm-lab clean                   # drop the result cache
//! ```
//!
//! Flags: the observability outputs (`--trace`, `--trace-only`,
//! `--metrics`, `--epoch`, `--report`) and the sweep controls (`--jobs`,
//! `--cache-dir`, `--no-cache`, `--threads`, `--scale`, `--quiet`,
//! `--require-hit-rate`). Each command accepts only the flags it reads;
//! any other is an unknown argument.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pimdsm::RunReport;
use pimdsm_obs::{JsonValue, ToJson};
use pimdsm_workloads::Scale;

use crate::bench;
use crate::cache::ResultCache;
use crate::exec::{run_sweep, Instrumentation, SweepResult};
use crate::suites::{find, Suite, SuiteCtx, ALL_SUITES};

/// Default cache location, under the build tree so `git clean`/`cargo
/// clean` wipe it with everything else.
pub const DEFAULT_CACHE_DIR: &str = "target/lab-cache";

/// Standard thread count for the main comparison (the paper uses 32; a
/// smaller count keeps quick runs fast). `PIMDSM_THREADS` overrides.
const DEFAULT_THREADS: usize = 32;

/// Parses a simulated thread count given through `what` (a flag or an
/// environment variable name).
fn parse_threads(what: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{what} takes a positive integer, not {v:?}")),
    }
}

/// Parses a workload scale given through `what` (a flag or an environment
/// variable name).
fn parse_scale(what: &str, v: &str) -> Result<Scale, String> {
    match v {
        "full" => Ok(Scale::full()),
        "bench" => Ok(Scale::bench()),
        "ci" => Ok(Scale::ci()),
        other => Err(format!("{what} takes full|bench|ci, not {other:?}")),
    }
}

/// Default thread count and scale from the values of `PIMDSM_THREADS`
/// and `PIMDSM_SCALE` (`None` when unset: 32 threads, bench scale).
fn env_defaults(threads: Option<&str>, scale: Option<&str>) -> Result<(usize, Scale), String> {
    Ok((
        threads.map_or(Ok(DEFAULT_THREADS), |v| parse_threads("PIMDSM_THREADS", v))?,
        scale.map_or(Ok(Scale::bench()), |v| parse_scale("PIMDSM_SCALE", v))?,
    ))
}

/// The value of environment variable `name`, `None` when unset.
fn env_value(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name} is not UTF-8: {v:?}")),
    }
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Vec<String>),
    Bench(Vec<String>),
    List,
    Clean,
}

/// Flags specific to `pimdsm-lab bench`.
#[derive(Debug, Clone, PartialEq)]
struct BenchCmd {
    /// Measured runs per suite (after the uncounted warm-up).
    runs: usize,
    /// Explicit output path (single suite only); default `BENCH_<suite>.json`.
    out: Option<PathBuf>,
    /// Suppress the document entirely.
    no_out: bool,
    /// Baseline document to compare against.
    compare: Option<PathBuf>,
    /// Pre-existing current document: compare it instead of running.
    against: Option<PathBuf>,
    /// Documents to schema-validate instead of running.
    check: Vec<PathBuf>,
    /// Regression threshold factor on median wall time.
    threshold: f64,
}

impl Default for BenchCmd {
    fn default() -> BenchCmd {
        BenchCmd {
            runs: 3,
            out: None,
            no_out: false,
            compare: None,
            against: None,
            check: Vec::new(),
            threshold: 1.5,
        }
    }
}

struct Options {
    command: Command,
    bench: Option<BenchCmd>,
    jobs: usize,
    cache_dir: PathBuf,
    no_cache: bool,
    threads: usize,
    scale: Scale,
    trace_path: Option<PathBuf>,
    trace_only: Option<String>,
    metrics_path: Option<PathBuf>,
    epoch: u64,
    report_path: Option<PathBuf>,
    require_hit_rate: Option<f64>,
    quiet: bool,
}

impl Options {
    fn defaults(command: Command, threads: usize, scale: Scale) -> Options {
        let bench = matches!(command, Command::Bench(_)).then(BenchCmd::default);
        Options {
            command,
            bench,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_dir: DEFAULT_CACHE_DIR.into(),
            no_cache: false,
            threads,
            scale,
            trace_path: None,
            trace_only: None,
            metrics_path: None,
            epoch: 100_000,
            report_path: None,
            require_hit_rate: None,
            quiet: false,
        }
    }
}

/// Parses the flags after the command. Returns `Err` on a malformed
/// value or an unknown argument.
///
/// A flag is recognized only by the commands that read it; elsewhere it
/// falls through to the unknown arm. `run` reads every shared flag;
/// `bench` the sweep shape (`--jobs`, `--threads`, `--scale`, `--quiet`)
/// and its own flags; `list` the suite shape (`--threads`, `--scale`);
/// `clean` only `--cache-dir`.
fn parse_flags(args: impl Iterator<Item = String>, opts: &mut Options) -> Result<(), String> {
    let run = matches!(opts.command, Command::Run(_));
    let sweep = run || opts.bench.is_some();
    let sized = !matches!(opts.command, Command::Clean);
    let cached = run || matches!(opts.command, Command::Clean);
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--jobs" | "-j" if sweep => {
                opts.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1)
            }
            "--cache-dir" if cached => opts.cache_dir = value("--cache-dir")?.into(),
            "--no-cache" if run => opts.no_cache = true,
            "--threads" if sized => {
                opts.threads = parse_threads("--threads", &value("--threads")?)?
            }
            "--scale" if sized => opts.scale = parse_scale("--scale", &value("--scale")?)?,
            "--trace" if run => opts.trace_path = Some(value("--trace")?.into()),
            "--trace-only" if run => opts.trace_only = Some(value("--trace-only")?),
            "--metrics" if run => opts.metrics_path = Some(value("--metrics")?.into()),
            "--epoch" if run => {
                let epoch = value("--epoch")?
                    .parse()
                    .map_err(|e| format!("--epoch: {e}"))?;
                if epoch == 0 {
                    return Err("--epoch takes a positive cycle count, not 0".into());
                }
                opts.epoch = epoch
            }
            "--report" if run => opts.report_path = Some(value("--report")?.into()),
            "--require-hit-rate" if run => {
                let pct = value("--require-hit-rate")?
                    .parse::<f64>()
                    .map_err(|e| format!("--require-hit-rate: {e}"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!(
                        "--require-hit-rate takes a percentage from 0 to 100, not {pct}"
                    ));
                }
                opts.require_hit_rate = Some(pct)
            }
            "--quiet" | "-q" if sweep => opts.quiet = true,
            // Bench-only flags: recognized only when a bench command set
            // `opts.bench`; elsewhere they fall through to the unknown arms.
            "--runs" if opts.bench.is_some() => {
                opts.bench.as_mut().unwrap().runs = value("--runs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--runs: {e}"))?
                    .max(1)
            }
            "--out" if opts.bench.is_some() => {
                opts.bench.as_mut().unwrap().out = Some(value("--out")?.into())
            }
            "--no-out" if opts.bench.is_some() => opts.bench.as_mut().unwrap().no_out = true,
            "--compare" if opts.bench.is_some() => {
                opts.bench.as_mut().unwrap().compare = Some(value("--compare")?.into())
            }
            "--against" if opts.bench.is_some() => {
                opts.bench.as_mut().unwrap().against = Some(value("--against")?.into())
            }
            "--check" if opts.bench.is_some() => {
                let path = value("--check")?;
                opts.bench.as_mut().unwrap().check.push(path.into())
            }
            "--threshold" if opts.bench.is_some() => {
                let t = value("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !(t.is_finite() && t >= 1.0) {
                    return Err(format!("--threshold must be a factor >= 1.0, not {t}"));
                }
                opts.bench.as_mut().unwrap().threshold = t
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(())
}

fn parse_lab_args(argv: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut argv = argv.peekable();
    let command = match argv.next().as_deref() {
        Some("run") => {
            let mut names = Vec::new();
            let mut all = false;
            while let Some(a) = argv.peek() {
                if a.starts_with('-') && a != "--all" {
                    break;
                }
                let a = argv.next().unwrap();
                if a == "--all" {
                    all = true;
                } else {
                    names.push(a);
                }
            }
            if all {
                names = ALL_SUITES.iter().map(|s| s.name.to_string()).collect();
            }
            if names.is_empty() {
                return Err("run: name at least one suite, or pass --all".into());
            }
            Command::Run(names)
        }
        Some("bench") => {
            let mut names = Vec::new();
            while let Some(a) = argv.peek() {
                if a.starts_with('-') {
                    break;
                }
                names.push(argv.next().unwrap());
            }
            Command::Bench(names)
        }
        Some("list") => Command::List,
        Some("clean") => Command::Clean,
        Some(other) => {
            return Err(format!(
                "unknown command {other:?} (run | bench | list | clean)"
            ))
        }
        None => return Err("usage: pimdsm-lab <run|bench|list|clean> [flags]".into()),
    };
    let (threads, scale) = env_defaults(
        env_value("PIMDSM_THREADS")?.as_deref(),
        env_value("PIMDSM_SCALE")?.as_deref(),
    )?;
    let mut opts = Options::defaults(command, threads, scale);
    parse_flags(argv, &mut opts)?;
    Ok(opts)
}

/// Entry point of the `pimdsm-lab` binary.
pub fn main() -> ExitCode {
    let opts = match parse_lab_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pimdsm-lab: {e}");
            eprintln!("usage: pimdsm-lab <run|bench|list|clean> [suites|--all] [flags]");
            eprintln!("run:   --jobs N --threads N --scale full|bench|ci --quiet");
            eprintln!("       --cache-dir DIR --no-cache --require-hit-rate PCT");
            eprintln!("       --trace F --trace-only SUBSTR --metrics F --epoch N --report F");
            eprintln!("bench: --jobs N --threads N --scale full|bench|ci --quiet");
            eprintln!(
                "       --runs N --out F --no-out --compare BASE --against CUR --check F --threshold X"
            );
            eprintln!("list:  --threads N --scale full|bench|ci");
            eprintln!("clean: --cache-dir DIR");
            eprintln!(
                "env: PIMDSM_THREADS=N (default 32) PIMDSM_SCALE=full|bench|ci (default bench)"
            );
            return ExitCode::FAILURE;
        }
    };
    dispatch(opts)
}

fn dispatch(opts: Options) -> ExitCode {
    match &opts.command {
        Command::List => {
            let ctx = SuiteCtx {
                threads: opts.threads,
                scale: opts.scale,
            };
            println!("{:<20} {:>7}  description", "suite", "points");
            for s in ALL_SUITES {
                println!("{:<20} {:>7}  {}", s.name, s.points(&ctx).len(), s.title);
            }
            ExitCode::SUCCESS
        }
        Command::Clean => {
            let removed = ResultCache::new(&opts.cache_dir).clean();
            eprintln!(
                "[lab] removed {removed} cache entries from {}",
                opts.cache_dir.display()
            );
            ExitCode::SUCCESS
        }
        Command::Run(names) => run_suites(&names.clone(), &opts),
        Command::Bench(names) => run_bench(&names.clone(), &opts),
    }
}

fn run_suites(names: &[String], opts: &Options) -> ExitCode {
    let mut suites: Vec<&'static Suite> = Vec::new();
    for name in names {
        match find(name) {
            Some(s) => suites.push(s),
            None => {
                eprintln!("[lab] no suite named {name:?} (try `pimdsm-lab list`)");
                return ExitCode::FAILURE;
            }
        }
    }
    let single = suites.len() == 1;
    if !single
        && (opts.trace_path.is_some() || opts.metrics_path.is_some() || opts.report_path.is_some())
    {
        eprintln!("[lab] --trace/--metrics/--report apply to a single suite; run one at a time");
        return ExitCode::FAILURE;
    }

    let ctx = SuiteCtx {
        threads: opts.threads,
        scale: opts.scale,
    };
    let inst = Instrumentation {
        trace: opts.trace_path.is_some(),
        trace_only: opts.trace_only.clone(),
        epoch: opts.metrics_path.is_some().then_some(opts.epoch),
    };
    if let Err(e) = validate_points(&suites, &ctx, &inst) {
        eprintln!("[lab] {e}");
        return ExitCode::FAILURE;
    }
    let cache = (!opts.no_cache).then(|| ResultCache::new(&opts.cache_dir));

    let mut failed = false;
    let (mut hits, mut misses) = (0usize, 0usize);
    let start = std::time::Instant::now();
    for suite in &suites {
        let points = suite.points(&ctx);
        let n = points.len();
        // A suite that renders epoch series (fig-fault) forces sampling
        // on its own runs; an explicit --epoch from --metrics wins.
        let mut suite_inst = inst.clone();
        if suite_inst.epoch.is_none() {
            suite_inst.epoch = suite.epoch;
        }
        let result = run_sweep(points, cache.as_ref(), &suite_inst, opts.jobs, !opts.quiet);
        hits += result.hits;
        misses += result.misses;

        if let Some(path) = &opts.trace_path {
            write_trace(path, &result);
        }
        if let Some(path) = &opts.metrics_path {
            write_metrics(path, suite.name, opts.epoch, &result);
        }

        if let Some(reports) = result.reports() {
            print!("{}", suite.render(&ctx, &reports));
            write_report_doc(suite, &ctx, opts.report_path.as_deref(), &reports);
        } else {
            for o in &result.outcomes {
                if let Err(e) = &o.report {
                    eprintln!("[lab] {}: point {} FAILED: {e}", suite.name, o.spec.key());
                }
            }
            eprintln!("[lab] {}: not rendered (failed points above)", suite.name);
            failed = true;
        }
        if !opts.quiet {
            eprintln!(
                "[lab] {}: {} points, {} cached ({:.2?}), {} ran ({:.2?}), {:.1}% hits, {:.2?}",
                suite.name,
                n,
                result.hits,
                result.hit_wall,
                result.misses,
                result.cold_wall,
                result.hit_rate() * 100.0,
                result.wall
            );
            if result.misses > 0 {
                let totals = result.counter_totals();
                let evs = totals.engine_events() as f64 / result.cold_wall.as_secs_f64().max(1e-9);
                eprintln!(
                    "[lab] {}: {} engine events ({evs:.0}/s cold), peak queue {}, {} txn walks",
                    suite.name,
                    totals.engine_events(),
                    totals.engine_queue_peak(),
                    totals.txn_walks()
                );
            }
        }
    }
    if !opts.quiet && suites.len() > 1 {
        let total = hits + misses;
        let rate = if total == 0 {
            100.0
        } else {
            100.0 * hits as f64 / total as f64
        };
        eprintln!(
            "[lab] total: {total} points, {hits} cached, {misses} ran, {rate:.1}% hits, {:.2?}",
            start.elapsed()
        );
    }
    if let Some(required) = opts.require_hit_rate {
        let total = hits + misses;
        let rate = if total == 0 {
            100.0
        } else {
            100.0 * hits as f64 / total as f64
        };
        if rate < required {
            eprintln!("[lab] cache hit rate {rate:.1}% below required {required:.1}%");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load_bench_doc(path: &Path) -> Result<bench::BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    bench::validate_doc(&text)
}

fn report_compare(cur: &bench::BenchDoc, base: &bench::BenchDoc, threshold: f64) -> ExitCode {
    match bench::compare(cur, base, threshold) {
        bench::Compared::Ok(ratio) => {
            eprintln!(
                "[bench] {}: median {:.3} ms vs baseline {:.3} ms \
                 ({ratio:.2}x, threshold {threshold:.2}x) — ok",
                cur.suite, cur.wall_median_ms, base.wall_median_ms
            );
            ExitCode::SUCCESS
        }
        bench::Compared::Regression(ratio) => {
            eprintln!(
                "[bench] {}: REGRESSION: median {:.3} ms vs baseline {:.3} ms \
                 ({ratio:.2}x exceeds threshold {threshold:.2}x)",
                cur.suite, cur.wall_median_ms, base.wall_median_ms
            );
            ExitCode::FAILURE
        }
        bench::Compared::Incomparable(why) => {
            eprintln!("[bench] documents are not comparable: {why}");
            ExitCode::from(2)
        }
    }
}

fn run_bench(names: &[String], opts: &Options) -> ExitCode {
    let b = opts.bench.as_ref().expect("bench command implies options");

    if !b.check.is_empty() {
        let mut ok = true;
        for path in &b.check {
            match load_bench_doc(path) {
                Ok(doc) => {
                    eprintln!(
                        "[bench] {}: valid {} document ({} runs of {:?}, median {:.3} ms)",
                        path.display(),
                        bench::BENCH_SCHEMA,
                        doc.runs,
                        doc.suite,
                        doc.wall_median_ms
                    );
                    if !doc.stable {
                        eprintln!(
                            "[bench] {}: WARNING: deterministic fields varied across runs",
                            path.display()
                        );
                    }
                }
                Err(e) => {
                    eprintln!("[bench] {}: INVALID: {e}", path.display());
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(current) = &b.against {
        let Some(baseline) = &b.compare else {
            eprintln!("[bench] --against needs --compare <baseline.json>");
            return ExitCode::FAILURE;
        };
        let cur = match load_bench_doc(current) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("[bench] {}: {e}", current.display());
                return ExitCode::from(2);
            }
        };
        let base = match load_bench_doc(baseline) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("[bench] {}: {e}", baseline.display());
                return ExitCode::from(2);
            }
        };
        return report_compare(&cur, &base, b.threshold);
    }

    if names.is_empty() {
        eprintln!("[bench] name at least one suite, or use --check/--against");
        return ExitCode::FAILURE;
    }
    if names.len() > 1 && (b.out.is_some() || b.compare.is_some()) {
        eprintln!("[bench] --out/--compare apply to a single suite; bench one at a time");
        return ExitCode::FAILURE;
    }

    let ctx = SuiteCtx {
        threads: opts.threads,
        scale: opts.scale,
    };
    let mut suites = Vec::new();
    for name in names {
        let Some(suite) = find(name) else {
            eprintln!("[bench] no suite named {name:?} (try `pimdsm-lab list`)");
            return ExitCode::FAILURE;
        };
        suites.push(suite);
    }
    if let Err(e) = validate_points(&suites, &ctx, &Instrumentation::default()) {
        eprintln!("[bench] {e}");
        return ExitCode::FAILURE;
    }
    for suite in suites {
        let name = suite.name;
        let result = match bench::measure_suite(suite, &ctx, b.runs, opts.jobs, !opts.quiet) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[bench] {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let peak = result
            .samples
            .iter()
            .map(|s| s.peak_bytes)
            .max()
            .unwrap_or(0);
        eprintln!(
            "[bench] {name}: median {:.2?} (min {:.2?}, max {:.2?}) over {} runs, \
             {:.0} events/s, {} points, peak heap {} KiB",
            result.wall_median(),
            result.wall_min(),
            result.wall_max(),
            result.samples.len(),
            result.events_per_sec(),
            result.points,
            peak / 1024
        );
        if !result.stable_across_runs() {
            eprintln!(
                "[bench] {name}: ERROR: deterministic counters or allocation \
                 totals differed between runs — the simulator did different work"
            );
            return ExitCode::FAILURE;
        }
        let doc = result.to_json();
        if !b.no_out {
            let path = b
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("BENCH_{name}.json")));
            write_json(&path, &doc, "bench document");
        }
        if let Some(baseline) = &b.compare {
            let base = match load_bench_doc(baseline) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("[bench] {}: {e}", baseline.display());
                    return ExitCode::from(2);
                }
            };
            let cur = bench::validate_doc(&doc.render_pretty())
                .expect("freshly rendered bench document must validate");
            return report_compare(&cur, &base, b.threshold);
        }
    }
    ExitCode::SUCCESS
}

/// Checks every point of `suites` at `ctx` before any of them runs, and
/// that a trace request of `inst` selects one of them.
fn validate_points(
    suites: &[&Suite],
    ctx: &SuiteCtx,
    inst: &Instrumentation,
) -> Result<(), String> {
    for suite in suites {
        let points = suite.points(ctx);
        for point in &points {
            point
                .validate()
                .map_err(|e| format!("{}: {e}", suite.name))?;
        }
        if inst.trace && inst.traced_index(&points).is_none() {
            let name = suite.name;
            return Err(match &inst.trace_only {
                Some(f) => format!("{name}: --trace-only {f:?} matches no point"),
                None => format!("{name}: --trace has no point to capture"),
            });
        }
    }
    Ok(())
}

/// Writes the traced point's Chrome trace; a traced point that failed
/// leaves none to write.
fn write_trace(path: &Path, result: &SweepResult) {
    let Some(json) = &result.trace_json else {
        eprintln!("[lab] no trace written: the traced point failed");
        return;
    };
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("[lab] wrote trace to {}", path.display()),
        Err(e) => eprintln!("[lab] failed to write {}: {e}", path.display()),
    }
}

fn write_metrics(path: &Path, bin: &str, epoch: u64, result: &SweepResult) {
    let runs = JsonValue::arr(result.outcomes.iter().filter_map(|o| {
        let r = o.report.as_ref().ok()?;
        let e = r.epochs.as_ref()?;
        Some(JsonValue::obj([
            ("arch", JsonValue::str(r.arch.as_str())),
            ("app", JsonValue::str(r.app.as_str())),
            ("label", JsonValue::str(r.label.as_str())),
            ("epochs", e.to_json()),
        ]))
    }));
    let doc = JsonValue::obj([
        ("bin", JsonValue::str(bin.to_string())),
        ("epoch_cycles", JsonValue::u64(epoch)),
        ("runs", runs),
    ]);
    write_json(path, &doc, "epoch metrics");
}

/// Writes the `{"bin", "runs"[, "data"]}` report document — to
/// `--report`'s path when given, else to `results/<suite>.json` when a
/// `results/` directory exists (so regenerating text tables also
/// refreshes the machine-readable results).
/// Table suites have no runs; their payload is the suite's `data` block.
fn write_report_doc(
    suite: &Suite,
    ctx: &SuiteCtx,
    explicit: Option<&Path>,
    reports: &[&RunReport],
) {
    let data = suite.data(ctx);
    let default = explicit.is_none()
        && (!reports.is_empty() || data.is_some())
        && Path::new("results").is_dir();
    let path: Option<PathBuf> = explicit
        .map(Path::to_path_buf)
        .or_else(|| default.then(|| format!("results/{}.json", suite.name).into()));
    let Some(path) = path else { return };
    let mut pairs = vec![
        ("bin", JsonValue::str(suite.name)),
        ("runs", JsonValue::arr(reports.iter().map(|r| r.to_json()))),
    ];
    if let Some(data) = data {
        pairs.push(("data", data));
    }
    let doc = JsonValue::obj(pairs);
    write_json(&path, &doc, "run reports");
}

fn write_json(path: &Path, doc: &JsonValue, what: &str) {
    match std::fs::write(path, doc.render_pretty()) {
        Ok(()) => eprintln!("[lab] wrote {what} to {}", path.display()),
        Err(e) => eprintln!("[lab] failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_run_with_suites_and_flags() {
        let o = parse_lab_args(args("run fig6 fig7 --jobs 4 --no-cache --scale ci")).unwrap();
        assert_eq!(o.command, Command::Run(vec!["fig6".into(), "fig7".into()]));
        assert_eq!(o.jobs, 4);
        assert!(o.no_cache);
        assert_eq!(o.scale, Scale::ci());
    }

    #[test]
    fn run_all_expands_to_every_suite() {
        let o = parse_lab_args(args("run --all")).unwrap();
        let Command::Run(names) = o.command else {
            panic!("not a run")
        };
        assert_eq!(names.len(), ALL_SUITES.len());
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(parse_lab_args(args("frobnicate")).is_err());
        assert!(parse_lab_args(args("run fig6 --frobnicate")).is_err());
        assert!(parse_lab_args(args("run")).is_err());
        assert!(parse_lab_args(args("run fig6 --scale huge")).is_err());
        assert!(parse_lab_args(args("run fig6 --threads 0")).is_err());
    }

    #[test]
    fn environment_defaults_parse_or_name_the_variable() {
        assert_eq!(env_defaults(None, None), Ok((32, Scale::bench())));
        assert_eq!(env_defaults(Some("4"), Some("ci")), Ok((4, Scale::ci())));
        assert_eq!(env_defaults(None, Some("full")), Ok((32, Scale::full())));
        for bad in ["abc", "0", "-1", "", " 4"] {
            let e = env_defaults(Some(bad), None).unwrap_err();
            assert!(
                e.starts_with("PIMDSM_THREADS takes a positive integer"),
                "{e}"
            );
        }
        for bad in ["CI", "huge", ""] {
            let e = env_defaults(None, Some(bad)).unwrap_err();
            assert_eq!(e, format!("PIMDSM_SCALE takes full|bench|ci, not {bad:?}"));
        }
    }

    #[test]
    fn parses_bench_command_and_flags() {
        let o = parse_lab_args(args(
            "bench smoke --runs 5 --jobs 1 --threshold 3.0 --compare BENCH_smoke.json",
        ))
        .unwrap();
        assert_eq!(o.command, Command::Bench(vec!["smoke".into()]));
        let b = o.bench.unwrap();
        assert_eq!(b.runs, 5);
        assert_eq!(b.threshold, 3.0);
        assert_eq!(b.compare.as_deref(), Some(Path::new("BENCH_smoke.json")));
        assert_eq!(o.jobs, 1);

        let o =
            parse_lab_args(args("bench --check a.json --check b.json --against c.json")).unwrap();
        assert_eq!(o.command, Command::Bench(Vec::new()));
        let b = o.bench.unwrap();
        assert_eq!(b.check.len(), 2);
        assert_eq!(b.against.as_deref(), Some(Path::new("c.json")));
    }

    #[test]
    fn bench_flags_are_rejected_outside_bench() {
        assert!(parse_lab_args(args("run fig6 --runs 3")).is_err());
        assert!(parse_lab_args(args("bench smoke --threshold 0.5")).is_err());
        assert!(parse_lab_args(args("bench smoke --runs zero")).is_err());
    }

    #[test]
    fn flags_are_rejected_outside_the_commands_that_read_them() {
        for flags in [
            "bench smoke --trace t.json",
            "bench smoke --trace-only FFT",
            "bench smoke --metrics m.json",
            "bench smoke --epoch 5000",
            "bench smoke --report r.json",
            "bench smoke --no-cache",
            "bench smoke --cache-dir d",
            "bench smoke --require-hit-rate 90",
            "list --jobs 3",
            "list --trace x.json",
            "list --quiet",
            "list --cache-dir d",
            "clean --trace y.json",
            "clean --jobs 2",
            "clean --threads 4",
            "clean --scale ci",
        ] {
            let flag = flags.split_whitespace().find(|a| a.starts_with("--"));
            assert_eq!(
                parse_lab_args(args(flags)).err(),
                Some(format!("unknown argument {:?}", flag.unwrap())),
                "{flags}"
            );
        }
        for flags in [
            "bench smoke --jobs 1 --threads 4 --scale ci --quiet",
            "list --threads 4 --scale ci",
            "clean --cache-dir d",
        ] {
            assert!(parse_lab_args(args(flags)).is_ok(), "{flags}");
        }
    }

    #[test]
    fn hit_rate_and_epoch_values_are_checked() {
        for bad in ["nan", "inf", "-1", "100.5"] {
            let e = parse_lab_args(args(&format!("run smoke --require-hit-rate {bad}")))
                .err()
                .unwrap_or_else(|| panic!("{bad} accepted"));
            assert!(
                e.starts_with("--require-hit-rate takes a percentage from 0 to 100"),
                "{e}"
            );
        }
        for ok in [0.0, 90.0, 100.0] {
            let o = parse_lab_args(args(&format!("run smoke --require-hit-rate {ok}"))).unwrap();
            assert_eq!(o.require_hit_rate, Some(ok));
        }
        assert_eq!(
            parse_lab_args(args("run smoke --epoch 0")).err(),
            Some("--epoch takes a positive cycle count, not 0".into())
        );
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse_lab_args(args(
            "run fig6 --trace t.json --trace-only FFT --metrics m.json --epoch 5000 --report r.json",
        ))
        .unwrap();
        assert_eq!(o.trace_path.as_deref(), Some(Path::new("t.json")));
        assert_eq!(o.trace_only.as_deref(), Some("FFT"));
        assert_eq!(o.metrics_path.as_deref(), Some(Path::new("m.json")));
        assert_eq!(o.epoch, 5000);
        assert_eq!(o.report_path.as_deref(), Some(Path::new("r.json")));
    }

    #[test]
    fn a_trace_that_selects_no_point_fails_before_any_point_runs() {
        let ctx = SuiteCtx {
            threads: 4,
            scale: Scale::ci(),
        };
        let traced = |filter: Option<&str>| Instrumentation {
            trace: true,
            trace_only: filter.map(str::to_string),
            epoch: None,
        };
        let smoke = [find("smoke").unwrap()];
        let table1 = [find("table1").unwrap()];
        assert_eq!(
            validate_points(&smoke, &ctx, &traced(Some("NOPE"))),
            Err("smoke: --trace-only \"NOPE\" matches no point".into())
        );
        assert_eq!(
            validate_points(&table1, &ctx, &traced(None)),
            Err("table1: --trace has no point to capture".into())
        );
        assert_eq!(validate_points(&smoke, &ctx, &traced(Some("FFT"))), Ok(()));
        let untraced = Instrumentation::default();
        assert_eq!(validate_points(&table1, &ctx, &untraced), Ok(()));

        // `run` exits 1 on either request and writes no trace.
        let dir = std::env::temp_dir().join(format!("pimdsm-lab-notrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        for flags in ["run smoke --trace-only NOPE", "run table1"] {
            let mut o = parse_lab_args(args(flags)).unwrap();
            o.trace_path = Some(trace.clone());
            let Command::Run(names) = &o.command else {
                panic!("not a run")
            };
            assert_eq!(run_suites(names, &o), ExitCode::FAILURE, "{flags}");
            assert!(!trace.exists(), "{flags}: no trace may be written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
