//! `pimdsm-benchmark`: runs the benchmark workloads and prints their
//! metrics; see `README.md`.
//!
//! ```text
//! pimdsm-benchmark [--workload W|all] [--seed N] [--runs R | --seconds S]
//!                  [--trace 0|1] [--trace-out FILE] [--out FILE]
//! pimdsm-benchmark --compare BASE.json NEW.json
//! pimdsm-benchmark --bless
//! ```
//!
//! Human-readable results go to stderr; the last line of stdout is the
//! JSON result of the last workload run.

use std::path::PathBuf;
use std::process::ExitCode;

use pimdsm_benchmark::points::BenchWorkload;
use pimdsm_benchmark::spans::{layer, SPAN_NAMES};
use pimdsm_benchmark::{compare, render_digests, run, Opts, Outcome, Stop};
use pimdsm_obs::{json, JsonValue};

const USAGE: &str = "usage: pimdsm-benchmark [--workload W|all] [--seed N] [--runs R | --seconds S] \
[--trace 0|1] [--trace-out FILE] [--out FILE]\n       pimdsm-benchmark --compare BASE.json NEW.json\n       \
pimdsm-benchmark --bless";

/// Where `--bless` writes and `--compare` reads its bounds, inside the
/// checkout this binary was built from.
const SEED0_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/seed0.txt");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Cli {
    workloads: Vec<BenchWorkload>,
    opts: Opts,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

enum Command {
    Run(Cli),
    Compare(PathBuf, PathBuf),
    Bless,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workloads = BenchWorkload::ALL.to_vec();
    let mut opts = Opts::new(0);
    let (mut runs, mut seconds) = (None, None);
    let (mut trace_out, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = if v == "all" {
                    BenchWorkload::ALL.to_vec()
                } else {
                    vec![BenchWorkload::parse(v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => {
                let r: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if r == 0 {
                    return Err("--runs must be at least 1".into());
                }
                runs = Some(r);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let base = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                return Ok(Command::Compare(base, new));
            }
            "--bless" => return Ok(Command::Bless),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.stop = match (runs, seconds) {
        (Some(_), Some(_)) => return Err("give --runs or --seconds, not both".into()),
        (None, Some(s)) => Stop::Seconds(s),
        (Some(r), None) => Stop::Runs(r),
        (None, None) => Stop::Runs(5),
    };
    if trace_out.is_some() && (!opts.trace || workloads.len() > 1) {
        return Err("--trace-out needs --trace 1 and one --workload".into());
    }
    Ok(Command::Run(Cli {
        workloads,
        opts,
        trace_out,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Command::Run(cli)) => run_cli(&cli),
        Ok(Command::Compare(base, new)) => run_compare(&base, &new),
        Ok(Command::Bless) => bless(),
        Err(e) => Err(e),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pimdsm-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_cli(cli: &Cli) -> Result<ExitCode, String> {
    let mut lines = Vec::new();
    for &w in &cli.workloads {
        let outcome = run(w, &cli.opts);
        report(&outcome);
        if let (Some(path), Some(t)) = (&cli.trace_out, &outcome.traced) {
            write(path, &t.spans.chrome_json())?;
            eprintln!("  trace written to {}", path.display());
        }
        if let Some(path) = &cli.out {
            append_run(path, outcome.to_json())?;
        }
        lines.push(outcome.result_json());
    }
    for l in lines {
        println!("{l}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Appends a run to a `--out` document, creating it if needed.
fn append_run(path: &std::path::Path, run: JsonValue) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text)?.get("runs") {
            Some(JsonValue::Arr(r)) => r.clone(),
            _ => return Err(format!("{}: not a benchmark document", path.display())),
        },
        Err(_) => Vec::new(),
    };
    runs.push(run);
    let doc = JsonValue::obj([
        ("schema", JsonValue::str("pimdsm-benchmark-v1")),
        ("runs", JsonValue::Arr(runs)),
    ]);
    write(path, &doc.render_pretty())
}

/// Prints one workload's results to stderr.
fn report(o: &Outcome) {
    eprintln!(
        "{} (seed {}, {} points, {} measured passes):",
        o.workload,
        o.seed,
        o.points.len(),
        o.passes.len()
    );
    let per_pass = o.end_to_end_per_pass();
    for (i, (d, value)) in o.end_to_end().into_iter().enumerate() {
        let passes: Vec<f64> = per_pass.iter().map(|p| p[i].1).collect();
        let lo = passes.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = passes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!(
            "  {:<14} {:>14.4} {:<8} per pass: min {lo:.4}  max {hi:.4}  runs {}",
            d.name,
            value,
            d.unit,
            passes.len()
        );
    }
    eprintln!(
        "  fail_frac      {:.4} ({} of {} point-runs)",
        o.fail_frac(),
        o.failed(),
        o.attempted
    );
    for f in &o.failures {
        eprintln!("  FAILED {f}");
    }
    let (Some(t), Some(layers)) = (&o.traced, o.per_layer()) else {
        return;
    };
    eprintln!("  per-layer metrics:");
    for (d, v) in &layers {
        eprintln!("    {:<26} {:>16.4} {}", d.name, v, d.unit);
    }
    let get = |name: &str| {
        layers
            .iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |x| x.1)
    };
    eprintln!(
        "  driver reconciliation: core.run_ms {:.1} - proto.replay_ms {:.1} - workloads.gen_ms {:.1} = core.driver_ms_est {:.1}",
        get("core.run_ms"),
        get("proto.replay_ms"),
        get("workloads.gen_ms"),
        get("core.driver_ms_est")
    );
    let self_ns = t.spans.self_ns();
    let total: u64 = self_ns.values().sum();
    eprintln!(
        "  traced self time by span ({:.1} ms total):",
        total as f64 / 1e6
    );
    let mut by_layer = std::collections::BTreeMap::new();
    for name in SPAN_NAMES {
        let ns = self_ns.get(name).copied().unwrap_or(0);
        *by_layer.entry(layer(name)).or_insert(0) += ns;
        eprintln!(
            "    {:<20} {:>10.1} ms {:>5.1}%",
            name,
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
    eprintln!("  traced self time by layer:");
    for (l, ns) in by_layer {
        eprintln!(
            "    {:<20} {:>10.1} ms {:>5.1}%",
            l,
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

fn run_compare(base: &std::path::Path, new: &std::path::Path) -> Result<ExitCode, String> {
    let (table, worse) =
        compare::compare(&read(base)?, &read(new)?, &read(BENCHMARK_JSON.as_ref())?)?;
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerates the committed seed-0 digests from one pass of every
/// workload, with the coherence oracle on.
fn bless() -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let mut reference = pimdsm_benchmark::reference::Reference::default();
    let opts = Opts::new(0);
    for w in BenchWorkload::ALL {
        let points = w.points(opts.threads, opts.scale, opts.seed);
        let pass = pimdsm_benchmark::measure::run_pass(&points, true, &mut reference);
        for (p, s) in points.iter().zip(pass.points) {
            let s = s.map_err(|e| format!("{} {}: {e}", w.name(), p.key()))?;
            rows.push((w.name().to_string(), p.key(), s.digest));
        }
        eprintln!("{}: {} digests", w.name(), points.len());
    }
    write(SEED0_PATH.as_ref(), &render_digests(&rows))?;
    eprintln!("wrote {SEED0_PATH}");
    Ok(ExitCode::SUCCESS)
}
