//! End-to-end tests of the benchmark through its library entry point, at
//! CI scale with 4 threads.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use pimdsm_benchmark::metrics::{END_TO_END, PER_LAYER};
use pimdsm_benchmark::points::{BenchWorkload, Point};
use pimdsm_benchmark::spans::SPAN_NAMES;
use pimdsm_benchmark::{run, run_points, Opts, Outcome, Stop};
use pimdsm_obs::{json, JsonValue};
use pimdsm_workloads::Scale;

/// Passes reset the process-wide profiler tallies, so tests that run
/// passes take turns.
static PASSES: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PASSES.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts(seed: u64, runs: usize, trace: bool) -> Opts {
    Opts {
        seed,
        threads: 4,
        scale: Scale::ci(),
        stop: Stop::Runs(runs),
        trace,
    }
}

fn field(m: &JsonValue, key: &str) -> String {
    m.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
fn entries(list: &JsonValue) -> Vec<(String, String, String)> {
    let list = list.as_arr().expect("a list");
    list.iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn names(list: &[(String, String, String)]) -> Vec<String> {
    list.iter().map(|e| e.0.clone()).collect()
}

fn printed_metric_names(o: &Outcome) -> Vec<String> {
    let result = json::parse(&o.result_json()).expect("the result line is JSON");
    match result.get("metrics") {
        Some(JsonValue::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let e2e = entries(doc.get("end_to_end").expect("end_to_end"));
    let layers = entries(doc.get("per_layer").expect("per_layer"));
    let workloads = names(&entries(doc.get("workloads").expect("workloads")));
    let ours: Vec<String> = BenchWorkload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
    let catalogue = |defs: &[pimdsm_benchmark::metrics::MetricDef]| {
        let d = defs.iter();
        d.map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.name().to_string(),
            )
        })
        .collect::<Vec<_>>()
    };
    assert_eq!(e2e, catalogue(&END_TO_END));
    assert_eq!(layers, catalogue(&PER_LAYER));
    let (e2e, layers) = (names(&e2e), names(&layers));

    let _serial = serial();
    let mut o = run(BenchWorkload::KvGet, &opts(0, 1, true));
    assert_eq!(o.failures, Vec::<String>::new());
    assert_eq!(printed_metric_names(&o), sorted(layers));
    o.traced = None;
    assert_eq!(printed_metric_names(&o), sorted(e2e));
}

#[test]
fn counts_and_digests_repeat_across_passes() {
    let _serial = serial();
    let o = run(BenchWorkload::KvPut, &opts(0, 2, false));
    assert_eq!(o.failures, Vec::<String>::new());
    let [a, b] = &o.passes[..] else {
        panic!("two measured passes")
    };
    for (x, y) in a.points.iter().zip(&b.points) {
        let (x, y) = (x.as_ref().expect("ran"), y.as_ref().expect("ran"));
        assert_eq!(x.counters, y.counters);
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.sim, y.sim);
    }
    assert!(a.counters().txn_walks() > 0);
}

#[test]
fn a_seed_moves_parameters_but_not_the_point_count() {
    for w in BenchWorkload::ALL {
        let nominal = w.points(4, Scale::ci(), 0);
        let drawn = w.points(4, Scale::ci(), 1);
        assert_eq!(nominal.len(), drawn.len(), "{}", w.name());
        assert_ne!(
            nominal,
            drawn,
            "{}: seed 1 drew the nominal parameters",
            w.name()
        );
        let keys = |p: &[Point]| p.iter().map(Point::key).collect::<Vec<_>>();
        assert_eq!(keys(&nominal), keys(&drawn), "{}", w.name());
    }
    assert_eq!(
        BenchWorkload::KvGet.points(4, Scale::ci(), 7),
        BenchWorkload::KvGet.points(4, Scale::ci(), 7),
        "the same seed draws the same parameters"
    );
}

#[test]
fn a_point_that_panics_in_build_counts_as_failed() {
    let mut points = BenchWorkload::Fig6Baselines.points(4, Scale::ci(), 0);
    points.truncate(2);
    let mut too_big = points[0].clone();
    // NUMA hosts at most 64 nodes, one per thread.
    too_big.threads = 65;
    points.push(too_big);
    let _serial = serial();
    let o = run_points("custom", points, &opts(0, 1, false), None);
    assert_eq!(o.attempted, 6);
    assert_eq!(o.failed(), 2, "{:?}", o.failures);
    assert!(o.failures.iter().all(|f| f.contains("panicked")));
    assert!(o.fail_frac() > 0.0);
    assert!(o.passes[0].points[0].is_ok(), "the other points still ran");
    let result = json::parse(&o.result_json()).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
}

#[test]
fn trace_parses_with_self_time_in_every_layer_span() {
    let mut points = BenchWorkload::Fig6Agg.points(4, Scale::ci(), 0);
    points.truncate(6);
    let _serial = serial();
    let o = run_points("fig6-agg", points, &opts(0, 1, true), None);
    assert_eq!(o.failures, Vec::<String>::new());
    let trace = json::parse(&o.traced.expect("traced").spans.chrome_json()).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("events");
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).expect("a number");
    let mut self_us: BTreeMap<usize, (String, f64)> = BTreeMap::new();
    for e in events {
        let args = e.get("args").expect("args");
        let id = args.get("id").and_then(JsonValue::as_u64).expect("id") as usize;
        let name = e.get("name").and_then(JsonValue::as_str).expect("name");
        self_us.insert(id, (name.to_string(), num(e, "dur")));
    }
    for e in events {
        if let Some(parent) = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(JsonValue::as_u64)
        {
            self_us.get_mut(&(parent as usize)).expect("parent span").1 -= num(e, "dur");
        }
    }
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for (name, us) in self_us.into_values() {
        *by_name.entry(name).or_default() += us;
    }
    for name in SPAN_NAMES {
        assert!(
            by_name.get(name).is_some_and(|&us| us > 0.0),
            "{name}: {by_name:?}"
        );
    }
}
