//! `--compare BASE.json NEW.json`: per workload and end-to-end metric, the
//! medians and quartiles of the runs in two `--out` documents and a verdict
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use pimdsm_obs::{json, JsonValue};

use crate::metrics::{median, quartiles, Better};

/// What a comparison concluded for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The new median is better by more than the base's quartile spread,
    /// or every new value beats every base value.
    Better,
    /// Not worse than the base median by more than the bound.
    NoWorse,
    /// Worse than the base median by more than the bound.
    Worse,
    /// The base's own quartile spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Display name.
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    /// Improvement direction.
    better: Better,
    /// Share of the base median the metric may worsen by.
    bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(JsonValue::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better is neither lower nor higher")),
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), Bound { better, bound }))
        })
        .collect()
}

/// Every run's value of every end-to-end metric, keyed by
/// `(workload, metric)`.
type Samples = BTreeMap<(String, String), Vec<f64>>;
/// Failed and attempted point-runs per workload.
type Fails = BTreeMap<String, (u64, u64)>;

/// The samples and failure counts of a `--out` document.
fn samples(doc_text: &str) -> Result<(Samples, Fails), String> {
    let doc = json::parse(doc_text)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("no runs list")?;
    let mut out = Samples::new();
    let mut fails = BTreeMap::new();
    for run in runs {
        let w = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without a workload")?;
        let f = fails.entry(w.to_string()).or_insert((0, 0));
        f.0 += run.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        f.1 += run
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let Some(JsonValue::Obj(e2e)) = run.get("end_to_end") else {
            return Err(format!("{w}: run without end_to_end values"));
        };
        for (metric, value) in e2e {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("{w} {metric}: not a number"))?;
            out.entry((w.to_string(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((out, fails))
}

/// Judges `new` against `base` under `bound`.
fn verdict(base: &[f64], new: &[f64], bound: Bound) -> Verdict {
    let sign = match bound.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (bm, nm) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let spread = q3 - q1;
    let worse_by = sign * (nm - bm) / bm.abs().max(f64::MIN_POSITIVE);
    let all_better = new
        .iter()
        .all(|n| base.iter().all(|b| sign * (n - b) < 0.0));
    if spread / bm.abs().max(f64::MIN_POSITIVE) > bound.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if all_better || sign * (bm - nm) > spread {
        Verdict::Better
    } else {
        Verdict::NoWorse
    }
}

/// Compares two `--out` documents; returns the printed table and whether
/// anything got worse (including more failed points).
pub fn compare(base: &str, new: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (base, base_fails) = samples(base)?;
    let (new, new_fails) = samples(new)?;
    let mut out = format!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict\n",
        "workload", "metric", "base median", "base q1", "base q3", "new median", "change"
    );
    let mut worse = false;
    for ((w, metric), b) in &base {
        let (Some(n), Some(bound)) = (new.get(&(w.clone(), metric.clone())), bounds.get(metric))
        else {
            continue;
        };
        if b.is_empty() || n.is_empty() {
            continue;
        }
        let v = verdict(b, n, *bound);
        worse |= v == Verdict::Worse;
        let (q1, q3) = quartiles(b);
        let (bm, nm) = (median(b), median(n));
        out.push_str(&format!(
            "{w:<16} {metric:<14} {bm:>12.4} {q1:>12.4} {q3:>12.4} {nm:>12.4} {:>+7.1}%  {} (bound {:.0}%)\n",
            (nm / bm - 1.0) * 100.0,
            v.name(),
            bound.bound * 100.0
        ));
    }
    for (w, &(nf, na)) in &new_fails {
        let (bf, ba) = base_fails.get(w).copied().unwrap_or((0, 0));
        out.push_str(&format!(
            "{w:<16} failed point-runs: base {bf}/{ba}, new {nf}/{na}\n"
        ));
        worse |= nf * ba.max(1) > bf * na.max(1);
    }
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&base, &[10.2, 10.3, 10.1], LOWER), Verdict::NoWorse);
        assert_eq!(verdict(&base, &[11.5, 11.6, 11.4], LOWER), Verdict::Worse);
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9], LOWER), Verdict::Better);
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0];
        assert_eq!(
            verdict(&noisy, &[11.0, 9.0, 10.0], LOWER),
            Verdict::Unresolved
        );
        let higher = Bound {
            better: Better::Higher,
            ..LOWER
        };
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9], higher), Verdict::Worse);
    }

    #[test]
    fn compare_pools_the_runs_of_out_documents() {
        let doc = |walls: &[f64], failed: u64| {
            let runs = walls.iter().map(|&w| {
                JsonValue::obj([
                    ("workload", JsonValue::str("kv-get")),
                    ("attempted", JsonValue::u64(10)),
                    ("failed", JsonValue::u64(failed)),
                    (
                        "end_to_end",
                        JsonValue::obj([("wall_s", JsonValue::num(w))]),
                    ),
                ])
            });
            JsonValue::obj([("runs", JsonValue::arr(runs))]).render()
        };
        let bench =
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        let base = doc(&[10.0, 10.1, 9.9, 10.0], 0);
        let (table, worse) = compare(&base, &doc(&[12.0, 12.1, 11.9], 0), bench).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let (table, worse) = compare(&base, &doc(&[10.0, 10.2, 9.9], 0), bench).unwrap();
        assert!(!worse && table.contains("no worse"), "{table}");
        let (_, worse) = compare(&base, &doc(&[10.0, 10.2, 9.9], 1), bench).unwrap();
        assert!(worse, "a failed point-run counts as worse");
    }
}
