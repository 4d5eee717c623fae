//! Cross-crate integration tests of the `pimdsm-lab` orchestration
//! subsystem: the executor's job-count independence and the sharing of
//! a point between the suites of one invocation — the properties the
//! lab's CLI contract (`run --jobs N`, `run fig6 fig7 smoke`,
//! `results/<suite>.json`) is built on.

use pimdsm_lab::{find, run_sweep, Instrumentation, Shared, SuiteCtx, SweepResult};
use pimdsm_obs::ToJson;
use pimdsm_workloads::Scale;

fn ctx() -> SuiteCtx {
    SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    }
}

/// `--jobs` must never change a byte of any output: same reports, same
/// rendered text, whatever the worker count.
#[test]
fn smoke_suite_is_jobs_invariant() {
    let ctx = ctx();
    let suite = find("smoke").expect("smoke suite exists");
    let run = |jobs: usize| {
        let result = run_sweep(suite.points(&ctx), &Instrumentation::default(), jobs, false);
        let reports = result.reports().expect("no failures");
        let json: Vec<String> = reports
            .iter()
            .map(|r| r.to_json().render_pretty())
            .collect();
        let text = suite.render(&ctx, &reports);
        (json, text)
    };
    let serial = run(1);
    for jobs in [2, 4, 8] {
        assert_eq!(serial, run(jobs), "jobs={jobs} changed output bytes");
    }
}

/// Two suites of one invocation that list the same points (as
/// `run smoke smoke` does, or fig6, fig7 and smoke in `run --all`)
/// simulate each point once, and the second renders exactly what a
/// separate run of it renders.
#[test]
fn a_point_two_suites_list_is_simulated_once() {
    let ctx = ctx();
    let suite = find("smoke").unwrap();
    let inst = Instrumentation::default();
    let mut shared = Shared::default();
    let first = shared.sweep(suite.points(&ctx), &inst, 2, false);
    let second = shared.sweep(suite.points(&ctx), &inst, 2, false);
    assert_eq!(first.shared, 0, "nothing to share yet");
    assert!(first.counter_totals().txn_walks() > 0);
    assert_eq!(second.shared, 4, "every smoke point is shared");
    assert_eq!(
        second.counter_totals().engine_events(),
        0,
        "a shared point was simulated again"
    );

    let output = |r: &SweepResult| {
        let reports = r.reports().expect("no failures");
        let json: Vec<String> = reports
            .iter()
            .map(|r| r.to_json().render_pretty())
            .collect();
        (suite.render(&ctx, &reports), json)
    };
    let separate = run_sweep(suite.points(&ctx), &inst, 2, false);
    assert_eq!(output(&second), output(&separate));
}
