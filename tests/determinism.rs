//! The simulator is deterministic: identical configurations produce
//! bit-identical statistics, across all architectures.

use pimdsm::{ArchSpec, Machine, RunReport};
use pimdsm_workloads::{build, AppId, Scale};

fn run(spec: ArchSpec, app: AppId) -> RunReport {
    Machine::build(spec, build(app, 6, Scale::ci()), 0.75).run()
}

fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total cycles");
    assert_eq!(
        a.proto.reads_by_level, b.proto.reads_by_level,
        "{what}: read levels"
    );
    assert_eq!(
        a.proto.read_latency_by_level, b.proto.read_latency_by_level,
        "{what}: read latencies"
    );
    assert_eq!(a.net.messages, b.net.messages, "{what}: messages");
    assert_eq!(
        a.net.total_queueing, b.net.total_queueing,
        "{what}: queueing"
    );
    for (x, y) in a.threads.iter().zip(&b.threads) {
        assert_eq!(x, y, "{what}: thread accounting");
    }
}

#[test]
fn numa_runs_are_reproducible() {
    assert_identical(
        &run(ArchSpec::Numa, AppId::Radix),
        &run(ArchSpec::Numa, AppId::Radix),
        "NUMA/Radix",
    );
}

#[test]
fn coma_runs_are_reproducible() {
    assert_identical(
        &run(ArchSpec::Coma, AppId::Barnes),
        &run(ArchSpec::Coma, AppId::Barnes),
        "COMA/Barnes",
    );
}

#[test]
fn agg_runs_are_reproducible() {
    assert_identical(
        &run(ArchSpec::Agg { n_d: 3 }, AppId::Dbase),
        &run(ArchSpec::Agg { n_d: 3 }, AppId::Dbase),
        "AGG/Dbase",
    );
}

#[test]
fn census_is_reproducible() {
    let a = run(ArchSpec::Agg { n_d: 2 }, AppId::Ocean).census;
    let b = run(ArchSpec::Agg { n_d: 2 }, AppId::Ocean).census;
    assert_eq!(a, b);
}

/// The Figure 10-(a) shape at CI scale: a fattened AGG machine running
/// Dbase with a dynamic reconfiguration at the hash/join phase boundary.
/// The D-to-P conversion sweeps pages and directory entries, which
/// historically iterated `HashMap`s — the one nondeterminism that leaked
/// into simulated time. Guard the whole path bit-exactly.
fn run_dynamic_reconfig() -> (RunReport, Vec<pimdsm_obs::TraceEvent>) {
    use pimdsm::ReconfigPlan;
    use pimdsm_obs::Tracer;
    use pimdsm_workloads::build_dbase;

    // 4 hash threads at 4P&4D, reconfiguring to 6P&2D for the 6-thread
    // join — every D-capable node carries 4x "fatter" memory, as in the
    // paper's Fig. 2-(b).
    let w = build_dbase(4, 6, Scale::ci(), false);
    let mut m = pimdsm::Machine::build_custom_agg(w, 0.75, 4, |cfg| {
        cfg.dnode.data_lines *= 4;
        cfg.dnode.onchip_lines *= 4;
    });
    m.set_reconfig(ReconfigPlan::paper(6, 2))
        .expect("dbase has a reconfiguration point");
    let tracer = Tracer::enabled();
    m.attach_tracer(tracer.clone());
    let report = m.run();
    (report, tracer.events_sorted())
}

/// Runs one lab suite point twice (fresh machine each time, tracer
/// attached) and asserts the full report JSON and the exact trace-event
/// sequence are byte-identical — the dynamic guard behind contract D001
/// (`crates/clippy.toml`).
fn assert_suite_point_deterministic(suite: &str, label_substr: &str) {
    use pimdsm_lab::{find, SuiteCtx};
    use pimdsm_obs::{ToJson, Tracer};

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let points = find(suite).expect("suite exists").points(&ctx);
    let point = points
        .iter()
        .find(|p| p.label.contains(label_substr))
        .unwrap_or_else(|| panic!("{suite} has a point labelled *{label_substr}*"));

    let run = || {
        let mut m = point.build_machine();
        let tracer = Tracer::enabled();
        m.attach_tracer(tracer.clone());
        (m.run(), tracer.events_sorted())
    };
    let (ra, ea) = run();
    let (rb, eb) = run();
    let what = point.key();
    assert_identical(&ra, &rb, &what);
    assert_eq!(
        ra.to_json().render_pretty(),
        rb.to_json().render_pretty(),
        "{what}: full report must be byte-identical"
    );
    assert_eq!(ea, eb, "{what}: exact event sequences must be equal");
}

/// An AGG point from the Figure 6 sweep stays bit-deterministic (the
/// fig10a guard below only exercises the NUMA/reconfig path).
#[test]
fn agg_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig6", "1/2AGG75");
}

/// A COMA point from the Figure 6 sweep stays bit-deterministic.
#[test]
fn coma_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig6", "COMA75");
}

/// Runs one suite point bare and once more under active profiling (a
/// counter scope plus an entered phase) and asserts the simulation output
/// is byte-identical: the profiler observes the host, never the simulated
/// machine. Also checks the observation actually happened — the scope
/// must have counted events and walks.
fn assert_profiling_does_not_perturb(suite: &str, label_substr: &str) {
    use pimdsm_lab::{find, SuiteCtx};
    use pimdsm_obs::{ToJson, Tracer};

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let points = find(suite).expect("suite exists").points(&ctx);
    let point = points
        .iter()
        .find(|p| p.label.contains(label_substr))
        .unwrap_or_else(|| panic!("{suite} has a point labelled *{label_substr}*"));
    let run = || {
        let mut m = point.build_machine();
        let tracer = Tracer::enabled();
        m.attach_tracer(tracer.clone());
        (m.run(), tracer.events_sorted())
    };

    let (ra, ea) = run();
    let ((rb, eb), delta) = pimdsm_prof::counters::scoped(|| {
        pimdsm_prof::phase!(pimdsm_prof::Phase::PointRun);
        run()
    });
    let what = point.key();
    assert!(
        delta.engine_events() > 0 && delta.txn_walks() > 0,
        "{what}: the profiled run must actually have been counted: {delta:?}"
    );
    assert_eq!(
        ra.to_json().render_pretty(),
        rb.to_json().render_pretty(),
        "{what}: profiling must not change the report"
    );
    assert_eq!(
        ea, eb,
        "{what}: profiling must not change the exact event sequence"
    );
}

/// Profiling an AGG point changes nothing in its simulated output.
#[test]
fn profiled_agg_point_is_unperturbed() {
    assert_profiling_does_not_perturb("fig6", "1/2AGG75");
}

/// Profiling a COMA point changes nothing in its simulated output.
#[test]
fn profiled_coma_point_is_unperturbed() {
    assert_profiling_does_not_perturb("fig6", "COMA75");
}

/// The deterministic counter block of a bench (engine events, queue
/// peak, txn walks/steps) is identical across repeated measured runs.
/// Allocation deltas are asserted by the `bench` CLI itself, where no
/// sibling test threads allocate concurrently.
#[test]
fn bench_counters_are_run_stable() {
    use pimdsm_lab::{find, measure_suite, SuiteCtx};

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let r = measure_suite(find("smoke").expect("smoke suite"), &ctx, 2, 2, false)
        .expect("smoke bench runs");
    assert_eq!(
        r.samples[0].counters, r.samples[1].counters,
        "deterministic bench counters must not vary between runs"
    );
    assert!(r.samples[0].counters.engine_events() > 0);
}

/// A kill + checkpoint + rejoin plan on an AGG machine: recovery sweeps
/// directory entries, re-homes pages and re-binds threads — all paths
/// that must stay bit-exact for the fault suite to be cacheable at all.
fn run_faulted() -> (RunReport, Vec<pimdsm_obs::TraceEvent>) {
    use pimdsm_faults::{Durability, FaultPlan};
    use pimdsm_obs::Tracer;

    let w = build(AppId::Radix, 6, Scale::ci());
    let mut m = Machine::build(ArchSpec::Agg { n_d: 3 }, w, 0.75);
    m.set_faults(
        FaultPlan::new()
            .kill_at(1, 10_000)
            .rejoin_at(1, 30_000)
            .with_durability(Durability::Checkpoint { interval: 5_000 }),
    );
    let tracer = Tracer::enabled();
    m.attach_tracer(tracer.clone());
    (m.run(), tracer.events_sorted())
}

#[test]
fn fault_injection_is_bit_deterministic() {
    use pimdsm_obs::ToJson;

    let (ra, ea) = run_faulted();
    let (rb, eb) = run_faulted();
    let rs = ra.faults.as_ref().expect("faulted run carries stats");
    assert_eq!(rs.kills, 1, "the kill actually fired");
    assert!(
        ea.iter().any(|e| e.name == "kill") && ea.iter().any(|e| e.name == "recovery"),
        "the kill and the recovery span were traced"
    );
    assert_eq!(
        ra.to_json().render_pretty(),
        rb.to_json().render_pretty(),
        "faulted run: full report must be byte-identical"
    );
    assert_eq!(ea, eb, "faulted run: exact event sequences must be equal");
}

/// Every fault scenario the fig-fault suite sweeps stays bit-exact when
/// rebuilt from its declarative spec (covering the lab's FaultSpec →
/// FaultPlan expansion on each architecture).
#[test]
fn agg_fault_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig-fault", "1/1AGG75 kill+rejoin");
}

#[test]
fn coma_fault_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig-fault", "COMA75 kill+repl");
}

#[test]
fn numa_fault_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig-fault", "NUMA kill+ckpt");
}

/// The whole fig-fault sweep — epoch-sampled, as the CLI runs it — is
/// byte-identical whatever the worker count.
#[test]
fn fault_suite_sweep_is_jobs_invariant() {
    use pimdsm_lab::{find, run_sweep, Instrumentation, SuiteCtx};
    use pimdsm_obs::ToJson;

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let suite = find("fig-fault").expect("fault suite exists");
    let inst = Instrumentation {
        epoch: suite.epoch,
        ..Default::default()
    };
    let rendered = |jobs| {
        let result = run_sweep(suite.points(&ctx), None, &inst, jobs, false);
        let reports = result.reports().expect("every fault point succeeds");
        let json: Vec<String> = reports
            .iter()
            .map(|r| r.to_json().render_pretty())
            .collect();
        (suite.render(&ctx, &reports), json)
    };
    assert_eq!(
        rendered(1),
        rendered(4),
        "--jobs must not change any fig-fault byte"
    );
}

/// Service points rebuild and re-run bit-exactly: the Zipf draws, the
/// open-loop arrival schedule and the request brackets are all seeded
/// from the spec, never from ambient state.
#[test]
fn kv_svc_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig-svc", "1/1AGG75 kv-open");
}

#[test]
fn bfs_svc_suite_point_is_bit_deterministic() {
    assert_suite_point_deterministic("fig-svc", "COMA75 bfs");
}

/// The whole fig-svc sweep is byte-identical whatever the worker count.
#[test]
fn svc_suite_sweep_is_jobs_invariant() {
    use pimdsm_lab::{find, run_sweep, Instrumentation, SuiteCtx};
    use pimdsm_obs::ToJson;

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let suite = find("fig-svc").expect("svc suite exists");
    let inst = Instrumentation::default();
    let rendered = |jobs| {
        let result = run_sweep(suite.points(&ctx), None, &inst, jobs, false);
        let reports = result.reports().expect("every svc point succeeds");
        let json: Vec<String> = reports
            .iter()
            .map(|r| r.to_json().render_pretty())
            .collect();
        (suite.render(&ctx, &reports), json)
    };
    assert_eq!(
        rendered(1),
        rendered(4),
        "--jobs must not change any fig-svc byte"
    );
}

#[test]
fn dynamic_reconfiguration_is_bit_deterministic() {
    use pimdsm_obs::ToJson;

    let (ra, ea) = run_dynamic_reconfig();
    let (rb, eb) = run_dynamic_reconfig();
    assert!(ra.reconfig_cycles > 0, "the machine actually reconfigured");
    assert!(
        ea.iter().any(|e| e.name == "reconfig"),
        "the reconfiguration span was traced"
    );
    assert_identical(&ra, &rb, "AGG/Dbase dynamic reconfig");
    assert_eq!(ra.census, rb.census, "dynamic reconfig: census");
    assert_eq!(
        ra.to_json().render_pretty(),
        rb.to_json().render_pretty(),
        "dynamic reconfig: full report must be byte-identical"
    );
    assert_eq!(ea.len(), eb.len(), "dynamic reconfig: event count");
    assert_eq!(
        ea, eb,
        "dynamic reconfig: exact event sequences must be equal"
    );
}
