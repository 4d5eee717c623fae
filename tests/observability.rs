//! Observability integration tests: the machine-readable outputs are
//! schema-valid, round-trip through the JSON layer, tracing does not
//! perturb the simulation, and trace events agree with the counters that
//! describe them.

use pimdsm::{ArchSpec, Machine};
use pimdsm_obs::{json, EpochSeries, Event, ToJson, Tracer};
use pimdsm_workloads::{build, AppId, Scale};

fn agg_machine() -> Machine {
    // A 4-node AGG machine (3 P-nodes + 1 D-node) on the smallest scale.
    Machine::build(
        ArchSpec::Agg { n_d: 1 },
        build(AppId::Fft, 3, Scale::ci()),
        0.75,
    )
    .with_label("1/3AGG75")
}

#[test]
fn run_report_json_round_trips() {
    let mut m = agg_machine();
    m.sample_epochs(10_000);
    let report = m.run();
    let doc = report.to_json();
    let text = doc.render_pretty();
    let parsed = json::parse(&text).expect("report JSON parses");
    assert_eq!(parsed, doc, "render → parse is the identity");

    // Spot-check the schema against the source report.
    assert_eq!(parsed.get("arch").unwrap().as_str(), Some("AGG"));
    assert_eq!(parsed.get("app").unwrap().as_str(), Some("FFT"));
    assert_eq!(
        parsed.get("total_cycles").unwrap().as_u64(),
        Some(report.total_cycles)
    );
    let threads = parsed.get("threads").unwrap().as_arr().unwrap();
    assert_eq!(threads.len(), report.threads.len());
    assert_eq!(
        threads[0].get("memory").unwrap().as_u64(),
        Some(report.threads[0].memory)
    );
    let proto = parsed.get("proto").unwrap();
    assert_eq!(
        proto
            .get("reads_by_level")
            .unwrap()
            .get("2Hop")
            .unwrap()
            .as_u64(),
        Some(report.proto.reads_by_level[3])
    );
    assert!(parsed.get("census").unwrap().get("d_slots").is_some());
    assert!(parsed.get("net").unwrap().get("messages").is_some());
    // Epoch sampling was on, so the series must be present and non-empty.
    let epochs = parsed.get("epochs").unwrap();
    let series = epochs.get("series").unwrap().as_arr().unwrap();
    assert!(series.len() >= 2, "at least two epoch time-series");
    let ends = epochs.get("ends").unwrap().as_arr().unwrap();
    assert!(!ends.is_empty());
    assert!(ends.windows(2).all(|w| w[0].as_u64() <= w[1].as_u64()));
}

#[test]
fn agg_smoke_run_emits_schema_valid_chrome_trace() {
    let mut m = agg_machine();
    let tracer = Tracer::enabled();
    m.attach_tracer(tracer.clone());
    m.run();

    let text = tracer.to_chrome_json();
    let doc = json::parse(&text).expect("trace is valid JSON");
    let events = doc.as_arr().expect("trace is a JSON array");
    assert!(events.len() > 100, "a real run produces many events");

    let mut subsystems = std::collections::BTreeSet::new();
    let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        match ph {
            // Metadata records carry a process name.
            "M" => {
                assert!(e.get("args").unwrap().get("name").is_some());
                continue;
            }
            "X" => {
                assert!(e.get("dur").unwrap().as_u64().unwrap() >= 1);
            }
            "i" => {
                assert_eq!(e.get("s").unwrap().as_str(), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
        let cat = e.get("cat").unwrap().as_str().unwrap();
        subsystems.insert(cat.split('.').next().unwrap().to_string());
        let pid = e.get("pid").unwrap().as_u64().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        let ts = e.get("ts").unwrap().as_u64().unwrap();
        let last = last_ts.entry((pid, tid)).or_insert(0);
        assert!(ts >= *last, "timestamps monotone per (pid,tid) track");
        *last = ts;
    }
    assert!(
        subsystems.len() >= 3,
        "events from at least three subsystems, got {subsystems:?}"
    );
}

#[test]
fn tracing_and_sampling_do_not_perturb_the_simulation() {
    let baseline = agg_machine().run();

    let mut traced = agg_machine();
    traced.attach_tracer(Tracer::enabled());
    traced.sample_epochs(5_000);
    let observed = traced.run();

    assert_eq!(baseline.total_cycles, observed.total_cycles);
    assert_eq!(baseline.proto.reads_by_level, observed.proto.reads_by_level);
    assert_eq!(baseline.net.messages, observed.net.messages);
    assert_eq!(baseline.threads, observed.threads);
}

#[test]
fn epoch_series_cover_the_run() {
    let mut m = agg_machine();
    m.sample_epochs(10_000);
    let report = m.run();
    let epochs: &EpochSeries = report.epochs.as_ref().expect("sampling was enabled");
    assert_eq!(epochs.epoch_cycles, 10_000);
    assert_eq!(*epochs.ends.last().unwrap(), report.total_cycles);
    for series in &epochs.series {
        assert_eq!(series.points.len(), epochs.ends.len(), "{}", series.name);
    }
    // Controller utilization is a per-cycle rate; occupancy is booked
    // ahead on resource timelines, so a single window can transiently
    // exceed 1, but it stays non-negative, finite and of order one.
    let util = epochs.series_named("controller_util").unwrap();
    assert!(util
        .points
        .iter()
        .all(|&p| p.is_finite() && (0.0..10.0).contains(&p)));
    // The run performs reads, so the reads series must not be all zero.
    let reads = epochs.series_named("reads").unwrap();
    assert!(reads.points.iter().sum::<f64>() > 0.0);
}

/// A walk's span follows from the same `Level` that records its read
/// statistics, and the fabric's fault and injection instants are emitted
/// where their counters are bumped, so a trace and the protocol
/// statistics of the same run agree. The fig-fault kill points
/// fire every counter checked here: COMA disk faults and injections, AGG
/// disk faults and page-outs, and remote traffic on all three machines.
#[test]
fn spans_agree_with_protocol_counters() {
    use pimdsm_lab::{find, SuiteCtx};
    use pimdsm_proto::Level;

    let ctx = SuiteCtx {
        threads: 4,
        scale: Scale::ci(),
    };
    let points = find("fig-fault").expect("fault suite exists").points(&ctx);
    let mut fired = [
        ("remote reads", 0),
        ("remote writes", 0),
        ("disk faults", 0),
        ("injections", 0),
        ("page-outs", 0),
        ("invalidations", 0),
    ];
    for arch in ["NUMA", "COMA75", "1/1AGG75"] {
        for tag in ["kill", "kill+repl"] {
            let label = format!("{arch} {tag}");
            let point = points
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("fig-fault has a point labelled {label:?}"));
            let mut m = point.build_machine();
            let tracer = Tracer::enabled();
            m.attach_tracer(tracer.clone());
            let p = m.run().proto;
            let events = tracer.events_sorted();
            let count = |ev: Event| {
                let name = ev.parts().0;
                events.iter().filter(|e| e.name == name).count() as u64
            };

            let remote_reads =
                p.reads_by_level[Level::Hop2.index()] + p.reads_by_level[Level::Hop3.index()];
            assert_eq!(
                count(Event::ReadRemote),
                remote_reads,
                "{label}: read.remote"
            );
            assert_eq!(count(Event::DiskFault), p.disk_faults, "{label}: fault");
            assert_eq!(count(Event::AmInject), p.injections, "{label}: inject");
            assert_eq!(count(Event::PageOut), p.page_outs, "{label}: pageout");
            // An owner's self-invalidation rides on its own handler span,
            // so it is counted without an `Ack` span.
            assert!(
                count(Event::HandlerAck) <= p.invalidations,
                "{label}: {} Ack spans, {} invalidations",
                count(Event::HandlerAck),
                p.invalidations
            );
            let write_spans = count(Event::WriteRemote);
            if arch.contains("AGG") {
                assert_eq!(write_spans, p.remote_writes, "{label}: write.remote");
            } else {
                // COMA and NUMA undercount `remote_writes`: read-exclusive
                // misses served by an owner, by sharers or from disk are
                // not counted (the open FOUND entry on `write_txn` in
                // CHANGES.md). The spans are the true count; the gap is
                // left visible here, not hidden.
                assert!(
                    write_spans >= p.remote_writes,
                    "{label}: {write_spans} write.remote spans, {} remote_writes",
                    p.remote_writes
                );
            }
            for ((_, n), add) in fired.iter_mut().zip([
                remote_reads,
                p.remote_writes,
                p.disk_faults,
                p.injections,
                p.page_outs,
                p.invalidations,
            ]) {
                *n += add;
            }
        }
    }
    for (what, n) in fired {
        assert!(n > 0, "no {what} in the fig-fault kill points");
    }
}
