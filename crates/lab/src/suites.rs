//! The named experiment suites.
//!
//! One [`Suite`] per figure/table/ablation of the evaluation, plus a tiny
//! `smoke` suite for CI. A suite is two pure functions: `points` expands
//! the suite into [`PointSpec`]s for the executor, and `render` formats
//! the resulting reports into the committed `results/<suite>.txt` text
//! block. Because points are plain data, identical points in different
//! suites (fig7 renders fig6's 49 simulations, smoke reuses 4 of them)
//! compare equal, and one invocation that runs both simulates each once.

use std::fmt::Write as _;

use pimdsm::RunReport;
use pimdsm_engine::Cycle;
use pimdsm_faults::Durability;
use pimdsm_obs::JsonValue;
use pimdsm_prof::Phase;
use pimdsm_proto::Level;
use pimdsm_svc::SvcSpec;
use pimdsm_workloads::{build, AppId, Scale, ALL_APPS};

use crate::spec::{
    fig6_configs, reduced_ratio, Config, FaultSpec, MachineSpec, PointSpec, Tweak, WorkloadSpec,
};

/// Shared sweep parameters: thread count and problem scale.
#[derive(Debug, Clone, Copy)]
pub struct SuiteCtx {
    /// Application thread count for the main comparison.
    pub threads: usize,
    /// Problem-size scaling.
    pub scale: Scale,
}

/// A named, declarative experiment suite.
pub struct Suite {
    /// CLI name (`pimdsm-lab run <name>`), also the `bin` of the report
    /// document and the `results/<name>.json` stem.
    pub name: &'static str,
    /// One-line description for `pimdsm-lab list`.
    pub title: &'static str,
    points: fn(&SuiteCtx) -> Vec<PointSpec>,
    render: fn(&SuiteCtx, &[&RunReport]) -> String,
    /// Machine-readable payload for suites whose content is *not* a set of
    /// [`RunReport`]s — the tables derive their rows from calibration and
    /// the catalog, so without this they would write no `results/` JSON.
    data: Option<fn(&SuiteCtx) -> JsonValue>,
    /// Epoch-sampling interval the suite itself requires (`fig-fault`
    /// plots degraded-throughput time series). Forces instrumented runs
    /// even without `--metrics`; an instrumented suite neither takes
    /// reports from nor offers them to the other suites of its
    /// invocation, whose reports carry no epoch series.
    pub epoch: Option<Cycle>,
}

impl Suite {
    /// Expands the suite into its simulation points.
    pub fn points(&self, ctx: &SuiteCtx) -> Vec<PointSpec> {
        pimdsm_prof::phase!(Phase::SuitePoints);
        (self.points)(ctx)
    }

    /// Renders the suite's text block from reports aligned with
    /// [`Suite::points`] order.
    pub fn render(&self, ctx: &SuiteCtx, reports: &[&RunReport]) -> String {
        pimdsm_prof::phase!(Phase::SuiteRender);
        (self.render)(ctx, reports)
    }

    /// The suite's report-independent JSON payload, if it defines one.
    pub fn data(&self, ctx: &SuiteCtx) -> Option<JsonValue> {
        self.data.map(|f| f(ctx))
    }
}

/// Every suite, in the order `run --all` executes them.
pub static ALL_SUITES: &[Suite] = &[
    Suite {
        name: "fig6",
        title: "Figure 6: normalized execution time, Processor/Memory split",
        points: fig6_points,
        render: fig6_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig7",
        title: "Figure 7: aggregated read latency by satisfaction level",
        points: fig6_points, // same 49 runs; the render differs
        render: fig7_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig8",
        title: "Figure 8: D-node memory utilization by line state",
        points: fig8_points,
        render: fig8_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig9",
        title: "Figure 9: execution time across the (#P, #D) design space",
        points: fig9_points,
        render: fig9_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig10a",
        title: "Figure 10-(a): dynamic reconfiguration of Dbase",
        points: fig10a_points,
        render: fig10a_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig10b",
        title: "Figure 10-(b): computation in memory for Dbase",
        points: fig10b_points,
        render: fig10b_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "table1",
        title: "Table 1: uncontended round-trip latencies, paper vs measured",
        points: no_points,
        render: table1_render,
        data: Some(table1_data),
        epoch: None,
    },
    Suite {
        name: "table2",
        title: "Table 2: protocol handler costs",
        points: no_points,
        render: table2_render,
        data: Some(table2_data),
        epoch: None,
    },
    Suite {
        name: "table3",
        title: "Table 3: applications and scaled problem sizes",
        points: no_points,
        render: table3_render,
        data: Some(table3_data),
        epoch: None,
    },
    Suite {
        name: "ablation_assoc",
        title: "Ablation: attraction-memory associativity and index hashing",
        points: assoc_points,
        render: assoc_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "ablation_handlers",
        title: "Ablation: software protocol-handler cost sensitivity",
        points: handlers_points,
        render: handlers_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "ablation_onchip",
        title: "Ablation: on-chip fraction of P-node local memory",
        points: onchip_points,
        render: onchip_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "ablation_sharedlist",
        title: "Ablation: D-node SharedList reclamation policy",
        points: sharedlist_points,
        render: sharedlist_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "fig-fault",
        title: "Fault injection: degraded throughput and recovery across AGG/COMA/NUMA",
        points: fault_points,
        render: fault_render,
        data: None,
        epoch: Some(FAULT_EPOCH),
    },
    Suite {
        name: "fig-svc",
        title: "Service workloads: KV serving, graph analytics and streaming scans",
        points: svc_points,
        render: svc_render,
        data: None,
        epoch: None,
    },
    Suite {
        name: "smoke",
        title: "CI smoke sweep: 2 apps x 2 configs",
        points: smoke_points,
        render: smoke_render,
        data: None,
        epoch: None,
    },
];

/// Looks a suite up by CLI name.
pub fn find(name: &str) -> Option<&'static Suite> {
    ALL_SUITES.iter().find(|s| s.name == name)
}

fn no_points(_: &SuiteCtx) -> Vec<PointSpec> {
    Vec::new()
}

// ---------------------------------------------------------------- fig6/7

fn fig6_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for app in ALL_APPS {
        for cfg in fig6_configs(app) {
            points.push(PointSpec {
                workload: WorkloadSpec::App {
                    app,
                    threads: ctx.threads,
                },
                machine: MachineSpec::Arch(cfg),
                scale: ctx.scale,
                fault: None,
                label: cfg.label(),
            });
        }
    }
    points
}

fn fig6_render(ctx: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: execution time normalized to NUMA (Processor / Memory split)"
    );
    let _ = writeln!(
        out,
        "{} application threads; AGG pressures in the label\n",
        ctx.threads
    );
    let mut it = reports.iter();
    for app in ALL_APPS {
        let rows: Vec<(String, f64, f64)> = fig6_configs(app)
            .iter()
            .map(|_| {
                let r = it.next().expect("report per config");
                (r.label.clone(), r.processor_time(), r.memory_time())
            })
            .collect();
        let base = rows
            .first()
            .map(|(_, p, m)| p + m)
            .filter(|t| *t > 0.0)
            .unwrap_or(1.0);
        let _ = writeln!(out, "\n== {} (normalized to {}) ==", app.name(), rows[0].0);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10}",
            "config", "Processor", "Memory", "Total"
        );
        for (label, proc_t, mem_t) in &rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10.3} {:>10.3} {:>10.3}",
                label,
                proc_t / base,
                mem_t / base,
                (proc_t + mem_t) / base
            );
        }
    }
    out
}

fn fig7_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: aggregated read latency by satisfaction level, normalized to NUMA\n"
    );
    let mut it = reports.iter();
    for app in ALL_APPS {
        let _ = writeln!(out, "== {} ==", app.name());
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "config", "FLC", "SLC", "Memory", "2Hop", "3Hop", "Total"
        );
        let mut base = None;
        for _ in fig6_configs(app) {
            let r = it.next().expect("report per config");
            let lat = r.read_latency_by_level();
            let total: u64 = lat.iter().sum();
            let b = *base.get_or_insert(total.max(1)) as f64;
            let _ = write!(out, "{:<12}", r.label);
            for l in Level::ALL {
                let _ = write!(out, " {:>8.3}", lat[l.index()] as f64 / b);
            }
            let _ = writeln!(out, " {:>8.3}", total as f64 / b);
        }
        let _ = writeln!(out);
    }
    out
}

// ------------------------------------------------------------------ fig8

const FIG8_PRESSURES: [u32; 3] = [75, 50, 25];

fn fig8_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for app in ALL_APPS {
        for pct in FIG8_PRESSURES {
            points.push(PointSpec {
                workload: WorkloadSpec::App {
                    app,
                    threads: ctx.threads,
                },
                machine: MachineSpec::Arch(Config::Agg {
                    ratio: reduced_ratio(app),
                    pressure_pct: pct,
                }),
                scale: ctx.scale,
                fault: None,
                label: format!("AGG{pct}"),
            });
        }
    }
    points
}

fn fig8_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: state of memory lines, normalized to D-node storage = 100"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>10} {:>11} {:>10} {:>9} {:>8}",
        "appl.", "press", "DirtyInP", "SharedInP", "DNodeOnly", "OnDisk", "Unused"
    );
    let mut it = reports.iter();
    for app in ALL_APPS {
        for pct in FIG8_PRESSURES {
            let r = it.next().expect("report per pressure");
            let c = &r.census;
            let norm = |x: u64| 100.0 * x as f64 / c.d_slots.max(1) as f64;
            let _ = writeln!(
                out,
                "{:<8} AGG{:<3} {:>10.1} {:>11.1} {:>10.1} {:>9.1} {:>8.1}",
                app.name(),
                pct,
                norm(c.dirty_in_p),
                norm(c.shared_in_p),
                norm(c.d_node_only),
                norm(c.paged_out),
                (c.unused_slots() as f64) * 100.0 / c.d_slots.max(1) as f64,
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(DirtyInP lines keep no home place holder; SharedInP lines may share their"
    );
    let _ = writeln!(
        out,
        " slot via the SharedList; negative Unused means SharedList slots were reused)"
    );
    out
}

// ------------------------------------------------------------------ fig9

const FIG9_P: [usize; 5] = [2, 4, 8, 16, 32];
const FIG9_D: [usize; 4] = [2, 4, 8, 16];

/// The fixed sizing of Figure 9: total D-memory and per-P memory from the
/// 2P&2D reference configuration at 75% pressure.
fn fig9_sizing(app: AppId, scale: Scale) -> (u64, u64) {
    let reference = build(app, 2, scale);
    let ref_cfg = pimdsm::config::resolve(&*reference, 0.75);
    let total_d_lines = ref_cfg.total_mem_lines / 2;
    let p_am_lines = ref_cfg.total_mem_lines / 2 / 2;
    (total_d_lines, p_am_lines)
}

fn fig9_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for app in ALL_APPS {
        let (total_d_lines, p_am_lines) = fig9_sizing(app, ctx.scale);
        for p in FIG9_P {
            for d in FIG9_D {
                if p + d > 64 {
                    continue;
                }
                points.push(PointSpec {
                    workload: WorkloadSpec::App { app, threads: p },
                    machine: MachineSpec::AggExplicit {
                        n_d: d,
                        p_am_lines,
                        d_data_lines: (total_d_lines / d as u64).max(512),
                        pressure_pct: 75,
                    },
                    scale: ctx.scale,
                    fault: None,
                    label: format!("{p}P&{d}D"),
                });
            }
        }
    }
    points
}

fn fig9_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: execution time (cycles) across P- and D-node counts"
    );
    let _ = writeln!(
        out,
        "problem size and total D-memory fixed (sized at 2P&2D, AGG75)\n"
    );
    let mut it = reports.iter();
    for app in ALL_APPS {
        let _ = writeln!(out, "== {} (rows: #P, cols: #D) ==", app.name());
        let _ = write!(out, "{:>6}", "");
        for d in FIG9_D {
            let _ = write!(out, " {d:>12}");
        }
        let _ = writeln!(out);
        for p in FIG9_P {
            let _ = write!(out, "{p:>6}");
            for d in FIG9_D {
                if p + d > 64 {
                    let _ = write!(out, " {:>12}", "-");
                    continue;
                }
                let r = it.next().expect("report per grid cell");
                let _ = write!(out, " {:>12}", r.total_cycles);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }
    out
}

// ---------------------------------------------------------------- fig10a

/// The "fatter" memory factor of Figure 10-(a): every D-capable node
/// carries what a 4-D-node machine needs per node.
fn fig10a_fatten(n_d: usize) -> u64 {
    (16 / n_d.min(16)).max(1) as u64
}

fn fig10a_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let custom = |n_d: usize, reconfig| MachineSpec::CustomAgg {
        n_d,
        pressure_pct: 75,
        tweak: Tweak::FattenDnode {
            factor: fig10a_fatten(n_d),
        },
        reconfig,
    };
    vec![
        PointSpec {
            workload: WorkloadSpec::Dbase {
                hash_threads: 16,
                join_threads: 16,
                offload: false,
            },
            machine: custom(16, None),
            scale: ctx.scale,
            fault: None,
            label: "static 16P&16D".into(),
        },
        PointSpec {
            workload: WorkloadSpec::Dbase {
                hash_threads: 28,
                join_threads: 28,
                offload: false,
            },
            machine: custom(4, None),
            scale: ctx.scale,
            fault: None,
            label: "static 28P&4D".into(),
        },
        PointSpec {
            workload: WorkloadSpec::Dbase {
                hash_threads: 16,
                join_threads: 28,
                offload: false,
            },
            machine: custom(16, Some((28, 4))),
            scale: ctx.scale,
            fault: None,
            label: "dynamic 16&16->28&4".into(),
        },
    ]
}

fn fig10a_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let (r_16, r_28, r_dyn) = (reports[0], reports[1], reports[2]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10-(a): Dbase on a 32-node AGG machine, 75% pressure"
    );
    let _ = writeln!(
        out,
        "(every D-capable node carries the paper's 4x \"fatter\" memory, Fig. 2-(b))\n"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>12} {:>10}",
        "configuration", "total cycles", "vs 16&16", "reconf"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>12} {:>10}",
        "static 16P & 16D", r_16.total_cycles, "1.000", "-"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>12.3} {:>10}",
        "static 28P & 4D",
        r_28.total_cycles,
        r_28.total_cycles as f64 / r_16.total_cycles as f64,
        "-"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>12.3} {:>10}",
        "dynamic 16&16 -> 28&4",
        r_dyn.total_cycles,
        r_dyn.total_cycles as f64 / r_16.total_cycles as f64,
        r_dyn.reconfig_cycles
    );
    let best_static = r_16.total_cycles.min(r_28.total_cycles);
    let gain = 100.0 * (1.0 - r_dyn.total_cycles as f64 / best_static as f64);
    let _ = writeln!(
        out,
        "\ndynamic reconfiguration vs best static: {gain:+.1}% \
         (paper reports a 14% reduction)"
    );
    out
}

// ---------------------------------------------------------------- fig10b

const FIG10B_PD: [(usize, usize); 3] = [(16, 16), (24, 8), (28, 4)];

fn fig10b_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for (p, d) in FIG10B_PD {
        for (offload, tag) in [(false, "plain"), (true, "opt")] {
            points.push(PointSpec {
                workload: WorkloadSpec::Dbase {
                    hash_threads: p,
                    join_threads: p,
                    offload,
                },
                machine: MachineSpec::CustomAgg {
                    n_d: d,
                    pressure_pct: 75,
                    tweak: Tweak::None,
                    reconfig: None,
                },
                scale: ctx.scale,
                fault: None,
                label: format!("{p}P&{d}D {tag}"),
            });
        }
    }
    points
}

fn fig10b_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10-(b): Dbase with computation in memory (AGG, 75% pressure)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>12}",
        "P & D", "Plain", "Opt", "reduction"
    );
    let mut it = reports.iter();
    for (p, d) in FIG10B_PD {
        let plain = it.next().expect("plain report");
        let opt = it.next().expect("opt report");
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>11.1}%",
            format!("{p}P & {d}D"),
            plain.total_cycles,
            opt.total_cycles,
            100.0 * (1.0 - opt.total_cycles as f64 / plain.total_cycles as f64)
        );
    }
    let _ = writeln!(
        out,
        "\n(paper reports ~70% reduction across configurations)"
    );
    out
}

// ---------------------------------------------------------------- tables

fn table1_render(_: &SuiteCtx, _: &[&RunReport]) -> String {
    use pimdsm::calibration::{measure, PAPER};
    let m = measure();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: uncontended round-trip latencies (CPU cycles)"
    );
    let _ = writeln!(out, "{:<28} {:>8} {:>10}", "device", "paper", "measured");
    let rows = [
        ("On-Chip L1", PAPER.l1, m.l1),
        ("On-Chip L2", PAPER.l2, m.l2),
        ("Local memory, on-chip", PAPER.mem_on, m.mem_on),
        ("Local memory, off-chip", PAPER.mem_off, m.mem_off),
        ("Remote memory, 2-node hop", PAPER.hop2, m.hop2),
        ("Remote memory, 3-node hop", PAPER.hop3, m.hop3),
    ];
    for (name, paper, measured) in rows {
        let delta = 100.0 * (measured as f64 - paper as f64) / paper as f64;
        let _ = writeln!(out, "{name:<28} {paper:>8} {measured:>10}   ({delta:+.1}%)");
    }
    out
}

fn table2_render(_: &SuiteCtx, _: &[&RunReport]) -> String {
    use pimdsm_proto::{ControllerKind, HandlerCosts, HandlerKind};
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: protocol handler costs (processor cycles)");
    for (label, kind) in [
        (
            "AGG (software handlers on D-node processors)",
            ControllerKind::Software,
        ),
        (
            "NUMA/COMA (custom hardware controllers, 70%)",
            ControllerKind::Hardware,
        ),
    ] {
        let c = HandlerCosts::paper(kind);
        let _ = writeln!(out, "\n{label}");
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>22}",
            "handler", "latency", "occupancy"
        );
        let (l, o) = c.cost(HandlerKind::Read, 0);
        let _ = writeln!(out, "{:<18} {:>8} {:>22}", "Read", l, o);
        let (l, o) = c.cost(HandlerKind::ReadExclusive, 0);
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>14} + {}/inval",
            "Read Exclusive", l, o, c.per_inval
        );
        let (l, o) = c.cost(HandlerKind::Acknowledgment, 0);
        let _ = writeln!(out, "{:<18} {:>8} {:>22}", "Acknowledgment", l, o);
        let (l, o) = c.cost(HandlerKind::WriteBack, 0);
        let _ = writeln!(out, "{:<18} {:>8} {:>22}", "Write Back", l, o);
    }
    out
}

fn table3_render(ctx: &SuiteCtx, _: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: applications (scaled footprints at the current scale, {} threads)",
        ctx.threads
    );
    let _ = writeln!(
        out,
        "{:<8} {:<48} {:>9} {:>12}",
        "appl.", "description & problem size (paper)", "L1,L2 KB", "scaled fp"
    );
    for app in ALL_APPS {
        let (l1, l2) = app.cache_kb();
        let w = build(app, ctx.threads, ctx.scale);
        let _ = writeln!(
            out,
            "{:<8} {:<48} {:>4},{:<4} {:>9} KiB",
            app.name(),
            app.description(),
            l1,
            l2,
            w.footprint_bytes() / 1024
        );
    }
    let _ = writeln!(
        out,
        "\n(paper problem sizes are scaled by 1/{} and iteration counts by 1/{};",
        ctx.scale.size_div, ctx.scale.iter_div
    );
    let _ = writeln!(
        out,
        " memory pressure is preserved because machine DRAM is sized from the scaled footprint)"
    );
    out
}

fn table1_data(_: &SuiteCtx) -> JsonValue {
    use pimdsm::calibration::{measure, PAPER};
    let m = measure();
    let rows = [
        ("on_chip_l1", PAPER.l1, m.l1),
        ("on_chip_l2", PAPER.l2, m.l2),
        ("local_mem_on_chip", PAPER.mem_on, m.mem_on),
        ("local_mem_off_chip", PAPER.mem_off, m.mem_off),
        ("remote_2hop", PAPER.hop2, m.hop2),
        ("remote_3hop", PAPER.hop3, m.hop3),
    ];
    JsonValue::obj([(
        "latencies",
        JsonValue::arr(rows.into_iter().map(|(device, paper, measured)| {
            JsonValue::obj([
                ("device", JsonValue::str(device)),
                ("measured", JsonValue::u64(measured)),
                ("paper", JsonValue::u64(paper)),
            ])
        })),
    )])
}

fn table2_data(_: &SuiteCtx) -> JsonValue {
    use pimdsm_proto::{ControllerKind, HandlerCosts, HandlerKind};
    let controllers = [
        ("agg_software", ControllerKind::Software),
        ("numa_coma_hardware", ControllerKind::Hardware),
    ];
    JsonValue::obj([(
        "controllers",
        JsonValue::arr(controllers.into_iter().map(|(name, kind)| {
            let c = HandlerCosts::paper(kind);
            let handler = |h: HandlerKind| {
                let (latency, occupancy) = c.cost(h, 0);
                JsonValue::obj([
                    ("latency", JsonValue::u64(latency)),
                    ("occupancy", JsonValue::u64(occupancy)),
                ])
            };
            JsonValue::obj([
                ("acknowledgment", handler(HandlerKind::Acknowledgment)),
                ("controller", JsonValue::str(name)),
                ("per_inval", JsonValue::u64(c.per_inval)),
                ("read", handler(HandlerKind::Read)),
                ("read_exclusive", handler(HandlerKind::ReadExclusive)),
                ("write_back", handler(HandlerKind::WriteBack)),
            ])
        })),
    )])
}

fn table3_data(ctx: &SuiteCtx) -> JsonValue {
    JsonValue::obj([
        (
            "apps",
            JsonValue::arr(ALL_APPS.into_iter().map(|app| {
                let (l1, l2) = app.cache_kb();
                let w = build(app, ctx.threads, ctx.scale);
                JsonValue::obj([
                    ("app", JsonValue::str(app.name())),
                    ("description", JsonValue::str(app.description())),
                    ("l1_kb", JsonValue::u64(l1)),
                    ("l2_kb", JsonValue::u64(l2)),
                    (
                        "scaled_footprint_kib",
                        JsonValue::u64(w.footprint_bytes() / 1024),
                    ),
                ])
            })),
        ),
        (
            "scale",
            JsonValue::obj([
                ("iter_div", JsonValue::u64(ctx.scale.iter_div)),
                ("size_div", JsonValue::u64(ctx.scale.size_div)),
            ]),
        ),
        ("threads", JsonValue::u64(ctx.threads as u64)),
    ])
}

// ------------------------------------------------------------- ablations

const ASSOC_ORGS: [(&str, u32, bool); 5] = [
    ("direct-mapped", 1, false),
    ("2-way", 2, false),
    ("4-way (paper)", 4, false),
    ("4-way + hashed index", 4, true),
    ("8-way + hashed index", 8, true),
];

fn assoc_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    ASSOC_ORGS
        .iter()
        .map(|&(label, ways, hashed)| PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Swim,
                threads: ctx.threads,
            },
            machine: MachineSpec::CustomAgg {
                n_d: ctx.threads,
                pressure_pct: 75,
                tweak: Tweak::AmOrg { ways, hashed },
                reconfig: None,
            },
            scale: ctx.scale,
            fault: None,
            label: label.to_string(),
        })
        .collect()
}

fn assoc_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: attraction-memory organization (Swim, 1/1 ratio, 75% pressure)\n"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>12} {:>10}",
        "organization", "total cycles", "write-backs", "2hop"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>12} {:>10}",
            r.label,
            r.total_cycles,
            r.proto.write_backs,
            r.proto.reads_by_level[Level::Hop2.index()]
        );
    }
    out
}

const HANDLER_MILLIS: [u32; 4] = [700, 1000, 1500, 2000];

fn handlers_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    HANDLER_MILLIS
        .iter()
        .map(|&milli| PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Dbase,
                threads: ctx.threads,
            },
            machine: MachineSpec::CustomAgg {
                n_d: (ctx.threads / 2).max(1),
                pressure_pct: 75,
                tweak: Tweak::HandlerScale { milli },
                reconfig: None,
            },
            scale: ctx.scale,
            fault: None,
            label: format!("{:.1}x", milli as f64 / 1000.0),
        })
        .collect()
}

fn handlers_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: AGG handler-cost sensitivity (Dbase, 1/2 ratio, 75% pressure)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>10}",
        "factor", "total cycles", "vs 0.7x"
    );
    let mut base: Option<u64> = None;
    for r in reports {
        let b = *base.get_or_insert(r.total_cycles);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>10.3}",
            r.label,
            r.total_cycles,
            r.total_cycles as f64 / b as f64
        );
    }
    let _ = writeln!(
        out,
        "\n(0.7x is the hardware-controller cost the paper grants NUMA and COMA)"
    );
    out
}

const ONCHIP_PCTS: [u64; 4] = [100, 50, 25, 0];

fn onchip_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    ONCHIP_PCTS
        .iter()
        .map(|&pct| PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Swim,
                threads: ctx.threads,
            },
            machine: MachineSpec::CustomAgg {
                n_d: ctx.threads,
                pressure_pct: 75,
                tweak: Tweak::OnchipPct { pct },
                reconfig: None,
            },
            scale: ctx.scale,
            fault: None,
            label: format!("{pct}% on-chip"),
        })
        .collect()
}

fn onchip_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: on-chip fraction of P-node memory (Swim, 1/1 ratio, 75% pressure)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>10}",
        "on-chip", "total cycles", "vs 100%"
    );
    let mut base: Option<u64> = None;
    for (pct, r) in ONCHIP_PCTS.iter().zip(reports) {
        let b = *base.get_or_insert(r.total_cycles);
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>10.3}",
            format!("{pct}%"),
            r.total_cycles,
            r.total_cycles as f64 / b as f64
        );
    }
    let _ = writeln!(
        out,
        "\n(paper: \"the fraction of local memory that is on-chip has only a modest impact\")"
    );
    out
}

const SHAREDLIST_POLICIES: [(&str, bool); 2] = [
    ("reuse SharedList (paper)", true),
    ("no reuse (page out)", false),
];

fn sharedlist_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    SHAREDLIST_POLICIES
        .iter()
        .map(|&(label, reuse)| PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Barnes,
                threads: ctx.threads,
            },
            machine: MachineSpec::CustomAgg {
                n_d: (ctx.threads / 2).max(1),
                pressure_pct: 90,
                tweak: Tweak::SharedList { reuse },
                reconfig: None,
            },
            scale: ctx.scale,
            fault: None,
            label: label.to_string(),
        })
        .collect()
}

fn sharedlist_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: D-node SharedList reclamation (Barnes, 1/2 ratio, 90% pressure)\n"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>14} {:>10} {:>12} {:>10}",
        "policy", "total cycles", "3hop", "page-outs", "faults"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<26} {:>14} {:>10} {:>12} {:>10}",
            r.label,
            r.total_cycles,
            r.proto.reads_by_level[Level::Hop3.index()],
            r.proto.page_outs,
            r.proto.disk_faults
        );
    }
    let _ = writeln!(
        out,
        "
(identical rows confirm the paper's Section 4.1 observation: with so many
         dirty-in-P lines freeing their home slots, the SharedList is rarely — here
         never — actually reclaimed, so discouraging its reuse costs nothing)"
    );
    out
}

// ------------------------------------------------------------- fig-fault

/// Epoch-sampling interval of the fault suite: fine enough that the
/// kill, the degraded window and the recovery each span several epochs.
const FAULT_EPOCH: Cycle = 5_000;

/// Cycle at (or after) which the victim dies. Chosen inside the steady
/// state of the CI-scale runs so every architecture has warmed caches
/// and outstanding remote traffic when the node disappears.
const FAULT_KILL_CYCLE: u64 = 20_000;

/// Cycles after the kill at which the rejoin scenario brings the victim
/// back as a compute node.
const FAULT_REJOIN_AFTER: u64 = 20_000;

/// Checkpoint interval of the `ckpt` durability scenario.
const FAULT_CKPT_INTERVAL: u64 = 10_000;

/// The three machine configurations the fault suite compares.
const FAULT_ARCHS: [Config; 3] = [
    Config::Numa,
    Config::Coma { pressure_pct: 75 },
    Config::Agg {
        ratio: 1,
        pressure_pct: 75,
    },
];

/// The five scenarios per architecture: the fault-free baseline, a kill
/// under each durability policy, and a kill followed by a rejoin.
fn fault_scenarios() -> [(&'static str, Option<FaultSpec>); 5] {
    let kill = |durability, rejoin_after| FaultSpec {
        kill_node: 1,
        kill_cycle: FAULT_KILL_CYCLE,
        rejoin_after,
        durability,
    };
    [
        ("base", None),
        ("kill", Some(kill(Durability::None, None))),
        (
            "kill+ckpt",
            Some(kill(
                Durability::Checkpoint {
                    interval: FAULT_CKPT_INTERVAL,
                },
                None,
            )),
        ),
        ("kill+repl", Some(kill(Durability::Replication, None))),
        (
            "kill+rejoin",
            Some(kill(Durability::None, Some(FAULT_REJOIN_AFTER))),
        ),
    ]
}

fn fault_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for cfg in FAULT_ARCHS {
        for (tag, fault) in fault_scenarios() {
            points.push(PointSpec {
                workload: WorkloadSpec::App {
                    app: AppId::Radix,
                    threads: ctx.threads,
                },
                machine: MachineSpec::Arch(cfg),
                scale: ctx.scale,
                fault,
                label: format!("{} {tag}", cfg.label()),
            });
        }
    }
    points
}

fn fault_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault injection: kill node 1 at cycle {FAULT_KILL_CYCLE} (Radix, 75% pressure)"
    );
    let _ = writeln!(
        out,
        "slowdown is vs the fault-free baseline of the same architecture\n"
    );
    let mut it = reports.iter();
    for cfg in FAULT_ARCHS {
        let _ = writeln!(out, "== {} ==", cfg.label());
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>9} {:>9} {:>7} {:>7} {:>10} {:>8} {:>8}",
            "scenario",
            "cycles",
            "slowdown",
            "lostwork",
            "rehome",
            "lost",
            "recalled",
            "rec p50",
            "rec p99"
        );
        let mut base: Option<u64> = None;
        for (tag, _) in fault_scenarios() {
            let r = it.next().expect("report per scenario");
            let b = *base.get_or_insert(r.total_cycles);
            let _ = write!(
                out,
                "{:<18} {:>12} {:>8.3}x",
                tag,
                r.total_cycles,
                r.total_cycles as f64 / b as f64
            );
            match &r.faults {
                Some(f) => {
                    let _ = writeln!(
                        out,
                        " {:>9} {:>7} {:>7} {:>10} {:>8} {:>8}",
                        f.lost_work_cycles,
                        f.pages_rehomed,
                        f.lines_lost,
                        f.lines_recalled,
                        f.recovery_p50(),
                        f.recovery_p99()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        " {:>9} {:>7} {:>7} {:>10} {:>8} {:>8}",
                        "-", "-", "-", "-", "-", "-"
                    );
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(recovery columns are cycles per scrubbed/re-homed page, p50/p99 of the"
    );
    let _ = writeln!(
        out,
        " per-page recovery histogram; the results JSON carries {FAULT_EPOCH}-cycle"
    );
    let _ = writeln!(
        out,
        " epoch series for the degraded-throughput time-series plot)"
    );
    out
}

// --------------------------------------------------------------- fig-svc

/// KV write mix of the service suite, percent puts.
const SVC_KV_WRITE_PCT: u32 = 10;

/// The three machine configurations the service suite compares.
const SVC_ARCHS: [Config; 3] = [
    Config::Numa,
    Config::Coma { pressure_pct: 75 },
    Config::Agg {
        ratio: 1,
        pressure_pct: 75,
    },
];

/// The eight service points per architecture: a closed-loop KV skew
/// sweep (θ = 0.6 / 0.9 / 1.2), one open-loop KV point, both graph
/// kernels, and the streaming scan shipped to P-nodes vs offloaded into
/// the D-node memory controllers.
fn svc_workloads(threads: usize) -> [(&'static str, SvcSpec); 8] {
    let kv = |theta_milli, open_loop| SvcSpec::Kv {
        threads,
        theta_milli,
        write_pct: SVC_KV_WRITE_PCT,
        open_loop,
    };
    [
        ("kv-0.6", kv(600, false)),
        ("kv-0.9", kv(900, false)),
        ("kv-1.2", kv(1200, false)),
        ("kv-open", kv(900, true)),
        ("bfs", SvcSpec::Bfs { threads }),
        ("pagerank", SvcSpec::PageRank { threads }),
        (
            "stream-ship",
            SvcSpec::Stream {
                threads,
                offload: false,
            },
        ),
        (
            "stream-offload",
            SvcSpec::Stream {
                threads,
                offload: true,
            },
        ),
    ]
}

fn svc_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for cfg in SVC_ARCHS {
        for (tag, spec) in svc_workloads(ctx.threads) {
            points.push(PointSpec {
                workload: WorkloadSpec::Svc(spec),
                machine: MachineSpec::Arch(cfg),
                scale: ctx.scale,
                fault: None,
                label: format!("{} {tag}", cfg.label()),
            });
        }
    }
    points
}

fn svc_render(ctx: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Service workloads: throughput and per-request latency percentiles"
    );
    let _ = writeln!(
        out,
        "{} client/worker threads; KV mix {}% puts; COMA/AGG at 75% pressure\n",
        ctx.threads, SVC_KV_WRITE_PCT
    );
    let mut it = reports.iter();
    for cfg in SVC_ARCHS {
        let _ = writeln!(out, "== {} ==", cfg.label());
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>9} {:>9} {:>7} {:>7} {:>7}",
            "workload", "cycles", "requests", "req/Mcyc", "p50", "p95", "p99"
        );
        let mut stream_ship: Option<u64> = None;
        for (tag, _) in svc_workloads(ctx.threads) {
            let r = it.next().expect("report per service point");
            let s = r.svc.as_ref().expect("service run carries svc stats");
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>9} {:>9.1} {:>7} {:>7} {:>7}",
                tag,
                r.total_cycles,
                s.requests,
                s.per_mcycle(r.total_cycles),
                s.p50(),
                s.p95(),
                s.p99()
            );
            if tag == "stream-ship" {
                stream_ship = Some(r.total_cycles);
            } else if tag == "stream-offload" {
                let ship = stream_ship.expect("ship point precedes offload");
                let _ = writeln!(
                    out,
                    "{:<16} (offload vs ship-to-P: {:+.1}% cycles)",
                    "",
                    100.0 * (r.total_cycles as f64 / ship as f64 - 1.0)
                );
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(latency percentiles are cycles from request arrival — queueing included"
    );
    let _ = writeln!(
        out,
        " for the open-loop point — to completion, from the pow-2-bucket histogram)"
    );
    out
}

// ----------------------------------------------------------------- smoke

/// The CI smoke matrix: 2 apps x 2 configs — small enough for a pull
/// request gate, wide enough to cross NUMA and AGG code paths.
fn smoke_points(ctx: &SuiteCtx) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for app in [AppId::Fft, AppId::Radix] {
        for cfg in [
            Config::Numa,
            Config::Agg {
                ratio: 1,
                pressure_pct: 75,
            },
        ] {
            points.push(PointSpec {
                workload: WorkloadSpec::App {
                    app,
                    threads: ctx.threads,
                },
                machine: MachineSpec::Arch(cfg),
                scale: ctx.scale,
                fault: None,
                label: cfg.label(),
            });
        }
    }
    points
}

fn smoke_render(_: &SuiteCtx, reports: &[&RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Smoke sweep: 2 apps x 2 configs");
    for r in reports {
        let _ = writeln!(out, "{}", r.summary());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SuiteCtx {
        SuiteCtx {
            threads: 4,
            scale: Scale::ci(),
        }
    }

    #[test]
    fn suite_names_are_unique_and_findable() {
        for s in ALL_SUITES {
            assert!(std::ptr::eq(find(s.name).unwrap(), s), "{}", s.name);
        }
        assert_eq!(
            ALL_SUITES.len(),
            16,
            "15 figure/table suites plus the smoke suite"
        );
        assert!(find("no-such-suite").is_none());
    }

    #[test]
    fn point_counts_match_the_run_matrices() {
        let ctx = ctx();
        let n_apps = ALL_APPS.len();
        assert_eq!(find("fig6").unwrap().points(&ctx).len(), 7 * n_apps);
        assert_eq!(find("fig7").unwrap().points(&ctx).len(), 7 * n_apps);
        assert_eq!(find("fig8").unwrap().points(&ctx).len(), 3 * n_apps);
        assert_eq!(find("fig9").unwrap().points(&ctx).len(), 20 * n_apps);
        assert_eq!(find("fig10a").unwrap().points(&ctx).len(), 3);
        assert_eq!(find("fig10b").unwrap().points(&ctx).len(), 6);
        assert_eq!(find("table1").unwrap().points(&ctx).len(), 0);
        assert_eq!(find("fig-fault").unwrap().points(&ctx).len(), 15);
        assert_eq!(find("fig-svc").unwrap().points(&ctx).len(), 24);
        assert_eq!(find("smoke").unwrap().points(&ctx).len(), 4);
    }

    #[test]
    fn fig6_and_fig7_share_every_point() {
        let ctx = ctx();
        let fig6 = find("fig6").unwrap().points(&ctx);
        assert_eq!(fig6, find("fig7").unwrap().points(&ctx));
        let smoke = find("smoke").unwrap().points(&ctx);
        assert!(smoke.iter().all(|p| fig6.contains(p)), "smoke reuses fig6");
    }

    /// Whether no two of `points` are the same experiment.
    fn distinct(points: &[PointSpec]) -> bool {
        points
            .iter()
            .enumerate()
            .all(|(i, p)| !points[..i].contains(p))
    }

    #[test]
    fn tables_render_without_reports() {
        let ctx = ctx();
        for name in ["table1", "table2", "table3"] {
            let text = find(name).unwrap().render(&ctx, &[]);
            assert!(text.starts_with("Table"), "{name}: {text}");
            assert!(text.lines().count() > 3, "{name}");
        }
    }

    #[test]
    fn only_tables_define_data_payloads() {
        let ctx = ctx();
        for s in ALL_SUITES {
            let data = s.data(&ctx);
            if s.name.starts_with("table") {
                let doc = data.expect(s.name).render_pretty();
                assert!(doc.starts_with('{'), "{}: {doc}", s.name);
                assert!(doc.len() > 100, "{}: payload too small", s.name);
            } else {
                assert!(data.is_none(), "{} should carry reports, not data", s.name);
            }
        }
    }

    #[test]
    fn smoke_suite_runs_and_renders() {
        let ctx = ctx();
        let suite = find("smoke").unwrap();
        let reports: Vec<_> = suite
            .points(&ctx)
            .iter()
            .map(|p| p.build_machine().run())
            .collect();
        let refs: Vec<&RunReport> = reports.iter().collect();
        let text = suite.render(&ctx, &refs);
        assert!(text.contains("NUMA") && text.contains("1/1AGG75"), "{text}");
    }

    #[test]
    fn only_the_fault_suite_forces_epoch_sampling() {
        for s in ALL_SUITES {
            if s.name == "fig-fault" {
                assert_eq!(s.epoch, Some(FAULT_EPOCH));
            } else {
                assert!(s.epoch.is_none(), "{} must stay shareable", s.name);
            }
        }
    }

    #[test]
    fn fault_suite_runs_and_renders() {
        let ctx = ctx();
        let suite = find("fig-fault").unwrap();
        let points = suite.points(&ctx);
        assert_eq!(points[0].fault, None, "first scenario is the baseline");
        assert!(distinct(&points), "every point is distinct");
        let reports: Vec<_> = points.iter().map(|p| p.build_machine().run()).collect();
        let refs: Vec<&RunReport> = reports.iter().collect();
        for (p, r) in points.iter().zip(&refs) {
            assert_eq!(p.fault.is_some(), r.faults.is_some(), "{}", p.key());
            if let Some(f) = &r.faults {
                assert_eq!(f.kills, 1, "{}", p.key());
            }
        }
        let text = suite.render(&ctx, &refs);
        assert!(
            text.contains("== NUMA ==") && text.contains("kill+repl"),
            "{text}"
        );
    }

    #[test]
    fn svc_suite_runs_and_renders() {
        let ctx = ctx();
        let suite = find("fig-svc").unwrap();
        let points = suite.points(&ctx);
        assert!(distinct(&points), "every point is distinct");
        let reports: Vec<_> = points.iter().map(|p| p.build_machine().run()).collect();
        let refs: Vec<&RunReport> = reports.iter().collect();
        for (p, r) in points.iter().zip(&refs) {
            let s = r.svc.as_ref().unwrap_or_else(|| panic!("{}", p.key()));
            assert!(s.requests > 0, "{}", p.key());
            assert!(s.p99() >= s.p50(), "{}", p.key());
        }
        let text = suite.render(&ctx, &refs);
        assert!(
            text.contains("== 1/1AGG75 ==")
                && text.contains("kv-1.2")
                && text.contains("offload vs ship-to-P"),
            "{text}"
        );
    }

    #[test]
    fn fig10a_fatten_matches_the_paper_factors() {
        assert_eq!(fig10a_fatten(16), 1);
        assert_eq!(fig10a_fatten(4), 4);
        assert_eq!(fig10a_fatten(32), 1);
    }
}
