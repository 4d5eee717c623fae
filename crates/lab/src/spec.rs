//! The declarative experiment model.
//!
//! A [`PointSpec`] fully describes **one** simulation point — which
//! workload, on which machine, at which scale — as plain data: no
//! closures, no floats with ambiguous text forms, nothing that cannot be
//! serialized into the stable *canonical string* the result cache hashes.
//! Every machine variation the evaluation needs (the paper's seven
//! Figure 6 configurations, Figure 9's explicit sizing, Figure 10-(a)'s
//! fattened reconfigurable nodes, and all four ablation knobs) is a
//! [`MachineSpec`]/[`Tweak`] variant, so adding a new sweep is adding
//! data, not code.

use pimdsm::{ArchSpec, Machine, ReconfigPlan};
use pimdsm_faults::{Durability, FaultPlan};
use pimdsm_mem::CacheCfg;
use pimdsm_proto::{AggSystem, NodeSet};
use pimdsm_svc::SvcSpec;
use pimdsm_workloads::{build, build_dbase, AppId, Scale};

/// The machine configurations of Figure 6, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// CC-NUMA (pressure only sizes memory; NUMA bars are
    /// pressure-insensitive in the paper and plotted once).
    Numa,
    /// Flat COMA at `pressure_pct`% memory pressure.
    Coma {
        /// Memory pressure, percent (25 / 75).
        pressure_pct: u32,
    },
    /// AGG with a D:P ratio of `1/ratio` at `pressure_pct`%.
    Agg {
        /// P-nodes per D-node (1, 2 or 4).
        ratio: usize,
        /// Memory pressure, percent (25 / 75).
        pressure_pct: u32,
    },
}

impl Config {
    /// Label in the paper's style ("1/4AGG75", "COMA25", "NUMA").
    pub fn label(&self) -> String {
        match self {
            Config::Numa => "NUMA".to_string(),
            Config::Coma { pressure_pct } => format!("COMA{pressure_pct}"),
            Config::Agg {
                ratio,
                pressure_pct,
            } => format!("1/{ratio}AGG{pressure_pct}"),
        }
    }

    /// Memory pressure used for sizing.
    pub fn pressure(&self) -> f64 {
        match self {
            Config::Numa => 0.75,
            Config::Coma { pressure_pct } | Config::Agg { pressure_pct, .. } => {
                *pressure_pct as f64 / 100.0
            }
        }
    }

    fn canonical(&self) -> String {
        match self {
            Config::Numa => "numa".to_string(),
            Config::Coma { pressure_pct } => format!("coma:press={pressure_pct}"),
            Config::Agg {
                ratio,
                pressure_pct,
            } => format!("agg:ratio={ratio}:press={pressure_pct}"),
        }
    }
}

/// Which workload a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A catalog application with `threads` application threads.
    App {
        /// Application.
        app: AppId,
        /// Thread count.
        threads: usize,
    },
    /// The Dbase model with distinct phase thread counts and optional
    /// computation-in-memory offload (Figures 10-(a)/(b)).
    Dbase {
        /// Hash-phase threads.
        hash_threads: usize,
        /// Join-phase threads.
        join_threads: usize,
        /// Run the select scans on the D-node processors.
        offload: bool,
    },
    /// A service workload (KV serving, graph analytics, streaming scans)
    /// from the `pimdsm-svc` subsystem.
    Svc(SvcSpec),
}

impl WorkloadSpec {
    fn canonical(&self) -> String {
        match self {
            WorkloadSpec::App { app, threads } => {
                format!("app={}:threads={threads}", app.name())
            }
            WorkloadSpec::Dbase {
                hash_threads,
                join_threads,
                offload,
            } => format!("dbase:hash={hash_threads}:join={join_threads}:offload={offload}"),
            WorkloadSpec::Svc(s) => format!("svc:{}", s.canonical()),
        }
    }

    /// Display name of the application.
    pub fn app_name(&self) -> &'static str {
        match self {
            WorkloadSpec::App { app, .. } => app.name(),
            WorkloadSpec::Dbase { .. } => "Dbase",
            WorkloadSpec::Svc(s) => s.name(),
        }
    }
}

/// A configuration adjustment applied to the standard AGG sizing by the
/// ablation suites.
///
/// All quantities are integers (percent, per-mille, factors) so the
/// canonical cache key never formats a float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tweak {
    /// No adjustment.
    None,
    /// Figure 10-(a): every D-capable node carries `factor`× the per-node
    /// Data/on-chip capacity so the machine can repartition without
    /// overflowing the surviving directories (the paper's "fatter"
    /// memory, Fig. 2-(b)).
    FattenDnode {
        /// Capacity multiplier.
        factor: u64,
    },
    /// Scale the software handler cost table by `milli`/1000.
    HandlerScale {
        /// Scale factor in thousandths (700 = the paper's hardware 0.7×).
        milli: u32,
    },
    /// Set the on-chip fraction of P-node local memory to `pct`%.
    OnchipPct {
        /// Percent of the attraction memory resident on chip.
        pct: u64,
    },
    /// Reorganize the P-node attraction memory.
    AmOrg {
        /// Set associativity.
        ways: u32,
        /// Hash the set index.
        hashed: bool,
    },
    /// Enable/disable SharedList reclamation.
    SharedList {
        /// Whether the SharedList may be reclaimed.
        reuse: bool,
    },
}

impl Tweak {
    fn canonical(&self) -> String {
        match self {
            Tweak::None => "none".to_string(),
            Tweak::FattenDnode { factor } => format!("fatten={factor}"),
            Tweak::HandlerScale { milli } => format!("handler={milli}m"),
            Tweak::OnchipPct { pct } => format!("onchip={pct}%"),
            Tweak::AmOrg { ways, hashed } => format!("am={ways}w:hashed={hashed}"),
            Tweak::SharedList { reuse } => format!("sharedlist={reuse}"),
        }
    }

    /// Applies the adjustment to a resolved AGG configuration.
    pub fn apply(&self, cfg: &mut pimdsm_proto::AggCfg) {
        match *self {
            Tweak::None => {}
            Tweak::FattenDnode { factor } => {
                cfg.dnode.data_lines *= factor;
                cfg.dnode.onchip_lines *= factor;
            }
            Tweak::HandlerScale { milli } => {
                cfg.handler = cfg.handler.scaled(milli as f64 / 1000.0);
            }
            Tweak::OnchipPct { pct } => {
                cfg.p_onchip_lines = cfg.p_am.capacity_lines() * pct / 100;
            }
            Tweak::AmOrg { ways, hashed } => {
                let lines = cfg.p_am.capacity_lines();
                let rounded = lines.div_ceil(ways as u64) * ways as u64;
                let mut am = CacheCfg::new(rounded * 64, ways, 6);
                if hashed {
                    am = am.with_hashed_index();
                }
                cfg.p_am = am;
                cfg.p_onchip_lines = rounded / 2;
            }
            Tweak::SharedList { reuse } => {
                cfg.dnode.reuse_shared_list = reuse;
            }
        }
    }
}

/// Which machine a point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpec {
    /// One of the standard Figure 6 configurations.
    Arch(Config),
    /// AGG with explicit per-node memory sizing (Figure 9 keeps total
    /// D-memory fixed while node counts vary).
    AggExplicit {
        /// D-node count.
        n_d: usize,
        /// Lines of tagged local memory per P-node.
        p_am_lines: u64,
        /// Data-array lines per D-node.
        d_data_lines: u64,
        /// Memory pressure, percent.
        pressure_pct: u32,
    },
    /// AGG with a [`Tweak`] applied after standard sizing, optionally
    /// carrying a dynamic-reconfiguration plan (Figure 10-(a)).
    CustomAgg {
        /// D-node count.
        n_d: usize,
        /// Memory pressure, percent.
        pressure_pct: u32,
        /// Configuration adjustment.
        tweak: Tweak,
        /// `(target_p, target_d)` for [`ReconfigPlan::paper`], if the run
        /// reconfigures dynamically.
        reconfig: Option<(usize, usize)>,
    },
}

impl MachineSpec {
    fn canonical(&self) -> String {
        match self {
            MachineSpec::Arch(c) => format!("arch:{}", c.canonical()),
            MachineSpec::AggExplicit {
                n_d,
                p_am_lines,
                d_data_lines,
                pressure_pct,
            } => format!("aggx:d={n_d}:pam={p_am_lines}:ddata={d_data_lines}:press={pressure_pct}"),
            MachineSpec::CustomAgg {
                n_d,
                pressure_pct,
                tweak,
                reconfig,
            } => {
                let rc = match reconfig {
                    Some((p, d)) => format!("{p}p{d}d"),
                    None => "none".to_string(),
                };
                format!(
                    "custom:d={n_d}:press={pressure_pct}:tweak={}:reconfig={rc}",
                    tweak.canonical()
                )
            }
        }
    }
}

/// A declarative fault scenario attached to a point: kill one node at a
/// fixed cycle, optionally bring it back, under a durability policy.
///
/// This is deliberately a narrow slice of [`FaultPlan`] — the slice the
/// `fig-fault` suite sweeps — kept as plain integers so it serializes
/// into the canonical cache key like every other spec field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Node to kill.
    pub kill_node: usize,
    /// Cycle at (or after) which the kill fires.
    pub kill_cycle: u64,
    /// Cycles after the kill at which the node rejoins, if it does.
    pub rejoin_after: Option<u64>,
    /// Durability policy charged for lost work.
    pub durability: Durability,
}

impl FaultSpec {
    fn canonical(&self) -> String {
        let rejoin = match self.rejoin_after {
            Some(d) => format!("+{d}"),
            None => "never".to_string(),
        };
        let dur = match self.durability {
            Durability::None => "none".to_string(),
            Durability::Checkpoint { interval } => format!("ckpt={interval}"),
            Durability::Replication => "repl".to_string(),
        };
        format!(
            "kill={}@{}:rejoin={rejoin}:dur={dur}",
            self.kill_node, self.kill_cycle
        )
    }

    /// Expands the spec into the runnable [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new()
            .kill_at(self.kill_node, self.kill_cycle)
            .with_durability(self.durability);
        if let Some(after) = self.rejoin_after {
            plan = plan.rejoin_at(self.kill_node, self.kill_cycle + after);
        }
        plan
    }
}

/// Why a [`PointSpec`] cannot be built, found before any point runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The machine has more nodes than a directory node set can name.
    TooManyNodes {
        /// The point's [`PointSpec::key`].
        point: String,
        /// Its P-nodes plus D-nodes.
        nodes: usize,
    },
    /// The fault scenario kills a node the machine does not have.
    NoSuchNode {
        /// The point's [`PointSpec::key`].
        point: String,
        /// The victim.
        node: usize,
        /// Its P-nodes plus D-nodes.
        nodes: usize,
    },
    /// The fault scenario kills the machine's last compute node.
    LastComputeNode {
        /// The point's [`PointSpec::key`].
        point: String,
        /// The victim.
        node: usize,
    },
    /// The fault scenario kills the AGG machine's only D-node.
    LastDNode {
        /// The point's [`PointSpec::key`].
        point: String,
        /// The victim.
        node: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::TooManyNodes { point, nodes } => write!(
                f,
                "point {point} needs {nodes} nodes (P-nodes plus D-nodes), \
                 past the {}-node limit",
                NodeSet::MAX_NODES
            ),
            SpecError::NoSuchNode { point, node, nodes } => write!(
                f,
                "point {point} kills node {node}, but its machine has {nodes} node(s)"
            ),
            SpecError::LastComputeNode { point, node } => write!(
                f,
                "point {point} kills node {node}, which would leave no compute node"
            ),
            SpecError::LastDNode { point, node } => write!(
                f,
                "point {point} kills node {node}, which would leave no D-node"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// One fully-specified simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Workload to run.
    pub workload: WorkloadSpec,
    /// Machine to run it on.
    pub machine: MachineSpec,
    /// Problem-size scaling.
    pub scale: Scale,
    /// Fault scenario injected into the run, if any.
    pub fault: Option<FaultSpec>,
    /// Display label attached to the run (part of the report, hence part
    /// of the cache key).
    pub label: String,
}

impl PointSpec {
    /// `"APP:LABEL"` — the key `--trace-only` filters match against.
    pub fn key(&self) -> String {
        format!("{}:{}", self.workload.app_name(), self.label)
    }

    /// The stable canonical form hashed into the cache key. Two specs
    /// producing the same canonical string are the same experiment.
    ///
    /// The `|fault=` segment is appended only when a fault scenario is
    /// attached, so every pre-existing fault-free key is byte-identical
    /// to what earlier versions produced and warm caches stay warm.
    pub fn canonical(&self) -> String {
        let mut c = format!(
            "v1|workload={}|machine={}|scale={}/{}|label={}",
            self.workload.canonical(),
            self.machine.canonical(),
            self.scale.size_div,
            self.scale.iter_div,
            self.label,
        );
        if let Some(f) = &self.fault {
            c.push_str("|fault=");
            c.push_str(&f.canonical());
        }
        c
    }

    /// Threads that get a P-node when the machine starts: the Dbase
    /// join-only threads begin life as D-nodes.
    fn start_threads(&self) -> usize {
        match self.workload {
            WorkloadSpec::App { threads, .. } => threads,
            WorkloadSpec::Dbase { hash_threads, .. } => hash_threads,
            WorkloadSpec::Svc(s) => s.threads(),
        }
    }

    /// D-nodes the machine starts with (none on NUMA and COMA).
    fn d_nodes(&self) -> usize {
        match self.machine {
            MachineSpec::Arch(Config::Numa | Config::Coma { .. }) => 0,
            MachineSpec::Arch(Config::Agg { ratio, .. }) => (self.start_threads() / ratio).max(1),
            MachineSpec::AggExplicit { n_d, .. } | MachineSpec::CustomAgg { n_d, .. } => n_d,
        }
    }

    /// The machine's node count: P-nodes plus D-nodes.
    fn nodes(&self) -> usize {
        self.start_threads() + self.d_nodes()
    }

    /// Checks that the point's machine can be built and can survive its
    /// fault scenario, so a bad shape or kill is rejected before any point
    /// runs instead of by an `assert!` or a panic in the middle of a sweep.
    pub fn validate(&self) -> Result<(), SpecError> {
        let nodes = self.nodes();
        if nodes > NodeSet::MAX_NODES {
            return Err(SpecError::TooManyNodes {
                point: self.key(),
                nodes,
            });
        }
        match self.fault {
            Some(f) => self.check_kill(f.kill_node),
            None => Ok(()),
        }
    }

    /// Checks that the machine can lose `node`: it must exist, and the
    /// survivors must keep a compute node and, on AGG, a D-node. Every
    /// NUMA and COMA node computes; AGG's roles are the ones
    /// [`AggSystem::new`] lays out, and killing an AGG P-node drafts a
    /// D-node into compute duty when there are at least two.
    fn check_kill(&self, node: usize) -> Result<(), SpecError> {
        let (p, d) = (self.start_threads(), self.d_nodes());
        let point = self.key();
        if node >= p + d {
            return Err(SpecError::NoSuchNode {
                point,
                node,
                nodes: p + d,
            });
        }
        let victim_is_d = d > 0 && AggSystem::d_slots(p, d)[node];
        if victim_is_d && d == 1 {
            Err(SpecError::LastDNode { point, node })
        } else if !victim_is_d && p == 1 && d < 2 {
            Err(SpecError::LastComputeNode { point, node })
        } else {
            Ok(())
        }
    }

    /// Builds the (not yet run) machine this point describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (e.g. a reconfiguration plan on
    /// a workload without a reconfiguration point) — suite constructors
    /// are expected to produce valid specs.
    pub fn build_machine(&self) -> Machine {
        let workload = match self.workload {
            WorkloadSpec::App { app, threads } => build(app, threads, self.scale),
            WorkloadSpec::Dbase {
                hash_threads,
                join_threads,
                offload,
            } => build_dbase(hash_threads, join_threads, self.scale, offload),
            WorkloadSpec::Svc(s) => s.build(self.scale),
        };
        let machine = match self.machine {
            MachineSpec::Arch(config) => {
                let spec = match config {
                    Config::Numa => ArchSpec::Numa,
                    Config::Coma { .. } => ArchSpec::Coma,
                    Config::Agg { .. } => ArchSpec::Agg {
                        n_d: self.d_nodes(),
                    },
                };
                Machine::build(spec, workload, config.pressure())
            }
            MachineSpec::AggExplicit {
                n_d,
                p_am_lines,
                d_data_lines,
                pressure_pct,
            } => Machine::build(
                ArchSpec::AggExplicit {
                    n_d,
                    p_am_lines,
                    d_data_lines,
                },
                workload,
                pressure_pct as f64 / 100.0,
            ),
            MachineSpec::CustomAgg {
                n_d,
                pressure_pct,
                tweak,
                reconfig,
            } => {
                let mut m =
                    Machine::build_custom_agg(workload, pressure_pct as f64 / 100.0, n_d, |cfg| {
                        tweak.apply(cfg)
                    });
                if let Some((p, d)) = reconfig {
                    m.set_reconfig(ReconfigPlan::paper(p, d))
                        .unwrap_or_else(|e| panic!("{e}"));
                }
                m
            }
        };
        let mut machine = machine.with_label(self.label.clone());
        if let Some(f) = &self.fault {
            machine.set_faults(f.plan());
        }
        machine
    }
}

/// The per-app AGG reduced-D ratio of Figure 6 (1/2 for the apps that
/// stress D-nodes, 1/4 otherwise).
pub fn reduced_ratio(app: AppId) -> usize {
    if app.wants_half_ratio() {
        2
    } else {
        4
    }
}

/// The seven machine configurations of Figure 6 for one application, in
/// presentation order: NUMA, COMA at 25/75% pressure, 1/1AGG at 25/75%,
/// and the app's reduced-D AGG at 25/75%.
pub fn fig6_configs(app: AppId) -> Vec<Config> {
    let r = reduced_ratio(app);
    vec![
        Config::Numa,
        Config::Coma { pressure_pct: 25 },
        Config::Coma { pressure_pct: 75 },
        Config::Agg {
            ratio: 1,
            pressure_pct: 25,
        },
        Config::Agg {
            ratio: 1,
            pressure_pct: 75,
        },
        Config::Agg {
            ratio: r,
            pressure_pct: 25,
        },
        Config::Agg {
            ratio: r,
            pressure_pct: 75,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> PointSpec {
        PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Fft,
                threads: 4,
            },
            machine: MachineSpec::Arch(Config::Agg {
                ratio: 2,
                pressure_pct: 75,
            }),
            scale: Scale::ci(),
            fault: None,
            label: "1/2AGG75".into(),
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(Config::Numa.label(), "NUMA");
        assert_eq!(Config::Coma { pressure_pct: 25 }.label(), "COMA25");
        assert_eq!(
            Config::Agg {
                ratio: 4,
                pressure_pct: 75
            }
            .label(),
            "1/4AGG75"
        );
    }

    #[test]
    fn reduced_ratios_follow_table() {
        assert_eq!(reduced_ratio(AppId::Fft), 2);
        assert_eq!(reduced_ratio(AppId::Radix), 2);
        assert_eq!(reduced_ratio(AppId::Ocean), 2);
        assert_eq!(reduced_ratio(AppId::Barnes), 4);
        assert_eq!(reduced_ratio(AppId::Dbase), 4);
    }

    #[test]
    fn canonical_distinguishes_every_field() {
        let base = point();
        let mut other = base.clone();
        other.label = "X".into();
        assert_ne!(base.canonical(), other.canonical());

        let mut other = base.clone();
        other.scale = Scale::bench();
        assert_ne!(base.canonical(), other.canonical());

        let mut other = base.clone();
        other.workload = WorkloadSpec::App {
            app: AppId::Ocean,
            threads: 4,
        };
        assert_ne!(base.canonical(), other.canonical());

        let mut other = base.clone();
        other.machine = MachineSpec::Arch(Config::Agg {
            ratio: 2,
            pressure_pct: 25,
        });
        assert_ne!(base.canonical(), other.canonical());

        let mut other = base.clone();
        other.fault = Some(FaultSpec {
            kill_node: 1,
            kill_cycle: 20_000,
            rejoin_after: None,
            durability: Durability::None,
        });
        assert_ne!(base.canonical(), other.canonical());
        let mut third = other.clone();
        third.fault.as_mut().unwrap().durability = Durability::Checkpoint { interval: 5_000 };
        assert_ne!(other.canonical(), third.canonical());
    }

    #[test]
    fn svc_workloads_carry_their_own_canonical_namespace() {
        let mut p = point();
        p.workload = WorkloadSpec::Svc(SvcSpec::Kv {
            threads: 4,
            theta_milli: 900,
            write_pct: 10,
            open_loop: false,
        });
        assert_eq!(p.workload.app_name(), "KV");
        assert!(
            p.canonical().contains("workload=svc:kv:threads=4"),
            "{}",
            p.canonical()
        );
        assert_ne!(p.canonical(), point().canonical());
        let r = p.build_machine().run();
        let s = r.svc.expect("service run reports svc stats");
        assert!(s.requests > 0);
    }

    #[test]
    fn fault_free_canonical_has_no_fault_segment() {
        // Old cache entries must stay addressable: a point without a
        // fault renders the exact pre-fault key shape.
        assert!(!point().canonical().contains("fault="));
    }

    #[test]
    fn faulted_point_runs_and_reports_recovery() {
        let mut p = point();
        p.fault = Some(FaultSpec {
            kill_node: 1,
            kill_cycle: 5_000,
            rejoin_after: Some(20_000),
            durability: Durability::Replication,
        });
        let r = p.build_machine().run();
        let rs = r.faults.expect("faulted run carries recovery stats");
        assert_eq!(rs.kills, 1);
        assert_eq!(rs.rejoins, 1);
    }

    #[test]
    fn canonical_is_stable_across_clones() {
        assert_eq!(point().canonical(), point().clone().canonical());
    }

    #[test]
    fn point_runs_end_to_end() {
        let r = point().build_machine().run();
        assert_eq!(r.arch, "AGG");
        assert_eq!(r.label, "1/2AGG75");
        assert!(r.total_cycles > 0);
    }

    /// Every suite point at `threads` threads (CI scale).
    fn suite_points(threads: usize) -> Vec<PointSpec> {
        let ctx = crate::SuiteCtx {
            threads,
            scale: Scale::ci(),
        };
        crate::ALL_SUITES
            .iter()
            .flat_map(|s| s.points(&ctx))
            .collect()
    }

    #[test]
    fn machines_past_64_nodes_are_rejected_by_name() {
        let agg = suite_points(33)
            .into_iter()
            .find(|p| p.key() == "FFT:1/1AGG75")
            .expect("fig6 has FFT:1/1AGG75");
        assert_eq!(
            agg.validate(),
            Err(SpecError::TooManyNodes {
                point: "FFT:1/1AGG75".into(),
                nodes: 66,
            })
        );
        let numa = suite_points(65)
            .into_iter()
            .find(|p| p.key() == "FFT:NUMA")
            .expect("fig6 has FFT:NUMA");
        let err = numa.validate().expect_err("65 P-nodes");
        assert_eq!(
            err.to_string(),
            "point FFT:NUMA needs 65 nodes (P-nodes plus D-nodes), past the 64-node limit"
        );
    }

    #[test]
    fn every_suite_point_fits_at_the_default_32_threads() {
        let points = suite_points(32);
        assert!(points.iter().all(|p| p.validate().is_ok()));
        let widest = points.iter().map(PointSpec::nodes).max();
        assert_eq!(widest, Some(64), "1/1AGG: 32 P-nodes + 32 D-nodes");
    }

    #[test]
    fn fault_kills_the_machine_cannot_survive_are_rejected_by_name() {
        let fault_points = |threads| {
            let ctx = crate::SuiteCtx {
                threads,
                scale: Scale::ci(),
            };
            crate::find("fig-fault").unwrap().points(&ctx)
        };
        // One thread: node 1 does not exist on NUMA or COMA, and it is
        // 1/1AGG's only D-node.
        let errors: Vec<_> = fault_points(1)
            .iter()
            .filter_map(|p| p.validate().err())
            .collect();
        assert_eq!(errors.len(), 12, "every kill point at one thread");
        assert_eq!(
            errors[0],
            SpecError::NoSuchNode {
                point: "Radix:NUMA kill".into(),
                node: 1,
                nodes: 1,
            }
        );
        assert_eq!(
            errors[0].to_string(),
            "point Radix:NUMA kill kills node 1, but its machine has 1 node(s)"
        );
        assert_eq!(
            errors[8],
            SpecError::LastDNode {
                point: "Radix:1/1AGG75 kill".into(),
                node: 1,
            }
        );
        for threads in [2, 32] {
            for p in fault_points(threads) {
                assert_eq!(p.validate(), Ok(()), "{} at {threads}", p.key());
            }
        }
    }

    #[test]
    fn killing_the_last_compute_node_is_rejected() {
        let mut p = point();
        p.fault = Some(FaultSpec {
            kill_node: 0,
            kill_cycle: 5_000,
            rejoin_after: None,
            durability: Durability::None,
        });
        p.workload = WorkloadSpec::App {
            app: AppId::Fft,
            threads: 1,
        };
        p.machine = MachineSpec::Arch(Config::Numa);
        p.label = "solo".into();
        let lone = SpecError::LastComputeNode {
            point: "FFT:solo".into(),
            node: 0,
        };
        assert_eq!(p.validate(), Err(lone.clone()));
        // 1/1AGG: node 0 is the P-node, node 1 the D-node.
        p.machine = MachineSpec::Arch(Config::Agg {
            ratio: 1,
            pressure_pct: 75,
        });
        assert_eq!(p.validate(), Err(lone));
        // With two D-nodes the kill drafts one into compute duty.
        p.machine = MachineSpec::CustomAgg {
            n_d: 2,
            pressure_pct: 75,
            tweak: Tweak::None,
            reconfig: None,
        };
        assert_eq!(AggSystem::d_slots(1, 2), [true, false, true]);
        p.fault.as_mut().unwrap().kill_node = 1;
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn key_matches_trace_filter_shape() {
        assert_eq!(point().key(), "FFT:1/2AGG75");
    }
}
