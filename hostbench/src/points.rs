//! The four benchmark workloads and the simulation points they run.
//!
//! A point is one workload on one machine: the application (a Table-3 app
//! or the Zipf KV service), the Figure-6 machine configuration that names
//! it, and the parameters the seed may move (memory pressure, Zipf θ, put
//! share). Seed 0 runs the nominal parameters; seed N > 0 draws each
//! point's parameters from `SimRng::new(N)` around the nominal ones, so the
//! simulator receives only the resulting workload and machine.

use pimdsm::{ArchSpec, Machine};
use pimdsm_engine::SimRng;
use pimdsm_lab::spec::{fig6_configs, reduced_ratio, Config};
use pimdsm_svc::SvcSpec;
use pimdsm_workloads::{build, AppId, Scale, Workload, ALL_APPS};

// How far a seed may move each parameter. Host times are compared across
// seeds, so every unit of work a draw adds or removes is spread in the
// end-to-end metrics; these keep that share small next to host noise while
// still giving every seed its own inputs.
/// Largest seed-drawn pressure offset, in percentage points.
const PRESSURE_JITTER: u32 = 1;
/// Largest seed-drawn Zipf θ offset, in thousandths.
const THETA_JITTER: u32 = 25;
/// Largest seed-drawn put-share offset, in percentage points.
const PUT_JITTER: u32 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// The seven apps on 1/1AGG and the reduced-D AGG at 25/50/75%.
    Fig6Agg,
    /// The seven apps on NUMA, COMA25 and COMA75.
    Fig6Baselines,
    /// Closed-loop Zipf KV with 5% puts.
    KvGet,
    /// Closed-loop Zipf KV with 50% puts.
    KvPut,
}

impl BenchWorkload {
    /// Every workload, in report order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::Fig6Agg,
        BenchWorkload::Fig6Baselines,
        BenchWorkload::KvGet,
        BenchWorkload::KvPut,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::Fig6Agg => "fig6-agg",
            BenchWorkload::Fig6Baselines => "fig6-baselines",
            BenchWorkload::KvGet => "kv-get",
            BenchWorkload::KvPut => "kv-put",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<BenchWorkload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's points for `threads` application threads at `scale`,
    /// with parameters drawn from `seed`.
    pub fn points(self, threads: usize, scale: Scale, seed: u64) -> Vec<Point> {
        let mut draw = Draw::new(seed);
        let mut out = Vec::new();
        let mut push = |app: App, config: Config| {
            let nominal_pct = (config.pressure() * 100.0).round() as u32;
            let pressure_pct = draw.around(nominal_pct, PRESSURE_JITTER);
            let theta = draw.around(app.theta_milli(), THETA_JITTER);
            let puts = draw.around(app.put_pct(), PUT_JITTER);
            out.push(Point {
                app: app.with_kv(theta, puts),
                nominal: app,
                config,
                pressure_pct,
                threads,
                scale,
            });
        };
        match self {
            BenchWorkload::Fig6Agg => {
                for app in ALL_APPS {
                    for ratio in [1, reduced_ratio(app)] {
                        for pressure_pct in [25, 50, 75] {
                            push(
                                App::Paper(app),
                                Config::Agg {
                                    ratio,
                                    pressure_pct,
                                },
                            );
                        }
                    }
                }
            }
            BenchWorkload::Fig6Baselines => {
                for app in ALL_APPS {
                    for config in fig6_configs(app) {
                        if matches!(config, Config::Numa | Config::Coma { .. }) {
                            push(App::Paper(app), config);
                        }
                    }
                }
            }
            BenchWorkload::KvGet | BenchWorkload::KvPut => {
                let put_pct = if self == BenchWorkload::KvGet { 5 } else { 50 };
                for theta_milli in [600, 1200] {
                    for config in [
                        Config::Numa,
                        Config::Coma { pressure_pct: 75 },
                        Config::Agg {
                            ratio: 1,
                            pressure_pct: 75,
                        },
                        Config::Agg {
                            ratio: 4,
                            pressure_pct: 75,
                        },
                    ] {
                        push(
                            App::Kv {
                                theta_milli,
                                put_pct,
                            },
                            config,
                        );
                    }
                }
            }
        }
        out
    }
}

/// Seed-driven parameter draws; seed 0 draws nothing.
struct Draw(Option<SimRng>);

impl Draw {
    fn new(seed: u64) -> Draw {
        Draw((seed != 0).then(|| SimRng::new(seed)))
    }

    /// `nominal` ± up to `spread`. Every point draws every parameter, so
    /// the draws of later points do not depend on earlier points' kinds.
    fn around(&mut self, nominal: u32, spread: u32) -> u32 {
        match &mut self.0 {
            None => nominal,
            Some(rng) => {
                let offset = rng.range(0, 2 * u64::from(spread) + 1) as u32;
                (nominal + offset).saturating_sub(spread)
            }
        }
    }
}

/// The application a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// A Table-3 application.
    Paper(AppId),
    /// The closed-loop Zipf KV service.
    Kv {
        /// Zipf exponent θ in thousandths.
        theta_milli: u32,
        /// Percentage of requests that are puts.
        put_pct: u32,
    },
}

impl App {
    fn theta_milli(self) -> u32 {
        match self {
            App::Kv { theta_milli, .. } => theta_milli,
            App::Paper(_) => 0,
        }
    }

    fn put_pct(self) -> u32 {
        match self {
            App::Kv { put_pct, .. } => put_pct,
            App::Paper(_) => 0,
        }
    }

    fn with_kv(self, theta_milli: u32, put_pct: u32) -> App {
        match self {
            App::Kv { .. } => App::Kv {
                theta_milli,
                put_pct,
            },
            paper => paper,
        }
    }

    fn name(self) -> &'static str {
        match self {
            App::Paper(app) => app.name(),
            App::Kv { .. } => "KV",
        }
    }
}

/// One simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The application with the parameters the seed drew.
    pub app: App,
    /// The application with its nominal parameters (names the point).
    pub nominal: App,
    /// The Figure-6 machine configuration (names the point and the
    /// architecture; its own pressure is the nominal one).
    pub config: Config,
    /// Memory pressure the machine is sized for, percent.
    pub pressure_pct: u32,
    /// Application threads.
    pub threads: usize,
    /// Problem-size scaling.
    pub scale: Scale,
}

impl Point {
    /// The report label: the configuration, plus the nominal θ for KV.
    pub fn label(&self) -> String {
        match self.nominal {
            App::Paper(_) => self.config.label(),
            App::Kv { theta_milli, .. } => {
                format!(
                    "{} kv-{}",
                    self.config.label(),
                    f64::from(theta_milli) / 1000.0
                )
            }
        }
    }

    /// `"APP:LABEL"`, unique within a workload.
    pub fn key(&self) -> String {
        format!("{}:{}", self.app.name(), self.label())
    }

    /// Memory pressure as a fraction.
    pub fn pressure(&self) -> f64 {
        f64::from(self.pressure_pct) / 100.0
    }

    /// The architecture the configuration names.
    pub fn arch(&self) -> ArchSpec {
        match self.config {
            Config::Numa => ArchSpec::Numa,
            Config::Coma { .. } => ArchSpec::Coma,
            Config::Agg { ratio, .. } => ArchSpec::Agg {
                n_d: (self.threads / ratio).max(1),
            },
        }
    }

    /// Builds the point's workload (`pimdsm_workloads::build` or
    /// `SvcSpec::build`).
    pub fn build_workload(&self) -> Box<dyn Workload> {
        match self.app {
            App::Paper(app) => build(app, self.threads, self.scale),
            App::Kv {
                theta_milli,
                put_pct,
            } => SvcSpec::Kv {
                threads: self.threads,
                theta_milli,
                write_pct: put_pct,
                open_loop: false,
            }
            .build(self.scale),
        }
    }

    /// Builds the point's machine around `workload` (`Machine::build`).
    pub fn build_machine(&self, workload: Box<dyn Workload>) -> Machine {
        Machine::build(self.arch(), workload, self.pressure()).with_label(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_counts_match_the_workload_definitions() {
        let n = |w: BenchWorkload| w.points(32, Scale::bench(), 0).len();
        assert_eq!(n(BenchWorkload::Fig6Agg), 42);
        assert_eq!(n(BenchWorkload::Fig6Baselines), 21);
        assert_eq!(n(BenchWorkload::KvGet), 8);
        assert_eq!(n(BenchWorkload::KvPut), 8);
    }

    #[test]
    fn keys_are_unique_within_a_workload() {
        for w in BenchWorkload::ALL {
            let pts = w.points(32, Scale::bench(), 0);
            let mut keys: Vec<String> = pts.iter().map(Point::key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), pts.len(), "{}", w.name());
        }
    }

    #[test]
    fn draws_stay_within_their_spreads() {
        for seed in 1..20 {
            for p in BenchWorkload::KvPut.points(32, Scale::bench(), seed) {
                assert!(p.pressure_pct.abs_diff(75) <= PRESSURE_JITTER);
                let App::Kv {
                    theta_milli,
                    put_pct,
                } = p.app
                else {
                    panic!("kv-put runs KV");
                };
                assert!(theta_milli.abs_diff(p.nominal.theta_milli()) <= THETA_JITTER);
                assert!(put_pct.abs_diff(50) <= PUT_JITTER);
            }
        }
    }
}
