//! Declarative experiment orchestration for the PIM-DSM simulator.
//!
//! The lab turns the evaluation — every figure, table and ablation of the
//! paper, plus arbitrary user sweeps — into three orthogonal pieces:
//!
//! * [`spec`]: a [`PointSpec`] describes one simulation point as plain,
//!   comparable data; [`suites`] names the standard sweeps.
//! * [`exec`]: a work-stealing executor runs points on `--jobs` worker
//!   threads. Points are individually deterministic and results are
//!   ordered by position, so output bytes never depend on the job count.
//!   Within one invocation, a point that several suites list is
//!   simulated once ([`Shared`]); every invocation simulates afresh.
//! * [`mod@bench`]: repeated-run measurement of a suite (`pimdsm-lab bench`)
//!   producing schema-versioned `BENCH_<suite>.json` documents and a
//!   threshold-based regression comparator, on top of the `pimdsm-prof`
//!   counters threaded through the executor.
//!
//! The [`cli`] module is the `pimdsm-lab` binary's flag surface.

#![warn(missing_docs)]

pub mod bench;
pub mod cli;
pub mod exec;
pub mod spec;
pub mod suites;

pub use bench::{compare, measure_suite, validate_doc, BenchResult, Compared, BENCH_SCHEMA};
pub use exec::{run_sweep, Instrumentation, PointOutcome, Shared, SweepResult};
pub use spec::{Config, FaultSpec, MachineSpec, PointSpec, SpecError, Tweak, WorkloadSpec};
pub use suites::{find, Suite, SuiteCtx, ALL_SUITES};
