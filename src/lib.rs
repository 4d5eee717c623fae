//! Reproduction harness for *"Toward a Cost-Effective DSM Organization
//! That Exploits Processor-Memory Integration"* (HPCA 2000).
//!
//! This crate hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the library itself simply
//! re-exports the workspace crates for convenience.
//!
//! See the `pimdsm` crate for the machine API and `pimdsm-lab` for the
//! suites that regenerate every table and figure of the paper
//! (`pimdsm-lab run <suite>`).

pub use pimdsm;
pub use pimdsm_engine as engine;
pub use pimdsm_mem as mem;
pub use pimdsm_net as net;
pub use pimdsm_obs as obs;
pub use pimdsm_proto as proto;
pub use pimdsm_workloads as workloads;
