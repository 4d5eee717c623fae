//! Wormhole-routed 2D-mesh interconnect model.
//!
//! The paper's machines use a wormhole-routed 2D mesh with 2-byte-wide,
//! 1 GHz links (2 GB/s per link per direction) for AGG; the NUMA and COMA
//! baselines get double-width links so that bisection bandwidth matches an
//! AGG machine with the same number of P- as D-nodes (Section 3).
//!
//! [`Network`] models each *directed* link as a contended
//! [`Timeline`](pimdsm_engine::Timeline): a message books every link on its
//! XY route for its serialization time, pipelining the head flit at a fixed
//! per-hop router latency. This captures both the distance term and the
//! queueing term ("all contention in the system is modeled") without
//! simulating individual flits.

pub mod mesh;
pub mod network;

pub use mesh::{Coord, Mesh};
pub use network::{NetCfg, NetStats, Network, EJECT_LATENCY, HOP_LATENCY, INJECT_LATENCY};
