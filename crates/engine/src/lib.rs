//! Discrete-event simulation kernel for the PIM-DSM simulator.
//!
//! This crate provides the timing substrate every other crate builds on:
//!
//! - [`Cycle`] — the simulated clock (CPU cycles of the 1 GHz cores the
//!   paper models).
//! - [`EventQueue`] — a deterministic time-ordered queue with FIFO
//!   tie-breaking, used by the machine driver to schedule threads.
//! - [`Timeline`] and [`Server`] — contended resources. A [`Timeline`] is a
//!   single-server FIFO resource (a network link, a DRAM bank); a
//!   [`Server`] separates *latency* (time until the reply leaves) from
//!   *occupancy* (time until the server can accept the next request), which
//!   is exactly how the paper characterizes its software protocol handlers
//!   (Table 2).
//! - [`SimRng`] — a seeded deterministic RNG plus the distribution helpers
//!   the synthetic workloads need (Zipf, geometric).
//! - [`ArrivalGen`] — a deterministic open-loop arrival schedule for the
//!   service workloads (fixed period plus bounded seeded jitter).
//!
//! The whole simulator is single-threaded and deterministic: the same
//! configuration and seed always produce the same cycle counts.
//!
//! # Examples
//!
//! ```
//! use pimdsm_engine::{EventQueue, Timeline};
//!
//! let mut q = EventQueue::new();
//! q.push(10, "b");
//! q.push(5, "a");
//! assert_eq!(q.pop(), Some((5, "a")));
//!
//! let mut link = Timeline::new();
//! // Two back-to-back 4-cycle acquisitions contend: the second starts when
//! // the first finishes.
//! assert_eq!(link.acquire(0, 4), 0);
//! assert_eq!(link.acquire(1, 4), 4);
//! ```

pub mod arrival;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;

pub use arrival::ArrivalGen;
pub use queue::EventQueue;
pub use resource::{Server, ServerGrant, Timeline};
pub use rng::{SimRng, Zipf};
pub use stats::Histogram;

/// Simulated time, in CPU cycles of the modeled 1 GHz processors.
pub type Cycle = u64;
