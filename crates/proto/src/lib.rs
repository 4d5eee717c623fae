//! DSM cache-coherence protocols for the PIM-DSM simulator.
//!
//! Three complete memory systems, all implementing [`MemSystem`]:
//!
//! - [`AggSystem`] — the paper's proposal (Section 2): P-nodes whose tagged
//!   local memory is a huge cache, and D-nodes — identical PIM chips —
//!   running the directory protocol in *software* with the
//!   Directory/Data/Pointer-array organization of Section 2.2.2
//!   (fully-associative D-memory, FreeList/SharedList, the COMA-inspired
//!   *shared-master* state, and page-out instead of injection when
//!   neither the FreeList nor the SharedList can supply a slot).
//! - [`ComaSystem`] — a flat COMA baseline: every node's memory is an
//!   attraction memory, directory homes keep only state, and replaced
//!   master lines are *injected* into other memories (Joe & Hennessy).
//! - [`NumaSystem`] — a CC-NUMA baseline: plain home memory, on-chip
//!   directory controller whose access is overlapped with the memory
//!   access.
//!
//! All three are thin protocol walks over a shared three-layer substrate:
//!
//! 1. [`fabric`] — the per-node machinery every protocol owns one of:
//!    mesh links, first-touch page table, handler cost table, central
//!    [`ProtoStats`], tracer. It also hosts the shared *mechanisms*
//!    (handler dispatch, invalidation fan-out, first-touch
//!    placement, the disk-fault and injection events that count
//!    themselves) so the systems only encode protocol *policy*.
//! 2. [`txn`] — the transaction-walk builder. [`txn::walk`] runs one memory
//!    transaction through the machine: it lends the protocol's body a
//!    [`txn::Txn`] whose typed steps (probe, send, handler, DRAM access,
//!    fill) book the contended resource (links, protocol
//!    processors/controllers, DRAM ports), emit the matching trace event,
//!    and attribute the elapsed cycles to exactly one latency component,
//!    so the cache/network/handler/DRAM/queueing breakdown sums to the
//!    transaction's total latency (the paper's Figure 7 decomposition,
//!    machine-checked). The body returns only the satisfaction [`Level`];
//!    `walk` then finishes the `Txn` exactly once, recording its
//!    statistics and deriving its `read.remote`/`write.remote` span from
//!    that level ([`Level::is_remote`]). Nothing else can open or finish
//!    one, so every walk is accounted by construction.
//! 3. [`check`] — the coherence oracle: full-sweep directory-vs-cache
//!    assertions behind [`MemSystem::check_coherence`], and per-line
//!    checks that run after **every** transaction when the
//!    `coherence-oracle` feature is enabled.
//!
//! Every walk returns a completion cycle plus the satisfaction [`Level`]
//! and per-component breakdown used for the paper's Figure 7.

pub mod agg;
pub mod check;
pub mod coma;
pub mod common;
pub mod dnode;
pub mod fabric;
pub mod numa;
pub mod pnode;
pub mod system;
pub mod txn;

pub use agg::{AggCfg, AggSystem};
pub use check::{check_agg, check_coma, check_numa};
pub use coma::{ComaCfg, ComaSystem};
pub use common::{
    Access, AmState, CState, Census, CompactNode, ControllerKind, HandlerCosts, HandlerKind,
    LatencyCfg, Level, MsgSize, NodeId, NodeList, NodeSet, PreloadKind, ProtoStats, LAT, MSG,
};
pub use dnode::DNode;
pub use fabric::Fabric;
pub use numa::{NumaCfg, NumaSystem};
pub use pnode::{PNodeStore, PrivCaches};
pub use system::MemSystem;
