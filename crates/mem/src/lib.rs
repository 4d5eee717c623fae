//! Memory hierarchy models for the PIM-DSM simulator.
//!
//! The paper's node (Figure 1-(c)) is a PIM chip: a processor, two levels
//! of SRAM cache, a slab of on-chip DRAM, and an off-chip DRAM extension
//! reached over a dedicated high-bandwidth link. This crate models every
//! storage structure in that node:
//!
//! - [`SetAssocCache`] — generic set-associative cache with per-line
//!   payload, LRU replacement and pluggable victim-class priorities (the
//!   COMA replacement policy needs "invalid first, then shared non-master,
//!   then master").
//! - [`AttractionMemory`] — the paper's tagged local memory organized as a
//!   cache (Section 2.1.1), including the on-/off-chip residency split with
//!   exclusive line swapping at a memory-line grain, kept by an
//!   [`OnChipLru`] that NUMA nodes and AGG D-nodes share.
//! - [`Dram`] — a bandwidth-limited memory device built on a
//!   [`Timeline`](pimdsm_engine::Timeline).
//! - [`PageTable`] — first-touch page placement with per-node capacity.
//! - [`PagedMap`] — a page-chunked per-line map, the storage of every
//!   protocol directory.
//! - [`KeyedQueue`] — a keyed FIFO/LRU list, reused by [`OnChipLru`] and
//!   by the AGG D-node's FreeList/SharedList.
//!
//! Addresses are plain `u64` byte addresses; [`line_of`] and [`page_of`]
//! convert them to line/page numbers. Storage kept once per line (tag
//! entries, line-keyed queues) holds a four-byte [`CompactLine`].

pub mod addr;
pub mod attraction;
pub mod cache;
pub mod chunked_index;
pub mod dram;
pub mod keyed_queue;
pub mod paged_map;
pub mod pages;

pub use addr::{line_of, page_of, CompactLine, Line, Page};
pub use attraction::{AmInsert, AttractionMemory, OnChipLru, Residency};
pub use cache::{CacheCfg, DrainAll, Evicted, SetAssocCache};
pub use chunked_index::ChunkedIndex;
pub use dram::Dram;
pub use keyed_queue::KeyedQueue;
pub use paged_map::PagedMap;
pub use pages::PageTable;
