//! First-touch page placement.
//!
//! All three architectures in the paper allocate pages with a first-touch
//! policy: the first node to reference a page becomes (or chooses) its
//! home. The page table records the home node of every mapped page; homes
//! can later be reassigned (D-node reconfiguration moves the pages an
//! ex-D-node was serving) or unmapped (paged out to disk).

use std::collections::BTreeMap;

use crate::addr::Page;
use crate::chunked_index::ChunkedIndex;
// The chunk-boundary test below straddles the index's dense chunks.
#[cfg(test)]
use crate::chunked_index::CHUNK;

/// Node index within the machine.
pub type NodeId = usize;

/// A page-number → home-node map with first-touch assignment.
///
/// Homes live in a [`ChunkedIndex`]: workload layouts bump-allocate the
/// address space from page 1, so page numbers are dense and a home
/// lookup — one per simulated memory access — is two indexations instead
/// of a `BTreeMap` walk. Every sweep (`pages_homed_at`,
/// `iter_deterministic`, `evacuate`) visits pages in ascending order: the
/// simulator's bit-determinism depends on that order, because
/// reconfiguration and recovery migrations replay it into simulated
/// time.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::{page_of, PageTable};
///
/// let mut pt = PageTable::new();
/// let home = pt.home_or_assign(page_of(0x5000), || 3);
/// assert_eq!(home, 3);
/// // Subsequent touches see the established home.
/// assert_eq!(pt.home_or_assign(page_of(0x5000), || 9), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    homes: ChunkedIndex,
    per_node: BTreeMap<NodeId, u64>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Home of `page`, if mapped.
    pub fn home(&self, page: Page) -> Option<NodeId> {
        self.homes.get(page).map(|h| h as NodeId)
    }

    /// Home of `page`, assigning it via `assign` on first touch.
    pub fn home_or_assign(&mut self, page: Page, assign: impl FnOnce() -> NodeId) -> NodeId {
        if let Some(h) = self.home(page) {
            return h;
        }
        let h = assign();
        self.homes.insert(page, h as u32);
        *self.per_node.entry(h).or_insert(0) += 1;
        h
    }

    /// Moves `page` to a new home. Returns the old home.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn reassign(&mut self, page: Page, new_home: NodeId) -> NodeId {
        let old = self.home(page).expect("cannot reassign an unmapped page");
        self.homes.insert(page, new_home as u32);
        if let Some(c) = self.per_node.get_mut(&old) {
            *c -= 1;
        }
        *self.per_node.entry(new_home).or_insert(0) += 1;
        old
    }

    /// Unmaps `page` (paged out to disk). Returns its home, if it was
    /// mapped.
    pub fn unmap(&mut self, page: Page) -> Option<NodeId> {
        let home = self.homes.remove(page)? as NodeId;
        if let Some(c) = self.per_node.get_mut(&home) {
            *c -= 1;
        }
        Some(home)
    }

    /// Number of pages homed at `node`.
    pub fn pages_at(&self, node: NodeId) -> u64 {
        self.per_node.get(&node).copied().unwrap_or(0)
    }

    /// All pages homed at `node`, in ascending page order (deterministic:
    /// reconfiguration migrations iterate this list, so its order is part
    /// of the simulated behavior).
    pub fn pages_homed_at(&self, node: NodeId) -> Vec<Page> {
        self.iter_deterministic()
            .filter(|&(_, h)| h == node)
            .map(|(p, _)| p)
            .collect()
    }

    /// Evacuates every page homed at `victim`, choosing each page's new
    /// home via `choose`. Returns the evacuated `(page, new_home)` pairs in
    /// ascending page order — the deterministic sweep order crash recovery
    /// re-homes in.
    pub fn evacuate(
        &mut self,
        victim: NodeId,
        mut choose: impl FnMut(Page) -> NodeId,
    ) -> Vec<(Page, NodeId)> {
        let pages = self.pages_homed_at(victim);
        pages
            .into_iter()
            .map(|p| {
                let nh = choose(p);
                self.reassign(p, nh);
                (p, nh)
            })
            .collect()
    }

    /// Total mapped pages.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// Iterates over `(page, home)` pairs in ascending page order — the
    /// table's deterministic index order.
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (Page, NodeId)> + '_ {
        self.homes
            .iter_deterministic()
            .map(|(p, h)| (p, h as NodeId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_sticks() {
        let mut pt = PageTable::new();
        assert_eq!(pt.home_or_assign(7, || 2), 2);
        assert_eq!(pt.home_or_assign(7, || 5), 2);
        assert_eq!(pt.home(7), Some(2));
        assert_eq!(pt.home(8), None);
        assert_eq!(pt.pages_at(2), 1);
    }

    #[test]
    fn reassign_moves_counts() {
        let mut pt = PageTable::new();
        pt.home_or_assign(1, || 0);
        pt.home_or_assign(2, || 0);
        assert_eq!(pt.reassign(1, 3), 0);
        assert_eq!(pt.pages_at(0), 1);
        assert_eq!(pt.pages_at(3), 1);
        assert_eq!(pt.home(1), Some(3));
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn reassign_unmapped_panics() {
        PageTable::new().reassign(9, 1);
    }

    #[test]
    fn unmap_clears_entry() {
        let mut pt = PageTable::new();
        pt.home_or_assign(4, || 1);
        assert_eq!(pt.unmap(4), Some(1));
        assert_eq!(pt.unmap(4), None);
        assert_eq!(pt.pages_at(1), 0);
        assert!(pt.is_empty());
    }

    #[test]
    fn pages_homed_at_lists_only_that_node() {
        let mut pt = PageTable::new();
        pt.home_or_assign(1, || 0);
        pt.home_or_assign(2, || 1);
        pt.home_or_assign(3, || 0);
        let at0 = pt.pages_homed_at(0);
        assert_eq!(at0, vec![1, 3]);
        assert_eq!(pt.len(), 3);
    }

    #[test]
    fn evacuate_rehomes_every_page_in_order() {
        let mut pt = PageTable::new();
        for &p in &[9u64, 2, 17] {
            pt.home_or_assign(p, || 0);
        }
        pt.home_or_assign(5, || 1);
        let moved = pt.evacuate(0, |p| 1 + (p as usize % 2));
        assert_eq!(moved, vec![(2, 1), (9, 2), (17, 2)]);
        assert_eq!(pt.pages_at(0), 0);
        assert_eq!(pt.home(9), Some(2));
        assert_eq!(pt.pages_at(1), 2);
        assert!(pt.evacuate(0, |_| 1).is_empty());
    }

    #[test]
    fn pages_homed_at_is_sorted_regardless_of_touch_order() {
        let mut pt = PageTable::new();
        for &p in &[9u64, 2, 17, 4, 11] {
            pt.home_or_assign(p, || 0);
        }
        assert_eq!(
            pt.pages_homed_at(0),
            vec![2, 4, 9, 11, 17],
            "migration sweeps depend on a deterministic page order"
        );
    }

    #[test]
    fn iteration_is_ascending_across_chunk_boundaries() {
        let mut pt = PageTable::new();
        // Pages straddling three dense chunks, touched out of order.
        for &p in &[CHUNK as u64 * 2 + 5, 3, CHUNK as u64 - 1, CHUNK as u64, 7] {
            pt.home_or_assign(p, || 1);
        }
        let pages: Vec<Page> = pt.iter_deterministic().map(|(p, _)| p).collect();
        assert_eq!(
            pages,
            vec![3, 7, CHUNK as u64 - 1, CHUNK as u64, CHUNK as u64 * 2 + 5]
        );
        assert_eq!(pt.len(), 5);
        // Unmapping in one chunk leaves the others untouched.
        assert_eq!(pt.unmap(CHUNK as u64), Some(1));
        assert_eq!(pt.iter_deterministic().count(), 4);
    }
}
