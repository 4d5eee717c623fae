//! A page-chunked `Line → E` map.
//!
//! Every per-line directory in the simulator (the AGG D-node's Directory
//! array, the flat-COMA and CC-NUMA home directories) keys by line
//! number, and the lines of one page sit next to each other in both the
//! address space and the access stream. [`PagedMap`] therefore stores one
//! chunk of [`LINES_PER_PAGE`] entry slots per touched page, found through
//! a [`ChunkedIndex`] from page number to chunk: a lookup is a page probe
//! plus an array index. A chunk whose last entry is removed goes on a
//! free list and serves the next new page.
//!
//! Sweeps visit pages in ascending order and each page's slots in
//! ascending order, which is ascending key order — the order a
//! `BTreeMap<u64, E>` iterates in. Directory sweeps replay that order
//! into simulated time (census, reconfiguration, crash recovery), so it
//! is part of the simulator's run-to-run determinism (contract D001).

use crate::addr::{page_of_line, Line, LINES_PER_PAGE};
use crate::chunked_index::ChunkedIndex;

/// One page's worth of entry slots, allocated as a unit.
#[derive(Debug, Clone)]
struct Chunk<E> {
    /// [`LINES_PER_PAGE`] slots; `None` marks an absent line.
    slots: Box<[Option<E>]>,
    /// Occupied slots; the chunk is recycled when this drops to zero.
    live: u32,
}

/// A `Line → E` map stored as one chunk of slots per page of lines.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::{PagedMap, LINES_PER_PAGE};
///
/// let mut m = PagedMap::new();
/// *m.get_or_insert_with(LINES_PER_PAGE + 1, || 0u32) += 5;
/// m.get_or_insert_with(2, || 7);
/// assert_eq!(m.get(LINES_PER_PAGE + 1), Some(&5));
/// let keys: Vec<u64> = m.iter_deterministic().map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![2, LINES_PER_PAGE + 1]);
/// assert_eq!(m.remove(LINES_PER_PAGE + 1), Some(5));
/// assert_eq!(m.get(LINES_PER_PAGE + 1), None);
/// ```
#[derive(Debug, Clone)]
pub struct PagedMap<E> {
    /// Page number → index of its chunk in `slab`.
    pages: ChunkedIndex,
    slab: Vec<Chunk<E>>,
    /// Vacated chunks (every slot `None`), reused before `slab` grows.
    free: Vec<u32>,
}

impl<E> Default for PagedMap<E> {
    fn default() -> Self {
        PagedMap {
            pages: ChunkedIndex::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

/// `line`'s slot within its page's chunk.
#[inline]
fn slot_of(line: Line) -> usize {
    (line % LINES_PER_PAGE) as usize
}

impl<E> PagedMap<E> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chunk holding `key`'s page, if any, and `key`'s slot in it.
    #[inline]
    fn locate(&self, key: Line) -> Option<(usize, usize)> {
        let ci = self.pages.get(page_of_line(key))?;
        Some((ci as usize, slot_of(key)))
    }

    /// The entry at `key`, if any.
    #[inline]
    pub fn get(&self, key: Line) -> Option<&E> {
        let (ci, si) = self.locate(key)?;
        self.slab[ci].slots[si].as_ref()
    }

    /// The entry at `key`, mutably, if any.
    #[inline]
    pub fn get_mut(&mut self, key: Line) -> Option<&mut E> {
        let (ci, si) = self.locate(key)?;
        self.slab[ci].slots[si].as_mut()
    }

    /// The entry at `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: Line, make: impl FnOnce() -> E) -> &mut E {
        let page = page_of_line(key);
        let ci = match self.pages.get(page) {
            Some(ci) => ci,
            None => {
                let ci = self.free.pop().unwrap_or_else(|| {
                    self.slab.push(Chunk {
                        slots: (0..LINES_PER_PAGE).map(|_| None).collect(),
                        live: 0,
                    });
                    (self.slab.len() - 1) as u32
                });
                self.pages.insert(page, ci);
                ci
            }
        };
        let chunk = &mut self.slab[ci as usize];
        let slot = &mut chunk.slots[slot_of(key)];
        if slot.is_none() {
            chunk.live += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Removes and returns the entry at `key`, if any.
    pub fn remove(&mut self, key: Line) -> Option<E> {
        let (ci, si) = self.locate(key)?;
        let chunk = &mut self.slab[ci];
        let e = chunk.slots[si].take()?;
        chunk.live -= 1;
        if chunk.live == 0 {
            self.pages.remove(page_of_line(key));
            self.free.push(ci as u32);
        }
        Some(e)
    }

    /// Iterates over `(key, entry)` pairs in ascending key order — the
    /// map's deterministic order.
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (Line, &E)> + '_ {
        self.pages.iter_deterministic().flat_map(move |(page, ci)| {
            self.slab[ci as usize]
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(si, e)| {
                    e.as_ref().map(|e| (page * LINES_PER_PAGE + si as u64, e))
                })
        })
    }

    /// Calls `f` on every `(key, entry)` pair in ascending key order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Line, &mut E)) {
        for (page, ci) in self.pages.iter_deterministic() {
            let first = page * LINES_PER_PAGE;
            for (si, slot) in self.slab[ci as usize].slots.iter_mut().enumerate() {
                if let Some(e) = slot {
                    f(first + si as u64, e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// A fixed xorshift step: the test stays deterministic and small
    /// enough for miri without a dependency on the engine's RNG.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Random insert/get/remove traffic against a `BTreeMap` model over
    /// eight pages of keys. 200-step phases alternate between filling and
    /// draining; a drain removes the first live key at or after a random
    /// one, so every drain phase empties whole pages, their chunks go on
    /// the free list, and the next fill reuses them. Both sweeps must see
    /// the model's keys and values in the model's order.
    #[test]
    fn matches_a_btreemap_model() {
        const PAGES: u64 = 8;
        let mut m = PagedMap::new();
        let mut model = BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1D ^ LINES_PER_PAGE;
        let mut freed = 0;
        for step in 0..1200u64 {
            let r = next(&mut x);
            let key = (r >> 8) % (PAGES * LINES_PER_PAGE);
            let filling = (step / 200) % 2 == 0;
            if r.is_multiple_of(4) {
                assert_eq!(m.get(key), model.get(&key));
                if let Some(v) = m.get_mut(key) {
                    *v += 1;
                    *model.get_mut(&key).expect("model agrees") += 1;
                }
            } else if filling {
                let value = *model.entry(key).or_insert(step);
                assert_eq!(*m.get_or_insert_with(key, || step), value);
            } else {
                let live = model.range(key..).next().or(model.iter().next());
                let target = live.map_or(key, |(&k, _)| k);
                let free_before = m.free.len();
                assert_eq!(m.remove(target), model.remove(&target));
                freed += m.free.len() - free_before;
            }
            if step.is_multiple_of(25) || step % 200 == 199 {
                let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                let got: Vec<(u64, u64)> = m.iter_deterministic().map(|(k, &v)| (k, v)).collect();
                assert_eq!(got, want, "step {step}");
                let mut swept = Vec::new();
                m.for_each_mut(|k, v| swept.push((k, *v)));
                assert_eq!(swept, want, "step {step}");
            }
        }
        assert!(freed >= PAGES as usize, "pages must empty");
        assert!(
            m.slab.len() as u64 <= PAGES,
            "vacated chunks must be reused"
        );
    }

    #[test]
    fn a_vacated_chunk_serves_the_next_page_empty() {
        const L: u64 = LINES_PER_PAGE;
        let mut m = PagedMap::new();
        m.get_or_insert_with(L, || 'a');
        m.get_or_insert_with(L + 1, || 'b');
        assert_eq!(m.remove(L), Some('a'));
        assert_eq!(m.remove(L + 1), Some('b'));
        assert_eq!(m.remove(L + 1), None);
        m.get_or_insert_with(2 * L + 1, || 'c');
        assert_eq!(m.slab.len(), 1, "the page-1 chunk was reused for page 2");
        let all: Vec<(u64, char)> = m.iter_deterministic().map(|(k, &v)| (k, v)).collect();
        assert_eq!(all, vec![(2 * L + 1, 'c')]);
    }
}
