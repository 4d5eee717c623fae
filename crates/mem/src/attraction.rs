//! The paper's tagged local memory organized as a cache.
//!
//! Section 2.1.1: each line of the node's local memory (both the on-chip
//! DRAM and the off-chip extension) carries state and an address tag, and
//! the whole local memory behaves as a large set-associative cache — an
//! *attraction memory*. The on- and off-chip portions hold exclusive data;
//! when the processor references a line found off-chip, that line swaps
//! with an on-chip line at memory-line grain (managed in hardware as in
//! Saulsbury et al.).
//!
//! [`AttractionMemory`] composes a [`SetAssocCache`] (tags + state) with an
//! [`OnChipLru`], the global LRU of *on-chip* lines: touching an off-chip
//! resident line promotes it on-chip, demoting the least-recently-used
//! on-chip line. The caller charges the corresponding latency (the paper's
//! 37 vs 57-cycle local round trips). NUMA nodes and AGG D-nodes use the
//! same [`OnChipLru`] over their plain local memory.

use crate::addr::{CompactLine, Line};
use crate::cache::{CacheCfg, Evicted, SetAssocCache};
use crate::keyed_queue::KeyedQueue;

/// Where a resident line was found, before any promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// In the on-chip DRAM portion (fast: 37-cycle round trip in Table 1).
    OnChip,
    /// In the off-chip DRAM extension (57-cycle round trip in Table 1).
    OffChip,
}

/// LRU membership of the lines held in a node's on-chip DRAM: touching a
/// line found off chip promotes it, demoting the least-recently-used
/// on-chip line once `cap` lines are on chip.
#[derive(Debug, Clone)]
pub struct OnChipLru {
    queue: KeyedQueue<CompactLine>,
    cap: usize,
}

impl OnChipLru {
    /// Tracks at most `cap` on-chip lines.
    pub fn new(cap: usize) -> Self {
        OnChipLru {
            queue: KeyedQueue::new(),
            cap,
        }
    }

    /// Touches a line: returns where it was found; promotes it on chip.
    #[inline]
    pub fn touch(&mut self, line: Line) -> Residency {
        let key = CompactLine::new(line);
        if self.queue.move_to_back(&key) {
            Residency::OnChip
        } else {
            self.promote(key);
            Residency::OffChip
        }
    }

    /// Places a line on chip unless it already is there (an on-chip line
    /// keeps its LRU position).
    #[inline]
    pub fn insert(&mut self, line: Line) {
        let key = CompactLine::new(line);
        if !self.queue.contains(&key) {
            self.promote(key);
        }
    }

    /// Whether a line is on chip.
    #[inline]
    pub fn contains(&self, line: Line) -> bool {
        self.queue.contains(&CompactLine::new(line))
    }

    /// Drops a line from the on-chip set, if it is there.
    #[inline]
    pub fn remove(&mut self, line: Line) {
        self.queue.remove(&CompactLine::new(line));
    }

    /// Empties the on-chip set.
    pub fn clear(&mut self) {
        while self.queue.pop_front().is_some() {}
    }

    #[inline]
    fn promote(&mut self, key: CompactLine) {
        if self.cap == 0 {
            return;
        }
        if self.queue.len() >= self.cap {
            self.queue.pop_front();
        }
        self.queue.push_back(key);
    }
}

/// Result of inserting a line into an [`AttractionMemory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmInsert<S> {
    /// A line evicted from the node's memory entirely (set conflict), which
    /// the coherence protocol must now handle (write back, inject, ...).
    pub victim: Option<Evicted<S>>,
}

/// Tagged local memory managed as a cache, with an on-/off-chip split.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::{AttractionMemory, CacheCfg, Residency};
///
/// // 4 lines total, only 2 fit on chip.
/// let cfg = CacheCfg::new(256, 4);
/// let mut am: AttractionMemory<u8> = AttractionMemory::new(cfg, 2);
/// am.insert(0, 0, |_| 0);
/// am.insert(1, 1, |_| 0);
/// am.insert(2, 2, |_| 0); // pushes line 0 off chip
/// assert_eq!(am.touch(0), Some(Residency::OffChip));
/// // ... and touching it swapped it back on chip:
/// assert_eq!(am.touch(0), Some(Residency::OnChip));
/// ```
#[derive(Debug, Clone)]
pub struct AttractionMemory<S> {
    cache: SetAssocCache<S>,
    onchip: OnChipLru,
    swaps: u64,
}

impl<S> AttractionMemory<S> {
    /// Creates an attraction memory with `cfg` total geometry of which at
    /// most `onchip_lines` lines are resident on chip at a time.
    pub fn new(cfg: CacheCfg, onchip_lines: usize) -> Self {
        AttractionMemory {
            cache: SetAssocCache::new(cfg),
            onchip: OnChipLru::new(onchip_lines),
            swaps: 0,
        }
    }

    /// Total geometry (on-chip + off-chip).
    pub fn cfg(&self) -> &CacheCfg {
        self.cache.cfg()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Number of on-chip/off-chip swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// References a line: if resident, returns where it was found and
    /// promotes it on chip (swapping with the LRU on-chip line if needed).
    pub fn touch(&mut self, line: Line) -> Option<Residency> {
        self.cache.get(line)?;
        let found = self.onchip.touch(line);
        if found == Residency::OffChip {
            self.swaps += 1;
        }
        Some(found)
    }

    /// Payload access without promotion or LRU update.
    pub fn peek(&self, line: Line) -> Option<&S> {
        self.cache.peek(line)
    }

    /// Mutable payload access without promotion or LRU update.
    pub fn peek_mut(&mut self, line: Line) -> Option<&mut S> {
        self.cache.peek_mut(line)
    }

    /// Whether a line is resident (on or off chip).
    pub fn contains(&self, line: Line) -> bool {
        self.cache.contains(line)
    }

    /// Whether the set `line` maps to has a free way.
    pub fn has_room_for(&self, line: Line) -> bool {
        self.cache.has_room_for(line)
    }

    /// Where a line currently resides, without promoting it.
    pub fn residency(&self, line: Line) -> Option<Residency> {
        if !self.cache.contains(line) {
            None
        } else if self.onchip.contains(line) {
            Some(Residency::OnChip)
        } else {
            Some(Residency::OffChip)
        }
    }

    /// Returns what inserting `line` would evict, without changing state.
    pub fn peek_victim(&self, line: Line, victim_class: impl Fn(&S) -> u32) -> Option<(Line, &S)> {
        self.cache.peek_victim(line, victim_class)
    }

    /// Inserts a line (landing on chip), evicting a set conflict victim if
    /// necessary. `victim_class` ranks eviction candidates as in
    /// [`SetAssocCache::insert`].
    pub fn insert(
        &mut self,
        line: Line,
        state: S,
        victim_class: impl Fn(&S) -> u32,
    ) -> AmInsert<S> {
        let victim = self.cache.insert(line, state, victim_class);
        if let Some(ev) = &victim {
            self.onchip.remove(ev.line);
        }
        self.onchip.insert(line);
        AmInsert { victim }
    }

    /// Removes a line, returning its payload.
    pub fn remove(&mut self, line: Line) -> Option<S> {
        let s = self.cache.remove(line);
        if s.is_some() {
            self.onchip.remove(line);
        }
        s
    }

    /// Iterates over all resident `(line, payload)` pairs in the tag
    /// arena's deterministic order (alias of
    /// [`AttractionMemory::iter_deterministic`]).
    pub fn iter(&self) -> impl Iterator<Item = (Line, &S)> {
        self.iter_deterministic()
    }

    /// Iterates over all resident `(line, payload)` pairs in the tag
    /// arena's deterministic index order (see
    /// [`SetAssocCache::iter_deterministic`]).
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (Line, &S)> {
        self.cache.iter_deterministic()
    }

    /// Drains every resident line in place, in deterministic tag-arena
    /// order (used when a node is reconfigured from P to D and its memory
    /// reverts to plain DRAM). The returned iterator borrows the memory
    /// and removes lines as it yields them; no buffer proportional to
    /// residency is ever materialized. Dropping it mid-way finishes the
    /// drain, so the memory is always left empty.
    pub fn drain_all(&mut self) -> crate::cache::DrainAll<'_, S> {
        self.onchip.clear();
        self.cache.drain_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am(total_lines: u64, ways: u32, onchip: usize) -> AttractionMemory<u32> {
        AttractionMemory::new(CacheCfg::new(total_lines * 64, ways), onchip)
    }

    #[test]
    fn onchip_lru_swaps() {
        let mut o = OnChipLru::new(2);
        assert_eq!(o.touch(1), Residency::OffChip);
        assert_eq!(o.touch(1), Residency::OnChip);
        o.touch(2);
        o.touch(3); // demotes 1
        assert_eq!(o.touch(1), Residency::OffChip);
    }

    #[test]
    fn onchip_lru_zero_capacity() {
        let mut o = OnChipLru::new(0);
        assert_eq!(o.touch(1), Residency::OffChip);
        assert_eq!(o.touch(1), Residency::OffChip);
    }

    #[test]
    fn miss_on_absent_line() {
        let mut m = am(8, 4, 4);
        assert_eq!(m.touch(3), None);
        assert_eq!(m.residency(3), None);
    }

    #[test]
    fn insert_lands_on_chip() {
        let mut m = am(8, 4, 4);
        m.insert(1, 10, |_| 0);
        assert_eq!(m.residency(1), Some(Residency::OnChip));
        assert_eq!(m.touch(1), Some(Residency::OnChip));
    }

    #[test]
    fn lru_demotion_to_off_chip() {
        let mut m = am(8, 8, 2);
        m.insert(0, 0, |_| 0);
        m.insert(1, 1, |_| 0);
        m.insert(2, 2, |_| 0); // demotes 0
        assert_eq!(m.residency(0), Some(Residency::OffChip));
        assert_eq!(m.residency(1), Some(Residency::OnChip));
        assert_eq!(m.residency(2), Some(Residency::OnChip));
    }

    #[test]
    fn touch_swaps_off_chip_line_in() {
        let mut m = am(8, 8, 2);
        m.insert(0, 0, |_| 0);
        m.insert(1, 1, |_| 0);
        m.insert(2, 2, |_| 0);
        assert_eq!(m.swaps(), 0);
        assert_eq!(m.touch(0), Some(Residency::OffChip));
        assert_eq!(m.swaps(), 1);
        assert_eq!(m.residency(0), Some(Residency::OnChip));
        // The LRU on-chip line (1) was demoted to make room.
        assert_eq!(m.residency(1), Some(Residency::OffChip));
    }

    #[test]
    fn eviction_removes_from_onchip_tracking() {
        // 1 set, 2 ways, both on chip.
        let mut m = am(2, 2, 2);
        m.insert(0, 0, |_| 0);
        m.insert(1, 1, |_| 0);
        let r = m.insert(2, 2, |_| 0);
        let victim = r.victim.unwrap();
        assert_eq!(victim.line, 0);
        assert_eq!(m.residency(victim.line), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_onchip_capacity_everything_off_chip() {
        let mut m = am(4, 4, 0);
        m.insert(0, 0, |_| 0);
        assert_eq!(m.residency(0), Some(Residency::OffChip));
        assert_eq!(m.touch(0), Some(Residency::OffChip));
        // No promotion possible.
        assert_eq!(m.residency(0), Some(Residency::OffChip));
    }

    #[test]
    fn remove_cleans_up() {
        let mut m = am(4, 4, 4);
        m.insert(0, 7, |_| 0);
        assert_eq!(m.remove(0), Some(7));
        assert_eq!(m.remove(0), None);
        assert_eq!(m.residency(0), None);
        assert!(m.is_empty());
    }

    #[test]
    fn drain_all_empties_memory() {
        let mut m = am(8, 4, 2);
        for i in 0..6u32 {
            m.insert(i.into(), i, |_| 0);
        }
        let drained: Vec<_> = m.drain_all().collect();
        assert_eq!(drained.len(), 6);
        assert!(m.is_empty());
        assert_eq!(m.residency(0), None);
    }

    #[test]
    fn drain_all_yields_lines_in_place_and_in_arena_order() {
        let mut m = am(8, 4, 2);
        for i in 0..6u32 {
            m.insert(i.into(), i * 10, |_| 0);
        }
        // Expected order is the tag arena's deterministic iteration order
        // — the same order the old Vec-materializing drain produced.
        let expected: Vec<(Line, u32)> = m.iter().map(|(l, s)| (l, *s)).collect();
        let drained: Vec<(Line, u32)> = m.drain_all().collect();
        assert_eq!(drained, expected);
        assert!(m.is_empty());
    }

    #[test]
    fn abandoned_drain_still_empties_memory() {
        let mut m = am(8, 4, 2);
        for i in 0..6u32 {
            m.insert(i.into(), i, |_| 0);
        }
        {
            let mut d = m.drain_all();
            let _ = d.next();
        }
        assert!(m.is_empty());
        assert_eq!(m.residency(1), None);
        // The memory is reusable afterwards.
        m.insert(3, 33, |_| 0);
        assert_eq!(m.peek(3), Some(&33));
        assert_eq!(m.residency(3), Some(Residency::OnChip));
    }
}
