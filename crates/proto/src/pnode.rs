//! Per-node storage substrate shared by the three protocols: the private
//! L1/L2 caches and, for AGG and COMA P-nodes, the attraction memory.

use pimdsm_engine::Cycle;
use pimdsm_mem::{AttractionMemory, CacheCfg, Dram, Line, Residency, SetAssocCache};

use crate::common::{AmState, CState, LatencyCfg, Level};

/// Attraction-memory replacement priority shared by AGG and COMA:
/// invalid ways are free, then shared non-master lines, then master,
/// then dirty (the paper's Section 3 preference order).
pub fn victim_class(s: &AmState) -> u32 {
    match s {
        AmState::Shared => 2,
        AmState::SharedMaster => 1,
        AmState::Dirty => 0,
    }
}

/// Result of probing the private caches for a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProbe {
    /// The line is already dirty in a private cache; the write completes
    /// at the given level.
    Done(Level),
    /// The line is cached shared; ownership must be obtained, then
    /// [`PrivCaches::mark_dirty`] applied.
    NeedUpgrade,
    /// The line is not cached.
    Miss,
}

/// The private (on-chip SRAM) L1 and L2 caches of a node, kept inclusive:
/// every L1 line is present in L2.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::CacheCfg;
/// use pimdsm_proto::{CState, Level, PrivCaches};
///
/// let mut c = PrivCaches::new(
///     CacheCfg::new(8 * 1024, 1, 6),
///     CacheCfg::new(32 * 1024, 4, 6),
/// );
/// assert_eq!(c.read_probe(100), None);
/// c.fill(100, CState::Shared);
/// assert_eq!(c.read_probe(100), Some(Level::L1));
/// ```
#[derive(Debug, Clone)]
pub struct PrivCaches {
    l1: SetAssocCache<CState>,
    l2: SetAssocCache<CState>,
}

impl PrivCaches {
    /// Creates empty caches with the given geometries.
    ///
    /// # Panics
    ///
    /// Panics if L2 is smaller than L1 (inclusion would be impossible) or
    /// the line sizes differ.
    pub fn new(l1: CacheCfg, l2: CacheCfg) -> Self {
        assert!(
            l2.size_bytes() >= l1.size_bytes(),
            "inclusive L2 must be at least as large as L1"
        );
        assert_eq!(
            l1.line_shift(),
            l2.line_shift(),
            "L1 and L2 must share a line size"
        );
        PrivCaches {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
        }
    }

    /// Probes for a read. On an L2 hit the line is filled into L1.
    /// Returns the level that hit, or `None` on a miss.
    pub fn read_probe(&mut self, line: Line) -> Option<Level> {
        if self.l1.get(line).is_some() {
            return Some(Level::L1);
        }
        if let Some(&mut state) = self.l2.get(line) {
            self.fill_l1(line, state);
            return Some(Level::L2);
        }
        None
    }

    /// Probes for a write.
    pub fn write_probe(&mut self, line: Line) -> WriteProbe {
        match self.l1.get(line) {
            Some(CState::Dirty) => return WriteProbe::Done(Level::L1),
            Some(CState::Shared) => return WriteProbe::NeedUpgrade,
            None => {}
        }
        match self.l2.get(line) {
            Some(&mut CState::Dirty) => {
                self.fill_l1(line, CState::Dirty);
                WriteProbe::Done(Level::L2)
            }
            Some(&mut CState::Shared) => WriteProbe::NeedUpgrade,
            None => WriteProbe::Miss,
        }
    }

    fn fill_l1(&mut self, line: Line, state: CState) {
        if let Some(victim) = self.l1.insert(line, state, |_| 0) {
            // Inclusion: the victim is still in L2; propagate dirtiness.
            if victim.state == CState::Dirty {
                if let Some(s) = self.l2.peek_mut(victim.line) {
                    *s = CState::Dirty;
                }
            }
        }
    }

    /// Fills a line into L2 and L1 after a miss was serviced.
    ///
    /// Returns the L2 victim (already purged from L1) that the memory
    /// system must now handle, if any. If the victim had a dirty L1 copy,
    /// the returned state reflects it.
    pub fn fill(&mut self, line: Line, state: CState) -> Option<(Line, CState)> {
        let victim = self.l2.insert(line, state, |_| 0);
        let out = victim.map(|v| {
            let mut st = v.state;
            if let Some(l1st) = self.l1.remove(v.line) {
                if l1st == CState::Dirty {
                    st = CState::Dirty;
                }
            }
            (v.line, st)
        });
        self.fill_l1(line, state);
        out
    }

    /// Removes a line from both caches (remote invalidation), returning
    /// the strongest state removed.
    pub fn invalidate(&mut self, line: Line) -> Option<CState> {
        let s1 = self.l1.remove(line);
        let s2 = self.l2.remove(line);
        match (s1, s2) {
            (Some(CState::Dirty), _) | (_, Some(CState::Dirty)) => Some(CState::Dirty),
            (Some(CState::Shared), _) | (_, Some(CState::Shared)) => Some(CState::Shared),
            _ => None,
        }
    }

    /// Upgrades a cached shared line to dirty after ownership was granted.
    pub fn mark_dirty(&mut self, line: Line) {
        if let Some(s) = self.l1.peek_mut(line) {
            *s = CState::Dirty;
        }
        if let Some(s) = self.l2.peek_mut(line) {
            *s = CState::Dirty;
        }
    }

    /// Downgrades a dirty line to shared (a remote node read it). Returns
    /// whether a dirty copy was present.
    pub fn downgrade(&mut self, line: Line) -> bool {
        let mut was_dirty = false;
        if let Some(s) = self.l1.peek_mut(line) {
            was_dirty |= *s == CState::Dirty;
            *s = CState::Shared;
        }
        if let Some(s) = self.l2.peek_mut(line) {
            was_dirty |= *s == CState::Dirty;
            *s = CState::Shared;
        }
        was_dirty
    }

    /// Strongest cached state of a line (L2 is authoritative under
    /// inclusion), without LRU effects.
    pub fn peek_state(&self, line: Line) -> Option<CState> {
        match (self.l1.peek(line), self.l2.peek(line)) {
            (Some(CState::Dirty), _) | (_, Some(CState::Dirty)) => Some(CState::Dirty),
            (None, None) => None,
            _ => Some(CState::Shared),
        }
    }

    /// Drains both caches, returning every line with its strongest state
    /// (used when a node is reconfigured).
    pub fn drain_all(&mut self) -> Vec<(Line, CState)> {
        let l1: std::collections::BTreeMap<Line, CState> = self.l1.drain_all().collect();
        self.l2
            .drain_all()
            .map(|(line, st)| {
                let strongest = match l1.get(&line) {
                    Some(CState::Dirty) => CState::Dirty,
                    _ => st,
                };
                (line, strongest)
            })
            .collect()
    }
}

/// The memory-side storage of an AGG or COMA P-node: attraction memory
/// plus the DRAM devices that time its accesses.
#[derive(Debug, Clone)]
pub struct PNodeStore {
    /// Private caches.
    pub caches: PrivCaches,
    /// Tagged local memory organized as a cache.
    pub am: AttractionMemory<AmState>,
    /// On-chip DRAM device (timing).
    pub mem_on: Dram,
    /// Off-chip DRAM device (timing).
    pub mem_off: Dram,
}

impl PNodeStore {
    /// Builds a P-node store.
    ///
    /// `am_cfg` covers the *total* local memory; `onchip_lines` of it are
    /// on chip. DRAM device latencies are derived from `lat_on`/`lat_off`
    /// round trips minus the line transfer time.
    pub fn new(
        l1: CacheCfg,
        l2: CacheCfg,
        am_cfg: CacheCfg,
        onchip_lines: usize,
        lat_on: Cycle,
        lat_off: Cycle,
        mem_bytes_per_cycle: u64,
    ) -> Self {
        let line_bytes = 1u64 << am_cfg.line_shift();
        let transfer = line_bytes.div_ceil(mem_bytes_per_cycle);
        PNodeStore {
            caches: PrivCaches::new(l1, l2),
            am: AttractionMemory::new(am_cfg, onchip_lines),
            mem_on: Dram::new(lat_on.saturating_sub(transfer), mem_bytes_per_cycle),
            mem_off: Dram::new(lat_off.saturating_sub(transfer), mem_bytes_per_cycle),
        }
    }

    /// Builds a store whose DRAM device latencies are calibrated so the
    /// end-to-end local round trip (L2 probe + AM tag check + device +
    /// fill) lands on the latency table's `mem_on`/`mem_off` values.
    pub fn calibrated(
        l1: CacheCfg,
        l2: CacheCfg,
        am_cfg: CacheCfg,
        onchip_lines: usize,
        lat: &LatencyCfg,
        mem_bytes_per_cycle: u64,
    ) -> Self {
        let overhead = lat.l2 + lat.am_tag_check + lat.fill;
        PNodeStore::new(
            l1,
            l2,
            am_cfg,
            onchip_lines,
            lat.mem_on.saturating_sub(overhead),
            lat.mem_off.saturating_sub(overhead),
            mem_bytes_per_cycle,
        )
    }

    /// Drops a line from the private caches only; a dirty cached copy
    /// folds its modification back into the attraction memory (which
    /// backs the caches, so no data is lost).
    pub fn purge_caches(&mut self, line: Line) {
        if self.caches.invalidate(line) == Some(CState::Dirty) {
            if let Some(s) = self.am.peek_mut(line) {
                *s = AmState::Dirty;
            }
        }
    }

    /// Times a local memory access that hit with the given residency.
    pub fn mem_access(&mut self, residency: Residency, now: Cycle, bytes: u64) -> Cycle {
        match residency {
            Residency::OnChip => self.mem_on.access(now, bytes),
            Residency::OffChip => self.mem_off.access(now, bytes),
        }
    }

    /// Frees both DRAM devices' schedules behind `floor`; see
    /// [`Timeline::retire_before`](pimdsm_engine::Timeline::retire_before).
    pub fn retire_before(&mut self, floor: Cycle) {
        self.mem_on.retire_before(floor);
        self.mem_off.retire_before(floor);
    }

    /// Fills the private caches after a serviced miss, folding a dirty L2
    /// victim's modification into the attraction memory (the AM backs the
    /// caches, so the victim's data merges locally rather than writing
    /// back). Returns the victim so protocol-specific directory state can
    /// follow the merge (COMA reinstates ownership at this node).
    pub fn fill_caches(&mut self, line: Line, state: CState) -> Option<(Line, CState)> {
        let victim = self.caches.fill(line, state);
        if let Some((vline, CState::Dirty)) = victim {
            if let Some(am) = self.am.peek_mut(vline) {
                *am = AmState::Dirty;
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caches() -> PrivCaches {
        // L1: 2 sets direct-mapped; L2: 4 sets 2-way (64 B lines).
        PrivCaches::new(CacheCfg::new(128, 1, 6), CacheCfg::new(512, 2, 6))
    }

    #[test]
    fn read_miss_then_hits() {
        let mut c = caches();
        assert_eq!(c.read_probe(10), None);
        assert_eq!(c.fill(10, CState::Shared), None);
        assert_eq!(c.read_probe(10), Some(Level::L1));
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut c = caches();
        c.fill(0, CState::Shared);
        c.fill(2, CState::Shared); // L1 conflict (2 sets): evicts 0 from L1
        assert_eq!(c.read_probe(0), Some(Level::L2));
        assert_eq!(c.read_probe(0), Some(Level::L1));
    }

    #[test]
    fn dirty_l1_victim_propagates_to_l2() {
        let mut c = caches();
        c.fill(0, CState::Shared);
        c.mark_dirty(0);
        c.fill(2, CState::Shared); // evicts 0 from L1 (dirty)
        assert_eq!(c.peek_state(0), Some(CState::Dirty));
    }

    #[test]
    fn l2_eviction_purges_l1_and_reports_dirty() {
        let mut c = caches();
        // L2 set 0 holds lines 0 and 4 (4 sets, 2 ways).
        c.fill(0, CState::Shared);
        c.mark_dirty(0);
        c.fill(4, CState::Shared);
        let victim = c.fill(8, CState::Shared);
        assert_eq!(victim, Some((0, CState::Dirty)));
        assert_eq!(c.peek_state(0), None, "inclusion: purged from L1 too");
    }

    #[test]
    fn write_probe_transitions() {
        let mut c = caches();
        assert_eq!(c.write_probe(0), WriteProbe::Miss);
        c.fill(0, CState::Shared);
        assert_eq!(c.write_probe(0), WriteProbe::NeedUpgrade);
        c.mark_dirty(0);
        assert_eq!(c.write_probe(0), WriteProbe::Done(Level::L1));
    }

    #[test]
    fn write_probe_l2_dirty_promotes() {
        let mut c = caches();
        c.fill(0, CState::Dirty);
        c.fill(2, CState::Shared); // push 0 out of L1 only
        assert_eq!(c.write_probe(0), WriteProbe::Done(Level::L2));
        assert_eq!(c.write_probe(0), WriteProbe::Done(Level::L1));
    }

    #[test]
    fn invalidate_removes_everywhere() {
        let mut c = caches();
        c.fill(0, CState::Dirty);
        assert_eq!(c.invalidate(0), Some(CState::Dirty));
        assert_eq!(c.peek_state(0), None);
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn downgrade_reports_dirtiness() {
        let mut c = caches();
        c.fill(0, CState::Dirty);
        assert!(c.downgrade(0));
        assert_eq!(c.peek_state(0), Some(CState::Shared));
        assert!(!c.downgrade(0));
    }

    #[test]
    fn drain_reports_strongest_state() {
        let mut c = caches();
        c.fill(0, CState::Shared);
        c.mark_dirty(0);
        c.fill(4, CState::Shared);
        let mut drained = c.drain_all();
        drained.sort_by_key(|&(l, _)| l);
        assert_eq!(drained, vec![(0, CState::Dirty), (4, CState::Shared)]);
    }

    #[test]
    #[should_panic(expected = "inclusive")]
    fn l2_smaller_than_l1_rejected() {
        PrivCaches::new(CacheCfg::new(512, 2, 6), CacheCfg::new(128, 1, 6));
    }
}
