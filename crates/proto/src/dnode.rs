//! The AGG D-node: software directory + fully-associative backing memory.
//!
//! Section 2.2.2 of the paper. A D-node is an off-the-shelf PIM chip whose
//! processor runs protocol handlers in software over three arrays:
//!
//! - the **Directory array** — one entry per line homed at this node,
//!   holding protocol state and a Local Pointer into Data;
//! - the **Data array** — the actual line storage, *fully associative in
//!   software*: any homed line can live in any slot, so the whole memory is
//!   usable and incoming lines never bounce (no COMA-style injection);
//! - the **Pointer array** — per-slot back pointers and the links that
//!   thread empty slots onto the **FreeList** and reclaimable shared lines
//!   onto the FIFO **SharedList**.
//!
//! Mastership economics: when the first P-node reads a line, the home
//! gives out *mastership* and moves its (now duplicate) copy to the
//! SharedList tail — reclaimable if space runs short. Lines dirty in a
//! P-node keep **no** place holder at the home; their slot is reused.
//! When free space is exhausted and the SharedList drops below a
//! threshold, the node pages out whole pages to disk rather than inject.
//!
//! This module owns the storage/state machine and its timing devices; the
//! protocol orchestration (who sends which message when) lives in
//! [`crate::agg`].

use pimdsm_engine::{Cycle, Server};
use pimdsm_mem::{CompactLine, Dram, KeyedQueue, Line, OnChipLru, Page, PagedMap, Residency};

use crate::common::{CompactNode, NodeId, NodeList, NodeSet};

/// Who holds the master (authoritative clean) copy of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Master {
    /// The home D-node's memory copy is the master.
    Home,
    /// A P-node holds the master copy (shared-master, or the owner when
    /// dirty).
    Node(CompactNode),
}

/// Directory entry for one line homed at a D-node: 16 bytes, and 16 as
/// an `Option` in the directory's slots (node ids take one byte each).
#[derive(Debug, Clone, Copy)]
pub struct DirEntry {
    /// P-nodes holding a clean copy.
    pub sharers: NodeSet,
    /// P-node holding the line dirty, if any.
    pub owner: Option<CompactNode>,
    /// Location of the master copy.
    pub master: Master,
    /// Whether the home Data array holds a copy.
    pub in_mem: bool,
    /// Whether the line currently lives on disk.
    pub paged_out: bool,
}

impl DirEntry {
    fn virgin() -> Self {
        DirEntry {
            sharers: NodeSet::new(),
            owner: None,
            master: Master::Home,
            in_mem: false,
            paged_out: false,
        }
    }

    /// Whether no P-node holds any copy.
    pub fn uncached(&self) -> bool {
        self.owner.is_none() && self.sharers.is_empty()
    }
}

/// Sizing and policy knobs for one D-node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DNodeCfg {
    /// Data array capacity, in lines.
    pub data_lines: u64,
    /// How many of those lines fit in on-chip DRAM (timing).
    pub onchip_lines: u64,
    /// Page out when a slot is needed and the SharedList is below this.
    pub shared_list_min: u64,
    /// Pages evicted per page-out event.
    pub pageout_batch: usize,
    /// Whether the SharedList may be reclaimed at all (ablation switch;
    /// the paper's design reclaims it but tries not to).
    pub reuse_shared_list: bool,
    /// Lines per page.
    pub lines_per_page: u64,
    /// Local memory round-trip latencies (on-chip, off-chip) and port
    /// bandwidth, as in the P-nodes.
    pub lat_on: Cycle,
    /// Off-chip round trip.
    pub lat_off: Cycle,
    /// Memory port bandwidth, bytes per cycle.
    pub mem_bytes_per_cycle: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

/// Storage half of an AGG directory node.
///
/// All mutating operations keep the FreeList/SharedList/`in_mem`
/// bookkeeping consistent; [`DNode::check_invariants`] verifies the
/// invariants and is exercised by the property tests.
#[derive(Debug, Clone)]
pub struct DNode {
    cfg: DNodeCfg,
    // Directory sweeps (census, reconfiguration entry eviction, crash
    // scrubbing) replay the map's ascending-line order into simulated
    // time, so that order must stay run-to-run deterministic.
    dir: PagedMap<DirEntry>,
    free_slots: u64,
    shared_list: KeyedQueue<CompactLine>,
    mapped_pages: KeyedQueue<Page>,
    cold_pages: KeyedQueue<Page>,
    /// Protocol processor (software handlers run here).
    pub server: Server,
    mem_on: Dram,
    mem_off: Dram,
    onchip: OnChipLru,
}

impl DNode {
    /// Creates an empty D-node.
    ///
    /// # Panics
    ///
    /// Panics if the Data array would be empty.
    pub fn new(cfg: DNodeCfg) -> Self {
        assert!(cfg.data_lines > 0, "D-node needs a nonempty Data array");
        let transfer = cfg.line_bytes.div_ceil(cfg.mem_bytes_per_cycle);
        DNode {
            dir: PagedMap::new(cfg.lines_per_page),
            free_slots: cfg.data_lines,
            shared_list: KeyedQueue::new(),
            mapped_pages: KeyedQueue::new(),
            cold_pages: KeyedQueue::new(),
            server: Server::new(),
            mem_on: Dram::new(cfg.lat_on.saturating_sub(transfer), cfg.mem_bytes_per_cycle),
            mem_off: Dram::new(
                cfg.lat_off.saturating_sub(transfer),
                cfg.mem_bytes_per_cycle,
            ),
            onchip: OnChipLru::new(cfg.onchip_lines as usize),
            cfg,
        }
    }

    /// Configuration.
    pub fn cfg(&self) -> &DNodeCfg {
        &self.cfg
    }

    /// Frees the protocol processor's and both DRAM devices' schedules
    /// behind `floor`; see
    /// [`Timeline::retire_before`](pimdsm_engine::Timeline::retire_before).
    pub fn retire_before(&mut self, floor: Cycle) {
        self.server.retire_before(floor);
        self.mem_on.retire_before(floor);
        self.mem_off.retire_before(floor);
    }

    /// Free Data slots.
    pub fn free_slots(&self) -> u64 {
        self.free_slots
    }

    /// Current SharedList length.
    pub fn shared_list_len(&self) -> u64 {
        self.shared_list.len() as u64
    }

    /// Registers a page as mapped at this node.
    pub fn map_page(&mut self, page: Page) {
        if !self.mapped_pages.contains(&page) && !self.cold_pages.contains(&page) {
            self.mapped_pages.push_back(page);
        }
    }

    /// Marks a mapped page as initialization-cold: preferred page-out
    /// victim until it is referenced.
    pub fn mark_page_cold(&mut self, page: Page) {
        if self.mapped_pages.remove(&page) && !self.cold_pages.contains(&page) {
            self.cold_pages.push_back(page);
        }
    }

    /// Unregisters a page (reconfiguration or page-out), returning whether
    /// it was mapped here.
    pub fn unmap_page(&mut self, page: Page) -> bool {
        let a = self.mapped_pages.remove(&page);
        let b = self.cold_pages.remove(&page);
        a || b
    }

    /// Number of pages mapped here.
    pub fn mapped_page_count(&self) -> usize {
        self.mapped_pages.len() + self.cold_pages.len()
    }

    /// Directory entry (creating a virgin one on first reference).
    pub fn entry_mut(&mut self, line: Line) -> &mut DirEntry {
        self.dir.get_or_insert_with(line, DirEntry::virgin)
    }

    /// Directory entry, if the line has ever been referenced.
    pub fn entry(&self, line: Line) -> Option<&DirEntry> {
        self.dir.get(line)
    }

    /// Iterates over all directory entries in ascending line order — the
    /// table's deterministic index order.
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (Line, &DirEntry)> {
        self.dir.iter_deterministic()
    }

    /// Times a bulk streaming read of `bytes` from the Data array (used by
    /// computation-in-memory scans, which touch mostly off-chip data).
    pub fn bulk_data_access(&mut self, at: Cycle, bytes: u64) -> Cycle {
        self.mem_off.access(at, bytes)
    }

    /// Notes that a line of `page` was served (keeps the page-recency
    /// order the page-out victim selection relies on; a cold page is
    /// promoted to the warm list).
    pub fn touch_page(&mut self, page: Page) {
        if self.cold_pages.remove(&page) {
            self.mapped_pages.push_back(page);
        } else {
            self.mapped_pages.move_to_back(&page);
        }
    }

    /// Times one Data-array access starting at `now`.
    pub fn data_access(&mut self, line: Line, now: Cycle) -> Cycle {
        let bytes = self.cfg.line_bytes;
        match self.onchip.touch(line) {
            Residency::OnChip => self.mem_on.access(now, bytes),
            Residency::OffChip => self.mem_off.access(now, bytes),
        }
    }

    /// Whether a slot request right now would have to reclaim SharedList
    /// or trigger a page-out.
    pub fn space_pressure(&self) -> bool {
        self.free_slots == 0 && (self.shared_list.len() as u64) < self.cfg.shared_list_min
    }

    /// Takes a free Data slot for `line`, reclaiming the SharedList head
    /// if the FreeList is empty. Returns the line whose home copy was
    /// dropped, if any. Returns `Err(())` if no slot can be found (caller
    /// must page out first).
    ///
    /// # Panics
    ///
    /// Panics if `line` already occupies a slot.
    #[allow(clippy::result_unit_err)]
    pub fn alloc_slot(&mut self, line: Line) -> Result<Option<Line>, ()> {
        let e = self.dir.get(line);
        assert!(
            e.is_none_or(|e| !e.in_mem),
            "line {line:#x} already has a Data slot"
        );
        if self.free_slots > 0 {
            self.free_slots -= 1;
            return Ok(None);
        }
        if self.cfg.reuse_shared_list {
            if let Some(victim) = self.shared_list.pop_front().map(CompactLine::get) {
                let ve = self
                    .dir
                    .get_mut(victim)
                    .expect("SharedList member must have a directory entry");
                debug_assert!(ve.in_mem);
                ve.in_mem = false;
                return Ok(Some(victim));
            }
        }
        Err(())
    }

    fn release_slot(&mut self, line: Line) {
        self.shared_list.remove(&CompactLine::new(line));
        self.free_slots += 1;
        debug_assert!(self.free_slots <= self.cfg.data_lines);
    }

    /// First read of a line by `reader`: the home materializes the line,
    /// gives out mastership, and threads its duplicate copy onto the
    /// SharedList.
    ///
    /// Must be called with a slot already allocated via [`DNode::alloc_slot`].
    pub fn grant_first_read(&mut self, line: Line, reader: NodeId) {
        let e = self.entry_mut(line);
        debug_assert!(e.uncached() && !e.in_mem);
        e.in_mem = true;
        e.paged_out = false;
        e.master = Master::Node(CompactNode::new(reader));
        e.sharers = NodeSet::singleton(reader);
        e.owner = None;
        self.shared_list.push_back(CompactLine::new(line));
    }

    /// A read of a line whose master copy sits at the home (either a
    /// D-node-only line, or one written back while other sharers remain):
    /// mastership is given out to the reader and the home's duplicate
    /// becomes reclaimable (SharedList tail).
    pub fn grant_master_read(&mut self, line: Line, reader: NodeId) {
        let e = self.dir.get_mut(line).expect("line must exist in memory");
        debug_assert!(e.in_mem && e.master == Master::Home && e.owner.is_none());
        e.master = Master::Node(CompactNode::new(reader));
        e.sharers.insert(reader);
        debug_assert!(!self.shared_list.contains(&CompactLine::new(line)));
        self.shared_list.push_back(CompactLine::new(line));
    }

    /// A subsequent read of a shared line by `reader`.
    pub fn add_sharer(&mut self, line: Line, reader: NodeId) {
        let e = self.entry_mut(line);
        debug_assert!(e.owner.is_none());
        e.sharers.insert(reader);
    }

    /// Read of a line dirty at `owner`: ownership dissolves into
    /// shared-master at the previous owner; the home keeps no copy.
    pub fn dirty_to_shared(&mut self, line: Line, reader: NodeId) -> NodeId {
        let e = self
            .dir
            .get_mut(line)
            .expect("dirty line must have an entry");
        let owner = e.owner.take().expect("line must be dirty");
        e.master = Master::Node(owner);
        e.sharers = NodeSet::singleton(owner.get());
        e.sharers.insert(reader);
        debug_assert!(!e.in_mem, "dirty lines keep no home copy");
        owner.get()
    }

    /// Write (read-exclusive/upgrade) by `writer`: returns the nodes to
    /// invalidate (sharers minus the writer, or the previous owner).
    /// Frees the home copy's slot — dirty lines keep no place holder.
    pub fn make_owner(&mut self, line: Line, writer: NodeId) -> NodeList {
        let e = self.entry_mut(line);
        let mut inval = NodeList::new();
        if let Some(prev) = e.owner.take().map(CompactNode::get) {
            if prev != writer {
                inval.push(prev);
            }
        }
        for s in e.sharers.iter() {
            if s != writer {
                inval.push(s);
            }
        }
        e.sharers.clear();
        let writer = CompactNode::new(writer);
        e.owner = Some(writer);
        e.master = Master::Node(writer);
        e.paged_out = false;
        if e.in_mem {
            e.in_mem = false;
            self.release_slot(line);
        }
        inval
    }

    /// Write-back of a displaced dirty or shared-master line from `from`.
    ///
    /// The home must take the line in; call [`DNode::alloc_slot`] first if
    /// [`DirEntry::in_mem`] is false. The home becomes the master; if
    /// other sharers remain the copy is *not* reclaimable (the master may
    /// not be dropped), matching the paper's nil pointers.
    pub fn write_back(&mut self, line: Line, from: NodeId) {
        let e = self
            .dir
            .get_mut(line)
            .expect("written-back line must exist");
        match e.owner {
            Some(owner) => {
                debug_assert_eq!(owner.get(), from, "only the owner can write back dirty");
                e.owner = None;
            }
            None => {
                // Normally the writer holds the master copy; a page-out
                // recall that raced with this displacement may already
                // have reclaimed mastership for the home, in which case
                // the incoming data simply refreshes the home copy.
                e.sharers.remove(from);
            }
        }
        e.master = Master::Home;
        e.paged_out = false;
        debug_assert!(e.in_mem, "caller must allocate a slot before write_back");
        // Master at home: not reclaimable, so it must not sit on the
        // SharedList.
        self.shared_list.remove(&CompactLine::new(line));
    }

    /// Marks that a slot was allocated for an incoming write-back (pairs
    /// with [`DNode::alloc_slot`]).
    pub fn fill_slot(&mut self, line: Line) {
        let e = self.entry_mut(line);
        debug_assert!(!e.in_mem);
        e.in_mem = true;
        e.paged_out = false;
    }

    /// A non-master sharer silently dropped its copy and sent a hint.
    pub fn replacement_hint(&mut self, line: Line, from: NodeId) {
        if let Some(e) = self.dir.get_mut(line) {
            let node = CompactNode::new(from);
            if e.master != Master::Node(node) && e.owner != Some(node) {
                e.sharers.remove(from);
            }
        }
    }

    /// Selects up to `batch` victim pages for a page-out. Pages are
    /// scanned from the least-recently-served end; within the scan
    /// window, pages with no lines cached in P-nodes (nothing to recall —
    /// typically long-cold data) are preferred. Does not modify state.
    pub fn pageout_victims(&self, batch: usize) -> Vec<Page> {
        // Initialization-cold pages first: nothing will miss them.
        let mut quiet: Vec<Page> = self.cold_pages.iter().take(batch.max(1)).copied().collect();
        if quiet.len() >= batch.max(1) {
            quiet.truncate(batch.max(1));
            return quiet;
        }
        let window = 8 * batch.max(1);
        let mut noisy = Vec::new();
        for &page in self.mapped_pages.iter().take(window) {
            let first = page * self.cfg.lines_per_page;
            let active = (first..first + self.cfg.lines_per_page).any(|l| {
                self.dir
                    .get(l)
                    .is_some_and(|e| e.owner.is_some() || !e.sharers.is_empty())
            });
            if active {
                noisy.push(page);
            } else {
                quiet.push(page);
            }
            if quiet.len() >= batch {
                break;
            }
        }
        quiet.extend(noisy);
        quiet.truncate(batch.max(1));
        quiet
    }

    /// Applies the storage effects of paging out `page`: every line of the
    /// page leaves memory and the directory marks it on disk. Lines cached
    /// in P-nodes must have been recalled by the caller beforehand.
    /// Returns the number of slots freed.
    pub fn apply_pageout(&mut self, page: Page) -> u64 {
        let first = page * self.cfg.lines_per_page;
        let mut freed = 0;
        for line in first..first + self.cfg.lines_per_page {
            let was_in_mem = match self.dir.get_mut(line) {
                Some(e) => {
                    debug_assert!(e.uncached(), "recall lines before paging out");
                    let was = e.in_mem;
                    e.in_mem = false;
                    e.master = Master::Home;
                    e.paged_out = true;
                    was
                }
                None => continue,
            };
            if was_in_mem {
                self.release_slot(line);
                freed += 1;
            }
        }
        self.unmap_page(page);
        freed
    }

    /// Applies a page-in (disk fault) for `line`'s page: clears the
    /// paged-out marker for all lines of the page and re-maps it.
    pub fn apply_pagein(&mut self, line: Line) {
        let page = line / self.cfg.lines_per_page;
        let first = page * self.cfg.lines_per_page;
        for l in first..first + self.cfg.lines_per_page {
            if let Some(e) = self.dir.get_mut(l) {
                e.paged_out = false;
            }
        }
        self.map_page(page);
    }

    /// Whether `page` is still initialization-cold (never served).
    pub fn is_cold_page(&self, page: Page) -> bool {
        self.cold_pages.contains(&page)
    }

    /// Removes a line's directory entry entirely (reconfiguration moves
    /// the line to a different home). Returns the entry.
    pub fn evict_entry(&mut self, line: Line) -> Option<DirEntry> {
        let e = self.dir.remove(line)?;
        if e.in_mem {
            self.shared_list.remove(&CompactLine::new(line));
            self.free_slots += 1;
        }
        Some(e)
    }

    /// Installs a directory entry migrated from another D-node.
    ///
    /// Returns `false` if the entry needed a Data slot and none was free
    /// (caller must page out and retry).
    pub fn install_entry(&mut self, line: Line, mut entry: DirEntry) -> bool {
        if entry.in_mem {
            match self.alloc_slot(line) {
                Ok(_) => {}
                Err(()) => return false,
            }
            // Re-thread list membership: reclaimable iff master is outside.
            if let Master::Node(_) = entry.master {
                if entry.owner.is_none() {
                    self.shared_list.push_back(CompactLine::new(line));
                }
            }
        } else if let Master::Node(_) = entry.master {
            // nothing: copy lives in a P-node
        } else if !entry.paged_out && entry.uncached() {
            // Virgin entries stay virgin.
            entry.master = Master::Home;
        }
        *self.entry_mut(line) = entry;
        true
    }

    /// Verifies the FreeList/SharedList/directory invariants; used by
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        let in_mem_count = self.iter_deterministic().filter(|(_, e)| e.in_mem).count() as u64;
        assert_eq!(
            in_mem_count + self.free_slots,
            self.cfg.data_lines,
            "slot accounting broken"
        );
        for (line, e) in self.iter_deterministic() {
            if self.shared_list.contains(&CompactLine::new(line)) {
                assert!(e.in_mem, "SharedList member {line:#x} not in memory");
                assert!(
                    matches!(e.master, Master::Node(_)) && e.owner.is_none(),
                    "SharedList member {line:#x} must be shared with master outside"
                );
            }
            if let Some(owner) = e.owner {
                assert!(!e.in_mem, "dirty line {line:#x} must not hold a slot");
                assert_eq!(
                    e.master,
                    Master::Node(owner),
                    "owner must be master for {line:#x}"
                );
                assert!(e.sharers.is_empty(), "dirty line {line:#x} has sharers");
            }
            if e.master == Master::Home && !e.uncached() {
                assert!(
                    e.in_mem,
                    "home-mastered shared line {line:#x} must be in memory"
                );
            }
            if e.paged_out {
                assert!(
                    !e.in_mem && e.uncached(),
                    "paged-out line {line:#x} still live"
                );
            }
        }
    }

    /// Utilization of the protocol processor over `elapsed` cycles.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.server.busy_cycles() as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(data_lines: u64) -> DNodeCfg {
        DNodeCfg {
            data_lines,
            onchip_lines: data_lines / 2,
            shared_list_min: 2,
            pageout_batch: 1,
            reuse_shared_list: true,
            lines_per_page: 4,
            lat_on: 37,
            lat_off: 57,
            mem_bytes_per_cycle: 32,
            line_bytes: 64,
        }
    }

    fn dnode(lines: u64) -> DNode {
        DNode::new(cfg(lines))
    }

    #[test]
    fn directory_slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<DirEntry>>(), 16);
    }

    #[test]
    fn first_read_gives_out_mastership() {
        let mut d = dnode(8);
        assert_eq!(d.alloc_slot(100), Ok(None));
        d.grant_first_read(100, 3);
        let e = d.entry(100).unwrap();
        assert_eq!(e.master, Master::Node(CompactNode::new(3)));
        assert!(e.in_mem);
        assert!(e.sharers.contains(3));
        assert_eq!(d.shared_list_len(), 1);
        assert_eq!(d.free_slots(), 7);
        d.check_invariants();
    }

    #[test]
    fn write_frees_home_copy() {
        let mut d = dnode(8);
        d.alloc_slot(100).unwrap();
        d.grant_first_read(100, 3);
        d.add_sharer(100, 4);
        let inval = d.make_owner(100, 5);
        assert_eq!(inval.len(), 2);
        assert!(inval.contains(&3) && inval.contains(&4));
        let e = d.entry(100).unwrap();
        assert_eq!(e.owner.map(CompactNode::get), Some(5));
        assert!(!e.in_mem, "dirty lines keep no place holder");
        assert_eq!(d.free_slots(), 8, "slot reused");
        assert_eq!(d.shared_list_len(), 0);
        d.check_invariants();
    }

    #[test]
    fn upgrade_by_sharer_does_not_invalidate_self() {
        let mut d = dnode(8);
        d.alloc_slot(1).unwrap();
        d.grant_first_read(1, 2);
        let inval = d.make_owner(1, 2);
        assert!(inval.is_empty());
        d.check_invariants();
    }

    #[test]
    fn dirty_read_creates_shared_master() {
        let mut d = dnode(8);
        let inval = d.make_owner(7, 1); // first touch is a write
        assert!(inval.is_empty());
        let prev = d.dirty_to_shared(7, 2);
        assert_eq!(prev, 1);
        let e = d.entry(7).unwrap();
        assert_eq!(e.owner, None);
        assert_eq!(e.master, Master::Node(CompactNode::new(1)));
        assert!(e.sharers.contains(1) && e.sharers.contains(2));
        assert!(!e.in_mem, "home did not take a copy");
        d.check_invariants();
    }

    #[test]
    fn write_back_dirty_restores_home_master() {
        let mut d = dnode(8);
        d.make_owner(7, 1);
        d.alloc_slot(7).unwrap();
        d.fill_slot(7);
        d.write_back(7, 1);
        let e = d.entry(7).unwrap();
        assert_eq!(e.owner, None);
        assert_eq!(e.master, Master::Home);
        assert!(e.in_mem);
        assert!(e.uncached());
        assert_eq!(d.shared_list_len(), 0, "master at home is not reclaimable");
        d.check_invariants();
    }

    #[test]
    fn master_write_back_with_remaining_sharers() {
        let mut d = dnode(8);
        d.alloc_slot(3).unwrap();
        d.grant_first_read(3, 1);
        d.add_sharer(3, 2);
        // Master (node 1) displaces its shared-master copy; home already
        // has a copy (in_mem), so no new slot is needed.
        d.write_back(3, 1);
        let e = d.entry(3).unwrap();
        assert_eq!(e.master, Master::Home);
        assert!(!e.sharers.contains(1));
        assert!(e.sharers.contains(2));
        assert_eq!(d.shared_list_len(), 0);
        d.check_invariants();
    }

    #[test]
    fn shared_list_reclaimed_when_free_exhausted() {
        let mut d = dnode(2);
        d.alloc_slot(10).unwrap();
        d.grant_first_read(10, 1);
        d.alloc_slot(20).unwrap();
        d.grant_first_read(20, 1);
        assert_eq!(d.free_slots(), 0);
        // Third line: FreeList empty → SharedList head (line 10) dropped.
        let dropped = d.alloc_slot(30).unwrap();
        assert_eq!(dropped, Some(10));
        d.grant_first_read(30, 2);
        assert!(!d.entry(10).unwrap().in_mem);
        d.check_invariants();
    }

    #[test]
    fn alloc_fails_when_nothing_reclaimable() {
        let mut d = dnode(1);
        d.alloc_slot(1).unwrap();
        d.grant_first_read(1, 1);
        // Take the copy home again: master at home → not reclaimable.
        d.write_back(1, 1);
        assert_eq!(d.alloc_slot(2), Err(()));
        assert!(d.space_pressure());
    }

    #[test]
    fn reuse_disabled_forces_pageout_path() {
        let mut c = cfg(1);
        c.reuse_shared_list = false;
        let mut d = DNode::new(c);
        d.alloc_slot(1).unwrap();
        d.grant_first_read(1, 1);
        assert_eq!(d.alloc_slot(2), Err(()), "reuse disabled");
    }

    #[test]
    fn pageout_frees_whole_page() {
        let mut d = dnode(8);
        d.map_page(0);
        for line in 0..3u64 {
            d.alloc_slot(line).unwrap();
            d.grant_first_read(line, 1);
            d.replacement_hint(line, 1); // P-node dropped its copy
        }
        // Mastership is still recorded outside; recall then page out.
        for line in 0..3u64 {
            let e = d.entry_mut(line);
            e.master = Master::Home;
            e.sharers.clear();
        }
        let victims = d.pageout_victims(1);
        assert_eq!(victims, vec![0]);
        let freed = d.apply_pageout(0);
        assert_eq!(freed, 3);
        assert!(d.entry(0).unwrap().paged_out);
        assert_eq!(d.free_slots(), 8);
        assert_eq!(d.mapped_page_count(), 0);
        d.check_invariants();
    }

    #[test]
    fn pagein_clears_markers() {
        let mut d = dnode(8);
        d.map_page(0);
        d.alloc_slot(1).unwrap();
        d.grant_first_read(1, 1);
        d.replacement_hint(1, 1);
        let e = d.entry_mut(1);
        e.master = Master::Home;
        e.sharers.clear();
        d.apply_pageout(0);
        d.apply_pagein(1);
        assert!(!d.entry(1).unwrap().paged_out);
        assert_eq!(d.mapped_page_count(), 1);
    }

    #[test]
    fn entry_migration_roundtrip() {
        let mut a = dnode(4);
        let mut b = dnode(4);
        a.alloc_slot(9).unwrap();
        a.grant_first_read(9, 1);
        let e = a.evict_entry(9).unwrap();
        assert_eq!(a.free_slots(), 4);
        assert!(b.install_entry(9, e));
        assert_eq!(b.free_slots(), 3);
        assert!(b.entry(9).unwrap().in_mem);
        assert_eq!(b.shared_list_len(), 1);
        a.check_invariants();
        b.check_invariants();
    }

    #[test]
    fn replacement_hint_ignores_master() {
        let mut d = dnode(4);
        d.alloc_slot(5).unwrap();
        d.grant_first_read(5, 1);
        d.add_sharer(5, 2);
        d.replacement_hint(5, 1); // node 1 is master: hint must not drop it
        assert!(d.entry(5).unwrap().sharers.contains(1));
        d.replacement_hint(5, 2);
        assert!(!d.entry(5).unwrap().sharers.contains(2));
        d.check_invariants();
    }

    #[test]
    fn directory_iteration_is_ascending_across_pages() {
        let mut d = dnode(16);
        // lines_per_page = 4: these lines span pages 0..=3, touched out
        // of order.
        for &line in &[9u64, 2, 13, 4, 0] {
            d.entry_mut(line);
        }
        let lines: Vec<Line> = d.iter_deterministic().map(|(l, _)| l).collect();
        assert_eq!(lines, vec![0, 2, 4, 9, 13]);
    }

    #[test]
    fn evicting_a_whole_page_recycles_its_chunk() {
        let mut d = dnode(8);
        d.entry_mut(4);
        d.entry_mut(5);
        assert!(d.evict_entry(4).is_some());
        assert!(d.evict_entry(5).is_some());
        assert!(d.entry(4).is_none());
        // The vacated chunk serves the next page with no stale entries.
        d.entry_mut(8);
        assert_eq!(
            d.iter_deterministic().map(|(l, _)| l).collect::<Vec<_>>(),
            vec![8]
        );
        assert!(d.entry(8).unwrap().uncached());
        d.check_invariants();
    }

    #[test]
    fn data_access_times_on_and_off_chip() {
        let mut d = dnode(4);
        let t_first = d.data_access(1, 0);
        let t_second = d.data_access(1, 1000);
        assert!(t_first >= 57 || t_first >= 37);
        assert!(t_second - 1000 <= t_first, "second touch is on-chip");
    }
}
