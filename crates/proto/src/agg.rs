//! The paper's AGG architecture.
//!
//! A single type of off-the-shelf PIM chip plays two roles:
//!
//! - **P-nodes** run application threads. Their local DRAM is tagged and
//!   organized as a big 4-way set-associative cache (attraction memory),
//!   so after a cache miss the processor can always probe its local memory
//!   first, whatever the address (Section 2.1.1).
//! - **D-nodes** run the directory protocol in *software* (Table 2 costs)
//!   over the Directory/Data/Pointer arrays of Section 2.2.2; their memory
//!   is the only backing store. Replaced master/dirty lines are always
//!   taken in by the home (fully-associative software allocation), so AGG
//!   never injects; under space pressure it pages out to disk instead.
//!
//! The system also implements the machine-level operations the paper's
//! Sections 2.3 and 2.4 need: converting nodes between the P and D roles
//! at runtime (with page/directory migration) and offloading
//! computation-in-memory requests to D-node processors.
//!
//! The shared substrate (homing, interconnect, handler costs, statistics,
//! tracing) lives in the [`Fabric`]; transactions walk over [`Txn`] steps
//! so every cycle is attributed to a latency component.

use pimdsm_engine::{Cycle, ServerGrant};
use pimdsm_faults::{Durability, RecoveryStats};
use pimdsm_mem::{line_of, page_of_line, CacheCfg, Line, Page, LINES_PER_PAGE, LINE_BYTES};
use pimdsm_net::{Mesh, NetCfg, Network};
use pimdsm_obs::breakdown::{DRAM, HANDLER, NETWORK};
use pimdsm_obs::{EpochProbe, Event};

use crate::common::{
    Access, AmState, CState, Census, CompactNode, ControllerKind, HandlerCosts, HandlerKind, Level,
    NodeId, NodeList, PreloadKind, LAT, MSG,
};
use crate::dnode::{DNode, DNodeCfg, Master};
use crate::fabric::Fabric;
use crate::pnode::{victim_class, PNodeStore, WriteProbe};
use crate::system::MemSystem;
use crate::txn::{cache_hit, walk, Txn, TxnKind};

/// Configuration of an [`AggSystem`].
#[derive(Debug, Clone)]
pub struct AggCfg {
    /// Number of compute nodes.
    pub n_p: usize,
    /// Number of directory nodes.
    pub n_d: usize,
    /// L1 geometry.
    pub l1: CacheCfg,
    /// L2 geometry.
    pub l2: CacheCfg,
    /// P-node attraction-memory geometry (4-way in the paper).
    pub p_am: CacheCfg,
    /// Lines of the P-node memory resident on chip.
    pub p_onchip_lines: u64,
    /// D-node sizing and policy.
    pub dnode: DNodeCfg,
    /// Network timing (2 B/cycle links in the paper).
    pub net: NetCfg,
    /// Protocol handler costs (software, Table 2).
    pub handler: HandlerCosts,
}

/// Extra D-node processor occupancy per page paged out (cycles).
const PAGEOUT_PAGE_OCCUPANCY: Cycle = 1_000;

/// Panic message of an unpinned page-out that finds no page to evict.
const NO_PAGE: &str = "D-node must page out but maps no pages";

impl AggCfg {
    /// A paper-parameter configuration: `n_p` P-nodes with `p_am_lines`
    /// lines of tagged local memory each, `n_d` D-nodes with
    /// `d_data_lines` Data-array lines each.
    pub fn paper(
        n_p: usize,
        n_d: usize,
        l1_kb: u64,
        l2_kb: u64,
        p_am_lines: u64,
        d_data_lines: u64,
    ) -> Self {
        AggCfg {
            n_p,
            n_d,
            l1: CacheCfg::new(l1_kb * 1024, 1),
            l2: CacheCfg::new(l2_kb * 1024, 4),
            p_am: CacheCfg::new(p_am_lines * LINE_BYTES, 4),
            p_onchip_lines: p_am_lines / 2,
            dnode: DNodeCfg {
                data_lines: d_data_lines,
                onchip_lines: d_data_lines / 2,
                reuse_shared_list: true,
            },
            net: NetCfg::default(),
            handler: HandlerCosts::paper(ControllerKind::Software),
        }
    }
}

/// What a mesh slot currently is.
#[derive(Debug)]
pub(crate) enum Role {
    P(Box<PNodeStore>),
    D(Box<DNode>),
}

/// The AGG machine.
#[derive(Debug)]
pub struct AggSystem {
    cfg: AggCfg,
    pub(crate) roles: Vec<Role>,
    p_list: Vec<NodeId>,
    d_list: Vec<NodeId>,
    fab: Fabric,
}

impl AggSystem {
    /// Builds an idle AGG machine with D-nodes interleaved evenly among
    /// the P-nodes on the mesh.
    ///
    /// # Panics
    ///
    /// Panics if there are zero P- or D-nodes.
    pub fn new(cfg: AggCfg) -> Self {
        assert!(cfg.n_p > 0, "need at least one P-node");
        assert!(cfg.n_d > 0, "need at least one D-node");
        let total = cfg.n_p + cfg.n_d;
        assert!(total <= crate::common::NodeSet::MAX_NODES);

        let mut roles = Vec::with_capacity(total);
        let mut p_list = Vec::new();
        let mut d_list = Vec::new();
        for (node, &d) in Self::d_slots(cfg.n_p, cfg.n_d).iter().enumerate() {
            if d {
                d_list.push(node);
                roles.push(Role::D(Box::new(DNode::new(cfg.dnode))));
            } else {
                p_list.push(node);
                roles.push(Role::P(Box::new(Self::new_pstore(&cfg))));
            }
        }

        let net = Network::new(Mesh::for_nodes(total), cfg.net);
        let fab = Fabric::new(cfg.handler, net);
        AggSystem {
            roles,
            p_list,
            d_list,
            fab,
            cfg,
        }
    }

    /// The starting role of each of the `n_p + n_d` nodes, `true` for a
    /// D-node: the D-nodes spread evenly across the linear node order
    /// (which the row-major mesh turns into a 2D interleaving).
    pub fn d_slots(n_p: usize, n_d: usize) -> Vec<bool> {
        let total = n_p + n_d;
        let mut is_d = vec![false; total];
        for i in 0..n_d {
            let pos = (i * total + total / 2) / n_d;
            is_d[pos.min(total - 1)] = true;
        }
        // Rounding collisions: fix up to exactly n_d.
        let mut count = is_d.iter().filter(|&&d| d).count();
        let mut idx = 0;
        while count < n_d {
            if !is_d[idx] {
                is_d[idx] = true;
                count += 1;
            }
            idx += 1;
        }
        is_d
    }

    fn new_pstore(cfg: &AggCfg) -> PNodeStore {
        PNodeStore::calibrated(cfg.l1, cfg.l2, cfg.p_am, cfg.p_onchip_lines as usize)
    }

    /// The configuration.
    pub fn cfg(&self) -> &AggCfg {
        &self.cfg
    }

    /// Current P-nodes.
    pub fn p_nodes(&self) -> &[NodeId] {
        &self.p_list
    }

    /// Current D-nodes.
    pub fn d_nodes(&self) -> &[NodeId] {
        &self.d_list
    }

    /// Attraction-memory state of a line at P-node `node`, without LRU
    /// effects (`None` at D-nodes or when the line is absent).
    pub fn am_state(&self, node: NodeId, line: Line) -> Option<AmState> {
        match &self.roles[node] {
            Role::P(s) => s.am.peek(line).copied(),
            Role::D(_) => None,
        }
    }

    /// Read access to a D-node's directory/data arrays (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not a D-node.
    pub fn dnode(&self, d: NodeId) -> &DNode {
        self.dstore_ref(d)
    }

    fn pstore(&mut self, p: NodeId) -> &mut PNodeStore {
        match &mut self.roles[p] {
            Role::P(s) => s,
            Role::D(_) => panic!("node {p} is a D-node, expected P"),
        }
    }

    pub(crate) fn pstore_ref(&self, p: NodeId) -> &PNodeStore {
        match &self.roles[p] {
            Role::P(s) => s,
            Role::D(_) => panic!("node {p} is a D-node, expected P"),
        }
    }

    fn dstore(&mut self, d: NodeId) -> &mut DNode {
        match &mut self.roles[d] {
            Role::D(s) => s,
            Role::P(_) => panic!("node {d} is a P-node, expected D"),
        }
    }

    fn dstore_ref(&self, d: NodeId) -> &DNode {
        match &self.roles[d] {
            Role::D(s) => s,
            Role::P(_) => panic!("node {d} is a P-node, expected D"),
        }
    }

    /// Home D-node of a line. Homes interleave across the D-nodes by page
    /// number ("each D-node is home to a fraction of the physical
    /// addresses", Section 2.2.1), which also spreads protocol load.
    fn home_of(&mut self, line: Line, _toucher: NodeId) -> NodeId {
        let page = page_of_line(line);
        if let Some(h) = self.fab.pages.home(page) {
            return h;
        }
        let best = self.d_list[(page as usize) % self.d_list.len()];
        self.fab.pages.home_or_assign(page, || best);
        self.dstore(best).map_page(page);
        best
    }

    /// Dispatches a software handler at D-node `d`; returns its grant.
    fn dispatch(&mut self, d: NodeId, kind: HandlerKind, invals: u32, at: Cycle) -> ServerGrant {
        let Role::D(dn) = &mut self.roles[d] else {
            panic!("node {d} is a P-node, expected D")
        };
        self.fab.dispatch(&mut dn.server, d, kind, invals, at)
    }

    /// Ensures D-node `d` has a free Data slot for `line`, paging out if
    /// necessary but never the `pinned` page (see [`Self::page_out`]).
    /// Returns the cycle by which the slot is available, or `None` if
    /// only the pinned page could have made room.
    fn ensure_slot(
        &mut self,
        d: NodeId,
        line: Line,
        at: Cycle,
        pinned: Option<Page>,
    ) -> Option<Cycle> {
        let mut t = at;
        while self.dstore(d).alloc_slot(line).is_err() {
            t = self.page_out(d, t, pinned)?;
        }
        Some(t)
    }

    /// Page-out at D-node `d` (Section 2.2.2), run when a slot is needed
    /// and neither the FreeList nor the SharedList can supply one: the OS
    /// walks the directory entries of the victim page, recalls lines
    /// cached in P-nodes, and writes the page to disk. Returns the cycle
    /// at which the freed space is usable, or `None` if `d` maps no page
    /// but `pinned`.
    ///
    /// The `pinned` page is never a victim: it holds the line of the walk
    /// whose attraction-memory fill displaced the line being written back
    /// here, and that walk has already entered its requester in the
    /// directory, so recalling the line would leave the requester's
    /// caches holding a line the directory had paged out (an OS likewise
    /// pins a page under I/O).
    fn page_out(&mut self, d: NodeId, at: Cycle, pinned: Option<Page>) -> Option<Cycle> {
        let page = self.dstore_ref(d).pageout_victim(pinned)?;
        self.fab.stats.page_outs += 1;
        let mut t = at;
        let first = page * LINES_PER_PAGE;
        for line in first..first + LINES_PER_PAGE {
            t = self.recall(d, line, t);
        }
        let dn = self.dstore(d);
        dn.apply_pageout(page);
        t = dn.server.occupy(t, PAGEOUT_PAGE_OCCUPANCY) + PAGEOUT_PAGE_OCCUPANCY;
        self.fab
            .tracer
            .span(Event::PageOut, d as u32, at, (t - at).max(1), &[]);
        Some(t)
    }

    /// Recalls every P-node copy of `line` to its home D-node `d` from
    /// `at`, leaving the home the master of an uncached line. Returns the
    /// cycle the last copy arrives.
    fn recall(&mut self, d: NodeId, line: Line, at: Cycle) -> Cycle {
        let Some(e) = self.dstore_ref(d).entry(line).copied() else {
            return at;
        };
        let mut holders = NodeList::new();
        for s in e.sharers.iter() {
            holders.push(s);
        }
        if let Some(o) = e.owner.map(CompactNode::get) {
            if !holders.contains(&o) {
                holders.push(o);
            }
        }
        let mut t = at;
        for &k in holders.iter() {
            // Invalidate at the P-node; dirty/master data travels back.
            if let Role::P(s) = &mut self.roles[k] {
                s.caches.invalidate(line);
                s.am.remove(line);
            }
            let t1 = self.fab.net.send(d, k, MSG.ctrl, t);
            let t2 = self.fab.net.send(k, d, MSG.data, t1 + LAT.am_tag_check);
            t = t.max(t2);
        }
        let e = self.dstore(d).entry_mut(line);
        e.owner = None;
        e.sharers.clear();
        e.master = Master::Home;
        t
    }

    /// Write-back of a displaced dirty/shared-master line from P-node `p`
    /// to its home D-node, whose page-out spares the `pinned` page. Booked
    /// asynchronously from `at`.
    fn write_back(&mut self, p: NodeId, line: Line, at: Cycle, pinned: Option<Page>) {
        self.fab.stats.write_backs += 1;
        let home = self.fab.mapped_home(line);
        let t1 = self.fab.net.send(p, home, MSG.data, at);
        let g = self.dispatch(home, HandlerKind::WriteBack, 0, t1);
        if self.dstore_ref(home).entry(line).is_some_and(|e| e.in_mem) {
            self.dstore(home).data_access(line, g.start);
        } else if let Some(t_slot) = self.ensure_slot(home, line, g.start, pinned) {
            self.dstore(home).fill_slot(line);
            self.dstore(home).data_access(line, t_slot);
        } else {
            // The home holds nothing it may page out: the line goes to
            // disk on its own, its remaining copies recalled.
            self.recall(home, line, g.start);
            self.dstore(home).entry_mut(line).paged_out = true;
            self.fab.stats.disk_spills += 1;
            return;
        }
        self.dstore(home).write_back(line, p);
    }

    /// Silent drop of a shared non-master copy + asynchronous hint.
    fn drop_shared(&mut self, p: NodeId, line: Line, at: Cycle) {
        let home = self.fab.mapped_home(line);
        let t1 = self.fab.net.send(p, home, MSG.ctrl, at);
        let Role::D(dn) = &mut self.roles[home] else {
            panic!("home {home} is a P-node, expected D")
        };
        self.fab.ack_occupy(Event::Hint, &mut dn.server, home, t1);
        dn.replacement_hint(line, p);
    }

    /// Inserts a line into P-node `p`'s attraction memory, handling the
    /// displaced victim per the AGG protocol (write back to the home —
    /// never inject, and never page out `line`'s own page).
    fn am_fill(&mut self, p: NodeId, line: Line, state: AmState, at: Cycle) {
        let r = self.pstore(p).am.insert(line, state, victim_class);
        let Some(victim) = r.victim else { return };
        let vline = victim.line;
        self.fab.am_swap(p, line, vline, at);
        let cached = self.pstore(p).caches.invalidate(vline);
        let vstate = match (victim.state, cached) {
            (_, Some(CState::Dirty)) => AmState::Dirty,
            (s, _) => s,
        };
        match vstate {
            AmState::Shared => self.drop_shared(p, vline, at),
            AmState::SharedMaster | AmState::Dirty => {
                self.write_back(p, vline, at, Some(page_of_line(line)));
            }
        }
    }

    /// Invalidates the given P-nodes' copies; acks collected at
    /// `collector`. Returns last ack arrival. Unlike the NUMA/COMA
    /// fan-out, the P-node's memory controller handles the invalidation
    /// without occupying any protocol processor.
    fn invalidate_p_copies(
        &mut self,
        targets: &[NodeId],
        line: Line,
        from: NodeId,
        collector: NodeId,
        at: Cycle,
    ) -> Cycle {
        let mut done = at;
        for &k in targets {
            self.fab.stats.invalidations += 1;
            let t1 = self.fab.net.send(from, k, MSG.ctrl, at);
            if let Role::P(s) = &mut self.roles[k] {
                s.caches.invalidate(line);
                s.am.remove(line);
            }
            let t2 = self
                .fab
                .net
                .send(k, collector, MSG.ctrl, t1 + LAT.am_tag_check);
            done = done.max(t2);
        }
        done
    }

    /// Local memory (AM data) access for a line resident at P-node `p`.
    fn mem_access(&mut self, p: NodeId, line: Line, at: Cycle) -> Cycle {
        let ps = self.pstore(p);
        let res = ps
            .am
            .touch(line)
            .expect("line must be resident for mem_access");
        ps.mem_access(res, at)
    }

    /// Supplies a line from P-node `k`'s memory to `to` along the walk:
    /// the remote memory controller reads the AM and replies without
    /// processor involvement.
    fn supply_from_p(&mut self, tx: &mut Txn, k: NodeId, to: NodeId, line: Line) -> Cycle {
        let m = self.mem_access(k, line, tx.at());
        tx.dram(m);
        tx.send(&mut self.fab, k, to, MSG.data)
    }

    fn read_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr);
        if let Some(level) = self.pstore(node).caches.read_probe(line) {
            return cache_hit(&mut self.fab, level, now, true);
        }
        walk(self, node, line, now, TxnKind::Read, |s, tx| {
            s.read_txn(tx, node, line)
        })
    }

    /// The steps of a read that missed the private caches.
    fn read_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(LAT.l2 + LAT.am_tag_check);
        if self.pstore(node).am.contains(line) {
            self.fab.am_hit(node, line, tx.at());
            let m = self.mem_access(node, line, tx.at());
            tx.dram(m);
            tx.fill();
            self.pstore(node).fill_caches(line, CState::Shared);
            return Level::LocalMem;
        }
        self.fab.am_miss(node, line, tx.at());

        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let ctrl = MSG.ctrl;
        let data = MSG.data;
        let t1 = tx.send(&mut self.fab, node, home, ctrl);
        let entry = self.dstore_ref(home).entry(line).copied();

        let (level, new_state) = match entry {
            Some(e) if e.paged_out => {
                self.fab.disk_fault(home, line, t1);
                let g = self.dispatch(home, HandlerKind::Read, 0, t1);
                tx.handler_start(g);
                tx.disk();
                let t_slot = self.ensure_slot(home, line, tx.at(), None).expect(NO_PAGE);
                tx.to(DRAM, t_slot);
                let dn = self.dstore(home);
                dn.fill_slot(line);
                dn.apply_pagein(line);
                dn.grant_master_read(line, node);
                tx.send(&mut self.fab, home, node, data);
                (Level::Hop2, AmState::SharedMaster)
            }
            Some(e) if e.owner.is_some() => {
                let k = e.owner.expect("checked").get();
                debug_assert_ne!(k, node, "owner cannot miss in its own memory");
                let g = self.dispatch(home, HandlerKind::Read, 0, t1);
                tx.handler(g);
                tx.send(&mut self.fab, home, k, ctrl);
                // Owner downgrades to shared-master; the home takes no copy.
                self.pstore(k).caches.downgrade(line);
                if let Some(s) = self.pstore(k).am.peek_mut(line) {
                    *s = AmState::SharedMaster;
                }
                self.supply_from_p(tx, k, node, line);
                self.dstore(home).dirty_to_shared(line, node);
                (Level::Hop3, AmState::Shared)
            }
            Some(e) if !e.sharers.is_empty() => {
                let g = self.dispatch(home, HandlerKind::Read, 0, t1);
                let pg = page_of_line(line);
                self.dstore(home).touch_page(pg);
                if e.in_mem {
                    tx.handler_start(g);
                    let state = if e.master == Master::Home {
                        // Home holds the master: give mastership out again.
                        self.dstore(home).grant_master_read(line, node);
                        AmState::SharedMaster
                    } else {
                        self.dstore(home).add_sharer(line, node);
                        AmState::Shared
                    };
                    let m = self.dstore(home).data_access(line, g.start);
                    tx.dram(m);
                    tx.to(HANDLER, g.reply_at);
                    tx.send(&mut self.fab, home, node, data);
                    (Level::Hop2, state)
                } else {
                    // Home dropped its copy: 3-hop fetch from the master.
                    let Master::Node(k) = e.master else {
                        unreachable!("dropped home copy implies an outside master")
                    };
                    let k = k.get();
                    debug_assert_ne!(k, node);
                    self.fab.stats.master_fetches += 1;
                    tx.handler(g);
                    tx.send(&mut self.fab, home, k, ctrl);
                    self.supply_from_p(tx, k, node, line);
                    self.dstore(home).add_sharer(line, node);
                    (Level::Hop3, AmState::Shared)
                }
            }
            Some(e) if e.in_mem => {
                // D-node-only line (master at home): grant mastership out.
                let g = self.dispatch(home, HandlerKind::Read, 0, t1);
                tx.handler_start(g);
                let pg = page_of_line(line);
                self.dstore(home).touch_page(pg);
                self.dstore(home).grant_master_read(line, node);
                let m = self.dstore(home).data_access(line, g.start);
                tx.dram(m);
                tx.to(HANDLER, g.reply_at);
                tx.send(&mut self.fab, home, node, data);
                (Level::Hop2, AmState::SharedMaster)
            }
            _ => {
                // Virgin line: materialize at the home, grant mastership.
                let g = self.dispatch(home, HandlerKind::Read, 0, t1);
                tx.handler_start(g);
                let t_slot = self.ensure_slot(home, line, g.start, None).expect(NO_PAGE);
                tx.to(DRAM, t_slot);
                self.dstore(home).grant_first_read(line, node);
                let m = self.dstore(home).data_access(line, t_slot);
                tx.dram(m);
                tx.to(HANDLER, g.reply_at);
                tx.send(&mut self.fab, home, node, data);
                (Level::Hop2, AmState::SharedMaster)
            }
        };

        tx.fill();
        self.am_fill(node, line, new_state, tx.at());
        self.pstore(node).fill_caches(line, CState::Shared);
        level
    }

    fn write_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr);
        match self.pstore(node).caches.write_probe(line) {
            WriteProbe::Done(level) => cache_hit(&mut self.fab, level, now, false),
            WriteProbe::NeedUpgrade | WriteProbe::Miss => {
                walk(self, node, line, now, TxnKind::Write, |s, tx| {
                    s.write_txn(tx, node, line)
                })
            }
        }
    }

    /// The steps of a write that the private caches could not complete:
    /// a miss, or a shared copy that needs ownership.
    fn write_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(LAT.l2 + LAT.am_tag_check);
        let am_state = self.pstore(node).am.peek(line).copied();

        if am_state == Some(AmState::Dirty) {
            // Exclusive at the memory level already.
            let m = self.mem_access(node, line, tx.at());
            tx.dram(m);
            tx.fill();
            self.pstore(node).fill_caches(line, CState::Dirty);
            return Level::LocalMem;
        }

        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let ctrl = MSG.ctrl;
        let data = MSG.data;
        self.fab.stats.remote_writes += 1;
        let t1 = tx.send(&mut self.fab, node, home, ctrl);
        let entry = self.dstore_ref(home).entry(line).copied();

        // Handle a paged-out line first: bring the page back.
        if let Some(e) = entry {
            if e.paged_out {
                self.fab.disk_fault(home, line, t1);
                let g = self.dispatch(home, HandlerKind::ReadExclusive, 0, t1);
                tx.handler(g);
                tx.disk();
                self.dstore(home).apply_pagein(line);
                let targets = self.dstore(home).make_owner(line, node);
                debug_assert!(targets.is_empty());
                tx.send(&mut self.fab, home, node, data);
                tx.fill();
                self.am_fill(node, line, AmState::Dirty, tx.at());
                self.pstore(node).fill_caches(line, CState::Dirty);
                return Level::Hop2;
            }
        }

        let had_local_copy = am_state.is_some();
        let prev_owner = entry.and_then(|e| e.owner).map(CompactNode::get);
        let home_had_copy = entry.is_some_and(|e| e.in_mem);

        // Directory mutation: who must be invalidated.
        let mut targets = self.dstore(home).make_owner(line, node);
        let g = self.dispatch(home, HandlerKind::ReadExclusive, targets.len() as u32, t1);

        let level = if had_local_copy {
            // Upgrade: data already local, just ownership + invalidations.
            tx.handler(g);
            let acks = self.invalidate_p_copies(&targets, line, home, node, tx.at());
            tx.send(&mut self.fab, home, node, ctrl);
            if let Some(s) = self.pstore(node).am.peek_mut(line) {
                *s = AmState::Dirty;
            }
            tx.to(NETWORK, acks);
            Level::Hop2
        } else if let Some(k) = prev_owner {
            debug_assert_ne!(k, node);
            targets.retain(|&x| x != k);
            tx.handler(g);
            let acks = self.invalidate_p_copies(&targets, line, home, node, tx.at());
            tx.send(&mut self.fab, home, k, ctrl);
            self.supply_from_p(tx, k, node, line);
            self.pstore(k).caches.invalidate(line);
            self.pstore(k).am.remove(line);
            self.fab.stats.invalidations += 1;
            tx.to(NETWORK, acks);
            Level::Hop3
        } else if home_had_copy {
            tx.handler_start(g);
            let m = self.dstore(home).data_access(line, g.start);
            tx.dram(m);
            tx.to(HANDLER, g.reply_at);
            let acks = self.invalidate_p_copies(&targets, line, home, node, g.reply_at);
            tx.send(&mut self.fab, home, node, data);
            tx.to(NETWORK, acks);
            Level::Hop2
        } else if let Some(&k) = targets.first() {
            // Home copy dropped: fetch from the master (first target holds
            // it — the master is always a sharer).
            let master = entry
                .map(|e| match e.master {
                    Master::Node(m) => m.get(),
                    Master::Home => k,
                })
                .unwrap_or(k);
            let supplier = if targets.contains(&master) { master } else { k };
            targets.retain(|&x| x != supplier);
            tx.handler(g);
            let acks = self.invalidate_p_copies(&targets, line, home, node, tx.at());
            tx.send(&mut self.fab, home, supplier, ctrl);
            self.supply_from_p(tx, supplier, node, line);
            self.pstore(supplier).caches.invalidate(line);
            self.pstore(supplier).am.remove(line);
            self.fab.stats.invalidations += 1;
            self.fab.stats.master_fetches += 1;
            tx.to(NETWORK, acks);
            Level::Hop3
        } else {
            // Virgin line: ownership granted, data materializes.
            tx.handler(g);
            tx.send(&mut self.fab, home, node, data);
            Level::Hop2
        };

        tx.fill();
        if !had_local_copy {
            self.am_fill(node, line, AmState::Dirty, tx.at());
        }
        self.pstore(node).fill_caches(line, CState::Dirty);
        level
    }

    /// Generic computation-in-memory offload (Section 2.4): P-node `p`
    /// sends a request of `request_bytes`; the D-node processor runs a
    /// software handler for `occupancy` cycles (plus `mem_bytes` of Data
    /// traffic on its memory port) and replies with `reply_bytes`.
    /// Returns the cycle the reply reaches `p`.
    #[allow(clippy::too_many_arguments)]
    pub fn offload(
        &mut self,
        p: NodeId,
        d: NodeId,
        request_bytes: u32,
        occupancy: Cycle,
        mem_bytes: u64,
        reply_bytes: u32,
        now: Cycle,
    ) -> Cycle {
        let t1 = self.fab.net.send(p, d, request_bytes, now);
        let start = self.dstore(d).server.occupy(t1, occupancy);
        let t_mem = self.dstore(d).bulk_data_access(start, mem_bytes);
        let done = (start + occupancy).max(t_mem);
        self.fab.tracer.span(
            Event::Offload,
            d as u32,
            start,
            (done - start).max(1),
            &[("from", p as u64), ("bytes", mem_bytes)],
        );
        self.fab.net.send(d, p, reply_bytes, done)
    }

    /// Home D-node of an address (first-touch assigning if needed) —
    /// exposed so computation-in-memory callers can route their requests.
    pub fn home_for_addr(&mut self, addr: u64, toucher: NodeId) -> NodeId {
        let line = line_of(addr);
        self.home_of(line, toucher)
    }

    /// Converts D-node `node` into a P-node (Section 2.3): its pages and
    /// directory entries migrate to the remaining D-nodes; in-memory lines
    /// travel over the network. Returns `(completion_cycle, pages_moved,
    /// lines_moved)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a D-node or it is the last one.
    pub fn convert_d_to_p(&mut self, node: NodeId, now: Cycle) -> (Cycle, u64, u64) {
        assert!(self.d_list.contains(&node), "node {node} is not a D-node");
        assert!(self.d_list.len() > 1, "cannot convert the last D-node");
        let targets: Vec<NodeId> = self.d_list.iter().copied().filter(|&d| d != node).collect();
        let pages = self.fab.pages.pages_homed_at(node);
        // Bulk migration: the node streams its warm resident lines to the
        // new homes at link bandwidth; initialization-cold pages are sent
        // to disk instead (the paper: "these pages can be mapped to
        // another D-node or sent to disk"), off the critical path.
        let line_transfer = self.bulk_line_transfer();
        let mut t = now;
        let mut lines_moved = 0u64;
        for (i, &page) in pages.iter().enumerate() {
            let nh = targets[i % targets.len()];
            let cold = self.dstore_ref(node).is_cold_page(page);
            self.fab.pages.reassign(page, nh);
            self.dstore(node).unmap_page(page);
            if cold {
                // Hand the page to disk: the new home keeps directory
                // entries marked paged-out; no data moves now.
                self.dstore(nh).map_page(page);
                self.dstore(nh).mark_page_cold(page);
                let first = page * LINES_PER_PAGE;
                for line in first..first + LINES_PER_PAGE {
                    if let Some(mut e) = self.dstore(node).evict_entry(line) {
                        e.in_mem = false;
                        e.paged_out = true;
                        e.master = Master::Home;
                        self.dstore(nh).install_entry(line, e);
                    }
                }
                continue;
            }
            self.dstore(nh).map_page(page);
            let first = page * LINES_PER_PAGE;
            for line in first..first + LINES_PER_PAGE {
                let Some(e) = self.dstore(node).evict_entry(line) else {
                    continue;
                };
                if e.in_mem {
                    lines_moved += 1;
                    t += line_transfer;
                }
                let mut entry = e;
                while !self.dstore(nh).install_entry(line, entry) {
                    t = self.page_out(nh, t, None).expect(NO_PAGE);
                    entry = e;
                }
            }
        }
        self.d_list.retain(|&d| d != node);
        self.roles[node] = Role::P(Box::new(Self::new_pstore(&self.cfg)));
        self.p_list.push(node);
        self.p_list.sort_unstable();
        (t, pages.len() as u64, lines_moved)
    }

    /// Converts P-node `node` into a D-node: the OS writes back its dirty
    /// and shared-master lines to their homes, then reconfigures the
    /// memory controller to plain-memory mode. Returns `(completion_cycle,
    /// lines_flushed)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a P-node.
    pub fn convert_p_to_d(&mut self, node: NodeId, now: Cycle) -> (Cycle, u64) {
        assert!(self.p_list.contains(&node), "node {node} is not a P-node");
        // Take the store out so its in-place drains don't borrow `self`
        // across the flush calls below. The slot temporarily holds an empty
        // P-store, which nothing on the flush path reads: `drop_shared` and
        // `write_back` only touch the home D-nodes and the fabric.
        let placeholder = Role::P(Box::new(Self::new_pstore(&self.cfg)));
        let Role::P(mut store) = std::mem::replace(&mut self.roles[node], placeholder) else {
            panic!("node {node} is a D-node, expected P")
        };
        for (line, st) in store.caches.drain_all() {
            if st == CState::Dirty {
                if let Some(s) = store.am.peek_mut(line) {
                    *s = AmState::Dirty;
                }
            }
        }
        let mut t = now;
        let mut flushed = 0u64;
        for (line, st) in store.am.drain_all() {
            match st {
                AmState::Shared => self.drop_shared(node, line, t),
                AmState::SharedMaster | AmState::Dirty => {
                    flushed += 1;
                    self.write_back(node, line, t, None);
                    t += 2; // message issue pacing
                }
            }
        }
        self.p_list.retain(|&p| p != node);
        self.roles[node] = Role::D(Box::new(DNode::new(self.cfg.dnode)));
        self.d_list.push(node);
        self.d_list.sort_unstable();
        (t, flushed)
    }

    /// Drops an address from a P-node's private caches without touching
    /// its attraction memory or the directory — a probe helper for
    /// calibration and tests (equivalent to capacity-evicting the line
    /// from the SRAM caches).
    pub fn purge_caches(&mut self, p: NodeId, addr: u64) {
        let line = line_of(addr);
        self.pstore(p).purge_caches(line);
    }

    /// Verifies D-node storage invariants (tests).
    pub fn check_invariants(&self) {
        for &d in &self.d_list {
            self.dstore_ref(d).check_invariants();
        }
    }

    /// Cycles to stream one line in a reconfiguration migration or a
    /// recovery sweep: over four mesh links in parallel, without per-line
    /// message headers (bulk DMA).
    fn bulk_line_transfer(&self) -> Cycle {
        LINE_BYTES.div_ceil(self.cfg.net.bytes_per_cycle * 4)
    }

    /// Kill of a P-node: its caches and attraction memory vanish, so
    /// every directory entry naming it is scrubbed — sharer bits dropped,
    /// mastership re-elected onto a surviving sharer, dirty ownership
    /// either restored from a replica or written off to disk as lost.
    fn kill_p(
        &mut self,
        victim: NodeId,
        now: Cycle,
        durability: Durability,
        rs: &mut RecoveryStats,
    ) -> Cycle {
        self.p_list.retain(|&p| p != victim);
        self.roles[victim] = Role::P(Box::new(Self::new_pstore(&self.cfg)));
        self.fab.dead.insert(victim);

        let line_transfer = self.bulk_line_transfer();
        let mut t = now;
        let d_list = self.d_list.clone();
        let dead = CompactNode::new(victim);
        for d in d_list {
            let affected: Vec<Line> = self
                .dstore_ref(d)
                .iter_deterministic()
                .filter(|(_, e)| {
                    e.owner == Some(dead)
                        || e.sharers.contains(victim)
                        || e.master == Master::Node(dead)
                })
                .map(|(l, _)| l)
                .collect();
            let mut touched_pages: Vec<(Page, u64)> = Vec::new();
            for line in affected {
                let mut e = self
                    .dstore(d)
                    .evict_entry(line)
                    .expect("affected entry must exist");
                if e.owner == Some(dead) {
                    // The only up-to-date copy was dirty at the victim.
                    e.owner = None;
                    e.sharers.clear();
                    e.master = Master::Home;
                    if durability == Durability::Replication {
                        // The replica refreshes the home copy if a Data
                        // slot is free; otherwise it rests on disk.
                        e.in_mem = true;
                        if !self.dstore(d).install_entry(line, e) {
                            e.in_mem = false;
                            e.paged_out = true;
                            assert!(self.dstore(d).install_entry(line, e));
                        }
                    } else {
                        e.paged_out = true;
                        rs.lines_lost += 1;
                        assert!(self.dstore(d).install_entry(line, e));
                    }
                } else {
                    e.sharers.remove(victim);
                    if e.master == Master::Node(dead) {
                        if let Some(s) = e.sharers.first() {
                            // Re-elect mastership onto a surviving sharer.
                            e.master = Master::Node(CompactNode::new(s));
                            if let Some(st) = self.pstore(s).am.peek_mut(line) {
                                *st = AmState::SharedMaster;
                            }
                            rs.lines_recalled += 1;
                        } else if e.in_mem {
                            e.master = Master::Home;
                        } else if durability == Durability::Replication {
                            e.master = Master::Home;
                            e.paged_out = true;
                        } else {
                            e.master = Master::Home;
                            e.paged_out = true;
                            rs.lines_lost += 1;
                        }
                    }
                    assert!(self.dstore(d).install_entry(line, e));
                }
                let page = page_of_line(line);
                match touched_pages.iter_mut().find(|(p, _)| *p == page) {
                    Some((_, n)) => *n += 1,
                    None => touched_pages.push((page, 1)),
                }
            }
            // The home walks each affected page's directory once; pages
            // become usable again as their sweep completes.
            for (page, lines) in touched_pages {
                t += LAT.am_tag_check + lines * line_transfer;
                self.fab.mark_recovering(page, t);
                rs.recovery.record(t - now);
            }
        }

        // Reconfiguration under failure (Section 2.3 applied to a crash):
        // restore compute capacity by converting a D-node into a P-node,
        // provided the directory set can spare one.
        if self.d_list.len() > 1 {
            let drafted = *self.d_list.last().expect("nonempty");
            let drafted_pages = self.fab.pages.pages_homed_at(drafted);
            let (t_conv, pages, lines) = self.convert_d_to_p(drafted, t);
            for page in drafted_pages {
                self.fab.mark_recovering(page, t_conv);
                rs.recovery.record(t_conv - now);
            }
            rs.pages_rehomed += pages;
            rs.lines_recalled += lines;
            t = t_conv;
        }
        t
    }

    /// Kill of a D-node: the pages it was home to are re-homed across the
    /// surviving D-nodes, reconstructing each directory entry from what
    /// the surviving P-nodes still hold. Home copies and D-node-only data
    /// die with the victim unless replication covers them.
    fn kill_d(
        &mut self,
        victim: NodeId,
        now: Cycle,
        durability: Durability,
        rs: &mut RecoveryStats,
    ) -> Cycle {
        assert!(
            self.d_list.len() > 1,
            "cannot kill the only D-node {victim}"
        );
        self.fab.dead.insert(victim);
        let targets: Vec<NodeId> = self
            .d_list
            .iter()
            .copied()
            .filter(|&d| d != victim)
            .collect();
        let pages = self.fab.pages.pages_homed_at(victim);
        let line_transfer = self.bulk_line_transfer();
        let mut t = now;
        for (i, &page) in pages.iter().enumerate() {
            let nh = targets[i % targets.len()];
            let cold = self.dstore_ref(victim).is_cold_page(page);
            self.fab.pages.reassign(page, nh);
            self.dstore(victim).unmap_page(page);
            self.dstore(nh).map_page(page);
            if cold {
                self.dstore(nh).mark_page_cold(page);
            }
            let page_start = t;
            let first = page * LINES_PER_PAGE;
            let mut touched = 0u64;
            for line in first..first + LINES_PER_PAGE {
                let Some(mut e) = self.dstore(victim).evict_entry(line) else {
                    continue;
                };
                touched += 1;
                if e.paged_out || e.owner.is_some() {
                    // Disk copies and dirty lines at live P-nodes survive
                    // untouched; only the directory entry moves.
                    if e.owner.is_some() {
                        rs.lines_recalled += 1;
                    }
                    assert!(self.dstore(nh).install_entry(line, e));
                } else if !e.sharers.is_empty() {
                    // Any home copy died with the victim's memory.
                    e.in_mem = false;
                    if e.master == Master::Home {
                        let s = e.sharers.first().expect("nonempty");
                        e.master = Master::Node(CompactNode::new(s));
                        if let Some(st) = self.pstore(s).am.peek_mut(line) {
                            *st = AmState::SharedMaster;
                        }
                    }
                    rs.lines_recalled += 1;
                    assert!(self.dstore(nh).install_entry(line, e));
                } else if e.in_mem {
                    // D-node-only data: gone unless a replica exists.
                    if durability == Durability::Replication {
                        while !self.dstore(nh).install_entry(line, e) {
                            t = self.page_out(nh, t, None).expect(NO_PAGE);
                        }
                        t += line_transfer;
                    } else {
                        e.in_mem = false;
                        e.paged_out = true;
                        rs.lines_lost += 1;
                        assert!(self.dstore(nh).install_entry(line, e));
                    }
                } else {
                    // Virgin entry: nothing to reconstruct.
                    assert!(self.dstore(nh).install_entry(line, e));
                }
            }
            t = t.max(page_start) + LAT.am_tag_check + touched * line_transfer;
            self.fab.mark_recovering(page, t);
            rs.recovery.record(t - now);
        }
        rs.pages_rehomed += pages.len() as u64;
        self.d_list.retain(|&d| d != victim);
        self.roles[victim] = Role::D(Box::new(DNode::new(self.cfg.dnode)));
        t
    }
}

impl MemSystem for AggSystem {
    fn name(&self) -> &'static str {
        "AGG"
    }

    fn read(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.read_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::agg_line(self, line_of(addr));
        a
    }

    fn write(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.write_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::agg_line(self, line_of(addr));
        a
    }

    fn fabric(&self) -> &Fabric {
        &self.fab
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fab
    }

    fn controllers_busy(&self) -> (Cycle, usize) {
        let busy: Cycle = self
            .d_list
            .iter()
            .map(|&d| self.dstore_ref(d).server.busy_cycles())
            .sum();
        (busy, self.d_list.len())
    }

    fn retire_before(&mut self, floor: Cycle) {
        self.fab.net.retire_before(floor);
        for role in &mut self.roles {
            match role {
                Role::P(s) => s.retire_before(floor),
                Role::D(d) => d.retire_before(floor),
            }
        }
    }

    fn check_coherence(&self) {
        crate::check::check_agg(self);
    }

    fn compute_nodes(&self) -> Vec<NodeId> {
        self.p_list.clone()
    }

    fn apply_kill(
        &mut self,
        node: NodeId,
        now: Cycle,
        durability: Durability,
        rs: &mut RecoveryStats,
    ) -> Cycle {
        assert!(!self.fab.dead.contains(node), "node {node} is already dead");
        let done = match &self.roles[node] {
            Role::P(_) => self.kill_p(node, now, durability, rs),
            Role::D(_) => self.kill_d(node, now, durability, rs),
        };
        #[cfg(feature = "coherence-oracle")]
        self.check_coherence();
        done
    }

    fn apply_rejoin(&mut self, node: NodeId, now: Cycle) -> Cycle {
        assert!(self.fab.dead.contains(node), "node {node} is not dead");
        self.fab.dead.remove(node);
        match &self.roles[node] {
            Role::P(_) => {
                self.p_list.push(node);
                self.p_list.sort_unstable();
            }
            Role::D(_) => {
                self.d_list.push(node);
                self.d_list.sort_unstable();
            }
        }
        // The returning node cold-starts from disk-resident state.
        now + LAT.disk
    }

    fn census(&self) -> Census {
        let mut c = Census::default();
        for &d in &self.d_list {
            let dn = self.dstore_ref(d);
            c.d_slots += dn.cfg().data_lines;
            for (_, e) in dn.iter_deterministic() {
                if e.paged_out {
                    c.paged_out += 1;
                } else if e.owner.is_some() {
                    c.dirty_in_p += 1;
                } else if !e.sharers.is_empty() {
                    c.shared_in_p += 1;
                    if e.in_mem {
                        c.shared_with_home_copy += 1;
                    }
                } else if e.in_mem {
                    c.d_node_only += 1;
                }
            }
        }
        c
    }

    fn epoch_probe(&self) -> EpochProbe {
        let mut busy = 0;
        let mut shared_list_depth = 0;
        let mut free_slots = 0;
        for &d in &self.d_list {
            let dn = self.dstore_ref(d);
            busy += dn.server.busy_cycles();
            shared_list_depth += dn.shared_list_len();
            free_slots += dn.free_slots();
        }
        let mut probe = self.fab.epoch_probe((busy, self.d_list.len()));
        probe.shared_list_depth = shared_list_depth;
        probe.free_slots = free_slots;
        probe
    }

    fn preload(&mut self, addr: u64, owner: NodeId, kind: PreloadKind) {
        let line = line_of(addr);
        let home = self.home_of(line, owner);
        if self.dstore_ref(home).entry(line).is_some() {
            return;
        }
        // Initialization data rests clean at its home D-node (it was
        // written long ago and drained out of the P-node memories). When
        // the Data arrays fill up, the page-out of Section 2.2.2 (run when
        // neither the FreeList nor the SharedList can supply a slot) has
        // already pushed the least-recently-used — i.e. cold — pages to
        // disk, which is exactly how the paper argues AGG runs at high
        // memory pressures. `home_of` mapped the page on its first touch
        // and preload never pages out, so the slot needs no page lookup.
        let page = page_of_line(line);
        match self.dstore(home).take_slot(line) {
            Ok(_) => {
                let dn = self.dstore(home);
                dn.entry_mut(line);
                dn.fill_slot(line);
                if kind == PreloadKind::ColdPrivate {
                    dn.mark_page_cold(page);
                }
            }
            Err(()) => {
                let dn = self.dstore(home);
                let e = dn.entry_mut(line);
                e.paged_out = true;
            }
        }
    }
}
