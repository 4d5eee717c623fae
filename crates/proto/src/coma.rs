//! Flat COMA baseline.
//!
//! Every node's local memory is an attraction memory; data migrates and
//! replicates freely. A line's *home* holds only the directory entry (flat
//! COMA), not necessarily the data — so a read of a shared line whose home
//! displaced its copy takes three hops via the master. There is no backing
//! store: replacement prefers invalid, then shared non-master lines; if a
//! master (or dirty) line must be replaced it is *injected* into another
//! node's memory, following Joe & Hennessy by trying the provider of the
//! incoming line first. Injections that no memory will absorb within a
//! bounded number of tries spill to disk (counted; essentially never
//! happens below 100% memory pressure).
//!
//! The shared per-node substrate (homing, interconnect, handler costs,
//! statistics, tracing) lives in the [`Fabric`]; each memory transaction
//! walks over [`Txn`] steps so contended resources are booked in protocol
//! order and every cycle of latency is attributed to a component.

use pimdsm_engine::{Cycle, Server, ServerGrant};
use pimdsm_faults::{Durability, RecoveryStats};
use pimdsm_mem::{line_of, CacheCfg, Line, PagedMap, LINES_PER_PAGE, LINE_BYTES};
use pimdsm_net::{Mesh, NetCfg, Network};
use pimdsm_obs::breakdown::NETWORK;
use pimdsm_obs::Event;

use crate::common::{
    Access, AmState, CState, Census, CompactNode, ControllerKind, HandlerCosts, HandlerKind, Level,
    NodeId, NodeList, NodeSet, PreloadKind, LAT, MSG,
};
use crate::fabric::Fabric;
use crate::pnode::{victim_class, PNodeStore, WriteProbe};
use crate::system::MemSystem;
use crate::txn::{cache_hit, walk, Txn, TxnKind};

/// Configuration of a [`ComaSystem`].
#[derive(Debug, Clone)]
pub struct ComaCfg {
    /// Number of nodes (each runs one application thread).
    pub nodes: usize,
    /// L1 geometry.
    pub l1: CacheCfg,
    /// L2 geometry.
    pub l2: CacheCfg,
    /// Attraction-memory geometry per node (4-way in the paper).
    pub am: CacheCfg,
    /// Lines of the attraction memory resident on chip.
    pub onchip_lines: u64,
    /// Network timing (double-width links, as for NUMA).
    pub net: NetCfg,
}

/// Bounce messages an injection sends at most before reaching the memory
/// that takes the line.
const INJECTION_MAX_TRIES: usize = 8;

impl ComaCfg {
    /// A paper-parameter configuration with the given per-node attraction
    /// memory capacity in lines.
    pub fn paper(nodes: usize, l1_kb: u64, l2_kb: u64, am_lines: u64) -> Self {
        ComaCfg {
            nodes,
            l1: CacheCfg::new(l1_kb * 1024, 1),
            l2: CacheCfg::new(l2_kb * 1024, 4),
            am: CacheCfg::new(am_lines * LINE_BYTES, 4),
            onchip_lines: am_lines / 2,
            net: NetCfg { bytes_per_cycle: 4 },
        }
    }
}

/// Directory entry of one line (the flat-COMA home holds only this state,
/// not necessarily the data): 16 bytes, and 16 as an `Option` in the
/// directory's slots (node ids take one byte each).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirEntry {
    /// Nodes whose attraction memory holds a copy.
    pub sharers: NodeSet,
    /// Exclusive (dirty) holder, if any.
    pub owner: Option<CompactNode>,
    /// Holder of the master copy.
    pub master: Option<CompactNode>,
    /// The only copy was spilled to disk by a forced injection.
    pub on_disk: bool,
}

/// The flat-COMA machine.
#[derive(Debug)]
pub struct ComaSystem {
    cfg: ComaCfg,
    nodes: Vec<PNodeStore>,
    ctrls: Vec<Server>,
    // Directory sweeps (the end-of-run census, crash scrubbing, the
    // coherence oracle) must observe a deterministic order: the map's
    // ascending-line order. Entries are never removed; a line's
    // directory state persists for the run.
    dir: PagedMap<DirEntry>,
    // `by_dist[from]`: every node ordered by the unique key
    // `(hops(from, c), c)`, built once so injection and cold-private
    // preload walk a fixed order instead of sorting per line.
    by_dist: Vec<NodeList>,
    fab: Fabric,
}

impl ComaSystem {
    /// Builds an idle COMA machine.
    pub fn new(cfg: ComaCfg) -> Self {
        assert!(cfg.nodes > 0 && cfg.nodes <= NodeSet::MAX_NODES);
        let nodes = (0..cfg.nodes)
            .map(|_| PNodeStore::calibrated(cfg.l1, cfg.l2, cfg.am, cfg.onchip_lines as usize))
            .collect();
        let net = Network::new(Mesh::for_nodes(cfg.nodes), cfg.net);
        // Directory controllers are hardware: 70% of Table 2.
        let fab = Fabric::new(HandlerCosts::paper(ControllerKind::Hardware), net);
        let by_dist = (0..cfg.nodes)
            .map(|from| {
                let mut l = NodeList::new();
                for c in 0..cfg.nodes {
                    l.push(c);
                }
                l.sort_unstable_by_key(|&c| (fab.net.hops(from, c), c));
                l
            })
            .collect();
        ComaSystem {
            ctrls: (0..cfg.nodes).map(|_| Server::new()).collect(),
            dir: PagedMap::new(),
            by_dist,
            nodes,
            fab,
            cfg,
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &ComaCfg {
        &self.cfg
    }

    /// Attraction-memory state of a line at `node`, without LRU effects.
    pub fn am_state(&self, node: NodeId, line: Line) -> Option<AmState> {
        self.nodes[node].am.peek(line).copied()
    }

    /// The directory entry of a line, if one exists.
    pub fn dir_entry(&self, line: Line) -> Option<&DirEntry> {
        self.dir.get(line)
    }

    pub(crate) fn dir_lines(&self) -> Vec<Line> {
        self.dir.iter_deterministic().map(|(l, _)| l).collect()
    }

    pub(crate) fn n_nodes(&self) -> usize {
        self.cfg.nodes
    }

    pub(crate) fn pstore_ref(&self, p: NodeId) -> &PNodeStore {
        &self.nodes[p]
    }

    /// Drops an address from a node's private caches without touching its
    /// attraction memory or the directory — a probe helper for tests
    /// (equivalent to capacity-evicting the line from the SRAM caches).
    pub fn purge_caches(&mut self, node: NodeId, addr: u64) {
        let line = line_of(addr);
        self.nodes[node].purge_caches(line);
    }

    /// Home (directory) of a line: first-touch, with the physical frame —
    /// and hence the directory entry — spilling to the least-loaded node
    /// once the toucher's share of frames is exhausted.
    fn home_of(&mut self, line: Line, toucher: NodeId) -> NodeId {
        let cap = self.cfg.am.capacity_lines() / LINES_PER_PAGE;
        self.fab
            .first_touch_home(line, toucher, self.cfg.nodes, cap)
    }

    fn dispatch(&mut self, node: NodeId, kind: HandlerKind, invals: u32, at: Cycle) -> ServerGrant {
        self.fab
            .dispatch(&mut self.ctrls[node], node, kind, invals, at)
    }

    /// Local memory (AM data) access for a line already resident at
    /// `node`.
    fn mem_access(&mut self, node: NodeId, line: Line, at: Cycle) -> Cycle {
        let res = self.nodes[node]
            .am
            .touch(line)
            .expect("line must be resident for mem_access");
        self.nodes[node].mem_access(res, at)
    }

    /// Supplies the line's data to `node` from holder `k`, behind the
    /// home's already-dispatched handler: straight from the home's memory
    /// when `k == home`, else via a forward hop to `k` (whose controller
    /// runs a Read handler — a master fetch when `count_master_fetch`).
    /// Returns the resulting access level.
    fn supply_from(
        &mut self,
        tx: &mut Txn,
        node: NodeId,
        home: NodeId,
        k: NodeId,
        line: Line,
        count_master_fetch: bool,
    ) -> Level {
        debug_assert_ne!(k, node, "supplier cannot be the requestor");
        let data = MSG.data;
        if k == home {
            let m = self.mem_access(home, line, tx.at());
            tx.dram(m);
            tx.send(&mut self.fab, home, node, data);
            Level::Hop2
        } else {
            if count_master_fetch {
                self.fab.stats.master_fetches += 1;
            }
            let ctrl = MSG.ctrl;
            let fwd = tx.send(&mut self.fab, home, k, ctrl);
            let g2 = self.dispatch(k, HandlerKind::Read, 0, fwd);
            tx.handler(g2);
            let m = self.mem_access(k, line, tx.at());
            tx.dram(m);
            tx.send(&mut self.fab, k, node, data);
            if home == node {
                Level::Hop2
            } else {
                Level::Hop3
            }
        }
    }

    /// The home round of a cold (first-touch) access: dispatch `kind` at
    /// the home, which grants the materialized line to the requestor.
    fn cold_round(&mut self, tx: &mut Txn, node: NodeId, home: NodeId, kind: HandlerKind) -> Level {
        if home == node {
            let g = self.dispatch(node, kind, 0, tx.at());
            tx.handler(g);
            Level::LocalMem
        } else {
            if kind == HandlerKind::ReadExclusive {
                self.fab.stats.remote_writes += 1;
            }
            let ctrl = MSG.ctrl;
            let data = MSG.data;
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, kind, 0, t1);
            tx.handler(g);
            tx.send(&mut self.fab, home, node, data);
            Level::Hop2
        }
    }

    /// Invalidates every node in `targets` (caches and AM), acks to
    /// `collector`. Returns last ack arrival.
    fn invalidate_all(
        &mut self,
        targets: &[NodeId],
        line: Line,
        from: NodeId,
        collector: NodeId,
        at: Cycle,
    ) -> Cycle {
        let nodes = &mut self.nodes;
        self.fab
            .invalidate_fanout(&mut self.ctrls, targets, from, collector, at, |k| {
                nodes[k].caches.invalidate(line);
                nodes[k].am.remove(line);
            })
    }

    /// Inserts `line` into `node`'s attraction memory, handling the victim
    /// (silent drop with hint, or injection). `provider` is the node that
    /// supplied the incoming line (Joe & Hennessy's first injection
    /// target). Timing effects of the victim path are booked at `now` but
    /// do not extend the requesting transaction.
    fn am_fill(&mut self, node: NodeId, line: Line, state: AmState, provider: NodeId, now: Cycle) {
        let r = self.nodes[node].am.insert(line, state, victim_class);
        let Some(victim) = r.victim else { return };
        let vline = victim.line;
        self.fab.am_swap(node, line, vline, now);
        // Inclusion: purge the victim from the private caches; a dirty
        // cached copy upgrades the victim state.
        let cached = self.nodes[node].caches.invalidate(vline);
        let vstate = match (victim.state, cached) {
            (_, Some(CState::Dirty)) => AmState::Dirty,
            (s, _) => s,
        };
        match vstate {
            AmState::Shared => self.drop_shared(node, vline, now),
            AmState::SharedMaster | AmState::Dirty => {
                self.inject(node, vline, vstate, provider, now)
            }
        }
    }

    /// Silent replacement of a shared non-master copy: drop locally, send
    /// an asynchronous hint so the directory stops tracking us.
    fn drop_shared(&mut self, node: NodeId, line: Line, now: Cycle) {
        let home = self.fab.mapped_home(line);
        if let Some(e) = self.dir.get_mut(line) {
            e.sharers.remove(node);
        }
        if home != node {
            let ctrl = MSG.ctrl;
            let t = self.fab.net.send(node, home, ctrl, now);
            self.fab
                .ack_occupy(Event::Hint, &mut self.ctrls[home], home, t);
        }
    }

    /// Injects a replaced master/dirty line into another memory: try the
    /// provider, then the line's home, then nodes by distance. If nobody
    /// absorbs it without evicting another master, spill to disk.
    fn inject(&mut self, node: NodeId, line: Line, state: AmState, provider: NodeId, now: Cycle) {
        let home = self.fab.mapped_home(line);
        let candidates = self.inject_candidates(node, provider, home);

        let data = MSG.data;
        if candidates.is_empty() {
            // Single-node machine: nowhere to inject, spill to disk.
            self.fab.stats.disk_spills += 1;
            let e = self.dir.get_or_insert_with(line, DirEntry::default);
            e.sharers.remove(node);
            e.owner = None;
            e.master = None;
            e.on_disk = true;
            return;
        }
        // Find the nearest memory that can absorb the line without
        // displacing another master; only if no memory in the machine can
        // (true global set saturation) is the nearest one forced to
        // displace. Failed probes cost bounce messages (Joe & Hennessy's
        // injection chains), capped at `INJECTION_MAX_TRIES`.
        // Prefer a memory with a genuinely free way; displacing another
        // node's attracted shared copy is second choice (it re-fetches
        // later — the memory pollution the paper attributes to COMA).
        let free_way = candidates
            .iter()
            .position(|&c| self.nodes[c].am.peek_victim(line, victim_class).is_none());
        let shared_victim = || {
            candidates.iter().position(|&c| {
                matches!(
                    self.nodes[c].am.peek_victim(line, victim_class),
                    Some((_, AmState::Shared))
                )
            })
        };
        let chosen = free_way.or_else(shared_victim).unwrap_or(0);
        let c = candidates[chosen];
        let bounces = chosen.min(INJECTION_MAX_TRIES);
        let mut t_chain = now;
        let mut prev = node;
        for &hop in candidates.iter().take(bounces) {
            t_chain = self.fab.net.send(prev, hop, data, t_chain);
            prev = hop;
        }
        let t = self.fab.net.send(prev, c, data, t_chain);
        let g = self.dispatch(c, HandlerKind::WriteBack, 0, t);
        self.fab.am_inject(c, line, g.start);
        let r = self.nodes[c].am.insert(line, state, victim_class);
        if let Some(sv) = r.victim {
            self.nodes[c].caches.invalidate(sv.line);
            match sv.state {
                AmState::Shared => self.drop_shared(c, sv.line, g.reply_at),
                // Forced displacement: the secondary master victim spills
                // to disk (bounded: only when no memory in the machine had
                // room).
                _ => {
                    self.fab.stats.disk_spills += 1;
                    let ve = self.dir.get_or_insert_with(sv.line, DirEntry::default);
                    ve.sharers.clear();
                    ve.owner = None;
                    ve.master = None;
                    ve.on_disk = true;
                }
            }
        }
        self.mem_access(c, line, g.start);
        let e = self.dir.get_or_insert_with(line, DirEntry::default);
        let holder = Some(CompactNode::new(c));
        match state {
            AmState::Dirty => {
                e.owner = holder;
                e.master = holder;
                e.sharers = NodeSet::singleton(c);
            }
            _ => {
                e.sharers.remove(node);
                e.sharers.insert(c);
                e.master = holder;
            }
        }
    }

    /// Injection targets for a line displaced from `node`, in probe
    /// order: the provider, the home, then every other live node nearest
    /// first.
    fn inject_candidates(&self, node: NodeId, provider: NodeId, home: NodeId) -> NodeList {
        let mut candidates = NodeList::new();
        for c in [provider, home] {
            if c != node && !candidates.contains(&c) && !self.fab.dead.contains(c) {
                candidates.push(c);
            }
        }
        let pinned = candidates.len();
        for &c in self.by_dist[node].iter() {
            if c != node && !candidates[..pinned].contains(&c) && !self.fab.dead.contains(c) {
                candidates.push(c);
            }
        }
        candidates
    }

    /// Where `preload` places a line: cold private data at the nearest
    /// node to `owner` with room in the line's set; shared-init data at
    /// the least-loaded node (fewest resident lines, lowest id on ties)
    /// with room. `None` means the line's set is full at every node.
    fn preload_target(&self, line: Line, owner: NodeId, kind: PreloadKind) -> Option<NodeId> {
        let has_room = |n: NodeId| self.nodes[n].am.has_room_for(line);
        match kind {
            PreloadKind::ColdPrivate => self.by_dist[owner].iter().copied().find(|&n| has_room(n)),
            PreloadKind::SharedInit => {
                // Keys are unique, so the minimum is the head of the full
                // load order; only a full set there pays for the sort.
                let load = |n: NodeId| (self.nodes[n].am.len(), n);
                let head = (0..self.cfg.nodes).min_by_key(|&n| load(n))?;
                if has_room(head) {
                    return Some(head);
                }
                let mut rest = NodeList::new();
                for n in (0..self.cfg.nodes).filter(|&n| n != head) {
                    rest.push(n);
                }
                rest.sort_unstable_by_key(|&n| load(n));
                rest.iter().copied().find(|&n| has_room(n))
            }
        }
    }

    /// Recalls stale attracted copies of an on-disk line as it
    /// re-materializes — no sharer bits survive to fan out over.
    fn purge_stale(&mut self, node: NodeId, line: Line) {
        for p in (0..self.cfg.nodes).filter(|&p| p != node) {
            self.nodes[p].caches.invalidate(line);
            self.nodes[p].am.remove(line);
        }
    }

    /// An attracted home copy short-circuits the master fetch.
    fn pick_supplier(&self, node: NodeId, home: NodeId, m_node: NodeId, line: Line) -> NodeId {
        if home != node && self.nodes[home].am.contains(line) {
            home
        } else {
            m_node
        }
    }

    /// Fills the private caches, reinstating ownership here if a dirty L2
    /// victim merged back into the local AM.
    fn fill_caches(&mut self, node: NodeId, line: Line, state: CState) {
        let victim = self.nodes[node].fill_caches(line, state);
        if let Some((vline, CState::Dirty)) = victim {
            let e = self.dir.get_or_insert_with(vline, DirEntry::default);
            let holder = Some(CompactNode::new(node));
            e.owner = holder;
            e.master = holder;
        }
    }

    /// The invalidation round of an ownership upgrade: directory mutation,
    /// `ReadExclusive` dispatch at the home, sharer fan-out, and (for a
    /// remote home) the ownership grant back to the writer.
    fn upgrade_round(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        if std::mem::take(&mut self.dir.get_or_insert_with(line, DirEntry::default).on_disk) {
            self.purge_stale(node, line);
        }
        let e = self.dir.get_or_insert_with(line, DirEntry::default);
        let targets = NodeList::sharers_except(&e.sharers, node);
        e.sharers = NodeSet::singleton(node);
        let holder = Some(CompactNode::new(node));
        e.owner = holder;
        e.master = holder;
        let n_inv = targets.len() as u32;
        let ctrl = MSG.ctrl;
        if home == node {
            let g = self.dispatch(node, HandlerKind::ReadExclusive, n_inv, tx.at());
            tx.handler(g);
            let acks = self.invalidate_all(&targets, line, node, node, g.reply_at);
            tx.to(NETWORK, acks);
            Level::LocalMem
        } else {
            self.fab.stats.remote_writes += 1;
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::ReadExclusive, n_inv, t1);
            tx.handler(g);
            let acks = self.invalidate_all(&targets, line, home, node, g.reply_at);
            tx.send(&mut self.fab, home, node, ctrl);
            tx.to(NETWORK, acks);
            Level::Hop2
        }
    }

    fn read_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr);
        if let Some(level) = self.nodes[node].caches.read_probe(line) {
            return cache_hit(&mut self.fab, level, now, true);
        }
        walk(self, node, line, now, TxnKind::Read, |s, tx| {
            s.read_txn(tx, node, line)
        })
    }

    /// The steps of a read that missed the private caches.
    fn read_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(LAT.l2 + LAT.am_tag_check);
        // Attraction-memory hit: the whole point of the organization.
        if self.nodes[node].am.contains(line) {
            self.fab.am_hit(node, line, tx.at());
            let m = self.mem_access(node, line, tx.at());
            tx.dram(m);
            tx.fill();
            self.fill_caches(node, line, CState::Shared);
            return Level::LocalMem;
        }
        self.fab.am_miss(node, line, tx.at());

        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let e = self.dir.get(line).copied().unwrap_or_default();
        let ctrl = MSG.ctrl;
        let data = MSG.data;

        let (provider, level, new_state) = if e.on_disk {
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            self.fab.disk_fault(home, line, t1);
            let g = self.dispatch(home, HandlerKind::Read, 0, t1);
            tx.handler(g);
            tx.disk();
            tx.send(&mut self.fab, home, node, data);
            self.purge_stale(node, line);
            let de = self.dir.get_or_insert_with(line, DirEntry::default);
            de.on_disk = false;
            de.master = Some(CompactNode::new(node));
            de.sharers = NodeSet::singleton(node);
            let lvl = if home == node {
                Level::LocalMem
            } else {
                Level::Hop2
            };
            (home, lvl, AmState::SharedMaster)
        } else if let Some(k) = e.owner.map(CompactNode::get) {
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::Read, 0, t1);
            tx.handler(g);
            let lvl = self.supply_from(tx, node, home, k, line, false);
            // The owner keeps the master copy, now shared.
            self.nodes[k].caches.downgrade(line);
            if let Some(s) = self.nodes[k].am.peek_mut(line) {
                *s = AmState::SharedMaster;
            }
            let de = self.dir.get_or_insert_with(line, DirEntry::default);
            de.owner = None;
            de.master = Some(CompactNode::new(k));
            de.sharers = NodeSet::singleton(k);
            de.sharers.insert(node);
            (k, lvl, AmState::Shared)
        } else if !e.sharers.is_empty() {
            let m_node = e.master.expect("shared lines must have a master").get();
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::Read, 0, t1);
            tx.handler(g);
            let supplier = self.pick_supplier(node, home, m_node, line);
            let lvl = self.supply_from(tx, node, home, supplier, line, true);
            self.dir
                .get_or_insert_with(line, DirEntry::default)
                .sharers
                .insert(node);
            (supplier, lvl, AmState::Shared)
        } else {
            // First touch: the line materializes (cold/zero data).
            let de = self.dir.get_or_insert_with(line, DirEntry::default);
            de.master = Some(CompactNode::new(node));
            de.sharers = NodeSet::singleton(node);
            let lvl = self.cold_round(tx, node, home, HandlerKind::Read);
            (home, lvl, AmState::SharedMaster)
        };

        tx.fill();
        self.am_fill(node, line, new_state, provider, tx.at());
        self.fill_caches(node, line, CState::Shared);
        level
    }

    fn write_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr);
        match self.nodes[node].caches.write_probe(line) {
            WriteProbe::Done(level) => cache_hit(&mut self.fab, level, now, false),
            WriteProbe::NeedUpgrade => walk(self, node, line, now, TxnKind::Write, |s, tx| {
                s.upgrade_txn(tx, node, line)
            }),
            WriteProbe::Miss => walk(self, node, line, now, TxnKind::Write, |s, tx| {
                s.write_txn(tx, node, line)
            }),
        }
    }

    /// The steps of a write to a line the private caches hold shared.
    fn upgrade_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(LAT.l2);
        let am_state = self.nodes[node]
            .am
            .peek(line)
            .copied()
            .expect("cached line must be in the AM (inclusion)");
        if am_state == AmState::Dirty {
            // Already exclusive at the memory level.
            tx.probe(LAT.am_tag_check);
            self.nodes[node].caches.mark_dirty(line);
            return Level::L2;
        }
        let level = self.upgrade_round(tx, node, line);
        if let Some(s) = self.nodes[node].am.peek_mut(line) {
            *s = AmState::Dirty;
        }
        self.nodes[node].caches.mark_dirty(line);
        tx.fill();
        level
    }

    /// The steps of a write that missed the private caches.
    fn write_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(LAT.l2 + LAT.am_tag_check);
        // AM hit under a full cache miss.
        if let Some(&st) = self.nodes[node].am.peek(line) {
            let m = self.mem_access(node, line, tx.at());
            if st == AmState::Dirty {
                tx.dram(m);
                tx.fill();
                self.fill_caches(node, line, CState::Dirty);
                return Level::LocalMem;
            }
            // Shared in our memory: upgrade through the home; the local
            // data access overlaps with the invalidation round.
            let level = self.upgrade_round(tx, node, line);
            tx.dram(m);
            if let Some(s) = self.nodes[node].am.peek_mut(line) {
                *s = AmState::Dirty;
            }
            tx.fill();
            self.fill_caches(node, line, CState::Dirty);
            return level;
        }

        // Full read-exclusive: fetch data and invalidate everyone.
        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let e = self.dir.get(line).copied().unwrap_or_default();
        let ctrl = MSG.ctrl;
        let data = MSG.data;
        let mut targets = NodeList::sharers_except(&e.sharers, node);
        // Handler cost covers the pre-retain fan-out size.
        let n_inv = targets.len() as u32;

        let (provider, level) = if e.on_disk {
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            self.fab.disk_fault(home, line, t1);
            let g = self.dispatch(home, HandlerKind::ReadExclusive, 0, t1);
            tx.handler(g);
            tx.disk();
            tx.send(&mut self.fab, home, node, data);
            self.purge_stale(node, line);
            self.dir.get_or_insert_with(line, DirEntry::default).on_disk = false;
            let lvl = if home == node {
                Level::LocalMem
            } else {
                Level::Hop2
            };
            (home, lvl)
        } else if let Some(k) = e.owner.map(CompactNode::get) {
            targets.retain(|&x| x != k); // the owner supplies and self-invalidates
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::ReadExclusive, n_inv, t1);
            tx.handler(g);
            let lvl = self.supply_from(tx, node, home, k, line, false);
            self.nodes[k].caches.invalidate(line);
            self.nodes[k].am.remove(line);
            self.fab.stats.invalidations += 1;
            (k, lvl)
        } else if !e.sharers.is_empty() {
            let m_node = e.master.expect("shared lines must have a master").get();
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::ReadExclusive, n_inv, t1);
            let gr = g.reply_at;
            tx.handler(g);
            let supplier = self.pick_supplier(node, home, m_node, line);
            let lvl = self.supply_from(tx, node, home, supplier, line, false);
            let acks = self.invalidate_all(&targets, line, home, node, gr);
            tx.to(NETWORK, acks);
            (supplier, lvl)
        } else {
            // Cold write.
            let lvl = self.cold_round(tx, node, home, HandlerKind::ReadExclusive);
            (home, lvl)
        };

        let de = self.dir.get_or_insert_with(line, DirEntry::default);
        let holder = Some(CompactNode::new(node));
        de.owner = holder;
        de.master = holder;
        de.sharers = NodeSet::singleton(node);
        tx.fill();
        self.am_fill(node, line, AmState::Dirty, provider, tx.at());
        self.fill_caches(node, line, CState::Dirty);
        level
    }
}

impl MemSystem for ComaSystem {
    fn name(&self) -> &'static str {
        "COMA"
    }

    fn read(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.read_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::coma_line(self, line_of(addr));
        a
    }

    fn write(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.write_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::coma_line(self, line_of(addr));
        a
    }

    fn fabric(&self) -> &Fabric {
        &self.fab
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fab
    }

    fn controllers_busy(&self) -> (Cycle, usize) {
        let busy: Cycle = self.ctrls.iter().map(|c| c.busy_cycles()).sum();
        (busy, self.ctrls.len())
    }

    fn retire_before(&mut self, floor: Cycle) {
        self.fab.net.retire_before(floor);
        for s in &mut self.nodes {
            s.retire_before(floor);
        }
        for c in &mut self.ctrls {
            c.retire_before(floor);
        }
    }

    fn check_coherence(&self) {
        crate::check::check_coma(self);
    }

    fn compute_nodes(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes)
            .filter(|&n| !self.fab.dead.contains(n))
            .collect()
    }

    fn apply_kill(
        &mut self,
        node: NodeId,
        now: Cycle,
        durability: Durability,
        rs: &mut RecoveryStats,
    ) -> Cycle {
        assert!(!self.fab.dead.contains(node), "node {node} is already dead");
        self.fab.dead.insert(node);
        let survivors: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&n| !self.fab.dead.contains(n))
            .collect();
        assert!(!survivors.is_empty(), "cannot kill the last COMA node");
        // Wipe the victim's caches and attraction memory.
        self.nodes[node] = PNodeStore::calibrated(
            self.cfg.l1,
            self.cfg.l2,
            self.cfg.am,
            self.cfg.onchip_lines as usize,
        );
        // Scrub every directory entry naming the victim: re-elect
        // mastership onto a surviving sharer, write dirty data off to
        // disk-resident state when no copy survives.
        let dead = Some(CompactNode::new(node));
        self.dir.for_each_mut(|line, e| {
            if e.owner == dead {
                e.owner = None;
                e.master = None;
                e.sharers.clear();
                e.on_disk = true;
                if durability == Durability::Replication {
                    rs.lines_recalled += 1;
                } else {
                    rs.lines_lost += 1;
                }
            } else if e.sharers.remove(node) && e.master == dead {
                if let Some(s) = e.sharers.first() {
                    e.master = Some(CompactNode::new(s));
                    rs.lines_recalled += 1;
                    if let Some(st) = self.nodes[s].am.peek_mut(line) {
                        *st = AmState::SharedMaster;
                    }
                } else {
                    e.master = None;
                    e.on_disk = true;
                    if durability == Durability::Replication {
                        rs.lines_recalled += 1;
                    } else {
                        rs.lines_lost += 1;
                    }
                }
            }
        });
        // Re-home the victim's pages across the survivors (directory
        // state only — flat COMA homes hold no data).
        let moved = self
            .fab
            .pages
            .evacuate(node, |p| survivors[p as usize % survivors.len()]);
        rs.pages_rehomed += moved.len() as u64;
        let mut t = now;
        for (page, _nh) in moved {
            // The new home rebuilds the page's directory entries by
            // probing the surviving memories, one tag check per line.
            t += LAT.am_tag_check + LINES_PER_PAGE;
            self.fab.mark_recovering(page, t);
            rs.recovery.record(t - now);
        }
        #[cfg(feature = "coherence-oracle")]
        self.check_coherence();
        t
    }

    fn apply_rejoin(&mut self, node: NodeId, now: Cycle) -> Cycle {
        assert!(self.fab.dead.contains(node), "node {node} is not dead");
        self.fab.dead.remove(node);
        now + LAT.disk
    }

    fn census(&self) -> Census {
        let mut c = Census {
            d_slots: self.cfg.am.capacity_lines() * self.cfg.nodes as u64,
            ..Census::default()
        };
        for (_, e) in self.dir.iter_deterministic() {
            if e.on_disk {
                c.paged_out += 1;
            } else if e.owner.is_some() {
                c.dirty_in_p += 1;
            } else if !e.sharers.is_empty() {
                c.shared_in_p += 1;
            }
        }
        c
    }

    fn preload(&mut self, addr: u64, owner: NodeId, kind: PreloadKind) {
        let line = line_of(addr);
        self.home_of(line, owner);
        if self.dir.get(line).is_some() {
            return;
        }
        // COMA has no backing store: the pre-existing copy must live in
        // some attraction memory. Cold private data sits dirty at its
        // owner; shared-init data ends up spread across the machine by
        // init-time capacity displacement (balance by free space, as the
        // long-run injection equilibrium would).
        let state = match kind {
            PreloadKind::ColdPrivate => AmState::Dirty,
            PreloadKind::SharedInit => AmState::SharedMaster,
        };
        let Some(c) = self.preload_target(line, owner, kind) else {
            // Pathological set pressure everywhere: the copy sits on disk.
            self.dir.get_or_insert_with(line, DirEntry::default).on_disk = true;
            self.fab.stats.disk_spills += 1;
            return;
        };
        self.nodes[c].am.insert(line, state, victim_class);
        let e = self.dir.get_or_insert_with(line, DirEntry::default);
        let holder = Some(CompactNode::new(c));
        e.master = holder;
        e.sharers = NodeSet::singleton(c);
        if state == AmState::Dirty {
            e.owner = holder;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdsm_engine::SimRng;
    use pimdsm_mem::LINE_SHIFT;

    /// Attraction memories of four 4-way sets: a few dozen preloads fill
    /// sets, so the sorted fallback and the disk spill both fire.
    fn small(nodes: usize) -> ComaSystem {
        ComaSystem::new(ComaCfg::paper(nodes, 8, 32, 16))
    }

    /// The per-line sort rule `preload_target` replaced.
    fn reference_preload_target(
        m: &ComaSystem,
        line: Line,
        owner: NodeId,
        kind: PreloadKind,
    ) -> Option<NodeId> {
        let mut c: Vec<NodeId> = (0..m.cfg.nodes).collect();
        match kind {
            PreloadKind::ColdPrivate => c.sort_by_key(|&n| (m.fab.net.hops(owner, n), n)),
            PreloadKind::SharedInit => c.sort_by_key(|&n| (m.nodes[n].am.len(), n)),
        }
        c.into_iter().find(|&n| m.nodes[n].am.has_room_for(line))
    }

    /// The per-injection sort rule `inject_candidates` replaced.
    fn reference_inject_candidates(
        m: &ComaSystem,
        node: NodeId,
        provider: NodeId,
        home: NodeId,
    ) -> Vec<NodeId> {
        let mut candidates = Vec::new();
        for c in [provider, home] {
            if c != node && !candidates.contains(&c) && !m.fab.dead.contains(c) {
                candidates.push(c);
            }
        }
        let mut others: Vec<NodeId> = (0..m.cfg.nodes)
            .filter(|&c| c != node && !candidates.contains(&c) && !m.fab.dead.contains(c))
            .collect();
        others.sort_by_key(|&c| (m.fab.net.hops(node, c), c));
        candidates.extend(others);
        candidates
    }

    #[test]
    fn directory_slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<DirEntry>>(), 16);
    }

    #[test]
    fn by_dist_is_a_permutation_sorted_by_hops_then_id() {
        for nodes in [1, 2, 3, 4, 5, 6, 8, 16, 32, 64] {
            let m = small(nodes);
            assert_eq!(m.by_dist.len(), nodes);
            for (from, order) in m.by_dist.iter().enumerate() {
                let mut ids = order.to_vec();
                ids.sort_unstable();
                assert_eq!(
                    ids,
                    (0..nodes).collect::<Vec<_>>(),
                    "{nodes} nodes, from {from}"
                );
                let keys: Vec<_> = order
                    .iter()
                    .map(|&c| (m.fab.net.hops(from, c), c))
                    .collect();
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "{nodes} nodes, from {from}"
                );
                assert_eq!(order[0], from, "a node is its own nearest");
            }
        }
    }

    #[test]
    fn preload_places_every_line_where_the_sort_rule_did() {
        let (mut fallbacks, mut spills, mut placed) = (0, 0, 0);
        for nodes in [4, 5, 6, 8] {
            for seed in 0..8 {
                let mut m = small(nodes);
                let mut rng = SimRng::new(seed * 131 + nodes as u64);
                let span = (nodes * 16 * 2) as u64;
                for _ in 0..span * 2 {
                    let line = rng.range(0, span);
                    let owner = rng.index(nodes);
                    let kind = if rng.chance(0.5) {
                        PreloadKind::SharedInit
                    } else {
                        PreloadKind::ColdPrivate
                    };
                    if m.dir_entry(line).is_some() {
                        continue;
                    }
                    let want = reference_preload_target(&m, line, owner, kind);
                    assert_eq!(m.preload_target(line, owner, kind), want, "line {line}");
                    if kind == PreloadKind::SharedInit {
                        let head = (0..nodes).min_by_key(|&n| (m.nodes[n].am.len(), n));
                        if !m.nodes[head.unwrap()].am.has_room_for(line) {
                            fallbacks += 1;
                        }
                    }
                    let spills_before = m.fab.stats.disk_spills;
                    m.preload(line << LINE_SHIFT, owner, kind);
                    let e = m.dir_entry(line).expect("preload records the line");
                    match want {
                        Some(c) => {
                            placed += 1;
                            assert_eq!(e.master.map(CompactNode::get), Some(c));
                            assert_eq!(e.sharers, NodeSet::singleton(c));
                            assert_eq!(e.owner.is_some(), kind == PreloadKind::ColdPrivate);
                            assert!(m.am_state(c, line).is_some());
                        }
                        None => {
                            spills += 1;
                            assert!(e.on_disk && e.master.is_none());
                            assert_eq!(m.fab.stats.disk_spills, spills_before + 1);
                        }
                    }
                }
            }
        }
        assert!(
            placed > 0 && fallbacks > 0 && spills > 0,
            "{placed} {fallbacks} {spills}"
        );
    }

    #[test]
    fn inject_candidates_match_the_sort_rule_under_dead_nodes() {
        let mut rng = SimRng::new(7);
        for nodes in [4, 5, 6, 8] {
            let mut m = small(nodes);
            for _ in 0..200 {
                m.fab.dead = NodeSet::new();
                for n in 0..nodes {
                    if rng.chance(0.25) {
                        m.fab.dead.insert(n);
                    }
                }
                for node in 0..nodes {
                    let (provider, home) = (rng.index(nodes), rng.index(nodes));
                    assert_eq!(
                        m.inject_candidates(node, provider, home).to_vec(),
                        reference_inject_candidates(&m, node, provider, home),
                        "{nodes} nodes, node {node}, provider {provider}, home {home}"
                    );
                }
            }
        }
    }
}
