//! CC-NUMA baseline.
//!
//! Every node owns a slice of physical memory (first-touch page placement)
//! backed by plain DRAM; remote lines are cached only in the private L1/L2
//! SRAM caches. The directory controller sits on chip and its access is
//! overlapped with the memory access, so a transaction satisfied by the
//! home memory pays no directory latency (Section 3 of the paper). The
//! protocol is a DASH-style invalidation protocol: reads of remote-dirty
//! lines forward to the owner (3 hops) with a sharing write-back to the
//! home; writes invalidate sharers and collect acknowledgments.
//!
//! The shared per-node substrate (homing, interconnect, handler costs,
//! statistics, tracing) lives in the [`Fabric`]; each memory transaction
//! walks over [`Txn`] steps so contended resources are booked in protocol
//! order and every cycle of latency is attributed to a component.

use pimdsm_engine::{Cycle, Server, ServerGrant};
use pimdsm_faults::{Durability, RecoveryStats};
use pimdsm_mem::{line_of, CacheCfg, Dram, Line, OnChipLru, PagedMap, Residency};
use pimdsm_net::{Mesh, NetCfg, Network};
use pimdsm_obs::breakdown::NETWORK;

use crate::common::{
    Access, CState, Census, CompactNode, ControllerKind, HandlerCosts, HandlerKind, LatencyCfg,
    Level, MsgSize, NodeId, NodeList, NodeSet, PreloadKind,
};
use crate::fabric::Fabric;
use crate::pnode::{PrivCaches, WriteProbe};
use crate::system::MemSystem;
use crate::txn::{cache_hit, walk, Txn, TxnKind};

/// Configuration of a [`NumaSystem`].
#[derive(Debug, Clone)]
pub struct NumaCfg {
    /// Number of nodes (each runs one application thread).
    pub nodes: usize,
    /// L1 geometry.
    pub l1: CacheCfg,
    /// L2 geometry.
    pub l2: CacheCfg,
    /// Local memory capacity per node, in lines.
    pub node_mem_lines: u64,
    /// Of those, how many fit on chip.
    pub onchip_lines: u64,
    /// Line size shift (64 B lines → 6).
    pub line_shift: u32,
    /// Page size shift (4 KiB pages → 12).
    pub page_shift: u32,
    /// Latency table.
    pub lat: LatencyCfg,
    /// Message sizes.
    pub msg: MsgSize,
    /// Network timing (double-width links vs AGG, per Section 3).
    pub net: NetCfg,
    /// Directory controller costs (hardware: 70% of Table 2).
    pub handler: HandlerCosts,
    /// Local memory port bandwidth, bytes/cycle.
    pub mem_bytes_per_cycle: u64,
}

impl NumaCfg {
    /// A 32-node configuration with the paper's Table 1 parameters and
    /// the given per-application cache sizes / memory capacity.
    pub fn paper(nodes: usize, l1_kb: u64, l2_kb: u64, node_mem_lines: u64) -> Self {
        let line_shift = 6;
        NumaCfg {
            nodes,
            l1: CacheCfg::new(l1_kb * 1024, 1, line_shift),
            l2: CacheCfg::new(l2_kb * 1024, 4, line_shift),
            node_mem_lines,
            onchip_lines: node_mem_lines / 2,
            line_shift,
            page_shift: 12,
            lat: LatencyCfg::default(),
            msg: MsgSize::default(),
            net: NetCfg {
                bytes_per_cycle: 4,
                ..NetCfg::default()
            },
            handler: HandlerCosts::paper(ControllerKind::Hardware),
            mem_bytes_per_cycle: 32,
        }
    }
}

/// Directory entry of one line at its home node: 16 bytes, and 16 as an
/// `Option` in the directory's slots (the owner takes one byte).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirEntry {
    /// Nodes that may cache a clean copy (stale bits are legal: Shared
    /// drops are silent and cost at most a wasted invalidation later).
    pub sharers: NodeSet,
    /// Exclusive (dirty) cache-level holder, if any.
    pub owner: Option<CompactNode>,
}

#[derive(Debug)]
struct NumaNode {
    caches: PrivCaches,
    onchip: OnChipLru,
    mem_on: Dram,
    mem_off: Dram,
}

/// The CC-NUMA machine.
#[derive(Debug)]
pub struct NumaSystem {
    cfg: NumaCfg,
    nodes: Vec<NumaNode>,
    ctrls: Vec<Server>,
    // Directory sweeps (the end-of-run census, crash scrubbing, the
    // coherence oracle) must observe a deterministic order: the map's
    // ascending-line order.
    dir: PagedMap<DirEntry>,
    fab: Fabric,
}

impl NumaSystem {
    /// Builds an idle NUMA machine.
    pub fn new(cfg: NumaCfg) -> Self {
        assert!(cfg.nodes > 0 && cfg.nodes <= NodeSet::MAX_NODES);
        let line_bytes = 1u64 << cfg.line_shift;
        let transfer = line_bytes.div_ceil(cfg.mem_bytes_per_cycle);
        // Calibrate the DRAM device latency so the end-to-end local
        // round trip (L2 probe + device + line fill) lands on Table 1's
        // 37/57-cycle values.
        let overhead = cfg.lat.l2 + cfg.lat.fill + transfer;
        let nodes = (0..cfg.nodes)
            .map(|_| NumaNode {
                caches: PrivCaches::new(cfg.l1, cfg.l2),
                onchip: OnChipLru::new(cfg.onchip_lines as usize),
                mem_on: Dram::new(
                    cfg.lat.mem_on.saturating_sub(overhead),
                    cfg.mem_bytes_per_cycle,
                ),
                mem_off: Dram::new(
                    cfg.lat.mem_off.saturating_sub(overhead),
                    cfg.mem_bytes_per_cycle,
                ),
            })
            .collect();
        let net = Network::new(Mesh::for_nodes(cfg.nodes), cfg.net);
        let fab = Fabric::new(
            cfg.line_shift,
            cfg.page_shift,
            cfg.lat,
            cfg.msg,
            cfg.handler,
            net,
        );
        NumaSystem {
            ctrls: (0..cfg.nodes).map(|_| Server::new()).collect(),
            dir: PagedMap::new(fab.lines_per_page()),
            nodes,
            fab,
            cfg,
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &NumaCfg {
        &self.cfg
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

    pub(crate) fn cached_state(&self, p: NodeId, line: Line) -> Option<CState> {
        self.nodes[p].caches.peek_state(line)
    }

    /// Home of a line: first-touch with capacity spill to the
    /// least-loaded node.
    fn home_of(&mut self, line: Line, toucher: NodeId) -> NodeId {
        let cap = self.cfg.node_mem_lines / self.fab.lines_per_page();
        self.fab
            .first_touch_home(line, toucher, self.cfg.nodes, cap)
    }

    fn dispatch(&mut self, node: NodeId, kind: HandlerKind, invals: u32, at: Cycle) -> ServerGrant {
        self.fab
            .dispatch(&mut self.ctrls[node], node, kind, invals, at)
    }

    /// Local memory access at `node` (dir access overlapped).
    fn local_mem(&mut self, node: NodeId, line: Line, now: Cycle) -> Cycle {
        let bytes = 1u64 << self.cfg.line_shift;
        let n = &mut self.nodes[node];
        match n.onchip.touch(line) {
            Residency::OnChip => n.mem_on.access(now, bytes),
            Residency::OffChip => n.mem_off.access(now, bytes),
        }
    }

    /// Handles an L2 victim produced by a fill at `node`.
    fn handle_victim(&mut self, node: NodeId, victim: Option<(Line, CState)>, now: Cycle) {
        let Some((line, state)) = victim else { return };
        match state {
            CState::Shared => {
                // Silent drop; the directory keeps a stale sharer bit,
                // which later costs at most a wasted invalidation.
            }
            CState::Dirty => {
                self.fab.stats.write_backs += 1;
                let home = self.fab.mapped_home(line);
                self.dir.get_or_insert_with(line, DirEntry::default).owner = None;
                if home == node {
                    self.local_mem(node, line, now);
                } else {
                    let bytes = self.fab.msg_data();
                    let t = self.fab.net.send(node, home, bytes, now);
                    let g = self.dispatch(home, HandlerKind::WriteBack, 0, t);
                    self.local_mem(home, line, g.start);
                }
            }
        }
    }

    /// Invalidates `line` at each node of `targets` (caches only — NUMA
    /// has no attraction memory), acks collected at `collector`. Returns
    /// the cycle when the last ack arrives.
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
            })
    }

    fn read_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr, self.cfg.line_shift);
        if let Some(level) = self.nodes[node].caches.read_probe(line) {
            return cache_hit(&mut self.fab, level, now, true);
        }
        walk(self, node, line, now, TxnKind::Read, |s, tx| {
            s.read_txn(tx, node, line)
        })
    }

    /// The steps of a read that missed the private caches.
    fn read_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(self.fab.lat.l2); // L1+L2 probe time before going out
        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let entry = self.dir.get(line).copied().unwrap_or_default();
        let ctrl = self.fab.msg_ctrl();
        let data = self.fab.msg_data();

        let level = if home == node {
            match entry.owner.map(CompactNode::get) {
                Some(k) if k != node => {
                    // Local home, dirty at remote k: fetch + write back here.
                    let t1 = tx.send(&mut self.fab, node, k, ctrl);
                    let g = self.dispatch(k, HandlerKind::Read, 0, t1);
                    tx.handler(g);
                    self.nodes[k].caches.downgrade(line);
                    let t2 = tx.send(&mut self.fab, k, node, data);
                    self.local_mem(node, line, t2); // sharing write-back
                    let e = self.dir.get_or_insert_with(line, DirEntry::default);
                    e.owner = None;
                    e.sharers.insert(k);
                    Level::Hop2
                }
                _ => {
                    // Clean at local home: directory overlapped with memory.
                    let m = self.local_mem(node, line, tx.at());
                    tx.dram(m);
                    Level::LocalMem
                }
            }
        } else {
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::Read, 0, t1);
            match entry.owner.map(CompactNode::get) {
                Some(k) if k != node && k != home => {
                    // Forward to the owner; owner replies to the requestor
                    // and writes the line back to the home (DASH style).
                    tx.handler(g);
                    let t2 = tx.send(&mut self.fab, home, k, ctrl);
                    let g2 = self.dispatch(k, HandlerKind::Read, 0, t2);
                    let gr2 = g2.reply_at;
                    tx.handler(g2);
                    self.nodes[k].caches.downgrade(line);
                    tx.send(&mut self.fab, k, node, data);
                    let twb = self.fab.net.send(k, home, data, gr2);
                    self.local_mem(home, line, twb);
                    let e = self.dir.get_or_insert_with(line, DirEntry::default);
                    e.owner = None;
                    e.sharers.insert(k);
                    self.fab.stats.master_fetches += 1;
                    Level::Hop3
                }
                Some(k) if k == home => {
                    // Home itself holds it dirty in its caches.
                    tx.handler(g);
                    self.nodes[home].caches.downgrade(line);
                    let m = self.local_mem(home, line, tx.at());
                    tx.dram(m);
                    tx.send(&mut self.fab, home, node, data);
                    let e = self.dir.get_or_insert_with(line, DirEntry::default);
                    e.owner = None;
                    e.sharers.insert(home);
                    Level::Hop2
                }
                _ => {
                    // Clean at home: the directory access is overlapped
                    // with the memory access and adds no latency.
                    tx.handler_start(g);
                    let m = self.local_mem(home, line, g.start);
                    tx.dram(m);
                    tx.send(&mut self.fab, home, node, data);
                    Level::Hop2
                }
            }
        };

        self.dir
            .get_or_insert_with(line, DirEntry::default)
            .sharers
            .insert(node);
        tx.fill(&self.fab);
        let victim = self.nodes[node].caches.fill(line, CState::Shared);
        self.handle_victim(node, victim, tx.at());
        level
    }

    fn write_walk(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let line = line_of(addr, self.cfg.line_shift);
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
        tx.probe(self.fab.lat.l2);
        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let entry = self.dir.get_or_insert_with(line, DirEntry::default);
        let targets = NodeList::sharers_except(&entry.sharers, node);
        entry.sharers = NodeSet::singleton(node);
        entry.owner = Some(CompactNode::new(node));
        let n_inv = targets.len() as u32;
        let ctrl = self.fab.msg_ctrl();
        let level = if home == node {
            let g = self.dispatch(home, HandlerKind::ReadExclusive, n_inv, tx.at());
            tx.handler(g);
            let acks = self.invalidate_all(&targets, line, home, node, g.reply_at);
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
        };
        self.nodes[node].caches.mark_dirty(line);
        tx.fill(&self.fab);
        level
    }

    /// Read-exclusive: fetch the line with ownership.
    fn write_txn(&mut self, tx: &mut Txn, node: NodeId, line: Line) -> Level {
        tx.probe(self.fab.lat.l2);
        let home = self.home_of(line, node);
        tx.await_recovery(&mut self.fab);
        let entry = self.dir.get(line).copied().unwrap_or_default();
        let targets = NodeList::sharers_except(&entry.sharers, node);
        let n_inv = targets.len() as u32;
        let ctrl = self.fab.msg_ctrl();
        let data = self.fab.msg_data();

        let level = if home == node {
            match entry.owner.map(CompactNode::get) {
                Some(k) if k != node => {
                    let t1 = tx.send(&mut self.fab, node, k, ctrl);
                    let g = self.dispatch(k, HandlerKind::ReadExclusive, n_inv, t1);
                    tx.handler(g);
                    self.nodes[k].caches.invalidate(line);
                    self.fab.stats.invalidations += 1;
                    tx.send(&mut self.fab, k, node, data);
                    Level::Hop2
                }
                _ => {
                    // The directory access overlaps the memory read; the
                    // transaction completes when both the local line and
                    // the last invalidation ack are in.
                    let g = self.dispatch(node, HandlerKind::ReadExclusive, n_inv, tx.at());
                    let m = self.local_mem(node, line, tx.at());
                    let acks = self.invalidate_all(&targets, line, node, node, g.reply_at);
                    tx.dram(m);
                    tx.to(NETWORK, acks);
                    Level::LocalMem
                }
            }
        } else {
            self.fab.stats.remote_writes += 1;
            let t1 = tx.send(&mut self.fab, node, home, ctrl);
            let g = self.dispatch(home, HandlerKind::ReadExclusive, n_inv, t1);
            match entry.owner.map(CompactNode::get) {
                Some(k) if k != node && k != home => {
                    tx.handler(g);
                    let t2 = tx.send(&mut self.fab, home, k, ctrl);
                    let g2 = self.dispatch(k, HandlerKind::Read, 0, t2);
                    tx.handler(g2);
                    self.nodes[k].caches.invalidate(line);
                    self.fab.stats.invalidations += 1;
                    tx.send(&mut self.fab, k, node, data);
                    Level::Hop3
                }
                Some(k) if k == home => {
                    tx.handler(g);
                    self.nodes[home].caches.invalidate(line);
                    self.fab.stats.invalidations += 1;
                    let m = self.local_mem(home, line, tx.at());
                    tx.dram(m);
                    tx.send(&mut self.fab, home, node, data);
                    Level::Hop2
                }
                _ => {
                    tx.handler_start(g);
                    let m = self.local_mem(home, line, g.start);
                    tx.dram(m);
                    let acks = self.invalidate_all(&targets, line, home, node, g.reply_at);
                    tx.send(&mut self.fab, home, node, data);
                    tx.to(NETWORK, acks);
                    Level::Hop2
                }
            }
        };

        let e = self.dir.get_or_insert_with(line, DirEntry::default);
        e.sharers.clear();
        e.owner = Some(CompactNode::new(node));
        tx.fill(&self.fab);
        let victim = self.nodes[node].caches.fill(line, CState::Dirty);
        self.handle_victim(node, victim, tx.at());
        level
    }
}

impl MemSystem for NumaSystem {
    fn name(&self) -> &'static str {
        "NUMA"
    }

    fn read(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.read_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::numa_line(self, line_of(addr, self.cfg.line_shift));
        a
    }

    fn write(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access {
        let a = self.write_walk(node, addr, now);
        #[cfg(feature = "coherence-oracle")]
        crate::check::numa_line(self, line_of(addr, self.cfg.line_shift));
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
        for n in &mut self.nodes {
            n.mem_on.retire_before(floor);
            n.mem_off.retire_before(floor);
        }
        for c in &mut self.ctrls {
            c.retire_before(floor);
        }
    }

    fn check_coherence(&self) {
        crate::check::check_numa(self);
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
        assert!(!survivors.is_empty(), "cannot kill the last NUMA node");
        // The victim's SRAM caches vanish; its memory contents are only
        // reachable again via a replica or a stale home copy.
        let _ = self.nodes[node].caches.drain_all();
        let dead = Some(CompactNode::new(node));
        self.dir.for_each_mut(|_, e| {
            e.sharers.remove(node);
            if e.owner == dead {
                // The dirty cache copy died; the home memory now serves
                // the last written-back version of the line.
                e.owner = None;
                if durability == Durability::Replication {
                    rs.lines_recalled += 1;
                } else {
                    rs.lines_lost += 1;
                }
            }
        });
        // Re-home the victim's memory slice: each page's frames are
        // reconstructed at the new home (from a replica, or from the
        // stale backing data when nothing better survives).
        let moved = self
            .fab
            .pages
            .evacuate(node, |p| survivors[p as usize % survivors.len()]);
        rs.pages_rehomed += moved.len() as u64;
        let lpp = self.fab.lines_per_page();
        let line_transfer = self
            .fab
            .line_bytes()
            .div_ceil(self.cfg.net.bytes_per_cycle * 4);
        let mut t = now;
        for (page, _nh) in moved {
            t += self.fab.lat.am_tag_check + lpp * line_transfer;
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
        now + self.fab.lat.disk
    }

    fn census(&self) -> Census {
        let mut c = Census {
            d_slots: self.cfg.node_mem_lines * self.cfg.nodes as u64,
            ..Census::default()
        };
        for (_, e) in self.dir.iter_deterministic() {
            if e.owner.is_some() {
                c.dirty_in_p += 1;
            } else if !e.sharers.is_empty() {
                c.shared_in_p += 1;
                c.shared_with_home_copy += 1;
            } else {
                c.d_node_only += 1;
            }
        }
        c
    }

    fn preload(&mut self, addr: u64, owner: NodeId, _kind: PreloadKind) {
        let line = line_of(addr, self.cfg.line_shift);
        // Plain memory backs everything: establishing the page home is
        // all the state NUMA needs (capacity spill included).
        self.home_of(line, owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<DirEntry>>(), 16);
    }
}
