//! Types shared by all three protocols.

use pimdsm_engine::Cycle;
use pimdsm_mem::LINE_BYTES;

/// Node index within the machine (mesh position).
pub type NodeId = usize;

/// A set of node ids as a bitset (machines in the paper's evaluation have
/// at most 64 nodes).
///
/// # Examples
///
/// ```
/// use pimdsm_proto::NodeSet;
///
/// let mut s = NodeSet::new();
/// s.insert(3);
/// s.insert(17);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 17]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NodeSet(u64);

impl NodeSet {
    /// Maximum node id representable.
    pub const MAX_NODES: usize = 64;

    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet(0)
    }

    /// Creates a set containing one node.
    pub fn singleton(node: NodeId) -> Self {
        let mut s = NodeSet::new();
        s.insert(node);
        s
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 64`.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node < Self::MAX_NODES, "node {node} out of NodeSet range");
        self.0 |= 1 << node;
    }

    /// Removes a node; returns whether it was present. Ids outside the
    /// set's range are never present, so removing one changes nothing.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let had = self.contains(node);
        if had {
            self.0 &= !(1u64 << node);
        }
        had
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        node < Self::MAX_NODES && self.0 & (1 << node) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.0;
        (0..Self::MAX_NODES).filter(move |i| bits & (1 << i) != 0)
    }

    /// An arbitrary member (the lowest), if any.
    pub fn first(&self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }
}

/// A node id stored in one byte, for the per-line directory entries.
///
/// Directory entries exist once per simulated line, so their node fields
/// set the per-line cost; every node id is below [`NodeSet::MAX_NODES`],
/// so one byte holds it. [`CompactNode::new`] is the only way to make one
/// and [`CompactNode::get`] the only way to read one back.
///
/// # Examples
///
/// ```
/// use pimdsm_proto::CompactNode;
///
/// let n = CompactNode::new(17);
/// assert_eq!(n.get(), 17);
/// assert_eq!(std::mem::size_of::<Option<CompactNode>>(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactNode(u8);

impl CompactNode {
    /// Narrows `node` to one byte.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 64`, in release builds too: a truncated id
    /// would silently corrupt directory state.
    pub fn new(node: NodeId) -> Self {
        assert!(
            node < NodeSet::MAX_NODES,
            "node {node} out of NodeSet range"
        );
        CompactNode(node as u8)
    }

    /// The node id.
    pub fn get(self) -> NodeId {
        NodeId::from(self.0)
    }
}

/// A fixed-capacity list of node ids, bounded by [`NodeSet::MAX_NODES`].
///
/// Protocol hot paths (write invalidations, page-out recalls) collect
/// small target sets per transaction; an inline array keeps those
/// collections allocation-free. Derefs to a slice, so all read-only
/// slice methods (`len`, `first`, `contains`, iteration) apply.
///
/// # Examples
///
/// ```
/// use pimdsm_proto::NodeList;
///
/// let mut l = NodeList::new();
/// l.push(3);
/// l.push(17);
/// l.retain(|&n| n != 3);
/// assert_eq!(&l[..], &[17]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NodeList {
    nodes: [NodeId; NodeSet::MAX_NODES],
    len: usize,
}

impl NodeList {
    /// Creates an empty list.
    pub fn new() -> Self {
        NodeList {
            nodes: [0; NodeSet::MAX_NODES],
            len: 0,
        }
    }

    /// Appends a node.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`NodeSet::MAX_NODES`] entries.
    pub fn push(&mut self, node: NodeId) {
        self.nodes[self.len] = node;
        self.len += 1;
    }

    /// Collects the members of `set` except `exclude` — the usual
    /// invalidation fan-out: every sharer but the requester.
    pub fn sharers_except(set: &NodeSet, exclude: NodeId) -> NodeList {
        let mut l = NodeList::new();
        for s in set.iter() {
            if s != exclude {
                l.push(s);
            }
        }
        l
    }

    /// Keeps only the nodes for which `keep` returns true, preserving
    /// order.
    pub fn retain(&mut self, mut keep: impl FnMut(&NodeId) -> bool) {
        let mut w = 0;
        for r in 0..self.len {
            if keep(&self.nodes[r]) {
                self.nodes[w] = self.nodes[r];
                w += 1;
            }
        }
        self.len = w;
    }
}

impl Default for NodeList {
    fn default() -> Self {
        NodeList::new()
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.nodes[..self.len]
    }
}

impl std::ops::DerefMut for NodeList {
    fn deref_mut(&mut self) -> &mut [NodeId] {
        &mut self.nodes[..self.len]
    }
}

/// Level of the memory hierarchy that satisfied a read — the categories of
/// the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Local memory (on- or off-chip DRAM of the requesting node).
    LocalMem,
    /// Remote, satisfied in two node hops (requestor → home → requestor).
    Hop2,
    /// Remote, satisfied in three node hops (requestor → home → owner →
    /// requestor).
    Hop3,
}

impl Level {
    /// All levels, in hierarchy order.
    pub const ALL: [Level; 5] = [
        Level::L1,
        Level::L2,
        Level::LocalMem,
        Level::Hop2,
        Level::Hop3,
    ];

    /// Index into [`Level::ALL`].
    pub fn index(self) -> usize {
        match self {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::LocalMem => 2,
            Level::Hop2 => 3,
            Level::Hop3 => 4,
        }
    }

    /// Whether the walk left the requesting node (2Hop or 3Hop): the
    /// levels whose walks emit a `read.remote`/`write.remote` span.
    pub fn is_remote(self) -> bool {
        matches!(self, Level::Hop2 | Level::Hop3)
    }

    /// Display name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            Level::L1 => "FLC",
            Level::L2 => "SLC",
            Level::LocalMem => "Memory",
            Level::Hop2 => "2Hop",
            Level::Hop3 => "3Hop",
        }
    }
}

/// How initialization left a preloaded line (see
/// [`MemSystem::preload`](crate::MemSystem::preload)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreloadKind {
    /// Written by its owner and not shared since: caching architectures
    /// hold it dirty in the owner's local memory.
    ColdPrivate,
    /// Initialized once, read-shared afterwards: clean in backing memory,
    /// spread wherever init-time capacity pushed it.
    SharedInit,
}

/// Outcome of one memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the requesting processor has the data (reads) or
    /// ownership (writes).
    pub done_at: Cycle,
    /// Which level satisfied it.
    pub level: Level,
    /// Per-component latency decomposition, indexed by the constants in
    /// [`pimdsm_obs::breakdown`]. The five entries sum to the
    /// transaction's total latency (`done_at - now`) by construction.
    pub breakdown: [Cycle; 5],
}

/// State of a line in a private (L1/L2) cache. Absence means invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CState {
    /// Clean, possibly shared with other nodes.
    Shared,
    /// Modified; this cache owns the line.
    Dirty,
}

/// State of a line in an attraction memory. Absence means invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmState {
    /// Clean copy; the master copy is elsewhere.
    Shared,
    /// Clean copy holding *mastership* (the COMA-inspired shared-master
    /// state of Section 2.2.2): the home may have dropped its own copy, so
    /// this copy must be written back on displacement.
    SharedMaster,
    /// Modified; the only valid copy in the machine.
    Dirty,
}

impl AmState {
    /// Whether displacing this line requires writing it back (master or
    /// dirty copies cannot be dropped silently).
    pub fn must_write_back(self) -> bool {
        matches!(self, AmState::SharedMaster | AmState::Dirty)
    }
}

/// Uncontended round-trip latencies, after Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCfg {
    /// L1 hit round trip (cycles).
    pub l1: Cycle,
    /// L2 hit round trip (cycles).
    pub l2: Cycle,
    /// Local on-chip memory round trip (cycles).
    pub mem_on: Cycle,
    /// Local off-chip memory round trip (cycles).
    pub mem_off: Cycle,
    /// Attraction-memory tag check on a miss (on-chip tags; cycles).
    pub am_tag_check: Cycle,
    /// Memory/cache-line fill overhead at the requestor (cycles).
    pub fill: Cycle,
    /// Disk round trip for paged-out lines (cycles).
    pub disk: Cycle,
}

/// Table 1's latency card, the one every machine runs with.
pub const LAT: LatencyCfg = LatencyCfg {
    l1: 3,
    l2: 6,
    mem_on: 37,
    mem_off: 57,
    am_tag_check: 6,
    fill: 4,
    disk: 2_000_000,
};

/// Message sizes on the interconnect, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSize {
    /// Control message (request, ack, invalidation, hint).
    pub ctrl: u32,
    /// Data message: a 16-byte header plus one line.
    pub data: u32,
}

/// The interconnect's message sizes.
pub const MSG: MsgSize = MsgSize {
    ctrl: 16,
    data: 16 + LINE_BYTES as u32,
};

/// The major protocol handler types of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerKind {
    /// Read request at the home.
    Read,
    /// Read-exclusive (write/upgrade) request at the home.
    ReadExclusive,
    /// Acknowledgment / replacement-hint processing.
    Acknowledgment,
    /// Write-back (displacement of a dirty or master line) at the home.
    WriteBack,
}

/// Latency/occupancy cost table for protocol handlers (Table 2).
///
/// The AGG D-nodes execute these in software; NUMA and COMA use
/// custom hardware the paper models at 70% of the software cost
/// ([`ControllerKind::Hardware`]).
///
/// # Examples
///
/// ```
/// use pimdsm_proto::{ControllerKind, HandlerCosts, HandlerKind};
///
/// let sw = HandlerCosts::paper(ControllerKind::Software);
/// let hw = HandlerCosts::paper(ControllerKind::Hardware);
/// let (sl, so) = sw.cost(HandlerKind::Read, 0);
/// let (hl, ho) = hw.cost(HandlerKind::Read, 0);
/// assert_eq!((sl, so), (40, 80));
/// assert_eq!((hl, ho), (28, 56));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerCosts {
    /// (latency, occupancy) for Read.
    pub read: (Cycle, Cycle),
    /// (latency, occupancy) for Read-Exclusive, before the per-invalidation
    /// occupancy term.
    pub read_ex: (Cycle, Cycle),
    /// Occupancy added per invalidation sent by Read-Exclusive.
    pub per_inval: Cycle,
    /// (latency, occupancy) for Acknowledgment.
    pub ack: (Cycle, Cycle),
    /// (latency, occupancy) for Write-Back.
    pub write_back: (Cycle, Cycle),
}

/// Whether protocol processing runs in software on a PIM core (AGG) or in
/// a custom hardware controller (NUMA/COMA, at 70% of the software cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// Software handlers on a D-node processor (Table 2 as-is).
    Software,
    /// Custom hardware controller (70% of Table 2, per Section 3).
    Hardware,
}

impl HandlerCosts {
    /// The paper's Table 2 costs, scaled for the controller kind.
    pub fn paper(kind: ControllerKind) -> Self {
        let base = HandlerCosts {
            read: (40, 80),
            read_ex: (45, 80),
            per_inval: 10,
            ack: (40, 40),
            write_back: (40, 140),
        };
        match kind {
            ControllerKind::Software => base,
            ControllerKind::Hardware => base.scaled(0.7),
        }
    }

    /// Returns the table scaled by `factor` (used for the handler-cost
    /// sensitivity ablation).
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |c: Cycle| ((c as f64 * factor).round() as Cycle).max(1);
        HandlerCosts {
            read: (s(self.read.0), s(self.read.1)),
            read_ex: (s(self.read_ex.0), s(self.read_ex.1)),
            per_inval: s(self.per_inval),
            ack: (s(self.ack.0), s(self.ack.1)),
            write_back: (s(self.write_back.0), s(self.write_back.1)),
        }
    }

    /// (latency, occupancy) for a handler sending `invals` invalidations.
    pub fn cost(&self, kind: HandlerKind, invals: u32) -> (Cycle, Cycle) {
        match kind {
            HandlerKind::Read => self.read,
            HandlerKind::ReadExclusive => (
                self.read_ex.0,
                self.read_ex.1 + self.per_inval * invals as Cycle,
            ),
            HandlerKind::Acknowledgment => self.ack,
            HandlerKind::WriteBack => self.write_back,
        }
    }
}

/// Classification of every mapped line in the machine, for Figure 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Lines whose only valid copy is dirty in some P-node (the home keeps
    /// no place holder).
    pub dirty_in_p: u64,
    /// Lines cached shared by at least one P-node.
    pub shared_in_p: u64,
    /// Lines whose only copy sits in their home D-node memory.
    pub d_node_only: u64,
    /// Lines currently paged out to disk.
    pub paged_out: u64,
    /// Total line slots available in D-node (or home) memory.
    pub d_slots: u64,
    /// Of the `shared_in_p` lines, how many still have a home copy.
    pub shared_with_home_copy: u64,
}

impl Census {
    /// Total mapped lines.
    pub fn total_lines(&self) -> u64 {
        self.dirty_in_p + self.shared_in_p + self.d_node_only + self.paged_out
    }

    /// D-node memory slots not holding any line.
    pub fn unused_slots(&self) -> i64 {
        self.d_slots as i64 - self.d_node_only as i64 - self.shared_with_home_copy as i64
    }
}

/// Aggregate protocol statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// Reads satisfied per level (indexed by [`Level::index`]).
    pub reads_by_level: [u64; 5],
    /// Summed read latency per level, cycles.
    pub read_latency_by_level: [Cycle; 5],
    /// Summed per-component read latency per level: the outer index is
    /// [`Level::index`], the inner index the constants in
    /// [`pimdsm_obs::breakdown`]. Each row sums to the corresponding
    /// `read_latency_by_level` entry (the machine-checked Figure 7
    /// decomposition).
    pub read_breakdown_by_level: [[Cycle; 5]; 5],
    /// Write/upgrade transactions that left the node.
    pub remote_writes: u64,
    /// Invalidations sent.
    pub invalidations: u64,
    /// Write-backs of dirty/master lines to a home.
    pub write_backs: u64,
    /// COMA line injections (AGG never injects).
    pub injections: u64,
    /// Lines the home had dropped that needed a 3-hop master fetch.
    pub master_fetches: u64,
    /// Page-out events (AGG).
    pub page_outs: u64,
    /// Disk faults (paged-out or overflowed lines fetched back).
    pub disk_faults: u64,
    /// Master lines spilled to disk because no memory would take them
    /// in: COMA injections that found no room, and AGG write-backs whose
    /// home could page out nothing but the page of the walk that
    /// displaced them.
    pub disk_spills: u64,
}

impl ProtoStats {
    /// Records a satisfied read.
    pub fn record_read(&mut self, level: Level, latency: Cycle) {
        self.reads_by_level[level.index()] += 1;
        self.read_latency_by_level[level.index()] += latency;
    }

    /// Accumulates a read's per-component latency decomposition (indexed
    /// by the constants in [`pimdsm_obs::breakdown`]).
    pub fn record_read_breakdown(&mut self, level: Level, comps: &[Cycle; 5]) {
        for (slot, c) in self.read_breakdown_by_level[level.index()]
            .iter_mut()
            .zip(comps)
        {
            *slot += c;
        }
    }

    /// Total reads.
    pub fn total_reads(&self) -> u64 {
        self.reads_by_level.iter().sum()
    }

    /// Total summed read latency.
    pub fn total_read_latency(&self) -> Cycle {
        self.read_latency_by_level.iter().sum()
    }
}

impl pimdsm_obs::ToJson for ProtoStats {
    fn to_json(&self) -> pimdsm_obs::JsonValue {
        use pimdsm_obs::JsonValue;
        let ProtoStats {
            reads_by_level,
            read_latency_by_level,
            read_breakdown_by_level,
            remote_writes,
            invalidations,
            write_backs,
            injections,
            master_fetches,
            page_outs,
            disk_faults,
            disk_spills,
        } = self;
        let by_level = |values: &[u64; 5]| {
            JsonValue::Obj(
                Level::ALL
                    .iter()
                    .map(|&l| (l.label().to_string(), JsonValue::u64(values[l.index()])))
                    .collect(),
            )
        };
        let breakdown = JsonValue::Obj(
            Level::ALL
                .iter()
                .map(|&l| {
                    let row = &read_breakdown_by_level[l.index()];
                    (
                        l.label().to_string(),
                        JsonValue::Obj(
                            pimdsm_obs::breakdown::COMPONENTS
                                .iter()
                                .enumerate()
                                .map(|(i, name)| (name.to_string(), JsonValue::u64(row[i])))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        JsonValue::obj([
            ("reads_by_level", by_level(reads_by_level)),
            ("read_latency_by_level", by_level(read_latency_by_level)),
            ("read_breakdown_by_level", breakdown),
            ("remote_writes", JsonValue::u64(*remote_writes)),
            ("invalidations", JsonValue::u64(*invalidations)),
            ("write_backs", JsonValue::u64(*write_backs)),
            ("injections", JsonValue::u64(*injections)),
            ("master_fetches", JsonValue::u64(*master_fetches)),
            ("page_outs", JsonValue::u64(*page_outs)),
            ("disk_faults", JsonValue::u64(*disk_faults)),
            ("disk_spills", JsonValue::u64(*disk_spills)),
        ])
    }
}

impl pimdsm_obs::ToJson for Census {
    fn to_json(&self) -> pimdsm_obs::JsonValue {
        use pimdsm_obs::JsonValue;
        let Census {
            dirty_in_p,
            shared_in_p,
            d_node_only,
            paged_out,
            d_slots,
            shared_with_home_copy,
        } = *self;
        JsonValue::obj([
            ("dirty_in_p", JsonValue::u64(dirty_in_p)),
            ("shared_in_p", JsonValue::u64(shared_in_p)),
            ("d_node_only", JsonValue::u64(d_node_only)),
            ("paged_out", JsonValue::u64(paged_out)),
            ("d_slots", JsonValue::u64(d_slots)),
            (
                "shared_with_home_copy",
                JsonValue::u64(shared_with_home_copy),
            ),
            ("total_lines", JsonValue::u64(self.total_lines())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodeset_basics() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(63));
        assert!(!s.contains(5));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.first(), Some(63));
        s.clear();
        assert_eq!(s.first(), None);
    }

    #[test]
    #[should_panic(expected = "out of NodeSet range")]
    fn nodeset_rejects_large_ids() {
        NodeSet::new().insert(64);
    }

    #[test]
    fn nodeset_remove_ignores_ids_out_of_range() {
        let mut s = NodeSet::singleton(0);
        assert!(!s.remove(64));
        assert!(!s.remove(usize::MAX));
        assert_eq!(s, NodeSet::singleton(0));
    }

    #[test]
    fn compact_node_round_trips_every_id() {
        for n in 0..NodeSet::MAX_NODES {
            assert_eq!(CompactNode::new(n).get(), n);
        }
    }

    #[test]
    #[should_panic(expected = "out of NodeSet range")]
    fn compact_node_rejects_large_ids() {
        CompactNode::new(NodeSet::MAX_NODES);
    }

    #[test]
    fn nodeset_iter_ascending() {
        let mut s = NodeSet::new();
        for n in [9, 1, 33] {
            s.insert(n);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 9, 33]);
    }

    #[test]
    fn level_labels_match_paper() {
        let labels: Vec<_> = Level::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, vec!["FLC", "SLC", "Memory", "2Hop", "3Hop"]);
        for (i, l) in Level::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn handler_costs_table2() {
        let c = HandlerCosts::paper(ControllerKind::Software);
        assert_eq!(c.cost(HandlerKind::Read, 0), (40, 80));
        assert_eq!(c.cost(HandlerKind::ReadExclusive, 3), (45, 110));
        assert_eq!(c.cost(HandlerKind::Acknowledgment, 0), (40, 40));
        assert_eq!(c.cost(HandlerKind::WriteBack, 0), (40, 140));
    }

    #[test]
    fn hardware_is_seventy_percent() {
        let hw = HandlerCosts::paper(ControllerKind::Hardware);
        assert_eq!(hw.cost(HandlerKind::WriteBack, 0), (28, 98));
        assert_eq!(hw.per_inval, 7);
    }

    #[test]
    fn am_state_write_back_rule() {
        assert!(!AmState::Shared.must_write_back());
        assert!(AmState::SharedMaster.must_write_back());
        assert!(AmState::Dirty.must_write_back());
    }

    #[test]
    fn census_accounting() {
        let c = Census {
            dirty_in_p: 10,
            shared_in_p: 5,
            d_node_only: 20,
            paged_out: 1,
            d_slots: 30,
            shared_with_home_copy: 4,
        };
        assert_eq!(c.total_lines(), 36);
        assert_eq!(c.unused_slots(), 6);
    }

    #[test]
    fn proto_stats_read_recording() {
        let mut s = ProtoStats::default();
        s.record_read(Level::L1, 3);
        s.record_read(Level::Hop2, 300);
        assert_eq!(s.total_reads(), 2);
        assert_eq!(s.total_read_latency(), 303);
        assert_eq!(s.reads_by_level[Level::Hop2.index()], 1);
    }

    #[test]
    fn breakdown_rows_accumulate_per_component() {
        let mut s = ProtoStats::default();
        s.record_read(Level::Hop2, 300);
        s.record_read_breakdown(Level::Hop2, &[10, 200, 50, 30, 10]);
        s.record_read_breakdown(Level::Hop2, &[5, 0, 0, 0, 0]);
        let row = s.read_breakdown_by_level[Level::Hop2.index()];
        assert_eq!(row, [15, 200, 50, 30, 10]);
        assert_eq!(row.iter().sum::<u64>(), 305);
    }
}
