//! The common interface all three memory systems implement.

use pimdsm_engine::Cycle;
use pimdsm_faults::{Durability, RecoveryStats};
use pimdsm_net::NetStats;
use pimdsm_obs::{EpochProbe, Tracer};

use crate::common::{Access, Census, NodeId, PreloadKind, ProtoStats};
use crate::fabric::Fabric;

/// A complete coherent memory system: caches, local memories, directory
/// protocol and interconnect.
///
/// The machine driver (crate `pimdsm`) issues one transaction at a time
/// per thread; implementations walk the transaction synchronously, booking
/// every contended resource along its path, and return the completion
/// cycle plus the satisfaction level.
///
/// Every implementation owns a [`Fabric`] — the shared per-node substrate
/// (page homing, interconnect, handler costs, statistics, tracing) — and
/// exposes it through [`fabric`](MemSystem::fabric). Observability and
/// accounting methods (`stats`, `net_stats`, `controller_utilization`,
/// `attach_tracer`, `epoch_probe`, …) have default implementations over
/// the fabric, so a protocol only writes its transaction walks, its
/// census, and its coherence oracle.
pub trait MemSystem {
    /// Short architecture name ("NUMA", "COMA", "AGG").
    fn name(&self) -> &'static str;

    /// Performs a read issued by `node` at `now`; returns completion time
    /// and satisfaction level. Statistics are recorded internally.
    fn read(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access;

    /// Performs a write (obtains ownership) issued by `node` at `now`.
    fn write(&mut self, node: NodeId, addr: u64, now: Cycle) -> Access;

    /// The shared protocol substrate of this system.
    fn fabric(&self) -> &Fabric;

    /// Mutable access to the substrate (tracer attachment).
    fn fabric_mut(&mut self) -> &mut Fabric;

    /// Total busy cycles and count of the protocol controllers / D-node
    /// processors, for utilization and epoch metrics.
    fn controllers_busy(&self) -> (Cycle, usize);

    /// Frees the storage of every resource timeline (links, DRAM ports,
    /// protocol processors) for windows wholly before the
    /// [`Timeline::CHUNK_CYCLES`](pimdsm_engine::Timeline::CHUNK_CYCLES)
    /// chunk holding `floor`. The caller promises that no later access
    /// books anything before `floor`; the machine driver passes its
    /// event-loop pop time. Simulated timing is unchanged, and a booking
    /// behind the floor panics.
    fn retire_before(&mut self, floor: Cycle);

    /// Runs the full-sweep coherence oracle over every directory entry,
    /// panicking on the first invariant violation (see [`crate::check`]).
    fn check_coherence(&self);

    /// The nodes on which application threads run (all nodes for
    /// NUMA/COMA; the P-nodes for AGG).
    fn compute_nodes(&self) -> Vec<NodeId>;

    /// Aggregate protocol statistics.
    fn stats(&self) -> &ProtoStats {
        &self.fabric().stats
    }

    /// Classification of every mapped line (Figure 8); meaningful mainly
    /// for AGG but implemented by all systems.
    fn census(&self) -> Census;

    /// Interconnect statistics.
    fn net_stats(&self) -> NetStats {
        self.fabric().net.stats()
    }

    /// (total, max-per-link) busy cycles on the interconnect.
    fn net_link_busy(&self) -> (Cycle, Cycle) {
        let net = &self.fabric().net;
        (net.total_link_busy(), net.max_link_busy())
    }

    /// Mean utilization of the protocol controllers/D-node processors over
    /// `elapsed` cycles, in `[0, 1]`.
    fn controller_utilization(&self, elapsed: Cycle) -> f64 {
        let (busy, count) = self.controllers_busy();
        Fabric::utilization(busy, count, elapsed)
    }

    /// Attaches a [`Tracer`], threading it through the interconnect and
    /// protocol engines so an enabled tracer records handler occupancy,
    /// attraction-memory events and link transfers.
    fn attach_tracer(&mut self, tracer: Tracer) {
        self.fabric_mut().attach_tracer(tracer);
    }

    /// Snapshot of cumulative counters for epoch-based metrics sampling.
    ///
    /// The default covers controller busy time, the read mix, remote
    /// writes and network totals; AGG overrides it to add directory list
    /// depths.
    fn epoch_probe(&self) -> EpochProbe {
        self.fabric().epoch_probe(self.controllers_busy())
    }

    /// Applies a node kill at `now`: the victim's caches and attraction
    /// memory are wiped, every page homed at it is re-homed onto
    /// survivors, and directory state naming it (sharer bits, mastership,
    /// ownership) is re-elected or scrubbed. What line data survives
    /// depends on `durability`. Pages mid-reconstruction are marked
    /// recovering on the fabric so racing transactions pay a bounded
    /// retry wait. Returns the cycle at which recovery completes;
    /// accounting (pages re-homed, lines recalled/lost, per-page recovery
    /// latency) is recorded into `rs`.
    ///
    /// # Panics
    ///
    /// Panics if the kill would leave the system unable to serve memory
    /// (e.g. killing AGG's only D-node) or if `node` is already dead.
    fn apply_kill(
        &mut self,
        node: NodeId,
        now: Cycle,
        durability: Durability,
        rs: &mut RecoveryStats,
    ) -> Cycle;

    /// A previously killed node comes back cold at `now`: empty caches,
    /// no pages homed at it, eligible for compute binding and first-touch
    /// homing again. Returns the cycle at which the node is usable.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not dead.
    fn apply_rejoin(&mut self, node: NodeId, now: Cycle) -> Cycle;

    /// Functionally installs a line that existed before the measured
    /// region (initialization happens outside the paper's measurement
    /// window): assigns its page home as if `owner` had first-touched it
    /// and places the data where that kind of initialization leaves it.
    /// Consumes no simulated time.
    fn preload(&mut self, addr: u64, owner: NodeId, kind: PreloadKind);
}
