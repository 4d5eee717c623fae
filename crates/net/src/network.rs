//! Contended wormhole network built on per-link timelines.

use pimdsm_engine::{Cycle, Timeline};
use pimdsm_obs::{Event, Tracer};

use crate::mesh::Mesh;

/// Head-flit latency per hop (router + wire), in cycles.
pub const HOP_LATENCY: Cycle = 9;
/// Fixed overhead to inject a message at the source NI, in cycles.
pub const INJECT_LATENCY: Cycle = 10;
/// Fixed overhead to deliver a message at the destination NI, in cycles.
pub const EJECT_LATENCY: Cycle = 10;

/// Network timing parameters.
///
/// The paper: 2-byte-wide links cycling at 1 GHz for AGG (2 GB/s per link
/// per direction); NUMA/COMA links are twice as wide. The per-hop,
/// injection and ejection latencies are the constants [`HOP_LATENCY`],
/// [`INJECT_LATENCY`] and [`EJECT_LATENCY`], which land Table 1's
/// uncontended remote round trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCfg {
    /// Link bandwidth in bytes per CPU cycle (2 for AGG, 4 for NUMA/COMA).
    pub bytes_per_cycle: u64,
}

impl Default for NetCfg {
    fn default() -> Self {
        NetCfg { bytes_per_cycle: 2 }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Sum over messages of (delivery - injection) cycles.
    pub total_latency: Cycle,
    /// Sum of cycles spent queueing for busy links.
    pub total_queueing: Cycle,
}

/// A wormhole-routed 2D mesh with contended links.
///
/// Every directed link is a [`Timeline`]; a message books each link on its
/// XY route for its serialization time, while the head pipelines at
/// [`HOP_LATENCY`] per hop. Local (self) messages bypass the
/// network entirely, as in the paper's node model.
///
/// # Examples
///
/// ```
/// use pimdsm_net::{Mesh, NetCfg, Network};
///
/// let mut net = Network::new(Mesh::new(4, 4), NetCfg::default());
/// let t1 = net.send(0, 3, 16, 0);
/// let uncontended = t1;
/// // A second identical message right behind the first queues on links.
/// let t2 = net.send(0, 3, 16, 0);
/// assert!(t2 > uncontended);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    cfg: NetCfg,
    links: Vec<Timeline>,
    stats: NetStats,
    tracer: Tracer,
}

impl Network {
    /// Creates an idle network over `mesh` with timing `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is zero.
    pub fn new(mesh: Mesh, cfg: NetCfg) -> Self {
        assert!(cfg.bytes_per_cycle > 0, "link bandwidth must be nonzero");
        Network {
            mesh,
            cfg,
            links: vec![Timeline::new(); mesh.num_link_slots()],
            stats: NetStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`]; an enabled tracer records one `net.link`
    /// span per link crossing (tid = link id) and a `net.msg` instant per
    /// delivered message. The default disabled tracer costs one branch.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of directed link slots in the mesh.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The timing configuration.
    pub fn cfg(&self) -> &NetCfg {
        &self.cfg
    }

    /// Hop count between two nodes.
    pub fn hops(&self, from: usize, to: usize) -> usize {
        self.mesh.hops(from, to)
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// delivery cycle. A self-send returns `now` (handled inside the node):
    /// it moves no bytes, books no links and counts in no statistics, but
    /// an enabled tracer records a `net.local` instant so protocol walks
    /// that resolve at the issuing node stay visible in the trace.
    pub fn send(&mut self, from: usize, to: usize, bytes: u32, now: Cycle) -> Cycle {
        if from == to {
            self.tracer.instant(
                Event::NetLocal,
                self.links.len() as u32,
                now,
                &[("node", from as u64), ("bytes", bytes as u64)],
            );
            return now;
        }
        let ser = (bytes as u64).div_ceil(self.cfg.bytes_per_cycle);
        let tracing = self.tracer.is_enabled();
        let mut head = now + INJECT_LATENCY;
        let mut queueing = 0;
        for link in self.mesh.route(from, to) {
            let start = self.links[link].acquire(head, ser);
            queueing += start - head;
            if tracing {
                self.tracer.span(
                    Event::NetXfer,
                    link as u32,
                    start,
                    ser.max(1),
                    &[
                        ("from", from as u64),
                        ("to", to as u64),
                        ("bytes", bytes as u64),
                    ],
                );
            }
            head = start + HOP_LATENCY;
        }
        // The tail flit arrives one serialization time after the head.
        let delivered = head + ser + EJECT_LATENCY;
        self.tracer.instant(
            Event::NetDeliver,
            self.links.len() as u32,
            delivered,
            &[
                ("from", from as u64),
                ("to", to as u64),
                ("bytes", bytes as u64),
            ],
        );

        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        self.stats.total_latency += delivered - now;
        self.stats.total_queueing += queueing;
        delivered
    }

    /// The uncontended latency a `bytes`-sized message would see between
    /// two nodes (used for calibration probes; does not book links).
    pub fn ideal_latency(&self, from: usize, to: usize, bytes: u32) -> Cycle {
        if from == to {
            return 0;
        }
        let ser = (bytes as u64).div_ceil(self.cfg.bytes_per_cycle);
        let hops = self.mesh.hops(from, to) as u64;
        INJECT_LATENCY + hops * HOP_LATENCY + ser + EJECT_LATENCY
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Total busy cycles across all links (for utilization reports).
    pub fn total_link_busy(&self) -> Cycle {
        self.links.iter().map(|l| l.busy_cycles()).sum()
    }

    /// Busy cycles of the single most-loaded link (hot-spot detection).
    pub fn max_link_busy(&self) -> Cycle {
        self.links
            .iter()
            .map(|l| l.busy_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Frees every link's schedule behind `floor`; see
    /// [`Timeline::retire_before`].
    pub fn retire_before(&mut self, floor: Cycle) {
        for l in &mut self.links {
            l.retire_before(floor);
        }
    }
}

impl pimdsm_obs::ToJson for NetStats {
    fn to_json(&self) -> pimdsm_obs::JsonValue {
        use pimdsm_obs::JsonValue;
        let NetStats {
            messages,
            bytes,
            total_latency,
            total_queueing,
        } = *self;
        JsonValue::obj([
            ("messages", JsonValue::u64(messages)),
            ("bytes", JsonValue::u64(bytes)),
            ("total_latency", JsonValue::u64(total_latency)),
            ("total_queueing", JsonValue::u64(total_queueing)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Coord;

    fn net() -> Network {
        Network::new(Mesh::new(4, 4), NetCfg::default())
    }

    #[test]
    fn self_send_is_free() {
        let mut n = net();
        assert_eq!(n.send(5, 5, 64, 123), 123);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn uncontended_matches_ideal() {
        let mut n = net();
        let ideal = n.ideal_latency(0, 15, 80);
        assert_eq!(n.send(0, 15, 80, 1000), 1000 + ideal);
    }

    #[test]
    fn latency_grows_with_distance() {
        let n = net();
        assert!(n.ideal_latency(0, 15, 16) > n.ideal_latency(0, 5, 16));
        assert!(n.ideal_latency(0, 1, 16) > 0);
    }

    #[test]
    fn contention_queues_messages() {
        let mut n = net();
        let t1 = n.send(0, 3, 128, 0);
        let t2 = n.send(0, 3, 128, 0);
        let ser = 128 / 2;
        assert_eq!(t2 - t1, ser, "second message trails by serialization");
        assert!(n.stats().total_queueing > 0);
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut n = net();
        let a = n.send(0, 1, 64, 0);
        let b = n.send(14, 15, 64, 0);
        assert_eq!(a, n.ideal_latency(0, 1, 64));
        assert_eq!(b, n.ideal_latency(14, 15, 64));
    }

    #[test]
    fn wider_links_are_faster() {
        let narrow = Network::new(Mesh::new(4, 4), NetCfg::default());
        let wide = Network::new(Mesh::new(4, 4), NetCfg { bytes_per_cycle: 4 });
        assert!(wide.ideal_latency(0, 15, 256) < narrow.ideal_latency(0, 15, 256));
    }

    #[test]
    fn tracer_records_link_spans_and_delivery() {
        let mut n = net();
        let t = Tracer::enabled();
        n.attach_tracer(t.clone());
        n.send(0, 3, 64, 0);
        n.send(5, 5, 64, 0); // self-send: no link spans, no delivery
        let events = t.events_sorted();
        let links = events.iter().filter(|e| e.cat == "net.link").count();
        let msgs = events.iter().filter(|e| e.cat == "net.msg").count();
        assert_eq!(links, n.hops(0, 3));
        assert_eq!(msgs, 1);
    }

    #[test]
    fn self_send_traces_a_local_instant_without_stats() {
        let mut n = net();
        let t = Tracer::enabled();
        n.attach_tracer(t.clone());
        assert_eq!(n.send(7, 7, 80, 42), 42);
        let events = t.events_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "net.local");
        assert_eq!(events[0].ts, 42);
        assert_eq!(n.stats(), NetStats::default(), "self-sends are free");
        assert_eq!(n.total_link_busy(), 0);
    }

    /// The XY route of the router before one-pass booking, kept as the
    /// reference: walk X to the destination column, then Y to its row,
    /// and name each link by the router it leaves (`4 * node`) plus its
    /// direction (east 0, west 1, north 2, south 3).
    fn reference_route(m: &Mesh, from: usize, to: usize) -> Vec<usize> {
        #[derive(Clone, Copy)]
        enum Dir {
            East,
            West,
            North,
            South,
        }
        let link_id = |c: Coord, dir: Dir| m.node_at(c) * 4 + dir as usize;
        let mut out = Vec::new();
        let mut cur = m.coord(from);
        let dst = m.coord(to);
        while cur.x != dst.x {
            let dir = if dst.x > cur.x { Dir::East } else { Dir::West };
            out.push(link_id(cur, dir));
            cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        }
        while cur.y != dst.y {
            let dir = if dst.y > cur.y {
                Dir::South
            } else {
                Dir::North
            };
            out.push(link_id(cur, dir));
            cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        }
        out
    }

    const MESHES: [(usize, usize); 5] = [(1, 1), (3, 2), (4, 4), (8, 4), (8, 8)];

    #[test]
    fn one_pass_booking_crosses_the_reference_xy_route() {
        for (cols, rows) in MESHES {
            let mesh = Mesh::new(cols, rows);
            for from in 0..mesh.num_nodes() {
                for to in 0..mesh.num_nodes() {
                    let mut n = Network::new(mesh, NetCfg::default());
                    let t = Tracer::enabled();
                    n.attach_tracer(t.clone());
                    let ideal = n.ideal_latency(from, to, 72);
                    assert_eq!(n.send(from, to, 72, 500), 500 + ideal, "{from}->{to}");
                    let mut xfers: Vec<(Cycle, u32)> = t
                        .events_sorted()
                        .iter()
                        .filter(|e| e.cat == "net.link")
                        .map(|e| (e.ts, e.tid))
                        .collect();
                    xfers.sort_unstable();
                    let links: Vec<usize> = xfers.iter().map(|&(_, l)| l as usize).collect();
                    assert_eq!(
                        links,
                        reference_route(&mesh, from, to),
                        "{cols}x{rows} mesh, {from}->{to}"
                    );
                }
            }
        }
    }

    /// A contended stream of messages, some arriving behind later ones,
    /// delivers at the same cycles and leaves the same statistics as
    /// per-link timelines booked hop by hop along the reference route.
    #[test]
    fn contended_sends_match_hop_by_hop_reference_booking() {
        for (cols, rows) in MESHES {
            let mesh = Mesh::new(cols, rows);
            let cfg = NetCfg::default();
            let mut n = Network::new(mesh, cfg);
            let mut links = vec![Timeline::new(); mesh.num_link_slots()];
            let mut want = NetStats::default();
            let mut rng = pimdsm_engine::SimRng::new((cols * 16 + rows) as u64);
            let mut clock = 0;
            for _ in 0..2_000 {
                let from = rng.range(0, mesh.num_nodes() as u64) as usize;
                let to = rng.range(0, mesh.num_nodes() as u64) as usize;
                let bytes = [8, 16, 72, 136][rng.range(0, 4) as usize];
                clock += rng.range(0, 40);
                let now = clock.saturating_sub(rng.range(0, 600));
                let got = n.send(from, to, bytes, now);
                if from == to {
                    assert_eq!(got, now);
                    continue;
                }
                let ser = (bytes as u64).div_ceil(cfg.bytes_per_cycle);
                let mut head = now + INJECT_LATENCY;
                let mut queueing = 0;
                for link in reference_route(&mesh, from, to) {
                    let start = links[link].acquire(head, ser);
                    queueing += start - head;
                    head = start + HOP_LATENCY;
                }
                let delivered = head + ser + EJECT_LATENCY;
                assert_eq!(got, delivered, "{cols}x{rows} mesh, {from}->{to} at {now}");
                want.messages += 1;
                want.bytes += bytes as u64;
                want.total_latency += delivered - now;
                want.total_queueing += queueing;
            }
            assert_eq!(n.stats(), want, "{cols}x{rows} mesh");
            assert!(
                mesh.num_nodes() == 1 || want.total_queueing > 0,
                "the stream contends"
            );
            let busy: Cycle = links.iter().map(Timeline::busy_cycles).sum();
            assert_eq!(n.total_link_busy(), busy);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        n.send(0, 3, 64, 0);
        n.send(3, 0, 64, 0);
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 128);
        assert!(s.total_latency > 0);
        assert!(n.total_link_busy() > 0);
    }
}
