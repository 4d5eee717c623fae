//! Property-based tests: random access streams never violate the
//! protocols' structural invariants.
#![expect(
    clippy::disallowed_types,
    reason = "HashSet is the reference model NodeSet is tested against, never simulation state"
)]

use proptest::prelude::*;

use pimdsm_engine::SimRng;
use pimdsm_mem::page_of_line;
use pimdsm_proto::{
    AggCfg, AggSystem, ComaCfg, ComaSystem, MemSystem, NodeSet, NumaCfg, NumaSystem,
};

#[derive(Debug, Clone, Copy)]
enum Access {
    Read { node: usize, line: u64 },
    Write { node: usize, line: u64 },
}

/// Four P-nodes with 16-line memories and two D-nodes with 32-line Data
/// arrays, against traffic over 512 lines (eight pages, four homed at
/// each D-node): SharedList reclaim, master fetches, page-out and disk
/// faults all run.
fn paging_agg() -> AggSystem {
    AggSystem::new(AggCfg::paper(4, 2, 1, 1, 16, 32))
}

/// Performs `op` on `sys`'s P-nodes at `t`, then checks the D-node
/// structures and every line's coherence.
fn agg_step(sys: &mut AggSystem, op: Access, t: u64) {
    let p = sys.p_nodes().to_vec();
    match op {
        Access::Read { node, line } => sys.read(p[node], line * 64, t),
        Access::Write { node, line } => sys.write(p[node], line * 64, t),
    };
    sys.check_invariants();
    sys.check_coherence();
}

fn accesses(nodes: usize, lines: u64) -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (0..nodes, 0u64..lines, any::<bool>()).prop_map(|(node, line, write)| {
            if write {
                Access::Write { node, line }
            } else {
                Access::Read { node, line }
            }
        }),
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of reads and writes, paging included, leaves the
    /// AGG D-node structures (FreeList/SharedList/directory) consistent
    /// and every line coherent after every access.
    #[test]
    fn agg_invariants_under_random_traffic(ops in accesses(4, 512)) {
        let mut sys = paging_agg();
        for (i, op) in ops.into_iter().enumerate() {
            agg_step(&mut sys, op, 500 * (i as u64 + 1));
        }
        // Census is consistent with the directory contents.
        let c = sys.census();
        prop_assert!(c.d_node_only + c.shared_with_home_copy <= c.d_slots);
        prop_assert!(c.shared_with_home_copy <= c.shared_in_p);
    }

    /// Reads always return nondecreasing completion times relative to
    /// issue, on every architecture.
    #[test]
    fn accesses_never_complete_before_issue(ops in accesses(4, 128), arch in 0usize..3) {
        let mut numa;
        let mut coma;
        let mut agg;
        let sys: &mut dyn MemSystem = match arch {
            0 => {
                numa = NumaSystem::new(NumaCfg::paper(4, 8, 32, 4096));
                &mut numa
            }
            1 => {
                coma = ComaSystem::new(ComaCfg::paper(4, 8, 32, 4096));
                &mut coma
            }
            _ => {
                agg = AggSystem::new(AggCfg::paper(4, 2, 8, 32, 2048, 4096));
                &mut agg
            }
        };
        let compute = sys.compute_nodes();
        let mut t = 0;
        for op in ops {
            t += 300;
            let a = match op {
                Access::Read { node, line } => sys.read(compute[node], line * 64, t),
                Access::Write { node, line } => sys.write(compute[node], line * 64, t),
            };
            prop_assert!(a.done_at >= t, "completion {} before issue {t}", a.done_at);
        }
        let total: u64 = sys.stats().reads_by_level.iter().sum();
        prop_assert_eq!(total, sys.stats().total_reads());
    }

    /// After any traffic, a written line reads back as a cache hit at the
    /// writer, and a subsequent read at another node invalidates nobody
    /// (single-writer/multi-reader coherence sanity).
    #[test]
    fn write_then_read_is_coherent(line in 0u64..64, writer in 0usize..4, reader in 0usize..4) {
        let mut sys = AggSystem::new(AggCfg::paper(4, 2, 8, 32, 2048, 4096));
        let p: Vec<usize> = sys.p_nodes().to_vec();
        sys.write(p[writer], line * 64, 0);
        let a = sys.read(p[writer], line * 64, 10_000);
        prop_assert!(
            matches!(a.level, pimdsm_proto::Level::L1 | pimdsm_proto::Level::L2),
            "writer re-read should hit its caches, got {:?}", a.level
        );
        let before = sys.stats().invalidations;
        sys.read(p[reader], line * 64, 20_000);
        prop_assert_eq!(sys.stats().invalidations, before, "reads never invalidate");
        sys.check_invariants();
    }

    /// NodeSet behaves like a HashSet over 0..64.
    #[test]
    fn nodeset_matches_reference(ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..200)) {
        let mut s = NodeSet::new();
        let mut model = std::collections::HashSet::new();
        for (n, add) in ops {
            if add {
                s.insert(n);
                model.insert(n);
            } else {
                prop_assert_eq!(s.remove(n), model.remove(&n));
            }
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.is_empty(), model.is_empty());
        }
        let collected: std::collections::HashSet<usize> = s.iter().collect();
        prop_assert_eq!(collected, model);
    }
}

/// The property test's shape really pages: one fixed stream of its kind
/// recalls masters, pages out and faults pages back in, coherent after
/// every access.
#[test]
fn paging_shape_pages_out_and_faults_back_in() {
    let mut sys = paging_agg();
    let mut rng = SimRng::new(7);
    for i in 0..1_000u64 {
        let (node, line) = (rng.index(4), rng.range(0, 512));
        let op = if rng.chance(0.5) {
            Access::Write { node, line }
        } else {
            Access::Read { node, line }
        };
        agg_step(&mut sys, op, 500 * (i + 1));
    }
    let s = sys.stats();
    assert!(s.page_outs > 0, "no page-out");
    assert!(s.disk_faults > 0, "no disk fault");
    assert!(s.master_fetches > 0, "no master fetch");
}

/// A line that takes a Data slot maps its page at its home, also when the
/// page-out that freed the slot evicted that very page and when the line
/// is the first referenced of a paged-out page: a page holding in-memory
/// lines must stay a page-out victim.
#[test]
fn pages_holding_in_memory_lines_stay_mapped() {
    let mut sys = paging_agg();
    let p = sys.p_nodes().to_vec();
    let mut rng = SimRng::new(1);
    for i in 0..500u64 {
        let (node, addr, t) = (p[rng.index(4)], rng.range(0, 512) * 64, 500 * (i + 1));
        if rng.chance(0.5) {
            sys.write(node, addr, t);
        } else {
            sys.read(node, addr, t);
        }
        for &d in sys.d_nodes() {
            let dn = sys.dnode(d);
            for (line, e) in dn.iter_deterministic() {
                assert!(
                    !e.in_mem || dn.maps_page(page_of_line(line)),
                    "access {i}: in-memory line {line:#x} sits in a page D-node {d} does not map"
                );
            }
        }
    }
    assert!(sys.stats().page_outs > 0, "no page-out");
}
