//! Property-based tests: random access streams never violate the
//! protocols' structural invariants.
#![expect(
    clippy::disallowed_types,
    reason = "HashSet is the reference model NodeSet is tested against, never simulation state"
)]

use proptest::prelude::*;

use pimdsm_proto::{
    AggCfg, AggSystem, ComaCfg, ComaSystem, MemSystem, NodeSet, NumaCfg, NumaSystem,
};

#[derive(Debug, Clone, Copy)]
enum Access {
    Read { node: usize, line: u64 },
    Write { node: usize, line: u64 },
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

    /// Any interleaving of reads and writes leaves the AGG D-node
    /// structures (FreeList/SharedList/directory) consistent, and the
    /// directory agrees with the P-node attraction memories.
    #[test]
    fn agg_invariants_under_random_traffic(ops in accesses(4, 64)) {
        // Small D-memory so SharedList reclaim and page-out also trigger.
        let mut cfg = AggCfg::paper(4, 2, 8, 32, 256, 48);
        cfg.dnode.lines_per_page = 8;
        cfg.dnode.shared_list_min = 2;
        let mut sys = AggSystem::new(cfg);
        let p_nodes: Vec<usize> = sys.p_nodes().to_vec();
        let mut t = 0;
        for op in ops {
            t += 500;
            match op {
                Access::Read { node, line } => {
                    sys.read(p_nodes[node], line * 64, t);
                }
                Access::Write { node, line } => {
                    sys.write(p_nodes[node], line * 64, t);
                }
            }
            sys.check_invariants();
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
