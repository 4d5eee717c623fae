//! Property-based tests for the memory substrates, checking them against
//! simple reference models.

use std::collections::{HashMap, HashSet, VecDeque};

use proptest::prelude::*;

use pimdsm_mem::{AttractionMemory, CacheCfg, KeyedQueue, SetAssocCache};

#[derive(Debug, Clone)]
enum QueueOp {
    PushBack(u64),
    PopFront,
    Remove(u64),
    MoveToBack(u64),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..64).prop_map(QueueOp::PushBack),
        Just(QueueOp::PopFront),
        (0u64..64).prop_map(QueueOp::Remove),
        (0u64..64).prop_map(QueueOp::MoveToBack),
    ]
}

proptest! {
    /// KeyedQueue behaves exactly like a VecDeque that forbids duplicates.
    #[test]
    fn keyed_queue_matches_reference(ops in proptest::collection::vec(queue_op(), 0..200)) {
        let mut q = KeyedQueue::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::PushBack(k) => {
                    if !model.contains(&k) {
                        model.push_back(k);
                        q.push_back(k);
                    }
                }
                QueueOp::PopFront => {
                    prop_assert_eq!(q.pop_front(), model.pop_front());
                }
                QueueOp::Remove(k) => {
                    let had = model.iter().position(|&x| x == k).map(|i| {
                        model.remove(i);
                    });
                    prop_assert_eq!(q.remove(&k), had.is_some());
                }
                QueueOp::MoveToBack(k) => {
                    let had = model.iter().position(|&x| x == k).map(|i| {
                        model.remove(i);
                        model.push_back(k);
                    });
                    prop_assert_eq!(q.move_to_back(&k), had.is_some());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.front().copied(), model.front().copied());
            let order: Vec<u64> = q.iter().copied().collect();
            let model_order: Vec<u64> = model.iter().copied().collect();
            prop_assert_eq!(order, model_order);
        }
    }

    /// The cache never exceeds its capacity, keeps at most `ways` lines
    /// per set, and everything it reports present was inserted and not
    /// since evicted or removed.
    #[test]
    fn cache_respects_geometry(
        lines in proptest::collection::vec(0u64..512, 1..300),
        ways in 1u32..8,
        sets in 1u64..16,
        hashed in any::<bool>(),
    ) {
        let mut cfg = CacheCfg::new(sets * ways as u64 * 64, ways, 6);
        if hashed {
            cfg = cfg.with_hashed_index();
        }
        let mut cache = SetAssocCache::new(cfg);
        let mut live: HashSet<u64> = HashSet::new();
        for line in lines {
            if let Some(v) = cache.insert(line, (), |_| 0) {
                prop_assert!(live.remove(&v.line), "evicted a line that was not live");
            }
            live.insert(line);
            prop_assert!(live.len() <= (sets * ways as u64) as usize);
            prop_assert_eq!(cache.len(), live.len());
            prop_assert!(cache.contains(line), "inserted line must be resident");
        }
        for (line, _) in cache.iter() {
            prop_assert!(live.contains(&line));
        }
    }

    /// Cache get/remove agree with a reference map filtered by residency.
    #[test]
    fn cache_payloads_match_reference(
        ops in proptest::collection::vec((0u64..64, 0u32..1000), 1..200)
    ) {
        // Large enough that nothing is ever evicted: pure map semantics.
        let mut cache = SetAssocCache::new(CacheCfg::new(64 * 64, 4, 6));
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (line, val) in ops {
            prop_assert!(cache.insert(line, val, |_| 0).is_none());
            model.insert(line, val);
            prop_assert_eq!(cache.peek(line), model.get(&line));
        }
        for (line, val) in &model {
            prop_assert_eq!(cache.get(*line).map(|v| *v), Some(*val));
        }
    }

    /// The attraction memory keeps at most `onchip` lines on chip, and
    /// every resident line has a residency.
    #[test]
    fn attraction_memory_onchip_bound(
        lines in proptest::collection::vec(0u64..256, 1..200),
        onchip in 0usize..16,
    ) {
        let mut am: AttractionMemory<u8> =
            AttractionMemory::new(CacheCfg::new(64 * 64, 4, 6).with_hashed_index(), onchip);
        for line in lines {
            am.insert(line, 0, |_| 0);
            am.touch(line);
        }
        let mut on = 0;
        let mut resident = 0;
        for (l, _) in am.iter() {
            resident += 1;
            match am.residency(l) {
                Some(pimdsm_mem::Residency::OnChip) => on += 1,
                Some(pimdsm_mem::Residency::OffChip) => {}
                None => prop_assert!(false, "resident line without residency"),
            }
        }
        prop_assert!(on <= onchip);
        prop_assert_eq!(resident, am.len());
    }
}
