//! Property-based tests for the memory substrates, checking them against
//! simple reference models.
#![expect(
    clippy::disallowed_types,
    reason = "HashMap and HashSet are reference models to test against, never simulation state"
)]

use std::collections::{HashMap, HashSet, VecDeque};

use proptest::prelude::*;

use pimdsm_mem::{AttractionMemory, CacheCfg, Evicted, KeyedQueue, SetAssocCache};

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

/// Replays `ops` on a KeyedQueue and on a VecDeque that forbids
/// duplicates, checking length, front and full order after every op.
fn queue_matches_reference(ops: &[QueueOp]) -> TestCaseResult {
    let mut q = KeyedQueue::new();
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match *op {
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
    Ok(())
}

/// One fixed case that grows the queue's table from 8 slots to 128: four
/// doublings, as the 8th, 15th, 29th and 57th live key arrives. Every
/// round queues 12 fresh keys, then removes, moves and pops some, so each
/// doubling follows removals and re-links a list whose order differs from
/// insertion order.
#[test]
fn keyed_queue_matches_reference_across_table_doublings() {
    let mut ops = Vec::new();
    for round in 0..12u64 {
        let keys = round * 12..round * 12 + 12;
        ops.extend(keys.clone().map(QueueOp::PushBack));
        ops.extend(keys.clone().step_by(3).map(QueueOp::Remove));
        ops.extend(keys.step_by(5).map(QueueOp::MoveToBack));
        ops.push(QueueOp::PopFront);
    }
    ops.extend((0..100).map(|_| QueueOp::PopFront));
    queue_matches_reference(&ops).unwrap();
}

/// The tick-based LRU cache that the rank-ordered `SetAssocCache`
/// replaced: one `Vec` of `(line, state, last_use)` per set, appended on
/// insert and `swap_remove`d on removal and eviction, with one cache-wide
/// tick stamped on every touch.
struct TickCache {
    sets: Vec<Vec<(u64, u32, u64)>>,
    ways: usize,
    hashed: bool,
    tick: u64,
}

impl TickCache {
    fn new(sets: usize, ways: usize, hashed: bool) -> Self {
        TickCache {
            sets: vec![Vec::new(); sets],
            ways,
            hashed,
            tick: 0,
        }
    }

    fn set(&self, line: u64) -> usize {
        let n = self.sets.len();
        if self.hashed {
            (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as usize % n
        } else {
            line as usize % n
        }
    }

    fn find(&self, line: u64) -> Option<(usize, usize)> {
        let s = self.set(line);
        self.sets[s]
            .iter()
            .position(|e| e.0 == line)
            .map(|w| (s, w))
    }

    fn victim(&self, set: usize, class: u32) -> usize {
        let entries = &self.sets[set];
        (0..entries.len())
            .max_by_key(|&w| (entries[w].1 % class, std::cmp::Reverse(entries[w].2)))
            .unwrap()
    }

    fn get(&mut self, line: u64) -> Option<u32> {
        self.tick += 1;
        let (s, w) = self.find(line)?;
        self.sets[s][w].2 = self.tick;
        Some(self.sets[s][w].1)
    }

    fn insert(&mut self, line: u64, state: u32, class: u32) -> Option<Evicted<u32>> {
        self.tick += 1;
        if let Some((s, w)) = self.find(line) {
            self.sets[s][w] = (line, state, self.tick);
            return None;
        }
        let s = self.set(line);
        let evicted = (self.sets[s].len() == self.ways).then(|| {
            let w = self.victim(s, class);
            let (line, state, _) = self.sets[s].swap_remove(w);
            Evicted { line, state }
        });
        self.sets[s].push((line, state, self.tick));
        evicted
    }

    fn peek_victim(&self, line: u64, class: u32) -> Option<(u64, u32)> {
        let s = self.set(line);
        if self.sets[s].len() < self.ways || self.find(line).is_some() {
            return None;
        }
        let (line, state, _) = self.sets[s][self.victim(s, class)];
        Some((line, state))
    }

    fn remove(&mut self, line: u64) -> Option<u32> {
        let (s, w) = self.find(line)?;
        Some(self.sets[s].swap_remove(w).1)
    }

    fn iter(&self) -> Vec<(u64, u32)> {
        self.sets.iter().flatten().map(|e| (e.0, e.1)).collect()
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    /// Line, state, and the number of victim classes (class = state % n).
    Insert(u64, u32, u32),
    Remove(u64),
    PeekVictim(u64, u32),
    HasRoomFor(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..48).prop_map(CacheOp::Get),
        (0u64..48, 0u32..6, 1u32..4).prop_map(|(l, s, c)| CacheOp::Insert(l, s, c)),
        (0u64..48).prop_map(CacheOp::Remove),
        (0u64..48, 1u32..4).prop_map(|(l, c)| CacheOp::PeekVictim(l, c)),
        (0u64..48).prop_map(CacheOp::HasRoomFor),
    ]
}

proptest! {
    /// KeyedQueue behaves exactly like a VecDeque that forbids duplicates.
    #[test]
    fn keyed_queue_matches_reference(ops in proptest::collection::vec(queue_op(), 0..200)) {
        queue_matches_reference(&ops)?;
    }

    /// Recency ranks inside a set order the ways exactly as the old
    /// cache-wide ticks did: every op returns what the tick-based cache
    /// returns, the slot order matches after every op, and the final
    /// drain yields the same sequence.
    #[test]
    fn rank_order_matches_tick_order(
        ops in proptest::collection::vec(cache_op(), 1..300),
        ways in 1u32..9,
        sets in 1u64..5,
        hashed in any::<bool>(),
    ) {
        let mut cfg = CacheCfg::new(sets * ways as u64 * 64, ways);
        if hashed {
            cfg = cfg.with_hashed_index();
        }
        let mut cache = SetAssocCache::new(cfg);
        let mut model = TickCache::new(sets as usize, ways as usize, hashed);
        for op in &ops {
            match *op {
                CacheOp::Get(l) => prop_assert_eq!(cache.get(l).copied(), model.get(l)),
                CacheOp::Insert(l, s, c) => {
                    prop_assert_eq!(cache.insert(l, s, |s| s % c), model.insert(l, s, c))
                }
                CacheOp::Remove(l) => prop_assert_eq!(cache.remove(l), model.remove(l)),
                CacheOp::PeekVictim(l, c) => prop_assert_eq!(
                    cache.peek_victim(l, |s| s % c).map(|(l, s)| (l, *s)),
                    model.peek_victim(l, c)
                ),
                CacheOp::HasRoomFor(l) => {
                    let s = model.set(l);
                    prop_assert_eq!(cache.has_room_for(l), model.sets[s].len() < model.ways)
                }
            }
            let order: Vec<(u64, u32)> = cache.iter_deterministic().map(|(l, s)| (l, *s)).collect();
            prop_assert_eq!(order, model.iter());
        }
        let drained: Vec<(u64, u32)> = cache.drain_all().collect();
        prop_assert_eq!(drained, model.iter());
        prop_assert!(cache.is_empty());
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
        let mut cfg = CacheCfg::new(sets * ways as u64 * 64, ways);
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
        let mut cache = SetAssocCache::new(CacheCfg::new(64 * 64, 4));
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
            AttractionMemory::new(CacheCfg::new(64 * 64, 4).with_hashed_index(), onchip);
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
