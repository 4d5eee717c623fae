//! Generic set-associative cache with LRU and victim-class replacement.
//!
//! The tag store is a single flat slab (`num_sets * ways` slots) instead
//! of a `Vec` per set: building a memory-sized attraction-memory cache
//! costs one allocation rather than one per set, which dominated
//! `point.build` wall time before the arena layout. Set `i` owns the slot
//! range `[i*ways, (i+1)*ways)` and its filled ways are always a prefix of
//! it, so no occupancy count is stored. Entries stay in the exact order
//! the old per-set `Vec` kept them (append on insert, last-slot backfill
//! on removal — `swap_remove` semantics), so iteration and drain order
//! are bit-identical to the previous representation.
//!
//! Recency is a `u8` rank inside the set (0 = most recently used; the `n`
//! filled ways hold ranks `0..n`, so the order is total), and the tag is
//! a four-byte [`CompactLine`], which keeps a tag entry with a one-byte
//! payload at 8 bytes.

use std::fmt;
use std::ops::Range;

use crate::addr::{CompactLine, Line, LINE_BYTES, LINE_SHIFT};

/// Geometry of a set-associative cache of [`LINE_BYTES`]-byte lines.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::CacheCfg;
///
/// let l1 = CacheCfg::new(8 * 1024, 1); // 8 KiB direct-mapped
/// assert_eq!(l1.num_sets(), 128);
/// assert_eq!(l1.capacity_lines(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    size_bytes: u64,
    ways: u32,
    hashed_index: bool,
}

impl CacheCfg {
    /// Creates a geometry of `size_bytes` total capacity and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole, nonzero number of sets of
    /// whole lines.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        let set_bytes = LINE_BYTES * ways as u64;
        assert!(
            size_bytes >= set_bytes,
            "cache of {size_bytes} B cannot hold one set of {ways} x {LINE_BYTES} B lines"
        );
        assert_eq!(
            size_bytes % set_bytes,
            0,
            "cache size must be a whole number of sets"
        );
        CacheCfg {
            size_bytes,
            ways,
            hashed_index: false,
        }
    }

    /// Enables index hashing: the set is selected by a multiplicative
    /// hash of the line number instead of its low bits. SRAM caches use
    /// plain indexing, but memory-as-a-cache designs hash the index so
    /// page-aligned array bases do not stack into the same sets.
    pub fn with_hashed_index(mut self) -> Self {
        self.hashed_index = true;
        self
    }

    /// Whether the index is hashed.
    pub fn hashed_index(&self) -> bool {
        self.hashed_index
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> u64 {
        self.size_bytes >> LINE_SHIFT
    }
}

#[derive(Debug, Clone)]
struct Entry<S> {
    line: CompactLine,
    state: S,
    /// Recency within the set: 0 is the most recently used way.
    rank: u8,
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<S> {
    /// Line number of the victim.
    pub line: Line,
    /// Its payload at eviction time.
    pub state: S,
}

/// A set-associative cache mapping line numbers to a payload `S`.
///
/// The payload is the per-line coherence state (plus whatever the protocol
/// wants to remember). Lines not present are simply absent — there is no
/// "invalid" payload.
///
/// Replacement is LRU within the victim class chosen by the caller: on
/// insertion the caller supplies a `victim_class` function mapping payloads
/// to a priority (higher = evict first), which is how the COMA policy
/// "replace invalid, then shared non-master, then master" is expressed.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::{CacheCfg, SetAssocCache};
///
/// let mut c: SetAssocCache<char> = SetAssocCache::new(CacheCfg::new(256, 2));
/// assert!(c.insert(0, 'a', |_| 0).is_none());
/// assert!(c.insert(2, 'b', |_| 0).is_none()); // same set (2 sets, stride 2)
/// let victim = c.insert(4, 'c', |_| 0).unwrap(); // set full: LRU evicted
/// assert_eq!(victim.line, 0);
/// assert_eq!(victim.state, 'a');
/// ```
#[derive(Clone)]
pub struct SetAssocCache<S> {
    cfg: CacheCfg,
    ways: usize,
    /// `cfg.num_sets()`, kept so indexing does not divide to recompute it.
    sets: u64,
    /// Flat arena of tag slots; set `i` owns `[i*ways, (i+1)*ways)`, filled
    /// ways first.
    slab: Vec<Option<Entry<S>>>,
    len: usize,
}

impl<S: fmt::Debug> fmt::Debug for SetAssocCache<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("cfg", &self.cfg)
            .field("resident_lines", &self.len)
            .finish()
    }
}

/// The way of `set` holding `line`, scanning only the filled ways.
fn way_of<S>(set: &[Option<Entry<S>>], line: CompactLine) -> Option<usize> {
    set.iter()
        .map_while(Option::as_ref)
        .position(|e| e.line == line)
}

/// Number of filled ways of `set`.
fn filled<S>(set: &[Option<Entry<S>>]) -> usize {
    set.iter().take_while(|s| s.is_some()).count()
}

/// Ages by one every filled way of `set` more recent than `rank`.
fn age<S>(set: &mut [Option<Entry<S>>], rank: u8) {
    for e in set.iter_mut().map_while(Option::as_mut) {
        if e.rank < rank {
            e.rank += 1;
        }
    }
}

/// Makes filled way `way` of `set` the most recently used and returns it.
fn touch<S>(set: &mut [Option<Entry<S>>], way: usize) -> &mut Entry<S> {
    let rank = set[way].as_ref().expect("touched way is filled").rank;
    if rank != 0 {
        age(set, rank);
    }
    let e = set[way].as_mut().expect("touched way is filled");
    e.rank = 0;
    e
}

/// The way of a full `set` that an insertion evicts: the highest victim
/// class, then the least recently used.
fn victim_way<S>(set: &[Option<Entry<S>>], victim_class: impl Fn(&S) -> u32) -> usize {
    set.iter()
        .map_while(Option::as_ref)
        .enumerate()
        .max_by_key(|(_, e)| (victim_class(&e.state), e.rank))
        .map(|(i, _)| i)
        .expect("set is full, so non-empty")
}

impl<S> SetAssocCache<S> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics past 256 ways: recency ranks are one byte.
    pub fn new(cfg: CacheCfg) -> Self {
        let ways = cfg.ways() as usize;
        assert!(
            ways <= 256,
            "a set of {ways} ways exceeds the 256 that u8 recency ranks can order"
        );
        let sets = cfg.num_sets();
        let mut slab = Vec::new();
        slab.resize_with(sets as usize * ways, || None);
        SetAssocCache {
            cfg,
            ways,
            sets,
            slab,
            len: 0,
        }
    }

    /// The cache geometry.
    pub fn cfg(&self) -> &CacheCfg {
        &self.cfg
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The set `line` maps to, from the full line number.
    fn set_index(&self, line: Line) -> usize {
        let key = if self.cfg.hashed_index() {
            line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24
        } else {
            line
        };
        (key % self.sets) as usize
    }

    /// The slot range of the set `line` maps to.
    fn set_range(&self, line: Line) -> Range<usize> {
        let base = self.set_index(line) * self.ways;
        base..base + self.ways
    }

    /// Looks up a line, updating LRU. Returns the payload if present.
    pub fn get(&mut self, line: Line) -> Option<&mut S> {
        let key = CompactLine::new(line);
        let range = self.set_range(line);
        let set = &mut self.slab[range];
        let way = way_of(set, key)?;
        Some(&mut touch(set, way).state)
    }

    /// Looks up a line without touching LRU.
    pub fn peek(&self, line: Line) -> Option<&S> {
        let key = CompactLine::new(line);
        self.slab[self.set_range(line)]
            .iter()
            .map_while(Option::as_ref)
            .find(|e| e.line == key)
            .map(|e| &e.state)
    }

    /// Mutable lookup without touching LRU.
    pub fn peek_mut(&mut self, line: Line) -> Option<&mut S> {
        let key = CompactLine::new(line);
        let range = self.set_range(line);
        self.slab[range]
            .iter_mut()
            .map_while(Option::as_mut)
            .find(|e| e.line == key)
            .map(|e| &mut e.state)
    }

    /// Whether a line is resident.
    pub fn contains(&self, line: Line) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts (or overwrites) a line, evicting if the set is full.
    ///
    /// `victim_class` ranks potential victims: the victim is the line with
    /// the *highest* class, ties broken by LRU. Returns the evicted line,
    /// if any. Inserting an already-resident line overwrites its payload
    /// and returns `None`.
    pub fn insert(
        &mut self,
        line: Line,
        state: S,
        victim_class: impl Fn(&S) -> u32,
    ) -> Option<Evicted<S>> {
        let key = CompactLine::new(line);
        let range = self.set_range(line);
        let set = &mut self.slab[range];
        if let Some(way) = way_of(set, key) {
            touch(set, way).state = state;
            return None;
        }
        let n = filled(set);
        // The new line takes the rank of the way it displaces (a free way
        // ranks below every filled one), then becomes the most recent.
        let (at, rank, evicted) = if n == self.ways {
            // `Vec::swap_remove(vi)` followed by `push` left the formerly
            // last entry in slot `vi` and the new entry in the last slot;
            // reproduce that exactly so iteration order never changes.
            let vi = victim_way(set, victim_class);
            let victim = set[vi].take().expect("victim way is filled");
            set.swap(vi, n - 1);
            self.len -= 1;
            let evicted = Evicted {
                line: victim.line.get(),
                state: victim.state,
            };
            (n - 1, victim.rank, Some(evicted))
        } else {
            (n, n as u8, None)
        };
        age(set, rank);
        set[at] = Some(Entry {
            line: key,
            state,
            rank: 0,
        });
        self.len += 1;
        evicted
    }

    /// Returns what [`SetAssocCache::insert`] of `line` would evict right
    /// now, without changing any state. `None` means the insertion would
    /// be eviction-free (free way, or the line is already resident).
    pub fn peek_victim(&self, line: Line, victim_class: impl Fn(&S) -> u32) -> Option<(Line, &S)> {
        let key = CompactLine::new(line);
        let set = &self.slab[self.set_range(line)];
        if set[self.ways - 1].is_none() || way_of(set, key).is_some() {
            return None;
        }
        let e = set[victim_way(set, victim_class)].as_ref()?;
        Some((e.line.get(), &e.state))
    }

    /// Removes a line, returning its payload if it was resident.
    pub fn remove(&mut self, line: Line) -> Option<S> {
        let key = CompactLine::new(line);
        let range = self.set_range(line);
        let set = &mut self.slab[range];
        let way = way_of(set, key)?;
        // `Vec::swap_remove`: the last filled way backfills the hole.
        let last = filled(set) - 1;
        let removed = set[way].take().expect("way is filled");
        set.swap(way, last);
        // Ways older than the removed one move up a rank.
        for e in set.iter_mut().map_while(Option::as_mut) {
            if e.rank > removed.rank {
                e.rank -= 1;
            }
        }
        self.len -= 1;
        Some(removed.state)
    }

    /// Whether the set that `line` maps to has a free way.
    pub fn has_room_for(&self, line: Line) -> bool {
        self.slab[self.set_range(line).end - 1].is_none()
    }

    /// Iterates over all resident `(line, payload)` pairs in the arena's
    /// deterministic order: sets ascending, slots within a set in
    /// insertion/backfill order. Any simulated behavior driven by this
    /// order is reproducible because the order is a pure function of the
    /// operation history.
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (Line, &S)> {
        self.slab
            .chunks(self.ways)
            .flat_map(|set| set.iter().map_while(Option::as_ref))
            .map(|e| (e.line.get(), &e.state))
    }

    /// Iterates over all resident `(line, payload)` pairs (alias of
    /// [`SetAssocCache::iter_deterministic`]).
    pub fn iter(&self) -> impl Iterator<Item = (Line, &S)> {
        self.iter_deterministic()
    }

    /// Drains every resident line in [`SetAssocCache::iter_deterministic`]
    /// order, leaving the cache empty. The drain is in place: no buffer
    /// of the cache's size is ever materialized.
    pub fn drain_all(&mut self) -> DrainAll<'_, S> {
        self.len = 0;
        DrainAll {
            cache: self,
            slot: 0,
        }
    }
}

/// In-place draining iterator over a [`SetAssocCache`]; see
/// [`SetAssocCache::drain_all`]. Dropping it mid-iteration finishes the
/// drain, so the cache is always left empty.
pub struct DrainAll<'a, S> {
    cache: &'a mut SetAssocCache<S>,
    slot: usize,
}

impl<S> Iterator for DrainAll<'_, S> {
    type Item = (Line, S);

    fn next(&mut self) -> Option<(Line, S)> {
        let ways = self.cache.ways;
        while self.slot < self.cache.slab.len() {
            match self.cache.slab[self.slot].take() {
                Some(e) => {
                    self.slot += 1;
                    return Some((e.line.get(), e.state));
                }
                // Filled ways are a prefix: the rest of this set is empty.
                None => self.slot = (self.slot / ways + 1) * ways,
            }
        }
        None
    }
}

impl<S> Drop for DrainAll<'_, S> {
    fn drop(&mut self) {
        for _ in self.by_ref() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: &u32) -> u32 {
        0
    }

    #[test]
    fn cfg_geometry() {
        let cfg = CacheCfg::new(32 * 1024, 4);
        assert_eq!(cfg.num_sets(), 128);
        assert_eq!(cfg.capacity_lines(), 512);
        assert_eq!(cfg.ways(), 4);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn cfg_rejects_ragged_size() {
        // 448 B holds two 3-way sets of 64 B lines plus 64 B of slack.
        CacheCfg::new(448, 3);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::new(CacheCfg::new(1024, 2));
        c.insert(7, 42u32, any);
        assert_eq!(c.get(7), Some(&mut 42));
        assert_eq!(c.peek(7), Some(&42));
        assert!(c.contains(7));
        assert!(!c.contains(8));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets, 2 ways: lines 0,2,4 map to set 0.
        let mut c = SetAssocCache::new(CacheCfg::new(256, 2));
        c.insert(0, 'a', |_| 0);
        c.insert(2, 'b', |_| 0);
        c.get(0); // make 2 the LRU
        let v = c.insert(4, 'c', |_| 0).unwrap();
        assert_eq!(v.line, 2);
        assert!(c.contains(0) && c.contains(4));
    }

    #[test]
    fn victim_class_beats_lru() {
        let mut c = SetAssocCache::new(CacheCfg::new(256, 2));
        c.insert(0, 'M', |_| 0); // "master": class 0
        c.insert(2, 'S', |_| 0); // "shared": class 1
        c.get(2); // shared is MRU
        let v = c.insert(4, 'X', |s| if *s == 'S' { 1 } else { 0 }).unwrap();
        assert_eq!(v.line, 2, "higher victim class evicted despite MRU");
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c = SetAssocCache::new(CacheCfg::new(256, 2));
        c.insert(0, 1u32, any);
        c.insert(2, 2u32, any);
        assert!(c.insert(0, 10u32, any).is_none());
        assert_eq!(c.peek(0), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_frees_way() {
        let mut c = SetAssocCache::new(CacheCfg::new(256, 2));
        c.insert(0, 'a', |_| 0);
        c.insert(2, 'b', |_| 0);
        assert!(!c.has_room_for(4));
        assert_eq!(c.remove(0), Some('a'));
        assert!(c.has_room_for(4));
        assert!(c.insert(4, 'c', |_| 0).is_none());
        assert_eq!(c.remove(999), None);
    }

    #[test]
    fn iter_and_drain() {
        let mut c = SetAssocCache::new(CacheCfg::new(1024, 4));
        for i in 0..10u32 {
            c.insert(i.into(), i, any);
        }
        assert_eq!(c.iter().count(), 10);
        let mut drained: Vec<_> = c.drain_all().collect();
        drained.sort_unstable();
        assert_eq!(drained.len(), 10);
        assert!(c.is_empty());
        assert_eq!(drained[3], (3, 3));
    }

    /// The arena layout must reproduce the old per-set `Vec` order
    /// exactly: append on insert, last-entry backfill on `remove` and on
    /// eviction (`swap_remove` + `push`). This order is observable — it
    /// decides flush order in `convert_p_to_d` — so it is part of the
    /// determinism contract, not an implementation detail.
    #[test]
    fn iteration_preserves_vec_swap_remove_order() {
        // One set, four ways: all of 0,4,8,12,16 collide.
        let mut c = SetAssocCache::new(CacheCfg::new(1024, 4));
        for line in [0u32, 4, 8, 12] {
            c.insert(line.into(), line, any);
        }
        let order = |c: &SetAssocCache<u32>| c.iter().map(|(l, _)| l).collect::<Vec<_>>();
        assert_eq!(order(&c), vec![0, 4, 8, 12], "insertion appends");

        // Remove the middle entry: the last one backfills its slot.
        c.remove(4);
        assert_eq!(order(&c), vec![0, 12, 8], "swap_remove backfill");

        // Fill the set again, then force an eviction of the LRU (line 0):
        // the last entry backfills slot 0 and the new line appends.
        c.insert(16, 16, any);
        assert_eq!(order(&c), vec![0, 12, 8, 16]);
        c.get(12);
        c.get(8);
        c.get(16);
        let v = c.insert(20, 20, any).unwrap();
        assert_eq!(v.line, 0, "LRU evicted");
        assert_eq!(order(&c), vec![16, 12, 8, 20], "evict backfill + append");

        // Drain yields the same deterministic order, in place.
        let drained: Vec<Line> = c.drain_all().map(|(l, _)| l).collect();
        assert_eq!(drained, vec![16, 12, 8, 20]);
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn dropping_a_partial_drain_empties_the_cache() {
        let mut c = SetAssocCache::new(CacheCfg::new(1024, 4));
        for i in 0..10u32 {
            c.insert(i.into(), i, any);
        }
        {
            let mut d = c.drain_all();
            assert!(d.next().is_some());
            assert!(d.next().is_some());
        }
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        // The cache is fully reusable after an abandoned drain.
        assert!(c.insert(3, 3, any).is_none());
        assert_eq!(c.peek(3), Some(&3));
    }

    #[test]
    fn a_tag_entry_with_an_enum_payload_is_eight_bytes() {
        // A one-byte enum like the coherence states: its niche marks the
        // empty way, so `Option` costs nothing.
        assert_eq!(std::mem::size_of::<Option<Entry<std::cmp::Ordering>>>(), 8);
    }

    /// A line past 32 bits must not alias the resident line that shares
    /// its low 32 bits (and its set): the lookup panics instead.
    #[test]
    #[should_panic(expected = "32-bit line key")]
    fn a_line_past_32_bits_does_not_alias_a_resident_line() {
        let mut c = SetAssocCache::new(CacheCfg::new(256, 2));
        c.insert(5, 'a', |_| 0);
        c.peek(5 + (1 << 32));
    }

    #[test]
    #[should_panic(expected = "256")]
    fn new_rejects_more_than_256_ways() {
        SetAssocCache::<u8>::new(CacheCfg::new(257 * 64, 257));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheCfg::new(128, 1)); // 2 sets
        c.insert(0, 'a', |_| 0);
        let v = c.insert(2, 'b', |_| 0).unwrap(); // same set in 2-set cache
        assert_eq!(v.line, 0);
    }
}
