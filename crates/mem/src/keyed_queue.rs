//! A keyed doubly-linked queue with cheap removal by key.
//!
//! Supports push-to-back, pop-from-front, arbitrary removal by key, and
//! move-to-back — the operation mix needed both by the on-chip LRU,
//! [`OnChipLru`](crate::OnChipLru) (move-to-back on touch, pop-front to
//! pick the LRU swap victim), and by the AGG D-node's FreeList/SharedList (FIFO insertion at
//! the tail, reclamation from the head, unlink when a line changes state;
//! Section 2.2.2 of the paper).

use crate::addr::CompactLine;

/// Link value for "no neighbour": the list's ends.
const NIL: u32 = u32::MAX;
/// `prev` value of a vacant table slot. Slot positions stay below it.
const VACANT: u32 = u32::MAX - 1;
/// Fibonacci multiplier for the slot hash.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Key types a [`KeyedQueue`] can index: totally ordered, copyable, and
/// reducible to a `u64` slot number: `u64` page numbers, and lines as
/// [`CompactLine`]s. The default value fills vacant slots; it is never
/// compared against a queued key.
pub trait QueueKey: Ord + Copy + Default {
    /// The key as a 64-bit slot number.
    fn as_u64(self) -> u64;
}

impl QueueKey for u64 {
    fn as_u64(self) -> u64 {
        self
    }
}

impl QueueKey for CompactLine {
    fn as_u64(self) -> u64 {
        self.get()
    }
}

/// One table slot: a queued key with the slot positions of its list
/// neighbours, or a vacant slot (`prev == VACANT`). 16 bytes for a `u64`
/// key, 12 for a [`CompactLine`].
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    prev: u32,
    next: u32,
}

impl<K: Default> Slot<K> {
    fn vacant() -> Self {
        Slot {
            key: K::default(),
            prev: VACANT,
            next: NIL,
        }
    }

    fn is_vacant(&self) -> bool {
        self.prev == VACANT
    }
}

/// A FIFO/LRU list with O(1) removal by key.
///
/// The whole queue is one power-of-two open-addressing table (fibonacci
/// hash, linear probing, backward-shift deletion): each occupied slot holds
/// a key and the `u32` positions of its list neighbours, so the key index
/// and the list share one entry (12 bytes for a line key). Moving a slot
/// during deletion re-points its neighbours' links, and growth re-inserts
/// the keys in list order. This stays inside determinism contract D001
/// because the table is **never iterated in slot order**: every visible
/// ordering — iteration, pop order, victim choice — follows the list
/// links, so nothing in the simulation can observe slot positions.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::KeyedQueue;
///
/// let mut q = KeyedQueue::new();
/// q.push_back(10u64);
/// q.push_back(20);
/// q.push_back(30);
/// assert!(q.remove(&20));
/// assert_eq!(q.pop_front(), Some(10));
/// assert_eq!(q.pop_front(), Some(30));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct KeyedQueue<K> {
    /// The table; empty until the first push.
    slots: Vec<Slot<K>>,
    /// Number of queued keys.
    count: usize,
    head: u32,
    tail: u32,
}

impl<K: QueueKey> Default for KeyedQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: QueueKey> KeyedQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            slots: Vec::new(),
            count: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of queued keys.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Home slot for `key` at the current table size.
    #[inline]
    fn home(&self, key: K) -> usize {
        // High bits of the fibonacci product, folded to the table size.
        (key.as_u64().wrapping_mul(FIB) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, if queued.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = self.home(key);
        loop {
            let slot = &self.slots[s];
            if slot.is_vacant() {
                return None;
            }
            if slot.key == key {
                return Some(s);
            }
            s = (s + 1) & mask;
        }
    }

    /// Points the `next` link of slot `at` (the head when `at` is
    /// [`NIL`]) at `to`.
    fn set_next(&mut self, at: u32, to: u32) {
        match at {
            NIL => self.head = to,
            at => self.slots[at as usize].next = to,
        }
    }

    /// Points the `prev` link of slot `at` (the tail when `at` is
    /// [`NIL`]) at `to`.
    fn set_prev(&mut self, at: u32, to: u32) {
        match at {
            NIL => self.tail = to,
            at => self.slots[at as usize].prev = to,
        }
    }

    /// Stores `key` in the first vacant slot of its probe chain and links
    /// it at the back.
    ///
    /// # Panics
    ///
    /// Panics if the chain already holds `key`.
    fn insert_back(&mut self, key: K) {
        let mask = self.slots.len() - 1;
        let mut s = self.home(key);
        while !self.slots[s].is_vacant() {
            assert!(
                self.slots[s].key != key,
                "key already queued; duplicate insertion is a bookkeeping bug"
            );
            s = (s + 1) & mask;
        }
        self.slots[s] = Slot {
            key,
            prev: self.tail,
            next: NIL,
        };
        self.set_next(self.tail, s as u32);
        self.tail = s as u32;
        self.count += 1;
    }

    /// Doubles the table and re-inserts the keys in list order, which
    /// rebuilds the same list over the new slot positions.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        assert!(
            cap <= VACANT as usize,
            "KeyedQueue of {cap} slots would reach its u32 link sentinels"
        );
        let old = std::mem::replace(&mut self.slots, vec![Slot::vacant(); cap]);
        let mut cur = self.head;
        self.head = NIL;
        self.tail = NIL;
        self.count = 0;
        while cur != NIL {
            let Slot { key, next, .. } = old[cur as usize];
            self.insert_back(key);
            cur = next;
        }
    }

    /// Unlinks and vacates slot `s`. Uses backward-shift deletion, so the
    /// table never accumulates tombstones; a shifted slot's neighbours
    /// (or head/tail) are re-pointed at its new position.
    fn remove_at(&mut self, s: usize) {
        let Slot { prev, next, .. } = self.slots[s];
        self.set_next(prev, next);
        self.set_prev(next, prev);
        self.count -= 1;
        let mask = self.slots.len() - 1;
        let mut hole = s;
        let mut j = s;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.is_vacant() {
                break;
            }
            // Shift the slot back iff its probe chain passes through the hole.
            let h = self.home(slot.key);
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                self.set_next(slot.prev, hole as u32);
                self.set_prev(slot.next, hole as u32);
                hole = j;
            }
        }
        self.slots[hole] = Slot::vacant();
    }

    /// Whether `key` is queued.
    pub fn contains(&self, key: &K) -> bool {
        self.find(*key).is_some()
    }

    /// The key at the front (oldest), if any.
    pub fn front(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.slots[self.head as usize].key)
    }

    /// Appends `key` at the back.
    ///
    /// # Panics
    ///
    /// Panics if the key is already queued; callers track membership and a
    /// double insert indicates a protocol bookkeeping bug.
    pub fn push_back(&mut self, key: K) {
        // Grow past 7/8 load.
        if (self.count + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.insert_back(key);
    }

    /// Removes and returns the front key, if any.
    pub fn pop_front(&mut self) -> Option<K> {
        if self.head == NIL {
            return None;
        }
        let s = self.head as usize;
        let key = self.slots[s].key;
        self.remove_at(s);
        Some(key)
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(s) = self.find(*key) else {
            return false;
        };
        self.remove_at(s);
        true
    }

    /// Moves `key` to the back (most-recently-used position), returning
    /// whether it was present.
    ///
    /// This is the attraction memory's per-touch operation, so it relinks
    /// the slot in place: the key never moves in the table.
    pub fn move_to_back(&mut self, key: &K) -> bool {
        let Some(s) = self.find(*key) else {
            return false;
        };
        let s = s as u32;
        if s == self.tail {
            return true;
        }
        let Slot { prev, next, .. } = self.slots[s as usize];
        // Unlink from the middle (or front); s is not the tail, so a
        // successor exists …
        self.set_next(prev, next);
        self.slots[next as usize].prev = prev;
        // … and splice in behind the old tail.
        self.slots[s as usize].prev = self.tail;
        self.slots[s as usize].next = NIL;
        self.slots[self.tail as usize].next = s;
        self.tail = s;
        true
    }

    /// Iterates front-to-back.
    pub fn iter(&self) -> Iter<'_, K> {
        Iter {
            queue: self,
            cur: self.head,
        }
    }
}

/// Front-to-back iterator over a [`KeyedQueue`], produced by
/// [`KeyedQueue::iter`].
#[derive(Debug)]
pub struct Iter<'a, K> {
    queue: &'a KeyedQueue<K>,
    cur: u32,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.queue.slots[self.cur as usize];
        self.cur = slot.next;
        Some(&slot.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = KeyedQueue::new();
        for i in 0..5u64 {
            q.push_back(i);
        }
        for i in 0..5u64 {
            assert_eq!(q.pop_front(), Some(i));
        }
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut q = KeyedQueue::new();
        for i in 0..5u64 {
            q.push_back(i);
        }
        assert!(q.remove(&2));
        assert!(q.remove(&0));
        assert!(q.remove(&4));
        assert!(!q.remove(&2));
        let rest: Vec<u64> = q.iter().copied().collect();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn move_to_back_reorders() {
        let mut q = KeyedQueue::new();
        for i in 0..3u64 {
            q.push_back(i);
        }
        assert!(q.move_to_back(&0));
        assert!(!q.move_to_back(&99));
        let order: Vec<u64> = q.iter().copied().collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn move_to_back_relinks_in_place() {
        let mut q = KeyedQueue::new();
        for i in 0..4u64 {
            q.push_back(i);
        }
        // Tail is a no-op, front and middle splice behind the tail.
        assert!(q.move_to_back(&3));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(q.move_to_back(&0));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        assert!(q.move_to_back(&2));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 3, 0, 2]);
        // The structure stays consistent for removals and pops afterwards.
        assert!(q.remove(&3));
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(0));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), None);
        // Singleton: moving the only element is a no-op.
        q.push_back(7);
        assert!(q.move_to_back(&7));
        assert_eq!(q.front(), Some(&7));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut q = KeyedQueue::new();
        for i in 0..100u64 {
            q.push_back(i);
        }
        for i in 0..100u64 {
            assert!(q.remove(&i));
        }
        for i in 100..200u64 {
            q.push_back(i);
        }
        // The table did not grow past the size the peak needed.
        assert_eq!(q.slots.len(), 128);
        assert_eq!(q.len(), 100);
        assert_eq!(q.front(), Some(&100));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn duplicate_push_panics() {
        let mut q = KeyedQueue::new();
        q.push_back(1u64);
        q.push_back(1u64);
    }

    #[test]
    fn a_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot<u64>>(), 16);
    }

    #[test]
    fn a_line_key_slot_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Slot<CompactLine>>(), 12);
    }

    #[test]
    fn front_peeks_without_removal() {
        let mut q = KeyedQueue::new();
        assert_eq!(q.front(), None);
        q.push_back(9u64);
        assert_eq!(q.front(), Some(&9));
        assert_eq!(q.len(), 1);
    }

    /// Backward-shift deletion keeps colliding keys findable. Keys that
    /// multiply to nearby fibonacci products land in one probe cluster;
    /// removing from the middle of the cluster must not orphan the rest.
    #[test]
    fn collision_cluster_survives_removals() {
        let mut q = KeyedQueue::new();
        // 256 keys in an 8-or-larger table guarantee long probe chains.
        for i in 0..256u64 {
            q.push_back(i * 8);
        }
        for i in (0..256u64).step_by(2) {
            assert!(q.remove(&(i * 8)), "even key {i} present");
        }
        for i in (1..256u64).step_by(2) {
            assert!(q.contains(&(i * 8)), "odd key {i} still findable");
        }
        assert_eq!(q.len(), 128);
        // And they still pop in FIFO order.
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop_front()).collect();
        let expect: Vec<u64> = (1..256u64).step_by(2).map(|i| i * 8).collect();
        assert_eq!(popped, expect);
    }
}
