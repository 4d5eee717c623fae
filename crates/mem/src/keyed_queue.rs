//! A keyed doubly-linked queue with cheap removal by key.
//!
//! Supports push-to-back, pop-from-front, arbitrary removal by key, and
//! move-to-back — the operation mix needed both by the attraction memory's
//! on-chip LRU (move-to-back on touch, pop-front to pick the LRU swap
//! victim) and by the AGG D-node's FreeList/SharedList (FIFO insertion at
//! the tail, reclamation from the head, unlink when a line changes state;
//! Section 2.2.2 of the paper).

const NIL: usize = usize::MAX;
/// Empty marker for index slots.
const EMPTY: usize = usize::MAX;
/// Fibonacci multiplier for the slot hash.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Key types a [`KeyedQueue`] can index: totally ordered, copyable, and
/// reducible to a `u64` slot number. All simulator keys (lines, pages,
/// cycles) are `u64` line/page numbers already.
pub trait QueueKey: Ord + Copy {
    /// The key as a 64-bit slot number.
    fn as_u64(self) -> u64;
}

impl QueueKey for u64 {
    fn as_u64(self) -> u64 {
        self
    }
}

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A FIFO/LRU list with O(1) removal by key.
///
/// The key index is a private open-addressing table (fibonacci hash,
/// linear probing, backward-shift deletion) mapping each key to its node
/// slot. This stays inside determinism contract D001 because the index is
/// **never iterated**: every visible ordering — iteration, pop order,
/// victim choice — comes from the queue's own links, so nothing in the
/// simulation can observe slot order.
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
#[derive(Debug, Clone, Default)]
pub struct KeyedQueue<K> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    /// Open-addressing index: node slot or [`EMPTY`], power-of-two sized.
    slots: Vec<usize>,
    /// Number of queued keys.
    count: usize,
    head: usize,
    tail: usize,
}

impl<K: QueueKey> KeyedQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            nodes: Vec::new(),
            free: Vec::new(),
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

    /// The index slot holding `key`, if present.
    #[inline]
    fn slot_of(&self, key: K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = self.home(key);
        loop {
            let n = self.slots[s];
            if n == EMPTY {
                return None;
            }
            if self.nodes[n].key == key {
                return Some(s);
            }
            s = (s + 1) & mask;
        }
    }

    /// Records `node` (whose key is already stored in `nodes`) in the
    /// index, growing the table past 7/8 load.
    fn index_insert(&mut self, node: usize) {
        if (self.count + 1) * 8 > self.slots.len() * 7 {
            let cap = (self.slots.len() * 2).max(8);
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
            for n in old {
                if n != EMPTY {
                    self.index_place(n);
                }
            }
        }
        self.index_place(node);
        self.count += 1;
    }

    /// Probes for a free slot and stores `node` there.
    fn index_place(&mut self, node: usize) {
        let mask = self.slots.len() - 1;
        let mut s = self.home(self.nodes[node].key);
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.slots[s] = node;
    }

    /// Unindexes `key`, returning its node slot. Uses backward-shift
    /// deletion so the table never accumulates tombstones.
    fn index_remove(&mut self, key: K) -> Option<usize> {
        let s = self.slot_of(key)?;
        let node = self.slots[s];
        let mask = self.slots.len() - 1;
        let mut hole = s;
        let mut j = s;
        loop {
            j = (j + 1) & mask;
            let n = self.slots[j];
            if n == EMPTY {
                break;
            }
            // Shift n back iff its probe chain passes through the hole.
            let h = self.home(self.nodes[n].key);
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = n;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.count -= 1;
        Some(node)
    }

    /// Whether `key` is queued.
    pub fn contains(&self, key: &K) -> bool {
        self.slot_of(*key).is_some()
    }

    /// The key at the front (oldest), if any.
    pub fn front(&self) -> Option<&K> {
        if self.head == NIL {
            None
        } else {
            Some(&self.nodes[self.head].key)
        }
    }

    /// Appends `key` at the back.
    ///
    /// # Panics
    ///
    /// Panics if the key is already queued; callers track membership and a
    /// double insert indicates a protocol bookkeeping bug.
    pub fn push_back(&mut self, key: K) {
        assert!(
            !self.contains(&key),
            "key already queued; duplicate insertion is a bookkeeping bug"
        );
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = Node {
                key,
                prev: self.tail,
                next: NIL,
            };
            i
        } else {
            self.nodes.push(Node {
                key,
                prev: self.tail,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        if self.tail != NIL {
            self.nodes[self.tail].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        self.index_insert(idx);
    }

    /// Removes and returns the front key, if any.
    pub fn pop_front(&mut self) -> Option<K> {
        if self.head == NIL {
            return None;
        }
        let key = self.nodes[self.head].key;
        self.remove(&key);
        Some(key)
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.index_remove(*key) else {
            return false;
        };
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(idx);
        true
    }

    /// Moves `key` to the back (most-recently-used position), returning
    /// whether it was present.
    ///
    /// This is the attraction memory's per-touch operation, so it relinks
    /// the node in place: the key's slot — and therefore the index —
    /// never changes, avoiding the two index operations a
    /// remove-then-reinsert would cost on every cache touch.
    pub fn move_to_back(&mut self, key: &K) -> bool {
        let Some(s) = self.slot_of(*key) else {
            return false;
        };
        let idx = self.slots[s];
        if idx == self.tail {
            return true;
        }
        let Node { prev, next, .. } = self.nodes[idx];
        // Unlink from the middle (or front) …
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        // idx != tail, so a successor exists.
        self.nodes[next].prev = prev;
        // … and splice in behind the old tail.
        self.nodes[idx].prev = self.tail;
        self.nodes[idx].next = NIL;
        self.nodes[self.tail].next = idx;
        self.tail = idx;
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
    cur: usize,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.queue.nodes[self.cur];
        self.cur = node.next;
        Some(&node.key)
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
        // Internal node storage did not grow past the peak.
        assert!(q.nodes.len() <= 100);
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
