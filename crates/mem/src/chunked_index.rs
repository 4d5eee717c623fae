//! A chunked dense `u64 → u32` index.
//!
//! The simulator's page-grained tables (the page table's homes, the
//! page → chunk index of every [`PagedMap`](crate::PagedMap) directory)
//! all need the same map shape: a page number — dense, bump-allocated
//! from 1 by the workload layouts — to a small integer. This index
//! stores values in per-chunk dense arrays so the hot lookup is two
//! indexations, and iterates in ascending key order so every sweep built
//! on it is run-to-run deterministic (contract D001).

/// Keys per dense chunk (`1 << CHUNK_SHIFT`).
const CHUNK_SHIFT: u32 = 12;
pub(crate) const CHUNK: usize = 1 << CHUNK_SHIFT;
/// Sentinel for an empty slot.
const EMPTY: u32 = u32::MAX;

/// A `u64 → u32` map as a chunked dense array.
///
/// Values must be below `u32::MAX` (the empty sentinel). Absent chunks
/// stay unallocated, so sparse key ranges cost nothing but a spine slot.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::ChunkedIndex;
///
/// let mut ix = ChunkedIndex::new();
/// ix.insert(7, 3);
/// assert_eq!(ix.get(7), Some(3));
/// assert_eq!(ix.remove(7), Some(3));
/// assert_eq!(ix.get(7), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChunkedIndex {
    chunks: Vec<Option<Box<[u32; CHUNK]>>>,
    len: usize,
}

impl ChunkedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        ChunkedIndex::default()
    }

    /// Number of mapped keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value mapped at `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let chunk = (key >> CHUNK_SHIFT) as usize;
        let v = *self
            .chunks
            .get(chunk)?
            .as_ref()?
            .get(key as usize % CHUNK)?;
        (v != EMPTY).then_some(v)
    }

    #[inline]
    fn slot_mut(&mut self, key: u64) -> &mut u32 {
        let chunk = (key >> CHUNK_SHIFT) as usize;
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        let entries = self.chunks[chunk].get_or_insert_with(|| Box::new([EMPTY; CHUNK]));
        &mut entries[key as usize % CHUNK]
    }

    /// Maps `key` to `value`, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `value` is the `u32::MAX` sentinel.
    pub fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        assert!(value != EMPTY, "value collides with the empty sentinel");
        let slot = self.slot_mut(key);
        let old = *slot;
        *slot = value;
        if old == EMPTY {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Unmaps `key`, returning its value if it was mapped.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        self.get(key)?;
        let slot = self.slot_mut(key);
        let old = *slot;
        *slot = EMPTY;
        self.len -= 1;
        Some(old)
    }

    /// Iterates over `(key, value)` pairs in ascending key order — the
    /// index's deterministic order.
    pub fn iter_deterministic(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.as_ref().map(|c| (ci, c)))
            .flat_map(|(ci, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != EMPTY)
                    .map(move |(si, &v)| (((ci as u64) << CHUNK_SHIFT) + si as u64, v))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut ix = ChunkedIndex::new();
        assert_eq!(ix.get(42), None);
        assert_eq!(ix.insert(42, 7), None);
        assert_eq!(ix.insert(42, 8), Some(7));
        assert_eq!(ix.get(42), Some(8));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.remove(42), Some(8));
        assert_eq!(ix.remove(42), None);
        assert!(ix.is_empty());
    }

    #[test]
    fn iteration_is_ascending_across_chunks() {
        let mut ix = ChunkedIndex::new();
        let keys = [CHUNK as u64 * 2 + 5, 3, CHUNK as u64 - 1, CHUNK as u64, 7];
        for (i, &k) in keys.iter().enumerate() {
            ix.insert(k, i as u32);
        }
        let got: Vec<u64> = ix.iter_deterministic().map(|(k, _)| k).collect();
        assert_eq!(
            got,
            vec![3, 7, CHUNK as u64 - 1, CHUNK as u64, CHUNK as u64 * 2 + 5]
        );
        assert_eq!(ix.len(), 5);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_value_rejected() {
        ChunkedIndex::new().insert(1, u32::MAX);
    }
}
