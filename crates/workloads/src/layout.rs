//! Address-space layout for workload data structures.

use pimdsm_mem::PAGE_BYTES;

/// A named contiguous byte range of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
}

impl Region {
    /// Builds a region directly from a base address and size (for
    /// wrappers that place data outside a [`Layout`]).
    pub fn from_raw(base: u64, bytes: u64) -> Region {
        Region { base, bytes }
    }

    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Address of byte `off` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the region.
    pub fn at(&self, off: u64) -> u64 {
        assert!(
            off < self.bytes,
            "offset {off} outside region of {} B",
            self.bytes
        );
        self.base + off
    }

    /// Address of element `i` of an array of `elem_bytes`-sized items.
    pub fn elem(&self, i: u64, elem_bytes: u64) -> u64 {
        self.at(i * elem_bytes)
    }

    /// The `idx`-th of `parts` contiguous sub-regions (page-aligned
    /// partitioning is the caller's concern).
    pub fn split(&self, parts: usize, idx: usize) -> Region {
        let (start, len) = crate::ops::partition(self.bytes, parts, idx);
        Region {
            base: self.base + start,
            bytes: len,
        }
    }
}

/// A bump allocator building a workload's address space.
///
/// Regions are page-aligned so first-touch page placement maps each
/// logical structure (and each thread's partition) cleanly onto homes.
///
/// # Examples
///
/// ```
/// use pimdsm_workloads::Layout;
///
/// let mut l = Layout::new();
/// let keys = l.alloc(100_000);
/// let hist = l.alloc(4096);
/// assert_eq!(keys.base() % 4096, 0);
/// assert_eq!(hist.base() % 4096, 0);
/// assert!(hist.base() >= keys.base() + keys.bytes());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Bytes allocated so far, page padding included.
    footprint: u64,
}

impl Layout {
    /// Creates an empty layout. Page 0 stays unused, so the first region
    /// starts at [`PAGE_BYTES`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a page-aligned region of at least `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = PAGE_BYTES + self.footprint;
        self.footprint += bytes.div_ceil(PAGE_BYTES).max(1) * PAGE_BYTES;
        Region { base, bytes }
    }

    /// Allocates one page-aligned region per thread (so each partition's
    /// pages first-touch to its owner).
    pub fn alloc_per_thread(&mut self, threads: usize, bytes_each: u64) -> Vec<Region> {
        (0..threads).map(|_| self.alloc(bytes_each)).collect()
    }

    /// Total bytes allocated (footprint), including alignment padding.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut l = Layout::new();
        let a = l.alloc(5000);
        let b = l.alloc(100);
        assert!(a.base() + 5000 <= b.base());
        assert_eq!(b.base() % 4096, 0);
    }

    #[test]
    fn footprint_counts_padding() {
        let mut l = Layout::new();
        l.alloc(1); // one page
        l.alloc(4097); // two pages
        assert_eq!(l.footprint(), 3 * 4096);
    }

    #[test]
    fn elem_addresses() {
        let mut l = Layout::new();
        let r = l.alloc(1024);
        assert_eq!(r.elem(3, 8), r.base() + 24);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn at_checks_bounds() {
        let mut l = Layout::new();
        l.alloc(16).at(16);
    }

    #[test]
    fn split_partitions_region() {
        let mut l = Layout::new();
        let r = l.alloc(1000);
        let total: u64 = (0..4).map(|i| r.split(4, i).bytes()).sum();
        assert_eq!(total, 1000);
        assert_eq!(r.split(4, 0).base(), r.base());
    }

    #[test]
    fn per_thread_allocs_are_page_separated() {
        let mut l = Layout::new();
        let rs = l.alloc_per_thread(4, 100);
        for w in rs.windows(2) {
            assert!(w[1].base() >= w[0].base() + 4096);
        }
    }
}
