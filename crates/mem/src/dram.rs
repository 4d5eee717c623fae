//! Bandwidth-limited DRAM device model.

use pimdsm_engine::{Cycle, Timeline};

/// A DRAM module with a fixed access latency and a shared data port of
/// `bytes_per_cycle` bandwidth (Table 1: 32 B per CPU clock).
///
/// Contention is modeled on the data port: concurrent accesses serialize
/// their transfer time, so a burst of line fills sees queueing delay on top
/// of the raw latency.
///
/// # Examples
///
/// ```
/// use pimdsm_mem::Dram;
///
/// let mut d = Dram::new(37, 32);
/// // 64-byte line: 2 transfer cycles after the 37-cycle access.
/// assert_eq!(d.access(0, 64), 39);
/// // A second access right behind it queues on the port.
/// assert_eq!(d.access(0, 64), 41);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    latency: Cycle,
    bytes_per_cycle: u64,
    port: Timeline,
    accesses: u64,
}

impl Dram {
    /// Creates a DRAM with `latency` cycles to first data and a port moving
    /// `bytes_per_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: Cycle, bytes_per_cycle: u64) -> Self {
        assert!(bytes_per_cycle > 0, "DRAM needs nonzero bandwidth");
        Dram {
            latency,
            bytes_per_cycle,
            port: Timeline::new(),
            accesses: 0,
        }
    }

    /// Performs an access of `bytes` starting at `now`; returns the
    /// completion cycle.
    #[inline]
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.accesses += 1;
        let transfer = bytes.div_ceil(self.bytes_per_cycle);
        let start = self.port.acquire(now, transfer);
        start + self.latency + transfer
    }

    /// Raw access latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Frees the port's schedule behind `floor`; see
    /// [`Timeline::retire_before`].
    pub fn retire_before(&mut self, floor: Cycle) {
        self.port.retire_before(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_is_latency_bound() {
        let mut d = Dram::new(37, 32);
        assert_eq!(d.access(100, 64), 139);
        assert_eq!(d.accesses(), 1);
    }

    #[test]
    fn port_contention_serializes_transfers() {
        let mut d = Dram::new(10, 32);
        let t1 = d.access(0, 128); // 4 transfer cycles
        let t2 = d.access(0, 128);
        assert_eq!(t1, 14);
        assert_eq!(t2, 18); // queued 4 cycles behind the first transfer
    }

    #[test]
    fn large_transfer_dominates_latency() {
        let mut d = Dram::new(10, 1);
        // 64 bytes at 1 B/cycle: 10-cycle latency + 64 transfer cycles.
        assert_eq!(d.access(0, 64), 74);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        Dram::new(10, 0);
    }
}
