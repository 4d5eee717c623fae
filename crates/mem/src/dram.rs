//! Bandwidth-limited DRAM device model.

use pimdsm_engine::{Cycle, Timeline};

use crate::addr::LINE_BYTES;

/// Bytes a DRAM data port moves per CPU cycle (Table 1: 32 B).
pub const PORT_BYTES_PER_CYCLE: u64 = 32;

/// Cycles one line occupies a data port.
pub const LINE_TRANSFER: Cycle = LINE_BYTES.div_ceil(PORT_BYTES_PER_CYCLE);

/// A DRAM module with a fixed access latency and a shared data port of
/// [`PORT_BYTES_PER_CYCLE`] bandwidth.
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
/// let mut d = Dram::new(37);
/// // 64-byte line: 2 transfer cycles after the 37-cycle access.
/// assert_eq!(d.access(0, 64), 39);
/// // A second access right behind it queues on the port.
/// assert_eq!(d.access(0, 64), 41);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    latency: Cycle,
    port: Timeline,
    accesses: u64,
}

impl Dram {
    /// Creates a DRAM with `latency` cycles to first data.
    pub fn new(latency: Cycle) -> Self {
        Dram {
            latency,
            port: Timeline::new(),
            accesses: 0,
        }
    }

    /// Performs an access of `bytes` starting at `now`; returns the
    /// completion cycle.
    #[inline]
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.accesses += 1;
        let transfer = bytes.div_ceil(PORT_BYTES_PER_CYCLE);
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
        let mut d = Dram::new(37);
        assert_eq!(d.access(100, 64), 139);
        assert_eq!(d.accesses(), 1);
    }

    #[test]
    fn port_contention_serializes_transfers() {
        let mut d = Dram::new(10);
        let t1 = d.access(0, 128); // 4 transfer cycles
        let t2 = d.access(0, 128);
        assert_eq!(t1, 14);
        assert_eq!(t2, 18); // queued 4 cycles behind the first transfer
    }

    #[test]
    fn large_transfer_dominates_latency() {
        let mut d = Dram::new(10);
        // A 4 KiB page at 32 B/cycle: 10-cycle latency + 128 transfer cycles.
        assert_eq!(d.access(0, 4096), 138);
    }
}
