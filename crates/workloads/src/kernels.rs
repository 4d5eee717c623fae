//! Small synthetic kernels with known behaviour, used by tests and
//! ablation benches to probe specific protocol paths.

use pimdsm_engine::SimRng;

use crate::layout::{Layout, Region};
use crate::ops::{Batch, ChunkGen, Op, ThreadGen, Workload};

/// Each thread streams over its own private region: no sharing, pure
/// capacity/locality behaviour.
#[derive(Debug, Clone)]
pub struct PrivateStream {
    threads: usize,
    regions: Vec<Region>,
    passes: u32,
    footprint: u64,
}

impl PrivateStream {
    /// `bytes_per_thread` of private data, swept `passes` times.
    pub fn new(threads: usize, bytes_per_thread: u64, passes: u32) -> Self {
        assert!(threads > 0);
        let mut l = Layout::new();
        let regions = l.alloc_per_thread(threads, bytes_per_thread);
        PrivateStream {
            threads,
            regions,
            passes,
            footprint: l.footprint(),
        }
    }
}

impl Workload for PrivateStream {
    fn name(&self) -> &'static str {
        "PrivateStream"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        8
    }

    fn l2_kb(&self) -> u64 {
        32
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let region = self.regions[tid];
        let passes = self.passes;
        let mut pass = 0u32;
        let mut pos = 0u64;
        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if pass >= passes {
                return false;
            }
            let chunk = 4096u64.min(region.bytes() - pos);
            out.push(Op::LoadBatch {
                base: region.at(pos),
                stride: 64,
                count: (chunk / 64).max(1) as u32,
            });
            out.push(Op::Compute(chunk / 8));
            pos += chunk;
            if pos >= region.bytes() {
                pos = 0;
                pass += 1;
            }
            true
        }))
    }
}

/// All threads write one small shared region: worst-case invalidation
/// ping-pong.
#[derive(Debug, Clone)]
pub struct HotSpot {
    threads: usize,
    region: Region,
    writes_per_thread: u64,
    footprint: u64,
}

impl HotSpot {
    /// `lines` shared lines, `writes_per_thread` scattered writes each.
    pub fn new(threads: usize, lines: u64, writes_per_thread: u64) -> Self {
        assert!(threads > 0 && lines > 0);
        let mut l = Layout::new();
        let region = l.alloc(lines * 64);
        HotSpot {
            threads,
            region,
            writes_per_thread,
            footprint: l.footprint(),
        }
    }
}

impl Workload for HotSpot {
    fn name(&self) -> &'static str {
        "HotSpot"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        8
    }

    fn l2_kb(&self) -> u64 {
        32
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let region = self.region;
        let total = self.writes_per_thread;
        let mut rng = SimRng::new(0x407 ^ (tid as u64) << 16);
        let mut done = 0u64;
        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if done >= total {
                return false;
            }
            let n = 16.min(total - done);
            let mut addrs = [0u64; 16];
            for a in &mut addrs[..n as usize] {
                *a = region.at(rng.range(0, region.bytes() / 64) * 64);
            }
            out.push(Op::Scatter(Batch::new(&addrs[..n as usize])));
            out.push(Op::Compute(20));
            done += n;
            true
        }))
    }
}

/// All threads read a shared region uniformly at random: read-sharing with
/// replication pressure but no invalidations after warm-up.
#[derive(Debug, Clone)]
pub struct SharedRead {
    threads: usize,
    region: Region,
    reads_per_thread: u64,
    footprint: u64,
}

impl SharedRead {
    /// `bytes` of shared data, `reads_per_thread` random reads each.
    pub fn new(threads: usize, bytes: u64, reads_per_thread: u64) -> Self {
        assert!(threads > 0 && bytes >= 64);
        let mut l = Layout::new();
        let region = l.alloc(bytes);
        SharedRead {
            threads,
            region,
            reads_per_thread,
            footprint: l.footprint(),
        }
    }
}

impl Workload for SharedRead {
    fn name(&self) -> &'static str {
        "SharedRead"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn l1_kb(&self) -> u64 {
        8
    }

    fn l2_kb(&self) -> u64 {
        32
    }

    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        assert!(tid < self.threads);
        let region = self.region;
        let total = self.reads_per_thread;
        let mut rng = SimRng::new(0x5EAD ^ (tid as u64) << 8);
        let mut done = 0u64;
        Box::new(ChunkGen::new(move |out: &mut Vec<Op>| {
            if done >= total {
                return false;
            }
            let n = 16.min(total - done);
            let mut addrs = [0u64; 16];
            for a in &mut addrs[..n as usize] {
                *a = region.at(rng.range(0, region.bytes() / 64) * 64);
            }
            out.push(Op::Gather(Batch::new(&addrs[..n as usize])));
            out.push(Op::Compute(30));
            done += n;
            true
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ops(w: &dyn Workload, tid: usize) -> usize {
        let mut g = w.spawn(tid);
        let mut n = 0;
        while g.next_op().is_some() {
            n += 1;
            assert!(n < 1_000_000);
        }
        n
    }

    #[test]
    fn private_stream_terminates() {
        let w = PrivateStream::new(2, 64 * 1024, 2);
        assert!(count_ops(&w, 0) > 10);
        assert!(count_ops(&w, 1) > 10);
    }

    #[test]
    fn private_regions_disjoint() {
        let w = PrivateStream::new(4, 8192, 1);
        for i in 1..4 {
            assert!(w.regions[i - 1].base() + w.regions[i - 1].bytes() <= w.regions[i].base());
        }
    }

    #[test]
    fn hotspot_writes_requested_count() {
        let w = HotSpot::new(2, 4, 100);
        let mut g = w.spawn(0);
        let mut writes = 0;
        while let Some(op) = g.next_op() {
            if let Op::Scatter(b) = op {
                writes += b.len();
            }
        }
        assert_eq!(writes, 100);
    }

    #[test]
    fn shared_read_addresses_in_region() {
        let w = SharedRead::new(2, 4096, 64);
        let mut g = w.spawn(1);
        while let Some(op) = g.next_op() {
            if let Op::Gather(b) = op {
                for &a in b.addrs() {
                    assert!(a >= w.region.base() && a < w.region.base() + 4096);
                }
            }
        }
    }
}
