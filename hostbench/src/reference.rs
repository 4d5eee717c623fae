//! The reference kernel that tracks how fast the host is running.
//!
//! On a shared host the same pass can take 50–90% longer for a minute at a
//! time while other tenants load the machine's cores, caches and memory,
//! which swamps any bound a benchmark could hold. So between points the
//! benchmark times one slice of fixed, benchmark-owned work shaped like the
//! simulator's, and scales each point's host times by [`REF_SLICE_NS`] ÷
//! the mean of the slices on either side of it. A reported time is thus the
//! host time the point would take at the reference speed.
//!
//! A slice has two halves of random read-modify-writes with dependent
//! branches: one over a table larger than the last-level cache (memory
//! bound), one over a cache-resident part of it (core bound). Over eight to
//! ten minutes that included slow episodes, scaling by the memory half
//! alone cut the quartile spread of `fig6-baselines` pass times from 11.8%
//! to 4.6%; on `kv-get`, whose simulator work is less memory bound, the
//! two halves together left 4.5% of residual noise per pass where either
//! half alone left 5.4–5.9%.
//!
//! No simulator code runs in a slice, so a change to the simulator cannot
//! move the reference.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 64 MiB, larger than the last-level cache.
const TABLE_ENTRIES: usize = 8 << 20;
/// Entries the core-bound half touches: 256 KiB, cache resident.
const HOT_ENTRIES: usize = 32 << 10;
/// Steps of the memory-bound half.
const MEMORY_STEPS: u32 = 150_000;
/// Steps of the core-bound half. With [`MEMORY_STEPS`] a slice is long
/// enough that its own jitter stays small (a quarter of the memory half
/// alone tracked the host less well) and short enough to cost about 4% of
/// a `fig6-agg` pass.
const CORE_STEPS: u32 = 750_000;
/// Host ns a slice takes at the reference speed: its median on the 2-vCPU
/// Xeon host the bounds in `BENCHMARK.json` were set on.
pub const REF_SLICE_NS: f64 = 4_300_000.0;

/// The kernel's table and random state.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: vec![1; TABLE_ENTRIES],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Reference {
    /// Runs one slice; returns the host ns it took.
    fn slice(&mut self) -> u64 {
        let start = Instant::now();
        let acc = self.walk(TABLE_ENTRIES, MEMORY_STEPS) ^ self.walk(HOT_ENTRIES, CORE_STEPS);
        black_box(acc);
        start.elapsed().as_nanos() as u64
    }

    /// `steps` random read-modify-writes over the first `entries` entries.
    fn walk(&mut self, entries: usize, steps: u32) -> u64 {
        let table = &mut self.table[..entries];
        let n = entries as u64;
        let mut acc = 0u64;
        for _ in 0..steps {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let i = (self.x % n) as usize;
            acc = acc.wrapping_add(table[i]);
            table[i] = table[i].wrapping_mul(31).wrapping_add(acc);
            acc = if acc & 1 == 0 {
                acc.rotate_left(7)
            } else {
                acc ^ self.x
            };
        }
        acc
    }

    /// Runs `f` on each item with a slice before the first and after every
    /// item; returns each result with the host-speed scale for its item.
    pub fn bracket<T, R>(&mut self, items: &[T], mut f: impl FnMut(&T) -> R) -> Vec<(R, f64)> {
        let mut before = self.slice();
        items
            .iter()
            .map(|item| {
                let r = f(item);
                let after = self.slice();
                let scale = 2.0 * REF_SLICE_NS / (before + after).max(1) as f64;
                before = after;
                (r, scale)
            })
            .collect()
    }
}
