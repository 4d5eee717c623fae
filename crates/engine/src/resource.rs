//! Contended resource models.
//!
//! All contention in the simulator — network links, DRAM banks, directory
//! controllers, D-node protocol processors — is expressed with two
//! primitives:
//!
//! - [`Timeline`]: a single-server FIFO resource. `acquire(at, dur)` books
//!   the earliest slot of length `dur` starting no earlier than `at`.
//! - [`Server`]: a [`Timeline`] with the paper's latency/occupancy split
//!   (Table 2): a request holds the server for its *occupancy*, but the
//!   reply departs after the (possibly shorter) *latency*.

use crate::Cycle;

/// Window width for the bucketed capacity model, as a power of two.
const BUCKET_SHIFT: u32 = 8;
/// Cycles of service capacity per window.
const BUCKET_CYCLES: Cycle = 1 << BUCKET_SHIFT;
/// Windows per storage chunk, as a power of two. One chunk covers
/// `BUCKET_CYCLES << CHUNK_SHIFT` = 64K cycles in 1 KiB — small enough
/// that a machine full of mostly-idle resources doesn't pay megabytes of
/// zeroed storage, large enough that a busy resource touches few chunks.
const CHUNK_SHIFT: u32 = 8;
/// Windows per storage chunk.
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// One window's booked service: the offset from the window's start at
/// which its last booking ends (0 when untouched). A booking starts less
/// than [`BUCKET_CYCLES`] into its window and lasts under [`MAX_DUR`]
/// cycles, so the offset fits in four bytes.
type Window = u32;

/// Bound on a single booking's duration: every `acquire` asserts
/// `dur < MAX_DUR`, so a start offset plus the duration fits a [`Window`].
const MAX_DUR: Cycle = (1 << Window::BITS) - BUCKET_CYCLES;

/// A single-server queued resource with time-bucketed capacity.
///
/// The timeline divides simulated time into 256-cycle windows and tracks
/// how much service each window has handed out. Within a window behavior
/// is exactly a FIFO single server; across windows, capacity drains with
/// time. Crucially, this stays correct when acquisitions arrive *out of
/// time order* — the conservatively-ordered transaction walk books
/// chained events at future timestamps, and a booking far in the future
/// must not delay traffic at earlier times, nor may a burst at one
/// instant inflate waits at unrelated times.
///
/// Windows live in 64K-cycle chunks ([`Timeline::CHUNK_CYCLES`]) of
/// four-byte entries, allocated on first touch. Once no booking can
/// arrive before some cycle, [`Timeline::retire_before`] frees every
/// chunk wholly before the one holding it; booking behind it is a bug
/// and panics.
///
/// # Examples
///
/// ```
/// use pimdsm_engine::Timeline;
///
/// let mut bank = Timeline::new();
/// assert_eq!(bank.acquire(100, 10), 100); // idle: starts immediately
/// assert_eq!(bank.acquire(105, 10), 110); // contended: queues behind
/// assert_eq!(bank.busy_cycles(), 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Booked service per window, as a chunked dense array: `used[i]`
    /// holds chunk `base + i`. A missing chunk means every window in it
    /// is untouched, so a flat array beats a search tree on both lookup
    /// and allocation churn.
    used: Vec<Option<Box<[Window; CHUNK]>>>,
    /// First live chunk; every chunk before it has been retired.
    base: usize,
    busy: Cycle,
}

impl Timeline {
    /// Cycles covered by one storage chunk: the grain at which
    /// [`retire_before`](Timeline::retire_before) frees windows.
    pub const CHUNK_CYCLES: Cycle = BUCKET_CYCLES << CHUNK_SHIFT;

    /// Creates an idle resource.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Books the resource for `dur` cycles for a request arriving at `at`.
    ///
    /// Returns the cycle at which service starts (`>= at`): behind
    /// whatever the first window at or after `at` with spare capacity
    /// already booked. A duration may overflow past the window boundary
    /// by at most one request's worth, which is far below the window size
    /// in practice.
    ///
    /// # Panics
    ///
    /// Panics if `dur` is `2^32 - 256` cycles or more, or if `at` lies in
    /// a chunk freed by [`retire_before`](Timeline::retire_before).
    #[inline]
    pub fn acquire(&mut self, at: Cycle, dur: Cycle) -> Cycle {
        assert!(
            dur < MAX_DUR,
            "timeline booking of {dur} cycles overflows a window"
        );
        // Fast path: the arrival window's chunk is live and the window
        // has room. A chunk behind the horizon wraps `i` past the end.
        let b = at >> BUCKET_SHIFT;
        let i = ((b >> CHUNK_SHIFT) as usize).wrapping_sub(self.base);
        if let Some(Some(chunk)) = self.used.get_mut(i) {
            let w = &mut chunk[b as usize & (CHUNK - 1)];
            let pos = Cycle::from(*w).max(at & (BUCKET_CYCLES - 1));
            if pos < BUCKET_CYCLES {
                *w = (pos + dur) as Window;
                self.busy += dur;
                return (b << BUCKET_SHIFT) + pos;
            }
        }
        self.acquire_slow(at, dur)
    }

    /// The rest of [`Timeline::acquire`]: checks the arrival window
    /// against the retired horizon, scans forward past full windows and
    /// allocates the booked window's chunk on first touch. A missing
    /// chunk's windows are all empty, so the scan books the first one it
    /// reaches and allocates no chunk it does not book.
    #[inline(never)]
    fn acquire_slow(&mut self, at: Cycle, dur: Cycle) -> Cycle {
        let mut b = at >> BUCKET_SHIFT;
        let ci = (b >> CHUNK_SHIFT) as usize;
        assert!(
            ci >= self.base,
            "timeline window {b} read behind the retired horizon (chunk {})",
            self.base
        );
        // Service starts no earlier than the arrival, which only bounds
        // the arrival window; later windows start after it.
        let mut earliest = at & (BUCKET_CYCLES - 1);
        let mut i = ci - self.base;
        loop {
            if i >= self.used.len() {
                self.used.resize_with(i + 1, || None);
            }
            let chunk = self.used[i].get_or_insert_with(|| Box::new([0; CHUNK]));
            for w in &mut chunk[b as usize & (CHUNK - 1)..] {
                let pos = Cycle::from(*w).max(earliest);
                if pos < BUCKET_CYCLES {
                    *w = (pos + dur) as Window;
                    self.busy += dur;
                    return (b << BUCKET_SHIFT) + pos;
                }
                b += 1;
                earliest = 0;
            }
            i += 1;
        }
    }

    /// Frees every chunk that lies wholly before the chunk holding
    /// `floor`. The caller promises that no later booking arrives before
    /// `floor`; bookings at or after it see exactly the schedule they
    /// would have seen without retirement, because placement only ever
    /// scans forward from the arrival window.
    pub fn retire_before(&mut self, floor: Cycle) {
        let keep_from = (floor / Self::CHUNK_CYCLES) as usize;
        if keep_from > self.base {
            let dead = (keep_from - self.base).min(self.used.len());
            self.used.drain(..dead);
            self.base = keep_from;
        }
    }

    /// Total cycles of booked service time.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy
    }
}

/// Outcome of dispatching a request to a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerGrant {
    /// Cycle at which the handler began executing.
    pub start: Cycle,
    /// Cycle at which the reply departs (start + latency).
    pub reply_at: Cycle,
    /// Cycle at which the server can accept the next request
    /// (start + occupancy).
    pub free_at: Cycle,
}

/// A request server with distinct latency and occupancy, modeling the
/// paper's protocol handlers (Table 2).
///
/// *Latency* is the time from handler start until its reply message can be
/// injected; *occupancy* is how long the handler keeps the protocol
/// processor busy. Occupancy ≥ latency is typical for the paper's software
/// handlers (e.g. Read: latency 40, occupancy 80).
///
/// # Examples
///
/// ```
/// use pimdsm_engine::Server;
///
/// let mut dnode = Server::new();
/// let g1 = dnode.dispatch(0, 40, 80);
/// assert_eq!((g1.start, g1.reply_at, g1.free_at), (0, 40, 80));
/// // The next request queues behind the 80-cycle occupancy even though the
/// // first reply left at cycle 40.
/// let g2 = dnode.dispatch(10, 40, 80);
/// assert_eq!(g2.start, 80);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Server {
    timeline: Timeline,
}

impl Server {
    /// Creates an idle server.
    pub fn new() -> Self {
        Server::default()
    }

    /// Dispatches a request arriving at `at` with the given handler
    /// `latency` and `occupancy`.
    ///
    /// # Panics
    ///
    /// Panics if `latency > occupancy`; a handler cannot reply after it has
    /// already released the processor.
    #[inline]
    pub fn dispatch(&mut self, at: Cycle, latency: Cycle, occupancy: Cycle) -> ServerGrant {
        assert!(
            latency <= occupancy,
            "handler latency ({latency}) must not exceed occupancy ({occupancy})"
        );
        let start = self.timeline.acquire(at, occupancy);
        ServerGrant {
            start,
            reply_at: start + latency,
            free_at: start + occupancy,
        }
    }

    /// Books the server without a reply (pure occupancy, e.g. handling an
    /// acknowledgment). Returns the start cycle.
    #[inline]
    pub fn occupy(&mut self, at: Cycle, occupancy: Cycle) -> Cycle {
        self.timeline.acquire(at, occupancy)
    }

    /// Total cycles the server has been busy.
    pub fn busy_cycles(&self) -> Cycle {
        self.timeline.busy_cycles()
    }

    /// Frees the server's schedule behind `floor`; see
    /// [`Timeline::retire_before`].
    pub fn retire_before(&mut self, floor: Cycle) {
        self.timeline.retire_before(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_idle_starts_immediately() {
        let mut t = Timeline::new();
        assert_eq!(t.acquire(50, 5), 50);
    }

    #[test]
    fn timeline_queues_fifo() {
        let mut t = Timeline::new();
        t.acquire(0, 10);
        assert_eq!(t.acquire(3, 10), 10);
        assert_eq!(t.acquire(3, 10), 20);
        assert_eq!(t.busy_cycles(), 30);
    }

    #[test]
    fn timeline_gap_then_idle() {
        let mut t = Timeline::new();
        t.acquire(0, 10);
        // Arrives after the resource went idle again.
        assert_eq!(t.acquire(100, 10), 100);
        assert_eq!(t.clone().acquire(105, 1), 110);
        assert_eq!(t.clone().acquire(200, 1), 200);
    }

    #[test]
    fn server_latency_occupancy_split() {
        let mut s = Server::new();
        let g = s.dispatch(100, 40, 140);
        assert_eq!(g.start, 100);
        assert_eq!(g.reply_at, 140);
        assert_eq!(g.free_at, 240);
        let g2 = s.dispatch(100, 40, 80);
        assert_eq!(g2.start, 240);
        assert_eq!(s.busy_cycles(), 220);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn server_rejects_latency_above_occupancy() {
        Server::new().dispatch(0, 50, 40);
    }

    #[test]
    fn server_occupy_books_time() {
        let mut s = Server::new();
        assert_eq!(s.occupy(10, 40), 10);
        assert_eq!(s.occupy(10, 40), 50);
    }

    #[test]
    fn retirement_keeps_chunks_from_the_floor_on() {
        let c = Timeline::CHUNK_CYCLES;
        let mut t = Timeline::new();
        for chunk in [0, 1, 3] {
            t.acquire(chunk * c + 7, 10);
        }
        t.retire_before(c + 1);
        assert_eq!(t.base, 1);
        let live: Vec<bool> = t.used.iter().map(Option::is_some).collect();
        assert_eq!(live, [true, false, true], "chunks 1..=3 stay, 0 is freed");
        // The kept chunk still holds its booking; the freed one is gone.
        assert_eq!(t.clone().acquire(c + 7, 1), c + 17);
        t.retire_before(5 * c);
        assert!(t.used.is_empty());
        assert_eq!(t.acquire(5 * c, 4), 5 * c);
        assert_eq!(t.busy_cycles(), 34);
    }

    #[test]
    fn a_chunk_is_one_kib() {
        assert_eq!(std::mem::size_of::<[Window; CHUNK]>(), 1024);
    }

    #[test]
    fn the_longest_booking_fills_its_window_without_wrapping() {
        let mut t = Timeline::new();
        assert_eq!(t.acquire(255, MAX_DUR - 1), 255);
        assert_eq!(t.clone().acquire(255, 1), 256, "window 0 is full");
        assert_eq!(t.acquire(256, 1), 256);
        assert_eq!(t.busy_cycles(), MAX_DUR);
    }

    /// A duration that would overflow a four-byte window panics instead
    /// of wrapping into a short booking (release builds too).
    #[test]
    #[should_panic(expected = "overflows a window")]
    fn a_booking_past_the_window_width_panics() {
        Timeline::new().acquire(0, u32::MAX as Cycle);
    }

    #[test]
    #[should_panic(expected = "retired horizon")]
    fn booking_behind_the_horizon_panics() {
        let mut t = Timeline::new();
        t.acquire(0, 10);
        t.retire_before(Timeline::CHUNK_CYCLES);
        t.acquire(Timeline::CHUNK_CYCLES - 1, 1);
    }
}
