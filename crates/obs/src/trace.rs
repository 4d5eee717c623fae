//! Structured event tracing with a Chrome trace-event JSON backend.
//!
//! The central type is [`Tracer`], a cheaply-cloneable handle that is either
//! *disabled* (the default — a `None` inside, so every emission site costs a
//! single branch and allocates nothing) or *enabled* (shared buffer of
//! [`TraceEvent`]s). The buffer serializes to the Chrome trace-event array
//! format understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Every emission names an [`Event`], which fixes three fields:
//!
//! * `name` — the slice label (`read.remote`, `Read`, `xfer`, …).
//! * `cat` — dot-separated category (`proto.handler`, `am.miss`,
//!   `net.link`, …) used for filtering in the UI and in tests.
//! * `pid` — subsystem track group (0 = protocol, 1 = network, 2 = machine).
//!
//! The emission site supplies the rest:
//!
//! * `tid` — node id within the group (or link id for the network group).
//! * `ts`  — simulated cycle of the event start.
//! * `dur` — `Some(cycles)` renders a complete span (`"ph":"X"`), `None`
//!   renders an instant (`"ph":"i"`).

use std::cell::RefCell;
use std::rc::Rc;

use pimdsm_engine::Cycle;

/// Track-group ids (`pid` in the Chrome trace) per subsystem.
pub mod track {
    /// Protocol handlers and attraction-memory events (tid = node id).
    pub const PROTO: u32 = 0;
    /// Network links (tid = link id).
    pub const NET: u32 = 1;
    /// Machine-level events: barriers, reconfiguration (tid = 0).
    pub const MACHINE: u32 = 2;
}

/// The closed trace vocabulary: one variant per `name`/`cat` pair the
/// simulator emits. Each pair lives on exactly one [`track`] group, so
/// the variant fixes the event's `pid` too, and a misspelled event is a
/// compile error rather than an event no trace filter can find.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `local`/`net.local`: a self-send resolved inside the node.
    NetLocal,
    /// `xfer`/`net.link`: a message serializing over one link.
    NetXfer,
    /// `deliver`/`net.msg`: a message's tail flit arriving.
    NetDeliver,
    /// `read.remote`/`proto.read`: a read walk that left the node.
    ReadRemote,
    /// `write.remote`/`proto.write`: a write walk that left the node.
    WriteRemote,
    /// `Read`/`proto.handler`: a read handler's occupancy.
    HandlerRead,
    /// `ReadEx`/`proto.handler`: a read-exclusive handler's occupancy.
    HandlerReadEx,
    /// `Ack`/`proto.handler`: an acknowledgment handler's occupancy.
    HandlerAck,
    /// `WriteBack`/`proto.handler`: a write-back handler's occupancy.
    HandlerWriteBack,
    /// `Hint`/`proto.handler`: a replacement hint's acknowledgment.
    Hint,
    /// `retry`/`proto.retry`: a walk waiting on a recovering page.
    Retry,
    /// `fault`/`proto.disk`: a line coming back from disk.
    DiskFault,
    /// `hit`/`am.hit`: an attraction-memory hit.
    AmHit,
    /// `miss`/`am.miss`: an attraction-memory miss.
    AmMiss,
    /// `swap`/`am.swap`: an attraction-memory insertion with a victim.
    AmSwap,
    /// `inject`/`am.inject`: a COMA master-line injection.
    AmInject,
    /// `pageout`/`am.pageout`: an AGG page-out.
    PageOut,
    /// `offload`/`svc.offload`: a computation offloaded to a D-node.
    Offload,
    /// `request`/`svc.request`: one service request, arrival to completion.
    Request,
    /// `barrier`/`machine.barrier`: a barrier release.
    Barrier,
    /// `reconfig`/`machine.reconfig`: a dynamic reconfiguration.
    Reconfig,
    /// `kill`/`machine.fault`: a node kill.
    Kill,
    /// `rejoin`/`machine.fault`: a node rejoin.
    Rejoin,
    /// `recovery`/`machine.recovery`: the recovery after a kill.
    Recovery,
}

impl Event {
    /// Every event, in declaration order.
    pub const ALL: [Event; 24] = [
        Event::NetLocal,
        Event::NetXfer,
        Event::NetDeliver,
        Event::ReadRemote,
        Event::WriteRemote,
        Event::HandlerRead,
        Event::HandlerReadEx,
        Event::HandlerAck,
        Event::HandlerWriteBack,
        Event::Hint,
        Event::Retry,
        Event::DiskFault,
        Event::AmHit,
        Event::AmMiss,
        Event::AmSwap,
        Event::AmInject,
        Event::PageOut,
        Event::Offload,
        Event::Request,
        Event::Barrier,
        Event::Reconfig,
        Event::Kill,
        Event::Rejoin,
        Event::Recovery,
    ];

    /// The event's `(name, cat, pid)` in the Chrome trace.
    pub const fn parts(self) -> (&'static str, &'static str, u32) {
        use track::{MACHINE, NET, PROTO};
        match self {
            Event::NetLocal => ("local", "net.local", NET),
            Event::NetXfer => ("xfer", "net.link", NET),
            Event::NetDeliver => ("deliver", "net.msg", NET),
            Event::ReadRemote => ("read.remote", "proto.read", PROTO),
            Event::WriteRemote => ("write.remote", "proto.write", PROTO),
            Event::HandlerRead => ("Read", "proto.handler", PROTO),
            Event::HandlerReadEx => ("ReadEx", "proto.handler", PROTO),
            Event::HandlerAck => ("Ack", "proto.handler", PROTO),
            Event::HandlerWriteBack => ("WriteBack", "proto.handler", PROTO),
            Event::Hint => ("Hint", "proto.handler", PROTO),
            Event::Retry => ("retry", "proto.retry", PROTO),
            Event::DiskFault => ("fault", "proto.disk", PROTO),
            Event::AmHit => ("hit", "am.hit", PROTO),
            Event::AmMiss => ("miss", "am.miss", PROTO),
            Event::AmSwap => ("swap", "am.swap", PROTO),
            Event::AmInject => ("inject", "am.inject", PROTO),
            Event::PageOut => ("pageout", "am.pageout", PROTO),
            Event::Offload => ("offload", "svc.offload", PROTO),
            Event::Request => ("request", "svc.request", MACHINE),
            Event::Barrier => ("barrier", "machine.barrier", MACHINE),
            Event::Reconfig => ("reconfig", "machine.reconfig", MACHINE),
            Event::Kill => ("kill", "machine.fault", MACHINE),
            Event::Rejoin => ("rejoin", "machine.fault", MACHINE),
            Event::Recovery => ("recovery", "machine.recovery", MACHINE),
        }
    }
}

/// One trace event in the Chrome trace-event model.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name shown in the timeline slice.
    pub name: &'static str,
    /// Dot-separated category, e.g. `proto.handler`, `net.link`.
    pub cat: &'static str,
    /// Track group (subsystem), see [`track`].
    pub pid: u32,
    /// Track within the group (node id / link id).
    pub tid: u32,
    /// Start cycle.
    pub ts: Cycle,
    /// `Some(d)` = complete span of `d` cycles, `None` = instant.
    pub dur: Option<Cycle>,
    /// Small key/value payload rendered into the `args` object.
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: Vec<TraceEvent>,
}

/// Handle for emitting trace events.
///
/// `Tracer::default()` (or [`Tracer::disabled`]) is a no-op handle: emission
/// compiles down to a branch on a `None` option. [`Tracer::enabled`] returns
/// a recording handle; clones share one buffer, so a single enabled tracer
/// can be attached to the network, every protocol node, and the machine.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    buf: Option<Rc<RefCell<TraceBuf>>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    #[inline]
    pub fn disabled() -> Self {
        Tracer { buf: None }
    }

    /// A tracer that records into a fresh shared buffer.
    pub fn enabled() -> Self {
        Tracer {
            buf: Some(Rc::new(RefCell::new(TraceBuf::default()))),
        }
    }

    /// Whether this handle records events. Emission sites may use this to
    /// skip argument construction entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record a complete span (`ph:"X"`) of `dur` cycles from `ts`.
    #[inline]
    pub fn span(&self, ev: Event, tid: u32, ts: Cycle, dur: Cycle, args: &[(&'static str, u64)]) {
        if let Some(buf) = &self.buf {
            record(buf, ev, tid, ts, Some(dur), args);
        }
    }

    /// Record an instant event (`ph:"i"`) at `ts`.
    ///
    /// ```
    /// use pimdsm_obs::trace::{Event, Tracer};
    ///
    /// let t = Tracer::enabled();
    /// t.instant(Event::Request, 0, 10, &[("class", 0)]);
    /// assert_eq!(t.events_sorted()[0].cat, "svc.request");
    /// ```
    ///
    /// An event name or category is not an [`Event`], so a typo does
    /// not compile:
    ///
    /// ```compile_fail,E0308
    /// # let t = pimdsm_obs::trace::Tracer::enabled();
    /// t.instant("reqeust", 0, 10, &[]);
    /// ```
    ///
    /// ```compile_fail,E0308
    /// # let t = pimdsm_obs::trace::Tracer::enabled();
    /// t.instant("proto.hanlder", 0, 10, &[]);
    /// ```
    #[inline]
    pub fn instant(&self, ev: Event, tid: u32, ts: Cycle, args: &[(&'static str, u64)]) {
        if let Some(buf) = &self.buf {
            record(buf, ev, tid, ts, None, args);
        }
    }

    /// Number of recorded events (0 for a disabled tracer).
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events, sorted by `(pid, tid, ts)`.
    ///
    /// Sorting makes the output deterministic and guarantees monotone
    /// timestamps *per track* even though a transaction walk may book
    /// resource time out of order.
    pub fn events_sorted(&self) -> Vec<TraceEvent> {
        let mut events = self
            .buf
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().events.clone());
        events.sort_by_key(|e| (e.pid, e.tid, e.ts, e.dur.unwrap_or(0)));
        events
    }

    /// Render the buffer as a Chrome trace-event JSON array string.
    ///
    /// The output loads directly in Perfetto / `chrome://tracing`:
    /// a JSON array of objects with `name`, `cat`, `ph`, `ts`, `pid`,
    /// `tid`, optional `dur`, and an `args` object. Simulated cycles map
    /// 1:1 onto microseconds (the unit Chrome assumes for `ts`).
    pub fn to_chrome_json(&self) -> String {
        use crate::json::JsonValue;

        let mut arr: Vec<JsonValue> = Vec::with_capacity(self.len() + 4);
        // Process-name metadata records label each subsystem group.
        for (pid, label) in [
            (track::PROTO, "proto"),
            (track::NET, "net"),
            (track::MACHINE, "machine"),
        ] {
            arr.push(JsonValue::obj([
                ("name", JsonValue::str("process_name")),
                ("ph", JsonValue::str("M")),
                ("pid", JsonValue::u64(pid as u64)),
                ("tid", JsonValue::u64(0)),
                ("args", JsonValue::obj([("name", JsonValue::str(label))])),
            ]));
        }
        for e in self.events_sorted() {
            let mut obj = vec![
                ("name", JsonValue::str(e.name)),
                ("cat", JsonValue::str(e.cat)),
                (
                    "ph",
                    JsonValue::str(if e.dur.is_some() { "X" } else { "i" }),
                ),
                ("pid", JsonValue::u64(e.pid as u64)),
                ("tid", JsonValue::u64(e.tid as u64)),
                ("ts", JsonValue::u64(e.ts)),
            ];
            if let Some(d) = e.dur {
                obj.push(("dur", JsonValue::u64(d)));
            } else {
                // Instant scope: thread.
                obj.push(("s", JsonValue::str("t")));
            }
            obj.push((
                "args",
                JsonValue::Obj(
                    e.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::u64(*v)))
                        .collect(),
                ),
            ));
            arr.push(JsonValue::obj(obj));
        }
        JsonValue::Arr(arr).render()
    }
}

/// Appends one event to an enabled tracer's buffer. Kept out of line so
/// that [`Tracer::span`] and [`Tracer::instant`] inline to one branch,
/// and a disabled tracer never builds the event's arguments.
#[inline(never)]
fn record(
    buf: &RefCell<TraceBuf>,
    ev: Event,
    tid: u32,
    ts: Cycle,
    dur: Option<Cycle>,
    args: &[(&'static str, u64)],
) {
    let (name, cat, pid) = ev.parts();
    buf.borrow_mut().events.push(TraceEvent {
        name,
        cat,
        pid,
        tid,
        ts,
        dur,
        args: args.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_unique_and_each_category_has_one_track() {
        let parts: Vec<_> = Event::ALL.iter().map(|e| e.parts()).collect();
        for (i, (name, _, _)) in parts.iter().enumerate() {
            assert!(
                parts[..i].iter().all(|(n, _, _)| n != name),
                "event name {name} listed twice"
            );
        }
        for (_, cat, pid) in &parts {
            assert!(
                parts.iter().all(|(_, c, p)| c != cat || p == pid),
                "category {cat} spans two tracks"
            );
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span(Event::NetXfer, 0, 0, 10, &[("a", 1)]);
        t.instant(Event::AmHit, 0, 5, &[]);
        assert_eq!(t.len(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_a_buffer_and_sort_by_track_time() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.span(Event::HandlerRead, 1, 50, 5, &[]);
        t2.span(Event::HandlerAck, 1, 10, 5, &[]);
        t2.span(Event::Hint, 0, 99, 1, &[]);
        let ev = t.events_sorted();
        assert_eq!(ev.len(), 3);
        assert_eq!((ev[0].tid, ev[0].ts), (0, 99));
        assert_eq!((ev[1].tid, ev[1].ts), (1, 10));
        assert_eq!((ev[2].tid, ev[2].ts), (1, 50));
    }

    #[test]
    fn chrome_json_is_a_valid_array() {
        let t = Tracer::enabled();
        t.span(Event::HandlerRead, 3, 100, 40, &[("page", 7)]);
        t.instant(Event::AmMiss, 3, 100, &[]);
        let doc = crate::json::parse(&t.to_chrome_json()).unwrap();
        let arr = doc.as_arr().unwrap();
        // 3 metadata records + 2 events.
        assert_eq!(arr.len(), 5);
        let span = arr
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("Read"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(40));
        assert_eq!(
            span.get("args").unwrap().get("page").unwrap().as_u64(),
            Some(7)
        );
    }
}
