//! In-memory spans recorded by the benchmark around each layer call, with
//! self-time accounting and Chrome trace export (loads in Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use pimdsm_obs::JsonValue;

/// Every span name the traced pass records, parents first.
pub const SPAN_NAMES: [&str; 10] = [
    "bench.point",
    "workloads.build",
    "core.machine_build",
    "core.machine_run",
    "proto.check",
    "workloads.drain",
    "proto.replay",
    "mem.probe",
    "engine.probe",
    "net.probe",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    point: usize,
}

/// A recorder of nested spans on one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    points: Vec<String>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            points: Vec::new(),
        }
    }
}

impl Spans {
    /// Registers a point key; spans opened afterwards belong to it.
    pub fn begin_point(&mut self, key: String) {
        self.points.push(key);
    }

    /// Runs `f` inside a span named `name` (child of the innermost open
    /// span) and returns its result and the span's duration in ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            point: self.points.len().saturating_sub(1),
        });
        self.open.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let s = &mut self.spans[id];
        s.start_ns = start;
        s.end_ns = end;
        (out, end - start)
    }

    /// Self time per span name: each span's duration minus the time its
    /// child spans cover, summed over spans of that name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// The spans as a Chrome trace document: one complete (`"X"`) event per
    /// span, with its id, parent id and point key in `args`.
    pub fn chrome_json(&self) -> String {
        let us = |ns: u64| JsonValue::num(ns as f64 / 1e3);
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            let mut args = vec![
                ("id", JsonValue::usize(id)),
                ("point", JsonValue::str(self.points[s.point].as_str())),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", JsonValue::usize(p)));
            }
            JsonValue::obj([
                ("name", JsonValue::str(s.name)),
                ("cat", JsonValue::str(layer(s.name))),
                ("ph", JsonValue::str("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", JsonValue::u64(1)),
                ("tid", JsonValue::u64(1)),
                ("args", JsonValue::obj(args)),
            ])
        });
        JsonValue::obj([
            ("traceEvents", JsonValue::arr(events)),
            ("displayTimeUnit", JsonValue::str("ms")),
        ])
        .render()
    }
}

/// The layer a span name belongs to (the part before the first dot).
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
