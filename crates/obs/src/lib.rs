//! # pimdsm-obs — simulation observability
//!
//! Cross-cutting observability for the PIM-DSM simulator:
//!
//! * [`trace`] — structured event tracing with a zero-overhead-when-disabled
//!   [`Tracer`] handle and a Chrome trace-event (Perfetto) JSON backend.
//!   Every emission names an [`Event`], the closed trace vocabulary, so a
//!   misspelled event name or category does not compile.
//! * [`metrics`] — an epoch-based sampler recording time-series of
//!   controller utilization, link busy fractions, directory list depths and
//!   read-level mix over configurable cycle windows.
//! * [`json`] — a small dependency-free JSON value model, renderer and
//!   parser used for `report.json`, metrics files and trace round-trips,
//!   plus the one histogram codec every report struct shares.
//! * [`breakdown`] — the shared component labels for per-transaction
//!   latency breakdowns (cache / network / handler / DRAM / queueing).
//!
//! The tracer is designed so that a *disabled* tracer costs a single
//! `Option` branch per emission site and allocates nothing; hot paths pay
//! essentially zero when observability is off (the default).

pub mod breakdown;
pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{JsonValue, ToJson};
pub use metrics::{EpochProbe, EpochSampler, EpochSeries};
pub use trace::{Event, TraceEvent, Tracer};
