#![forbid(unsafe_code)]
//! # psml-trace
//!
//! Zero-cost-when-disabled structured tracing for ParSecureML-rs.
//!
//! Every layer of the stack — the simulated-time substrate
//! (`psml-simtime`), the network simulator (`psml-net`), the GPU device
//! model (`psml-gpu`) and the secure engine (`parsecureml`) — records
//! typed span events into a per-thread buffer through [`TraceSink`]. When
//! tracing is disabled (the default) the record path is a single relaxed
//! atomic load, so protocol hot paths and benchmarks pay nothing.
//!
//! This crate deliberately has **zero dependencies** (it sits below
//! `psml-simtime` in the crate graph), so simulated times cross the
//! boundary as integer nanoseconds — see [`ns_of_secs`].
//!
//! On top of the sink:
//! - [`chrome_trace_json`] exports a `chrome://tracing` / Perfetto
//!   compatible JSON trace,
//! - [`Summary`] renders a flamegraph-style per-phase / per-layer text
//!   breakdown,
//! - [`json`] is a tiny serde-free JSON value model (writer + parser)
//!   shared by the versioned report serializers and the CLI's schema
//!   validation,
//! - [`LatencyHistogram`] is a fixed-size log-bucketed histogram for
//!   percentiles of a long-running process (stated relative error 1/64).
//!
//! ```
//! use psml_trace::{Phase, TraceSink};
//!
//! TraceSink::enable();
//! {
//!     let _scope = TraceSink::scope(Phase::Compute2, Some(0));
//!     TraceSink::span("gemm", "server0.gpu", 0, 1_000, 4096);
//! }
//! let events = TraceSink::drain();
//! TraceSink::disable();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].phase, Phase::Compute2);
//! ```

mod chrome;
mod event;
mod histogram;
pub mod json;
mod sink;
mod summary;

pub use chrome::{chrome_trace_json, chrome_trace_json_with, ChromeTraceOptions};
pub use event::{ns_of_secs, Phase, TraceEvent};
pub use histogram::LatencyHistogram;
pub use sink::{PhaseGuard, TraceSink};
pub use summary::Summary;
