//! Observability primitives for the P3 workspace.
//!
//! Std-only (no registry deps) so every crate — including the otherwise
//! dependency-free `p3-datalog` — can link it without cycles. Three
//! layers, each usable on its own:
//!
//! * [`mod@log`]: a leveled logger controlled by the `P3_LOG` environment
//!   variable, emitting structured `key=value` lines to stderr via the
//!   [`error!`], [`warn!`], [`info!`] and [`debug!`] macros.
//! * [`metrics`]: a process-global registry of relaxed-atomic counters,
//!   gauges and log₂-bucketed histograms, cheap enough for hot paths and
//!   rendered on demand as Prometheus text exposition.
//! * [`span`]: lightweight hierarchical spans behind a global on/off
//!   gate (default off → one relaxed atomic load per call site), with a
//!   thread-safe ring-buffer collector, span-tree reconstruction, and
//!   Chrome trace-event JSON export for chrome://tracing.
//! * [`profile`]: a sampling wall-clock profiler over the live span
//!   stacks, emitting folded-stack lines for `flamegraph.pl`/speedscope
//!   (the admin plane's `GET /profile` endpoint).
//! * [`slo`]: a rolling-window SLO engine — per-class latency
//!   objectives, multi-window burn rates, error-budget accounting
//!   (the admin plane's `GET /slo` endpoint and `/readyz` gate).
//! * [`process`]: `p3_build_info` and process self-metrics (RSS, open
//!   fds, uptime) sampled from `/proc/self`.
//! * [`json`]: the workspace's one JSON codec — the [`json::Value`] tree
//!   every JSON-printing type builds, its encoder (the only place that
//!   escapes strings) and its parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod log;
pub mod metrics;
pub mod process;
pub mod profile;
pub mod slo;
pub mod span;
