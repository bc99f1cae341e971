//! # p3-audit
//!
//! Per-request audit log and cost accounting for `p3-serve`.
//!
//! Every service request — queries, admin ops, even malformed lines —
//! appends exactly one [`AuditRecord`] to an [`AuditLog`]: a bounded
//! ring of on-disk segments framed with `p3-store`'s shared
//! checksummed `[len][crc][payload]` format (see [`p3_store::frame`]).
//! A record carries the query-text hash (never the text), request
//! class, eval mode, trace id, queue-wait vs execute split, per-stage
//! timings, derived-tuple count, DNF width, cache deltas, and the
//! outcome — everything an operator needs to answer "which queries are
//! burning the CPU?" after the fact.
//!
//! The log is crash-safe under SIGKILL: each append is one synchronous
//! framed write, recovery keeps every whole valid frame and truncates
//! torn tails, mirroring the store's journal. It is bounded by
//! size/age-based segment rotation with oldest-segment pruning, so it
//! can run forever on a server meant for millions of users.
//!
//! This crate knows nothing about the service's protocol: each record
//! builds its one JSON object ([`AuditRecord::to_value`]) on the
//! workspace codec, `p3-service` builds records and serves them over
//! `audit-tail` / `audit-top` ops and the `/audit` admin endpoints, and
//! the `p3 audit` CLI reads a directory offline via [`log::read_dir`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod log;
pub mod record;

pub use log::{read_dir, AuditConfig, AuditLog, AuditStats};
pub use record::{fnv1a_64, AuditKey, AuditRecord, Outcome, StageTiming, MAX_TOP_RULES};
