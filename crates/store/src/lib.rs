//! # p3-store
//!
//! Persistent provenance store: the durable subsystem behind
//! `p3-serve --store-dir` warm restarts.
//!
//! The engine's expensive state — the hash-consed `DnfStore` and the
//! per-session extraction/probability memos — is reduced to a flat stream
//! of [`Record`]s (see [`record`]) that a [`StorageBackend`] makes
//! durable. Two backends ship:
//!
//! * [`MemBackend`] — an in-memory no-op that only counts (and retains)
//!   records; the default when no `--store-dir` is given, and the test
//!   double for journaling call sites.
//! * [`FileBackend`] — an append-only, checksummed intern log plus
//!   periodic compacted snapshots in one directory, std-only (no serde,
//!   no mmap). See [`mod@file`] for the layout and crash-safety argument.
//!
//! Staleness is decided by a program [`content_hash`]: a store written
//! for one program text is never replayed against another.
//!
//! This crate knows nothing about sessions or servers; `p3-core` maps its
//! memo types onto [`Record`]s and `p3-service` owns the lifecycle
//! (open → replay → journal → flush per request → compact).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod file;
pub mod frame;
pub mod record;

pub use file::{FileBackend, Opened, RecoveryReport};
pub use record::{content_hash, MethodCode, Record};

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A sink for provenance records plus snapshot compaction.
///
/// `append` must be cheap and non-blocking on I/O — it is called from
/// inside `DnfStore`'s formula write lock, in `DnfId` allocation order,
/// which is the ordering contract replay relies on. Durability happens in
/// `flush` (the service calls it once per handled request).
pub trait StorageBackend: Send + Sync {
    /// Queues one record, preserving call order.
    fn append(&self, record: Record);
    /// Drains queued records to durable storage.
    fn flush(&self) -> io::Result<()>;
    /// Atomically replaces the snapshot with `records` (the full current
    /// state) and resets the append log.
    fn snapshot(&self, records: &[Record]) -> io::Result<()>;
    /// Counters for `store-stats` and `/metrics`.
    fn stats(&self) -> BackendStats;
    /// Backend kind name (`"mem"` / `"file"`).
    fn kind(&self) -> &'static str;
}

/// Counters shared by every backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Backend kind name.
    pub kind: &'static str,
    /// Records made durable so far (flushed, not merely queued).
    pub records_written: u64,
    /// Records queued but not yet flushed.
    pub pending_records: u64,
    /// Records in the current snapshot.
    pub snapshot_records: u64,
    /// Bytes in the current snapshot.
    pub snapshot_bytes: u64,
    /// Bad tails truncated during recovery (since open).
    pub recovery_truncations: u64,
}

/// In-memory no-op backend: counts and retains records, persists nothing.
/// A restart of the process starts cold, exactly as before this crate
/// existed.
#[derive(Default)]
pub struct MemBackend {
    records: Mutex<Vec<Record>>,
    flushed: AtomicU64,
    pending: AtomicU64,
    snapshot_records: AtomicU64,
}

impl MemBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything appended so far, in order (test observability).
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().unwrap().clone()
    }
}

impl StorageBackend for MemBackend {
    fn append(&self, record: Record) {
        self.records.lock().unwrap().push(record);
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) -> io::Result<()> {
        let drained = self.pending.swap(0, Ordering::Relaxed);
        self.flushed.fetch_add(drained, Ordering::Relaxed);
        Ok(())
    }

    fn snapshot(&self, records: &[Record]) -> io::Result<()> {
        self.snapshot_records
            .store(records.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            kind: "mem",
            records_written: self.flushed.load(Ordering::Relaxed),
            pending_records: self.pending.load(Ordering::Relaxed),
            snapshot_records: self.snapshot_records.load(Ordering::Relaxed),
            snapshot_bytes: 0,
            recovery_truncations: 0,
        }
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

// ---------------------------------------------------------------------------
// Metrics. Handles are process-wide; the families are registered eagerly by
// `register_metrics` (called from `FileBackend::open`) so a /metrics scrape
// lists them from boot, before any store traffic.

pub(crate) fn records_written_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_store_records_written_total",
        "Provenance records flushed to the durable intern log"
    )
}

pub(crate) fn snapshot_bytes_metric() -> &'static p3_obs::metrics::Gauge {
    p3_obs::gauge!(
        "p3_store_snapshot_bytes",
        "Size of the current compacted store snapshot in bytes"
    )
}

pub(crate) fn truncations_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_store_recovery_truncations_total",
        "Bad log tails truncated during store recovery"
    )
}

/// Warm-boot memo hits: queries answered from state restored off disk.
/// Incremented by `p3-core`'s warm memo layer.
pub fn warm_boot_hits_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_store_warm_boot_hits_total",
        "Queries answered from provenance state restored from the store"
    )
}

/// Registers every `p3_store_*` metric family with the global registry.
pub fn register_metrics() {
    records_written_metric();
    snapshot_bytes_metric();
    truncations_metric();
    warm_boot_hits_metric();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_counts_and_retains() {
        let b = MemBackend::new();
        b.append(Record::Intern { monomials: vec![] });
        b.append(Record::DnfMemo {
            query: "q".into(),
            depth: 3,
            id: 2,
        });
        assert_eq!(b.stats().pending_records, 2);
        assert_eq!(b.stats().records_written, 0);
        b.flush().unwrap();
        assert_eq!(b.stats().pending_records, 0);
        assert_eq!(b.stats().records_written, 2);
        assert_eq!(b.records().len(), 2);
        b.snapshot(&b.records()).unwrap();
        assert_eq!(b.stats().snapshot_records, 2);
        assert_eq!(b.kind(), "mem");
    }
}
