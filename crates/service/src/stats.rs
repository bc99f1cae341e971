//! Service-side request accounting: per-class counters and latency
//! quantiles, cheap enough to update on every request.
//!
//! Latencies are kept in a [`RingHistogram`] window of the most recent
//! `RING` samples per query class; quantiles are computed over that
//! window on demand (`stats` requests are rare, so the snapshot sorts a
//! copy). Counters are lifetime totals.

use crate::json::Value;
use p3_obs::metrics::RingHistogram;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Latency window per query class.
const RING: usize = 1024;

struct ClassStats {
    count: u64,
    errors: u64,
    timeouts: u64,
    sum_us: u64,
    /// Most recent latencies, microseconds, ring-buffered.
    recent_us: RingHistogram,
}

impl Default for ClassStats {
    fn default() -> Self {
        Self {
            count: 0,
            errors: 0,
            timeouts: 0,
            sum_us: 0,
            recent_us: RingHistogram::new(RING),
        }
    }
}

impl ClassStats {
    fn record(&mut self, latency: Duration, outcome: Outcome) {
        self.count += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error => self.errors += 1,
            Outcome::Timeout => self.timeouts += 1,
        }
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.sum_us += us;
        self.recent_us.record(us);
    }

    fn snapshot(&self) -> Value {
        let q = |p: f64| -> f64 { self.recent_us.quantile(p).unwrap_or(0) as f64 / 1000.0 };
        let mean_ms = if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        };
        Value::object(vec![
            ("count", Value::from(self.count)),
            ("errors", Value::from(self.errors)),
            ("timeouts", Value::from(self.timeouts)),
            (
                "latency_ms",
                Value::object(vec![
                    ("p50", Value::from(q(0.50))),
                    ("p90", Value::from(q(0.90))),
                    ("p99", Value::from(q(0.99))),
                    (
                        "max",
                        Value::from(self.recent_us.max().unwrap_or(0) as f64 / 1000.0),
                    ),
                    ("mean", Value::from(mean_ms)),
                ]),
            ),
        ])
    }
}

/// How a request ended, for the error/timeout counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully.
    Ok,
    /// Failed (bad request, unknown tuple, …).
    Error,
    /// Deadline expired before the answer was ready.
    Timeout,
}

/// Thread-safe request accounting, grouped by op class.
#[derive(Default)]
pub struct ServiceStats {
    classes: Mutex<BTreeMap<&'static str, ClassStats>>,
}

impl ServiceStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request.
    pub fn record(&self, class: &'static str, latency: Duration, outcome: Outcome) {
        self.classes
            .lock()
            .unwrap()
            .entry(class)
            .or_default()
            .record(latency, outcome);
    }

    /// Total requests recorded across classes.
    pub fn total(&self) -> u64 {
        self.classes.lock().unwrap().values().map(|c| c.count).sum()
    }

    /// A JSON snapshot: `{class: {count, errors, timeouts, latency_ms}}`.
    pub fn snapshot(&self) -> Value {
        let classes = self.classes.lock().unwrap();
        Value::Object(
            classes
                .iter()
                .map(|(class, stats)| (class.to_string(), stats.snapshot()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_quantiles() {
        let stats = ServiceStats::new();
        for i in 1..=100u64 {
            stats.record("probability", Duration::from_micros(i * 1000), Outcome::Ok);
        }
        stats.record("probability", Duration::from_millis(500), Outcome::Timeout);
        stats.record("influence", Duration::from_millis(2), Outcome::Error);
        assert_eq!(stats.total(), 102);

        let snap = stats.snapshot();
        let prob = snap.get("probability").unwrap();
        assert_eq!(prob.get("count").unwrap().as_u64(), Some(101));
        assert_eq!(prob.get("timeouts").unwrap().as_u64(), Some(1));
        let lat = prob.get("latency_ms").unwrap();
        let p50 = lat.get("p50").unwrap().as_f64().unwrap();
        let p99 = lat.get("p99").unwrap().as_f64().unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= p50, "p99 = {p99}");
        assert_eq!(
            snap.get("influence")
                .unwrap()
                .get("errors")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn ring_keeps_only_recent_samples() {
        let stats = ServiceStats::new();
        // Old slow samples get overwritten by fast recent traffic.
        for _ in 0..RING {
            stats.record("ping", Duration::from_millis(100), Outcome::Ok);
        }
        for _ in 0..RING {
            stats.record("ping", Duration::from_micros(100), Outcome::Ok);
        }
        let snap = stats.snapshot();
        let p90 = snap
            .get("ping")
            .unwrap()
            .get("latency_ms")
            .unwrap()
            .get("p90")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(p90 < 1.0, "window should only hold fast samples: {p90}");
        assert_eq!(
            snap.get("ping").unwrap().get("count").unwrap().as_u64(),
            Some(2 * RING as u64)
        );
    }

    #[test]
    fn empty_snapshot_is_an_empty_object() {
        let stats = ServiceStats::new();
        assert_eq!(stats.snapshot(), Value::Object(vec![]));
        assert_eq!(stats.total(), 0);
    }

    /// A class with zero latency samples would only arise if `record` were
    /// skipped, but the snapshot math must not divide by zero regardless.
    #[test]
    fn empty_window_quantiles_are_zero() {
        let stats = ClassStats::default();
        let snap = stats.snapshot();
        let lat = snap.get("latency_ms").unwrap();
        for key in ["p50", "p90", "p99", "max", "mean"] {
            assert_eq!(lat.get(key).unwrap().as_f64(), Some(0.0), "{key}");
        }
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let stats = ServiceStats::new();
        stats.record("ping", Duration::from_millis(7), Outcome::Ok);
        let snap = stats.snapshot();
        let lat = snap.get("ping").unwrap().get("latency_ms").unwrap();
        for key in ["p50", "p90", "p99", "max", "mean"] {
            let v = lat.get(key).unwrap().as_f64().unwrap();
            assert!((v - 7.0).abs() < 1e-9, "{key} = {v}");
        }
    }

    #[test]
    fn wrapped_ring_drops_the_oldest_sample_first() {
        let stats = ServiceStats::new();
        // One slow outlier followed by RING fast samples: the wrap evicts
        // exactly the outlier, so even the max reflects recent traffic.
        stats.record("ping", Duration::from_millis(900), Outcome::Ok);
        for _ in 0..RING {
            stats.record("ping", Duration::from_micros(500), Outcome::Ok);
        }
        let snap = stats.snapshot();
        let max = snap
            .get("ping")
            .unwrap()
            .get("latency_ms")
            .unwrap()
            .get("max")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(max < 1.0, "outlier should have been overwritten: {max}");
    }
}
