//! The audit record: one structured row per service request, with a
//! binary codec over `p3-store`'s shared frame layer and a canonical
//! JSON exposition.
//!
//! The binary payload starts with a one-byte version tag; all integers
//! are little-endian and all strings are `u32` length-prefixed UTF-8.
//! Client-controlled text (the trace id) is stored as opaque bytes
//! inside the checksummed frame — newlines, quotes, or arbitrary
//! unicode in it can never desynchronise the log — and is escaped
//! per RFC 8259 by the JSON encoder. Query text itself is never stored:
//! only its FNV-1a-64 hash, so the audit log leaks no query contents
//! and hostile query text cannot reach the exposition at all.

use p3_obs::json::Value;
pub use p3_store::frame::fnv1a_64;
use p3_store::frame::{put_str, put_u32, put_u64, Reader};

/// First payload layout (PR: audit plane). Still decodable; `rule_cost`
/// and `top_rules` default to empty on V1 records.
const TAG_V1: u8 = 1;

/// Current payload layout: V1 plus per-rule cost attribution (the total
/// measured rule cost this request triggered and the top rules by cost).
const TAG_V2: u8 = 2;

/// Cap on `top_rules` entries stored per record — the audit log records
/// the headline, `GET /explain` has the full ranking.
pub const MAX_TOP_RULES: usize = 3;

/// How a request ended, from the operator's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered successfully.
    Ok,
    /// Hit its deadline before the worker finished.
    Timeout,
    /// Rejected by the lint gate before evaluation.
    LintReject,
    /// Any other failure (parse error, unknown op, evaluation error).
    Error,
    /// The worker failed unexpectedly (a panic caught at the worker
    /// boundary, or a job dropped without a reply); the worker lives on.
    Internal,
}

impl Outcome {
    /// Stable lowercase label used in JSON and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Timeout => "timeout",
            Outcome::LintReject => "lint-reject",
            Outcome::Error => "error",
            Outcome::Internal => "internal",
        }
    }

    fn code(self) -> u8 {
        match self {
            Outcome::Ok => 0,
            Outcome::Timeout => 1,
            Outcome::LintReject => 2,
            Outcome::Error => 3,
            Outcome::Internal => 4,
        }
    }

    fn from_code(code: u8) -> Option<Outcome> {
        Some(match code {
            0 => Outcome::Ok,
            1 => Outcome::Timeout,
            2 => Outcome::LintReject,
            3 => Outcome::Error,
            4 => Outcome::Internal,
            _ => return None,
        })
    }
}

/// One named stage timing, copied from the session profile or measured
/// around the worker's evaluation calls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (`parse`, `transform`, `extract`, `probability`, ...).
    pub name: String,
    /// Wall time spent in the stage, microseconds.
    pub wall_us: u64,
}

/// One request's full cost accounting. Counter fields are deltas over
/// the request, read from process-global counters before and after the
/// worker ran; under concurrency they are attributions, not exact
/// isolations (same caveat as the `profile` op).
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Unix milliseconds when the request finished.
    pub ts_ms: u64,
    /// Trace id — client-supplied and therefore hostile text.
    pub trace: String,
    /// Request class (`probability`, `provenance`, ... or `malformed`).
    pub class: String,
    /// Evaluation mode the request ran under (`naive` / `demand`).
    pub eval_mode: String,
    /// FNV-1a-64 of the query text; 0 when the op carries no query.
    pub query_hash: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Time spent waiting in the job queue, microseconds.
    pub queue_wait_us: u64,
    /// Time spent executing in a worker, microseconds.
    pub execute_us: u64,
    /// End-to-end handler time, microseconds.
    pub total_us: u64,
    /// Per-stage wall-time split of `execute_us`.
    pub stages: Vec<StageTiming>,
    /// Tuples derived by rule evaluation during this request.
    pub derived_tuples: u64,
    /// Monomials in the answer's DNF provenance (0 if none computed).
    pub dnf_monomials: u64,
    /// Total literals across those monomials — the DNF "width".
    pub dnf_literals: u64,
    /// Session memo hits during this request.
    pub session_hits: u64,
    /// Session memo misses during this request.
    pub session_misses: u64,
    /// Provenance records flushed to the durable store by this request.
    pub store_records: u64,
    /// Extraction-memo hits during this request.
    pub extract_memo_hits: u64,
    /// Extraction-memo misses during this request.
    pub extract_memo_misses: u64,
    /// Measured rule cost (join candidates + firings + derived tuples)
    /// this request added — nonzero only when the request forced an
    /// evaluation, so cold queries rank high under `--by rule_cost`.
    pub rule_cost: u64,
    /// The costliest source rules of the evaluations this request forced,
    /// as `(label, cost)` pairs, at most [`MAX_TOP_RULES`].
    pub top_rules: Vec<(String, u64)>,
}

impl Default for AuditRecord {
    fn default() -> Self {
        AuditRecord {
            ts_ms: 0,
            trace: String::new(),
            class: String::new(),
            eval_mode: String::new(),
            query_hash: 0,
            outcome: Outcome::Error,
            queue_wait_us: 0,
            execute_us: 0,
            total_us: 0,
            stages: Vec::new(),
            derived_tuples: 0,
            dnf_monomials: 0,
            dnf_literals: 0,
            session_hits: 0,
            session_misses: 0,
            store_records: 0,
            extract_memo_hits: 0,
            extract_memo_misses: 0,
            rule_cost: 0,
            top_rules: Vec::new(),
        }
    }
}

/// The cost key that ranks audit records: `audit-top`, `GET /audit/top`
/// and `p3 audit --top` all sort by one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKey {
    /// Total request latency (queue wait + execute), µs.
    Latency,
    /// Derived tuples materialised while answering.
    Tuples,
    /// DNF width: total literal count across monomials.
    DnfWidth,
    /// Measured rule cost the request added (join candidates + firings +
    /// derived tuples) — ranks requests that forced evaluations.
    RuleCost,
}

impl AuditKey {
    /// Every spelling [`parse`](Self::parse) accepts, for error messages.
    pub const EXPECTED: &'static str = "latency|tuples|dnf_width|rule_cost";

    /// Parses the spelling shared by the wire, query strings and the CLI.
    pub fn parse(s: &str) -> Result<AuditKey, String> {
        [Self::Latency, Self::Tuples, Self::DnfWidth, Self::RuleCost]
            .into_iter()
            .find(|key| key.as_str() == s)
            .ok_or_else(|| format!("unknown audit key '{s}' (expected {})", Self::EXPECTED))
    }

    /// The canonical spelling, echoed back in responses.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKey::Latency => "latency",
            AuditKey::Tuples => "tuples",
            AuditKey::DnfWidth => "dnf_width",
            AuditKey::RuleCost => "rule_cost",
        }
    }

    /// The value `record` ranks by under this key; larger is costlier.
    pub fn key(self, record: &AuditRecord) -> u64 {
        match self {
            AuditKey::Latency => record.total_us,
            AuditKey::Tuples => record.derived_tuples,
            AuditKey::DnfWidth => record.dnf_literals,
            AuditKey::RuleCost => record.rule_cost,
        }
    }
}

impl AuditRecord {
    /// Encodes the record into the shared frame payload format.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(128);
        self.encode_payload_into(&mut p);
        p
    }

    /// Appends the encoded payload to `p` — the allocation-free form the
    /// log's hot append path uses with a reusable scratch buffer.
    pub fn encode_payload_into(&self, p: &mut Vec<u8>) {
        p.push(TAG_V2);
        put_u64(p, self.ts_ms);
        put_u64(p, self.query_hash);
        p.push(self.outcome.code());
        put_u64(p, self.queue_wait_us);
        put_u64(p, self.execute_us);
        put_u64(p, self.total_us);
        put_u64(p, self.derived_tuples);
        put_u64(p, self.dnf_monomials);
        put_u64(p, self.dnf_literals);
        put_u64(p, self.session_hits);
        put_u64(p, self.session_misses);
        put_u64(p, self.store_records);
        put_u64(p, self.extract_memo_hits);
        put_u64(p, self.extract_memo_misses);
        put_str(p, &self.trace);
        put_str(p, &self.class);
        put_str(p, &self.eval_mode);
        put_u32(p, self.stages.len() as u32);
        for stage in &self.stages {
            put_str(p, &stage.name);
            put_u64(p, stage.wall_us);
        }
        // V2 extension: rule-cost attribution.
        put_u64(p, self.rule_cost);
        put_u32(p, self.top_rules.len().min(MAX_TOP_RULES) as u32);
        for (label, cost) in self.top_rules.iter().take(MAX_TOP_RULES) {
            put_str(p, label);
            put_u64(p, *cost);
        }
    }

    /// Decodes a payload produced by [`AuditRecord::encode_payload`].
    /// `None` on any malformation (wrong tag, truncation, bad UTF-8,
    /// trailing garbage).
    pub fn decode_payload(payload: &[u8]) -> Option<AuditRecord> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        if tag != TAG_V1 && tag != TAG_V2 {
            return None;
        }
        let ts_ms = r.u64()?;
        let query_hash = r.u64()?;
        let outcome = Outcome::from_code(r.u8()?)?;
        let queue_wait_us = r.u64()?;
        let execute_us = r.u64()?;
        let total_us = r.u64()?;
        let derived_tuples = r.u64()?;
        let dnf_monomials = r.u64()?;
        let dnf_literals = r.u64()?;
        let session_hits = r.u64()?;
        let session_misses = r.u64()?;
        let store_records = r.u64()?;
        let extract_memo_hits = r.u64()?;
        let extract_memo_misses = r.u64()?;
        let trace = r.string()?;
        let class = r.string()?;
        let eval_mode = r.string()?;
        let n = r.u32()? as usize;
        let mut stages = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = r.string()?;
            let wall_us = r.u64()?;
            stages.push(StageTiming { name, wall_us });
        }
        let (rule_cost, top_rules) = if tag >= TAG_V2 {
            let rule_cost = r.u64()?;
            let n = r.u32()? as usize;
            if n > MAX_TOP_RULES {
                return None;
            }
            let mut top_rules = Vec::with_capacity(n);
            for _ in 0..n {
                let label = r.string()?;
                let cost = r.u64()?;
                top_rules.push((label, cost));
            }
            (rule_cost, top_rules)
        } else {
            (0, Vec::new())
        };
        let record = AuditRecord {
            ts_ms,
            trace,
            class,
            eval_mode,
            query_hash,
            outcome,
            queue_wait_us,
            execute_us,
            total_us,
            stages,
            derived_tuples,
            dnf_monomials,
            dnf_literals,
            session_hits,
            session_misses,
            store_records,
            extract_memo_hits,
            extract_memo_misses,
            rule_cost,
            top_rules,
        };
        r.done().then_some(record)
    }

    /// The record as its one JSON object — the shape served by `GET
    /// /audit`, `audit-tail` and `audit-top` and printed by `p3 audit
    /// --json`. Hostile trace text is escaped by the encoder like every
    /// other string, so it cannot break the emitted JSON.
    pub fn to_value(&self) -> Value {
        let stages = self.stages.iter().map(|stage| {
            Value::object(vec![
                ("name", stage.name.as_str().into()),
                ("wall_us", stage.wall_us.into()),
            ])
        });
        let top_rules = self.top_rules.iter().map(|(rule, cost)| {
            Value::object(vec![
                ("rule", rule.as_str().into()),
                ("cost", (*cost).into()),
            ])
        });
        Value::object(vec![
            ("ts_ms", self.ts_ms.into()),
            ("trace", self.trace.as_str().into()),
            ("class", self.class.as_str().into()),
            ("eval_mode", self.eval_mode.as_str().into()),
            ("query_hash", format!("{:016x}", self.query_hash).into()),
            ("outcome", self.outcome.label().into()),
            ("queue_wait_us", self.queue_wait_us.into()),
            ("execute_us", self.execute_us.into()),
            ("total_us", self.total_us.into()),
            ("stages", stages.collect()),
            ("derived_tuples", self.derived_tuples.into()),
            ("dnf_monomials", self.dnf_monomials.into()),
            ("dnf_literals", self.dnf_literals.into()),
            ("session_hits", self.session_hits.into()),
            ("session_misses", self.session_misses.into()),
            ("store_records", self.store_records.into()),
            ("extract_memo_hits", self.extract_memo_hits.into()),
            ("extract_memo_misses", self.extract_memo_misses.into()),
            ("rule_cost", self.rule_cost.into()),
            ("top_rules", top_rules.collect()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> AuditRecord {
        AuditRecord {
            ts_ms: 1_700_000_000_123,
            trace: "tr-0042".into(),
            class: "probability".into(),
            eval_mode: "demand".into(),
            query_hash: fnv1a_64(r#"know("Ben","Elena")"#),
            outcome: Outcome::Ok,
            queue_wait_us: 85,
            execute_us: 1200,
            total_us: 1402,
            stages: vec![
                StageTiming {
                    name: "extract".into(),
                    wall_us: 900,
                },
                StageTiming {
                    name: "probability".into(),
                    wall_us: 300,
                },
            ],
            derived_tuples: 57,
            dnf_monomials: 3,
            dnf_literals: 8,
            session_hits: 1,
            session_misses: 2,
            store_records: 4,
            extract_memo_hits: 10,
            extract_memo_misses: 5,
            rule_cost: 312,
            top_rules: vec![("r3".into(), 200), ("r1".into(), 80)],
        }
    }

    #[test]
    fn payload_round_trips() {
        let record = sample();
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn hostile_trace_round_trips() {
        let mut record = sample();
        record.trace = "line1\nline2\t\"quoted\\\" \u{1F4A3} \u{0000}bell\u{0007}".into();
        record.outcome = Outcome::Timeout;
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = sample().encode_payload();
        for cut in 0..payload.len() {
            assert!(
                AuditRecord::decode_payload(&payload[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn v1_payloads_still_decode_with_default_rule_cost() {
        // Re-encode the sample in the V1 layout by hand: V2 minus the
        // trailing rule-cost block, with a V1 tag.
        let record = sample();
        let v2 = record.encode_payload();
        let mut rule_block = Vec::new();
        put_u64(&mut rule_block, record.rule_cost);
        put_u32(&mut rule_block, record.top_rules.len() as u32);
        for (label, cost) in &record.top_rules {
            put_str(&mut rule_block, label);
            put_u64(&mut rule_block, *cost);
        }
        let mut v1 = v2[..v2.len() - rule_block.len()].to_vec();
        v1[0] = TAG_V1;
        let decoded = AuditRecord::decode_payload(&v1).unwrap();
        assert_eq!(decoded.rule_cost, 0);
        assert!(decoded.top_rules.is_empty());
        assert_eq!(decoded.class, record.class);
        assert_eq!(decoded.stages, record.stages);
    }

    #[test]
    fn oversized_top_rules_list_is_rejected_and_encode_caps() {
        let mut record = sample();
        record.top_rules = (0..10).map(|i| (format!("r{i}"), i as u64)).collect();
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded.top_rules.len(), MAX_TOP_RULES, "encode caps");
        // A payload claiming more than MAX_TOP_RULES entries is corrupt.
        let mut payload = sample().encode_payload();
        let count_at = payload.len()
            - sample()
                .top_rules
                .iter()
                .map(|(l, _)| 4 + l.len() + 8)
                .sum::<usize>()
            - 4;
        payload[count_at..count_at + 4].copy_from_slice(&(MAX_TOP_RULES as u32 + 1).to_le_bytes());
        assert!(AuditRecord::decode_payload(&payload).is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = sample().encode_payload();
        payload.push(0);
        assert!(AuditRecord::decode_payload(&payload).is_none());
    }

    #[test]
    fn json_is_escaped_and_parseable_shape() {
        let mut record = sample();
        record.trace = "a\"b\\c\nd\u{0001}e".into();
        let json = record.to_value().to_json();
        assert!(json.contains(r#""trace":"a\"b\\c\nd\u0001e""#), "{json}");
        // No raw control characters may survive into the JSON text.
        assert!(json.chars().all(|c| (c as u32) >= 0x20), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Ok.label(), "ok");
        assert_eq!(Outcome::Timeout.label(), "timeout");
        assert_eq!(Outcome::LintReject.label(), "lint-reject");
        assert_eq!(Outcome::Error.label(), "error");
        assert_eq!(Outcome::Internal.label(), "internal");
        for code in 0..5 {
            let o = Outcome::from_code(code).unwrap();
            assert_eq!(o.code(), code);
        }
        assert!(Outcome::from_code(9).is_none());
    }
}
