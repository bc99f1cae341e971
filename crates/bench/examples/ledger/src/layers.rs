//! The per-layer metrics of a traced run, in one fixed list so that every
//! workload reports every metric.
//!
//! Times (ms) are given only for layers that every workload runs, so none
//! of them is idle by construction. Layers that some workloads never
//! reach (the demand transform, the query classes, the service) are
//! reported as shares of the traced request time, and their work as
//! counts: an idle layer then reads 0 as a ratio or count, never as a
//! time.

use crate::common::Outcome;

#[derive(Default)]
pub struct PerLayer {
    /// Program load gate per set-up: lint, parse, validate, session.
    pub load_ms: f64,
    /// `Program::parse` per set-up (part of `load_ms`).
    pub parse_ms: f64,
    /// Mean traced request time.
    pub request_ms: f64,
    /// Mean self time per request. For naive workloads the model is
    /// forced at set-up; `engine_ms`, `capture_ms` and `analysis_ms` then
    /// report that set-up work divided by the requests it serves.
    pub resolve_ms: f64,
    pub engine_ms: f64,
    pub capture_ms: f64,
    pub analysis_ms: f64,
    pub extract_ms: f64,
    pub intern_ms: f64,
    pub prob_ms: f64,
    /// Shares of the traced request time.
    pub transform_share: f64,
    pub derivation_share: f64,
    pub influence_share: f64,
    pub modification_share: f64,
    pub explanation_share: f64,
    pub protocol_share: f64,
    pub server_queue_share: f64,
    pub server_execute_share: f64,
    /// Execution time of one request, queueing and transport excluded:
    /// the server's `execute_us` when served, the traced request in
    /// process.
    pub execute_ms_p50: f64,
    pub execute_ms_p99: f64,
    /// Work counts, per request.
    pub transform_rules: f64,
    pub engine_tuples: f64,
    pub engine_firings: f64,
    pub capture_execs: f64,
    pub extract_monomials: f64,
    pub extract_literals: f64,
    pub dnf_max_monomials: f64,
    pub intern_hit_ratio: f64,
    pub session_hit_ratio: f64,
    pub session_evictions: f64,
    pub protocol_bytes: f64,
    pub audit_bytes_per_req: f64,
    pub store_bytes_per_req: f64,
    /// Share of the request time that the named layers account for.
    pub attributed_ratio: f64,
    /// Traced request time over untraced request time, minus one.
    pub trace_overhead_ratio: f64,
    pub alloc_count_per_req: f64,
    pub alloc_bytes_per_req: f64,
}

impl PerLayer {
    pub fn report(&self, out: &mut Outcome) {
        let rows: [(&'static str, f64, &'static str); 37] = [
            ("load.ms", self.load_ms, "ms"),
            ("parse.ms", self.parse_ms, "ms"),
            ("request.ms", self.request_ms, "ms"),
            ("resolve.ms", self.resolve_ms, "ms"),
            ("engine.ms", self.engine_ms, "ms"),
            ("capture.ms", self.capture_ms, "ms"),
            ("analysis.ms", self.analysis_ms, "ms"),
            ("extract.ms", self.extract_ms, "ms"),
            ("intern.ms", self.intern_ms, "ms"),
            ("prob.ms", self.prob_ms, "ms"),
            ("transform.share", self.transform_share, "ratio"),
            ("derivation.share", self.derivation_share, "ratio"),
            ("influence.share", self.influence_share, "ratio"),
            ("modification.share", self.modification_share, "ratio"),
            ("explanation.share", self.explanation_share, "ratio"),
            ("protocol.share", self.protocol_share, "ratio"),
            ("server.queue_share", self.server_queue_share, "ratio"),
            ("server.execute_share", self.server_execute_share, "ratio"),
            ("server.execute_ms_p50", self.execute_ms_p50, "ms"),
            ("server.execute_ms_p99", self.execute_ms_p99, "ms"),
            ("transform.rules", self.transform_rules, "count"),
            ("engine.tuples", self.engine_tuples, "count"),
            ("engine.firings", self.engine_firings, "count"),
            ("capture.execs", self.capture_execs, "count"),
            ("extract.monomials", self.extract_monomials, "count"),
            ("extract.literals", self.extract_literals, "count"),
            ("dnf.max_monomials", self.dnf_max_monomials, "count"),
            ("intern.hit_ratio", self.intern_hit_ratio, "ratio"),
            ("session.hit_ratio", self.session_hit_ratio, "ratio"),
            ("session.evictions", self.session_evictions, "count"),
            ("protocol.bytes", self.protocol_bytes, "bytes"),
            ("audit.bytes_per_req", self.audit_bytes_per_req, "bytes"),
            ("store.bytes_per_req", self.store_bytes_per_req, "bytes"),
            ("attributed_ratio", self.attributed_ratio, "ratio"),
            ("trace_overhead_ratio", self.trace_overhead_ratio, "ratio"),
            ("alloc.count_per_req", self.alloc_count_per_req, "count"),
            ("alloc.bytes_per_req", self.alloc_bytes_per_req, "bytes"),
        ];
        for (name, value, unit) in rows {
            out.metric(name, value, unit);
        }
    }
}
