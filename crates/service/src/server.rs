//! The query server: accept loops → bounded queue → worker pool.
//!
//! One [`Server`] owns one [`P3`] + [`QuerySession`] and serves the whole
//! query suite over newline-delimited JSON on TCP and/or Unix-domain
//! sockets. The moving parts:
//!
//! * **accept loops** (one thread per listener) hand each connection to a
//!   handler thread;
//! * **handlers** parse request lines and answer the ops whose
//!   [`OPS`](crate::protocol::OPS) row is `inline` (`ping`, `stats`,
//!   `shutdown`, …) themselves — they must work even when the queue is
//!   saturated;
//! * **every other op** goes through a bounded `JobQueue` drained by a
//!   fixed worker pool (size from `P3_THREADS` when not configured) whose
//!   workers share the session's memo tables, so one client's computation
//!   warms every other client's cache;
//! * **deadlines**: a request's `timeout_ms` arms a per-request deadline.
//!   The handler acts as the watchdog — it waits for the worker's answer
//!   only until the deadline and then reports `"timeout"` instead of
//!   hanging the connection; an expired job still in the queue is skipped
//!   by the worker that dequeues it (no dead work);
//! * **graceful shutdown** (SIGTERM in `p3-serve`, or a `shutdown`
//!   request): new connections are refused, queued work drains, workers
//!   and accept loops join, in that order.

use crate::json::Value;
use crate::protocol::{Op, Request, Response};
use crate::stats::{Outcome, ServiceStats};
use p3_audit::{AuditKey, AuditLog, AuditRecord, StageTiming};
use p3_core::{
    EvalMode, QueryAnswer, QueryClass, QueryReport, QuerySession, SessionOptions, WarmRestore, P3,
};
use p3_datalog::explain::ExplainPlan;
use p3_obs::slo::{SloConfig, SloEngine};
use p3_provenance::extract::ExtractOptions;
use p3_store::{FileBackend, RecoveryReport, StorageBackend};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often accept loops and shutdown polls re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0` for an ephemeral port); `None`
    /// disables TCP.
    pub tcp: Option<String>,
    /// Unix-domain socket path; `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// HTTP admin-plane bind address (`/metrics`, `/healthz`, `/readyz`,
    /// `/traces`, `/profile` — see the `admin` module); `None` disables it.
    pub admin: Option<String>,
    /// Worker pool size; `0` = auto (the `P3_THREADS` convention, see
    /// [`p3_prob::parallel::default_threads`]).
    pub workers: usize,
    /// Bounded request-queue capacity; producers block (with deadline) when
    /// it is full.
    pub queue_cap: usize,
    /// Per-table session cache cap ([`SessionOptions::max_entries`]).
    pub cache_cap: Option<usize>,
    /// Default evaluation mode for query ops ([`SessionOptions::eval_mode`]);
    /// requests override it per-query with `"eval_mode"`.
    pub eval_mode: EvalMode,
    /// Deadline applied to requests that don't carry `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Requests slower than this many milliseconds are logged at `warn`
    /// level and counted in `p3_service_slow_requests_total`; `None`
    /// disables the slow-query log.
    pub slow_ms: Option<u64>,
    /// Persistent-store directory (`p3-serve --store-dir`): provenance
    /// state is journaled there and replayed on the next start for a warm
    /// boot. `None` serves from memory only.
    pub store_dir: Option<PathBuf>,
    /// Content hash of the served program (see [`p3_store::content_hash`]);
    /// a store written for a different hash is discarded as stale rather
    /// than replayed. Only read when `store_dir` is set.
    pub store_fingerprint: Option<u64>,
    /// Per-request audit log (`p3-serve --audit-dir`): every request
    /// appends one crash-safe [`AuditRecord`] to a bounded segment ring.
    /// `None` disables auditing (the in-memory SLO engine still runs).
    pub audit: Option<p3_audit::AuditConfig>,
    /// Latency objectives tracked by the SLO engine, one per request
    /// class. Defaults to [`default_slos`]; later entries override
    /// earlier ones per class, so CLI `--slo` specs layer on top.
    pub slos: Vec<SloConfig>,
    /// When set, a tripped 5-minute (fast) burn window turns `/readyz`
    /// into a 503 so load balancers shed traffic. Off by default —
    /// flipping readiness on an SLO is an operator's opt-in call.
    pub slo_readyz: bool,
}

/// The built-in latency objectives: each query class gets 99% of
/// requests OK within 500 ms. `--slo CLASS:TARGET_MS:OBJECTIVE` specs
/// replace the matching class (last wins).
pub fn default_slos() -> Vec<SloConfig> {
    [
        "probability",
        "explanation",
        "derivation",
        "influence",
        "modification",
    ]
    .iter()
    .map(|class| SloConfig {
        class: (*class).to_string(),
        target_ms: 500,
        objective: 0.99,
    })
    .collect()
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tcp: None,
            unix: None,
            admin: None,
            workers: 0,
            queue_cap: 256,
            cache_cap: None,
            eval_mode: EvalMode::Auto,
            default_timeout_ms: None,
            slow_ms: None,
            store_dir: None,
            store_fingerprint: None,
            audit: None,
            slos: default_slos(),
            slo_readyz: false,
        }
    }
}

/// Milliseconds since the unix epoch — the timestamp domain shared by
/// audit records and the SLO engine's rolling windows.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// One unit of queued work.
struct Job {
    op: Op,
    /// The op's name, for the worker's `execute` span.
    class: &'static str,
    hop_limit: Option<usize>,
    eval_mode: Option<EvalMode>,
    deadline: Option<Instant>,
    /// When the handler enqueued the job, for the queue-wait/execute
    /// split in the slow-request log.
    enqueued: Instant,
    /// Id of the request's root span, so the worker can parent its
    /// `execute` span across the thread hop (0 = tracing disabled).
    root_span: u64,
    reply: mpsc::SyncSender<Reply>,
}

/// A worker's reply: the op result plus the request's audit record with
/// every worker-side fact filled in — queue wait, execution time, stages,
/// cache deltas, DNF width and the costs of the evaluations the op forced.
/// The handler adds the envelope (timestamp, trace, class, outcome, total
/// latency).
struct Reply {
    result: Result<Value, String>,
    record: AuditRecord,
}

/// Runs `f` as one named stage of `record`.
fn timed<T>(record: &mut AuditRecord, name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    record.stages.push(StageTiming {
        name: name.to_string(),
        wall_us: micros(start.elapsed()),
    });
    out
}

/// A duration in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Takes `record`'s evaluation costs from the evaluations the request
/// forced: derived tuples, rule cost and the costliest rules.
fn audit_evaluations(record: &mut AuditRecord, plans: &[ExplainPlan]) {
    record.derived_tuples = plans.iter().map(ExplainPlan::derived_tuples).sum();
    record.rule_cost = plans.iter().map(ExplainPlan::total_cost).sum();
    record.top_rules = p3_datalog::explain::top_rules(plans, p3_audit::MAX_TOP_RULES);
}

/// Fills `record` from a query's report — the audit record is a view of
/// it. Resolution (`parse`, `transform`, `extract`) folds into one
/// `extract` stage ahead of the class's own stages; the cache totals, the
/// DNF width and the forced evaluations' costs carry over.
fn audit_report(record: &mut AuditRecord, report: &QueryReport) {
    for stage in &report.stages {
        let name = match stage.name {
            "parse" | "transform" => "extract",
            other => other,
        };
        match record.stages.last_mut() {
            Some(last) if last.name == name => last.wall_us += stage.wall_us,
            _ => record.stages.push(StageTiming {
                name: name.to_string(),
                wall_us: stage.wall_us,
            }),
        }
    }
    let cache = report.cache();
    record.session_hits = cache.session_hits;
    record.session_misses = cache.session_misses;
    record.extract_memo_hits = cache.extract_memo_hits;
    record.extract_memo_misses = cache.extract_memo_misses;
    record.dnf_monomials = report.dnf_monomials;
    record.dnf_literals = report.dnf_literals;
    audit_evaluations(record, &report.evaluations);
}

/// Sets the queue-depth saturation gauge (also a `readyz` input).
fn set_queue_depth_gauge(depth: usize) {
    p3_obs::gauge!(
        "p3_service_queue_depth",
        "Jobs currently waiting in the bounded request queue"
    )
    .set(depth as i64);
}

/// Sets the busy-workers saturation gauge (also a `readyz` input).
fn set_workers_busy_gauge(busy: usize) {
    p3_obs::gauge!(
        "p3_service_workers_busy",
        "Workers currently executing a job"
    )
    .set(busy as i64);
}

/// A bounded MPMC queue: producers block (until a deadline) when full,
/// workers block when empty, and `close()` lets queued work drain while
/// refusing new pushes.
struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

enum PushError {
    /// The queue stayed full past the caller's deadline.
    DeadlineExpired,
    /// The server is shutting down.
    Closed,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `job`, waiting while the queue is full — but no longer than
    /// the job's own deadline (backpressure must not outlive the request).
    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.jobs.len() < self.cap {
                inner.jobs.push_back(job);
                set_queue_depth_gauge(inner.jobs.len());
                self.not_empty.notify_one();
                return Ok(());
            }
            let wait = match job.deadline {
                None => {
                    inner = self.not_full.wait(inner).unwrap();
                    continue;
                }
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => left,
                    _ => return Err(PushError::DeadlineExpired),
                },
            };
            let (guard, timeout) = self.not_full.wait_timeout(inner, wait).unwrap();
            inner = guard;
            if timeout.timed_out() && inner.jobs.len() >= self.cap {
                return Err(PushError::DeadlineExpired);
            }
        }
    }

    /// Dequeues the next job; `None` once the queue is closed **and**
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                set_queue_depth_gauge(inner.jobs.len());
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Refuses new pushes; queued jobs still drain.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}

/// State shared by handlers, workers, and the HTTP admin plane.
pub(crate) struct Shared {
    /// Swapped wholesale by `load-program`; every request clones the
    /// current session handle (cheap — `Arc` bumps).
    session: RwLock<QuerySession>,
    /// Sessions for per-request `eval_mode` overrides, created lazily over
    /// the *same* `P3` as the default session (so evaluation results and
    /// the DNF store are shared); cleared by `load-program`.
    sessions_by_mode: RwLock<HashMap<EvalMode, QuerySession>>,
    cache_cap: Option<usize>,
    /// The configured default evaluation mode, applied to the session built
    /// at startup and after every `load-program`.
    eval_mode: EvalMode,
    stats: ServiceStats,
    queue: JobQueue,
    shutdown: AtomicBool,
    workers: usize,
    queue_cap: usize,
    /// Workers currently executing a job (not blocked on `pop`).
    workers_busy: AtomicUsize,
    default_timeout_ms: Option<u64>,
    slow_ms: Option<u64>,
    started: Instant,
    /// The persistent provenance store, when `--store-dir` is configured.
    store: Option<StoreCtx>,
    /// The per-request audit log, when `--audit-dir` is configured.
    audit: Option<AuditLog>,
    /// Rolling-window latency objectives; always on (in-memory only).
    slo: SloEngine,
    /// Whether a tripped fast-burn window fails `readyz`.
    slo_readyz: bool,
}

/// The persistent store attached at startup, plus what its recovery and
/// warm-boot replay found — frozen so `warm` can report it later.
pub(crate) struct StoreCtx {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
    report: RecoveryReport,
    restore: WarmRestore,
    /// Cleared by `load-program`: the store is keyed to the boot-time
    /// program's content hash, so journaling stops once the server is
    /// given a different program.
    active: AtomicBool,
}

impl Shared {
    pub(crate) fn current_session(&self) -> QuerySession {
        self.session.read().unwrap().clone()
    }

    /// The store, unless it was never configured or `load-program`
    /// detached it.
    fn active_store(&self) -> Option<&StoreCtx> {
        self.store
            .as_ref()
            .filter(|s| s.active.load(Ordering::SeqCst))
    }

    /// The session a query op runs against: the default session, unless the
    /// request carried an `eval_mode` override — then a session with that
    /// mode over the same `P3` (created on first use, cached until the next
    /// `load-program`).
    ///
    /// An `auto` override is resolved through [`EvalMode::decide`] — the
    /// same single decision point the default session used — *before* the
    /// cache lookup, so the per-query path can never reach a different
    /// answer than the session path, and a redundant override (resolving
    /// to the mode the default session already runs) reuses that session
    /// instead of building a second one.
    fn session_for(&self, mode: Option<EvalMode>) -> QuerySession {
        let Some(mode) = mode else {
            return self.current_session();
        };
        let current = self.current_session();
        let resolved = mode.decide(current.p3().program()).mode;
        if resolved == current.eval_mode() {
            return current;
        }
        if let Some(session) = self.sessions_by_mode.read().unwrap().get(&resolved) {
            return session.clone();
        }
        let session = current.p3().session_with(SessionOptions {
            max_entries: self.cache_cap,
            eval_mode: resolved,
        });
        self.sessions_by_mode
            .write()
            .unwrap()
            .entry(resolved)
            .or_insert(session)
            .clone()
    }

    /// Installs a freshly loaded program: swaps the default session and
    /// drops the per-mode override sessions (they wrap the old `P3`).
    fn install_session(&self, session: QuerySession) {
        let mut current = self.session.write().unwrap();
        self.sessions_by_mode.write().unwrap().clear();
        *current = session;
    }

    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The queue depth at which the server stops advertising readiness:
    /// 90% of capacity, so load balancers drain traffic *before* pushes
    /// start blocking.
    fn queue_high_water(&self) -> usize {
        (self.queue_cap * 9 / 10).max(1)
    }

    /// The `readyz` decision: ready unless shutting down, the worker pool
    /// is gone, or the server is saturated (queue at its high-water mark
    /// **and** every worker busy — a deep queue alone is fine while
    /// workers are still picking jobs up).
    pub(crate) fn readiness(&self) -> Result<(), String> {
        if self.shutting_down() {
            return Err("shutting down".to_string());
        }
        if self.workers == 0 {
            return Err("no workers".to_string());
        }
        let depth = self.queue.depth();
        let busy = self.workers_busy.load(Ordering::SeqCst);
        let high_water = self.queue_high_water();
        if depth >= high_water && busy >= self.workers {
            return Err(format!(
                "saturated: queue_depth={depth} >= high_water={high_water}, \
                 workers_busy={busy}/{}",
                self.workers
            ));
        }
        if self.slo_readyz && self.slo.any_fast_trip(unix_ms()) {
            return Err("SLO fast-burn window tripped (--slo-readyz)".to_string());
        }
        Ok(())
    }
}

/// A running query server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or let a `shutdown` request / SIGTERM do it) and
/// then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    admin_addr: Option<SocketAddr>,
    accept_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured listeners, spawns the worker pool and starts
    /// accepting. At least one of `tcp`/`unix` must be set.
    pub fn start(p3: P3, config: ServerConfig) -> std::io::Result<Server> {
        if config.tcp.is_none() && config.unix.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "server needs a TCP address or a Unix socket path",
            ));
        }
        let workers = if config.workers == 0 {
            // Surface a bad P3_THREADS as a bind-time error, not a panic.
            if let Err(msg) = p3_prob::parallel::threads_from_env() {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
            }
            p3_prob::parallel::default_threads()
        } else {
            config.workers
        };
        p3_obs::process::init(
            env!("CARGO_PKG_VERSION"),
            option_env!("P3_BUILD_GIT").unwrap_or("unknown"),
        );
        let audit = match &config.audit {
            None => None,
            Some(cfg) => {
                p3_audit::log::register_metrics();
                let log = AuditLog::open(cfg.clone())?;
                let stats = log.stats();
                p3_obs::info!(
                    "audit log open",
                    dir = cfg.dir.display(),
                    recovered = stats.records_recovered,
                    segments = stats.segments,
                    truncations = stats.recovery_truncations
                );
                Some(log)
            }
        };
        let session = p3.session_with(SessionOptions {
            max_entries: config.cache_cap,
            eval_mode: config.eval_mode,
        });
        let mut store = None;
        if let Some(dir) = &config.store_dir {
            let opened = FileBackend::open(dir, config.store_fingerprint.unwrap_or(0))?;
            let restore = session.restore_records(&opened.records);
            let backend: Arc<dyn StorageBackend> = Arc::new(opened.backend);
            session.attach_store(Arc::clone(&backend));
            p3_obs::info!(
                "store warm boot",
                dir = dir.display(),
                formulas = restore.formulas,
                dnf_memos = restore.dnf_memos,
                prob_memos = restore.prob_memos,
                skipped = restore.skipped,
                stale = opened.report.stale,
                truncations = opened.report.truncations
            );
            store = Some(StoreCtx {
                backend,
                dir: dir.clone(),
                report: opened.report,
                restore,
                active: AtomicBool::new(true),
            });
        }
        let shared = Arc::new(Shared {
            session: RwLock::new(session),
            sessions_by_mode: RwLock::new(HashMap::new()),
            cache_cap: config.cache_cap,
            eval_mode: config.eval_mode,
            stats: ServiceStats::new(),
            queue: JobQueue::new(config.queue_cap),
            shutdown: AtomicBool::new(false),
            workers,
            queue_cap: config.queue_cap.max(1),
            workers_busy: AtomicUsize::new(0),
            default_timeout_ms: config.default_timeout_ms,
            slow_ms: config.slow_ms,
            started: Instant::now(),
            store,
            audit,
            slo: SloEngine::new(config.slos.clone()),
            slo_readyz: config.slo_readyz,
        });
        // Register every gauge family up front so the first scrape sees
        // them even before the first request.
        refresh_gauges(&shared);

        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            accept_threads.push(
                std::thread::Builder::new()
                    .name("p3-accept-tcp".into())
                    .spawn(move || accept_loop_tcp(listener, shared))?,
            );
        }
        let mut unix_path = None;
        if let Some(path) = &config.unix {
            // A stale socket file from a previous run would fail the bind.
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            let shared = Arc::clone(&shared);
            accept_threads.push(
                std::thread::Builder::new()
                    .name("p3-accept-unix".into())
                    .spawn(move || accept_loop_unix(listener, shared))?,
            );
        }

        let mut admin_addr = None;
        if let Some(addr) = &config.admin {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            admin_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            accept_threads.push(
                std::thread::Builder::new()
                    .name("p3-admin".into())
                    .spawn(move || crate::admin::accept_loop(listener, shared))?,
            );
        }

        let worker_threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("p3-worker-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            shared,
            tcp_addr,
            unix_path,
            admin_addr,
            accept_threads,
            worker_threads,
        })
    }

    /// The bound admin-plane address (with the ephemeral port resolved),
    /// if the HTTP admin plane is enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The bound TCP address (with the ephemeral port resolved), if TCP is
    /// enabled.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, if enabled.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Whether shutdown has been initiated (by [`Server::shutdown`] or a
    /// client's `shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Initiates graceful shutdown: refuse new connections and pushes, let
    /// queued work drain.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until shutdown is initiated — by a client's `shutdown`
    /// request or by `external` turning true (e.g. a SIGTERM flag) — then
    /// drains and joins everything.
    pub fn serve_until_shutdown(self, external: &AtomicBool) {
        while !self.shared.shutting_down() {
            if external.load(Ordering::Relaxed) {
                self.shared.initiate_shutdown();
                break;
            }
            std::thread::sleep(POLL);
        }
        self.join();
    }

    /// Waits for accept loops and workers to finish. Call after
    /// [`Server::shutdown`] (or a client-initiated shutdown), otherwise
    /// this blocks until one happens.
    pub fn join(self) {
        for t in self.accept_threads {
            let _ = t.join();
        }
        for t in self.worker_threads {
            let _ = t.join();
        }
        // Workers are gone, so the session is quiescent: compact the
        // persistent store so the next boot replays one clean snapshot
        // instead of the whole journal tail.
        if let Some(store) = self.shared.active_store() {
            let records = self.shared.current_session().export_records();
            if let Err(e) = store
                .backend
                .snapshot(&records)
                .and_then(|()| store.backend.flush())
            {
                p3_obs::warn!(
                    "final store compaction failed",
                    dir = store.dir.display(),
                    error = e.to_string()
                );
            }
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_loop_tcp(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("p3-conn".into())
                    .spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        handle_connection(BufReader::new(reader), stream, shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn accept_loop_unix(listener: UnixListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("p3-conn".into())
                    .spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        handle_connection(BufReader::new(reader), stream, shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Serves one connection until EOF, write failure, or shutdown.
fn handle_connection<R: BufRead, W: Write>(mut reader: R, mut writer: W, shared: Arc<Shared>) {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // EOF or broken pipe
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&line, &shared);
        let mut payload = response.to_line();
        payload.push('\n');
        if writer.write_all(payload.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        // Once shutdown is initiated the response above is the last one this
        // connection gets; closing nudges idle clients to go away.
        if shared.shutting_down() {
            return;
        }
    }
}

/// Records one finished request in the process-wide metric registry.
fn record_request_metrics(class: &str, latency: Duration) {
    let labels = p3_obs::metrics::render_labels(&[("class", class)]);
    p3_obs::metrics::labeled_counter(
        "p3_service_requests_total",
        "Requests handled, by op class (including malformed lines)",
        &labels,
    )
    .inc();
    p3_obs::metrics::labeled_histogram(
        "p3_service_request_latency_us",
        "End-to-end request latency in microseconds (queue wait + execution)",
        &labels,
    )
    .observe(latency.as_micros().min(u64::MAX as u128) as u64);
}

/// Completes this request's audit record with its envelope, feeds the SLO
/// engine, and appends to the audit log when one is configured. Called
/// exactly once per request line — queries, inline admin ops, and
/// malformed lines alike — which is what makes "one request, one record"
/// an invariant rather than a convention.
fn audit_request(shared: &Shared, mut record: AuditRecord, elapsed: Duration) {
    let now_ms = unix_ms();
    shared.slo.record(
        &record.class,
        now_ms,
        record.outcome == p3_audit::Outcome::Ok,
        elapsed.as_millis().min(u64::MAX as u128) as u64,
    );
    let Some(audit) = &shared.audit else {
        return;
    };
    record.ts_ms = now_ms;
    record.total_us = micros(elapsed);
    if let Err(e) = audit.append(record) {
        p3_obs::warn!(
            "audit append failed",
            dir = audit.dir().display(),
            error = e.to_string()
        );
    }
}

/// Parses and dispatches one request line; always produces a response.
fn handle_line(line: &str, shared: &Shared) -> Response {
    let start = Instant::now();
    let request = match Request::parse(line) {
        Ok(req) => req,
        Err(msg) => {
            // Echo the id of a rejected request when it decodes, so a
            // pipelining client can still match the answer.
            let id = Value::parse(line.trim())
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64));
            let elapsed = start.elapsed();
            shared.stats.record("malformed", elapsed, Outcome::Error);
            record_request_metrics("malformed", elapsed);
            let record = AuditRecord {
                class: "malformed".to_string(),
                eval_mode: shared.eval_mode.as_str().to_string(),
                outcome: p3_audit::Outcome::Error,
                ..Default::default()
            };
            audit_request(shared, record, elapsed);
            return Response::error(id, msg);
        }
    };
    let class = request.spec.name;
    let mut record = AuditRecord::default();
    let response = dispatch(&request, shared, start, &mut record);
    let outcome = match response.status {
        crate::protocol::Status::Ok => Outcome::Ok,
        crate::protocol::Status::Error => Outcome::Error,
        crate::protocol::Status::Timeout => Outcome::Timeout,
    };
    let elapsed = start.elapsed();
    shared.stats.record(class, elapsed, outcome);
    record_request_metrics(class, elapsed);
    record.outcome = match response.status {
        crate::protocol::Status::Ok => p3_audit::Outcome::Ok,
        crate::protocol::Status::Timeout => p3_audit::Outcome::Timeout,
        // `Error`, or `LintReject` when the worker said the lint gate
        // rejected the program.
        crate::protocol::Status::Error => record.outcome,
    };
    record.class = class.to_string();
    record.trace = request.trace.clone().unwrap_or_default();
    record.eval_mode = request
        .eval_mode
        .unwrap_or(shared.eval_mode)
        .as_str()
        .to_string();
    record.query_hash = request.op.query_text().map(p3_audit::fnv1a_64).unwrap_or(0);
    p3_obs::debug!(
        "request served",
        class = class,
        outcome = format!("{outcome:?}"),
        latency_us = elapsed.as_micros(),
    );
    if let Some(slow_ms) = shared.slow_ms {
        if elapsed >= Duration::from_millis(slow_ms) {
            p3_obs::counter!(
                "p3_service_slow_requests_total",
                "Requests that exceeded the --slow-ms threshold"
            )
            .inc();
            p3_obs::warn!(
                "slow request",
                class = class,
                latency_ms = elapsed.as_millis(),
                threshold_ms = slow_ms,
                queue_wait_us = record.queue_wait_us,
                execute_us = record.execute_us,
                session_hits = record.session_hits,
                session_misses = record.session_misses,
            );
        }
    }
    audit_request(shared, record, elapsed);
    response
}

fn dispatch(
    request: &Request,
    shared: &Shared,
    received: Instant,
    record: &mut AuditRecord,
) -> Response {
    // The root span covers the request's whole server-side life: parse is
    // already done, so this is queue wait + execution + reply marshalling.
    let mut span = p3_obs::span::span("request");
    span.add_field("class", request.spec.name);
    if let Some(id) = request.id {
        span.add_field("request_id", id);
    }
    // Adopt the client's trace id: the one field that links this tree with
    // the client-side connect/send/recv spans recorded in another process.
    if let Some(trace) = &request.trace {
        span.add_field("trace", trace);
    }
    if request.spec.inline {
        return Response::ok(request.id, inline_answer(&request.op, shared));
    }
    let timeout_ms = request.timeout_ms.or(shared.default_timeout_ms);
    let deadline = timeout_ms.map(|ms| received + Duration::from_millis(ms));
    if let Some(d) = deadline {
        if Instant::now() >= d {
            return Response::timeout(
                request.id,
                format!("deadline of {}ms expired", timeout_ms.unwrap_or(0)),
            );
        }
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job {
        op: request.op.clone(),
        class: request.spec.name,
        hop_limit: request.hop_limit,
        eval_mode: request.eval_mode,
        deadline,
        enqueued: Instant::now(),
        root_span: span.id(),
        reply: reply_tx,
    };
    match shared.queue.push(job) {
        Err(PushError::Closed) => return Response::error(request.id, "server is shutting down"),
        Err(PushError::DeadlineExpired) => {
            return Response::timeout(
                request.id,
                format!(
                    "deadline of {}ms expired while queued",
                    timeout_ms.unwrap_or(0)
                ),
            )
        }
        Ok(()) => {}
    }
    // The handler is the watchdog: wait only until the deadline.
    let reply = match deadline {
        None => reply_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            reply_rx.recv_timeout(left)
        }
    };
    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    match reply {
        Ok(reply) => {
            *record = reply.record;
            match reply.result {
                Ok(result) => Response::ok(request.id, result),
                Err(msg) => Response::error(request.id, msg),
            }
        }
        // A worker drops a job only once its deadline has passed;
        // any other lost reply is a failure, never a timeout.
        Err(RecvTimeoutError::Disconnected) if !expired => {
            record.outcome = p3_audit::Outcome::Internal;
            Response::error(
                request.id,
                "internal error: the worker dropped the request without replying",
            )
        }
        Err(_) => Response::timeout(
            request.id,
            format!("deadline of {}ms expired", timeout_ms.unwrap_or(0)),
        ),
    }
}

/// The answer to an op whose [`OPS`](crate::protocol::OPS) row is
/// `inline`: these must work while the queue is full.
fn inline_answer(op: &Op, shared: &Shared) -> Value {
    match op {
        Op::Ping => Value::object(vec![("pong", Value::from(true))]),
        Op::Stats => stats_snapshot(shared),
        Op::Metrics => metrics_snapshot(shared),
        Op::Trace { n } => trace_snapshot(*n),
        Op::Warm => warm_snapshot(shared),
        Op::StoreStats => store_stats_snapshot(shared),
        Op::AuditTail { n } => audit_tail_snapshot(shared, *n),
        Op::AuditTop { by, n } => audit_top_snapshot(shared, *by, *n),
        Op::Slo => slo_snapshot(shared),
        Op::Shutdown => {
            shared.initiate_shutdown();
            Value::object(vec![("shutting_down", Value::from(true))])
        }
        op => unreachable!("OPS queues {op:?}"),
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.enqueued.elapsed();
        // Don't burn CPU on work nobody is waiting for anymore.
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                continue;
            }
        }
        set_workers_busy_gauge(shared.workers_busy.fetch_add(1, Ordering::SeqCst) + 1);
        // Parent the worker-side span under the handler's request span:
        // the id travelled with the job across the thread hop. The span
        // must finish (and land in the ring) before the reply is sent, or
        // an immediate `trace` request could miss it.
        let executing = Instant::now();
        let session = shared.session_for(job.eval_mode);
        let store_records = || {
            shared
                .active_store()
                .map(|s| s.backend.stats().records_written)
        };
        let store_records_before = store_records().unwrap_or(0);
        let mut record = AuditRecord::default();
        let result = {
            let mut span = p3_obs::span::child_of("execute", job.root_span);
            span.add_field("class", job.class);
            let result = guarded(&mut record, |record| {
                execute(&session, &shared, &job.op, job.hop_limit, record)
            });
            span.add_field("ok", result.is_ok());
            result
        };
        // Make whatever the op journaled durable before the client hears
        // the answer: a SIGKILL after the reply then replays this state.
        if let Some(store) = shared.active_store() {
            if let Err(e) = store.backend.flush() {
                p3_obs::error!(
                    "store flush failed",
                    dir = store.dir.display(),
                    error = e.to_string()
                );
            }
        }
        set_workers_busy_gauge(
            shared
                .workers_busy
                .fetch_sub(1, Ordering::SeqCst)
                .saturating_sub(1),
        );
        record.queue_wait_us = micros(queue_wait);
        record.store_records = store_records()
            .unwrap_or(store_records_before)
            .saturating_sub(store_records_before);
        record.execute_us = micros(executing.elapsed());
        // The handler may have timed out and gone; that's fine.
        let _ = job.reply.send(Reply { result, record });
    }
}

/// Runs `work`, turning a panic into an internal error: the worker that
/// caught it lives on, and the audit record says what happened.
fn guarded(
    record: &mut AuditRecord,
    work: impl FnOnce(&mut AuditRecord) -> Result<Value, String>,
) -> Result<Value, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| work(&mut *record))) {
        Ok(result) => result,
        Err(payload) => {
            record.outcome = p3_audit::Outcome::Internal;
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(format!("internal error: {message}"))
        }
    }
}

fn extract_opts(hop_limit: Option<usize>) -> ExtractOptions {
    match hop_limit {
        Some(limit) => ExtractOptions::with_max_depth(limit),
        None => ExtractOptions::unbounded(),
    }
}

/// Runs a query op against the shared session, filling in `record` as it
/// goes. Every result is a JSON object; errors are strings (surfaced as
/// `"status":"error"`).
fn execute(
    session: &QuerySession,
    shared: &Shared,
    op: &Op,
    hop_limit: Option<usize>,
    record: &mut AuditRecord,
) -> Result<Value, String> {
    match op {
        // The query classes and `profile` all answer through one `run`.
        Op::Query {
            query,
            class,
            profile,
        } => {
            let (answer, report) = session.run(query, class, extract_opts(hop_limit));
            audit_report(record, &report);
            let answer = answer.map_err(|e| e.to_string())?;
            Ok(if *profile {
                profile_value(&report, answer.probability())
            } else {
                answer_value(session.p3(), class, answer, &report)
            })
        }
        Op::Persist => {
            let store = shared.active_store().ok_or_else(|| {
                "no active store: start the server with --store-dir \
                 (load-program detaches the store)"
                    .to_string()
            })?;
            // Export from the default session — that is the one the store
            // journals; per-mode override sessions share its DnfStore.
            let records = shared.current_session().export_records();
            timed(record, "persist", || {
                store
                    .backend
                    .snapshot(&records)
                    .and_then(|()| store.backend.flush())
            })
            .map_err(|e| format!("store compaction failed: {e}"))?;
            let stats = store.backend.stats();
            Ok(Value::object(vec![
                ("persisted", Value::from(true)),
                ("records", Value::from(records.len())),
                ("snapshot_bytes", Value::from(stats.snapshot_bytes)),
            ]))
        }
        Op::LoadProgram { source: text, lint } => {
            // Pre-flight lint: findings go to the structured log either
            // way; error-severity findings reject the program unless the
            // request opted out with `"lint": false`.
            let report = timed(record, "lint", || p3_lint::lint_source(text));
            for d in &report.diagnostics {
                p3_obs::info!(
                    "lint finding on load-program",
                    code = d.code,
                    severity = d.severity.as_str(),
                    line = d.line,
                    column = d.column,
                    message = d.message
                );
            }
            if *lint && report.has_errors() {
                record.outcome = p3_audit::Outcome::LintReject;
                let mut msg = format!("program rejected by lint: {}", report.summary_line());
                for d in report.at_least(p3_lint::Severity::Error) {
                    msg.push_str(&format!("; {d}"));
                }
                return Err(msg);
            }
            let fresh =
                timed(record, "load", || P3::from_source(text)).map_err(|e| e.to_string())?;
            let clauses = fresh.program().len();
            let new_session = fresh.session_with(SessionOptions {
                max_entries: shared.cache_cap,
                eval_mode: shared.eval_mode,
            });
            // Forcing the whole model here would defeat a demand-mode
            // server, so the materialised size is reported only when the
            // session evaluates naively (`null` otherwise).
            let tuples = match new_session.eval_mode() {
                EvalMode::Demand => Value::Null,
                _ => Value::from(fresh.database().len()),
            };
            audit_evaluations(record, &fresh.explain_plans());
            let eval_mode = new_session.eval_mode().as_str();
            // The store is keyed to the boot-time program's content hash;
            // a different program must not journal into it (or warm-boot
            // from it), so detach before the swap. Restart with
            // --store-dir to persist the new program.
            if let Some(store) = shared.active_store() {
                store.active.store(false, Ordering::SeqCst);
                shared.current_session().detach_store();
                p3_obs::warn!(
                    "persistent store detached: load-program changed the program",
                    dir = store.dir.display()
                );
            }
            shared.install_session(new_session);
            Ok(Value::object(vec![
                ("loaded", Value::from(true)),
                ("clauses", Value::from(clauses)),
                ("tuples", tuples),
                ("eval_mode", Value::from(eval_mode.to_string())),
                ("lint_errors", Value::from(report.error_count())),
                ("lint_warnings", Value::from(report.warn_count())),
                ("lint_notes", Value::from(report.info_count())),
            ]))
        }
        Op::Lint { source: text } => {
            let report = timed(record, "lint", || p3_lint::lint_source(text));
            let findings = Value::parse(&report.to_json())
                .map_err(|e| format!("internal: bad findings JSON: {e}"))?;
            Ok(Value::object(vec![
                ("clean", Value::from(report.is_clean())),
                ("errors", Value::from(report.error_count())),
                ("warnings", Value::from(report.warn_count())),
                ("notes", Value::from(report.info_count())),
                ("findings", findings),
                (
                    "content_type",
                    Value::from("text/plain; lint=p3".to_string()),
                ),
                (
                    "text",
                    Value::from(report.render(Some(text), Some("<inline>"))),
                ),
            ]))
        }
        Op::Explain { query } => {
            let (explained, report) = session.explain(query);
            audit_report(record, &report);
            let explained = explained.map_err(|e| e.to_string())?;
            // The explain type owns the canonical JSON shape (shared with
            // `p3 explain --json`); parse it back rather than re-encoding.
            Value::parse(&explained.to_json_string())
                .map_err(|e| format!("explain payload encoding: {e}"))
        }
        Op::Analyze { query } => {
            let plan = timed(record, "analyze", || session.analyze(query.as_deref()));
            // The plan type owns the canonical JSON shape (shared with
            // `p3 analyze --json`); parse it back rather than re-encoding.
            Value::parse(&plan.to_json_string())
                .map_err(|e| format!("analyze payload encoding: {e}"))
        }
        op => unreachable!("OPS answers {op:?} inline"),
    }
}

/// The result payload of a query op: `answer` in its class's wire shape.
fn answer_value(p3: &P3, class: &QueryClass, answer: QueryAnswer, report: &QueryReport) -> Value {
    let query = ("query", Value::from(report.query.clone()));
    let var = |v| Value::from(p3.vars().name(v).to_string());
    match (answer, class) {
        (QueryAnswer::Probability(p), _) => Value::object(vec![
            query,
            ("probability", Value::from(p)),
            ("derivations", Value::from(report.dnf_monomials)),
        ]),
        (QueryAnswer::Explanation(e), _) => Value::object(vec![
            query,
            ("probability", Value::from(e.probability)),
            ("num_derivations", Value::from(e.num_derivations)),
            (
                "polynomial",
                Value::from(p3.render_polynomial(&e.polynomial)),
            ),
            ("text", Value::from(e.text)),
            ("dot", Value::from(e.dot)),
        ]),
        (QueryAnswer::Derivation(s), _) => Value::object(vec![
            query,
            ("kept", Value::from(s.polynomial.len())),
            ("original", Value::from(s.original_len)),
            ("probability", Value::from(s.probability)),
            ("original_probability", Value::from(s.original_probability)),
            ("error", Value::from(s.error)),
            ("compression_ratio", Value::from(s.compression_ratio)),
            (
                "polynomial",
                Value::from(p3.render_polynomial(&s.polynomial)),
            ),
        ]),
        (QueryAnswer::Influence(entries), _) => Value::object(vec![
            query,
            (
                "entries",
                Value::Array(
                    entries
                        .iter()
                        .map(|e| {
                            Value::object(vec![
                                ("var", var(e.var)),
                                ("influence", Value::from(e.influence)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        (QueryAnswer::Modification(plan), QueryClass::Modification { target, .. }) => {
            Value::object(vec![
                query,
                ("target", Value::from(*target)),
                (
                    "steps",
                    Value::Array(
                        plan.steps
                            .iter()
                            .map(|s| {
                                Value::object(vec![
                                    ("var", var(s.var)),
                                    ("from", Value::from(s.from)),
                                    ("to", Value::from(s.to)),
                                    (
                                        "resulting_probability",
                                        Value::from(s.resulting_probability),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("total_cost", Value::from(plan.total_cost)),
                ("initial_probability", Value::from(plan.initial_probability)),
                (
                    "achieved_probability",
                    Value::from(plan.achieved_probability),
                ),
                ("reached_target", Value::from(plan.reached_target)),
            ])
        }
        (QueryAnswer::Modification(_), _) => unreachable!("run answers the class it is asked"),
    }
}

/// The `profile` op's result payload: the query's report, stage by stage.
fn profile_value(report: &QueryReport, probability: Option<f64>) -> Value {
    let pair = |hits: u64, misses: u64| {
        Value::object(vec![
            ("hits", Value::from(hits)),
            ("misses", Value::from(misses)),
        ])
    };
    Value::object(vec![
        ("query", Value::from(report.query.clone())),
        ("class", Value::from(report.class.to_string())),
        ("total_us", Value::from(report.total_us)),
        (
            "probability",
            probability.map(Value::from).unwrap_or(Value::Null),
        ),
        (
            "stages",
            Value::Array(
                report
                    .stages
                    .iter()
                    .map(|s| {
                        let c = &s.cache;
                        Value::object(vec![
                            ("name", Value::from(s.name.to_string())),
                            ("wall_us", Value::from(s.wall_us)),
                            ("session", pair(c.session_hits, c.session_misses)),
                            (
                                "store_intern",
                                pair(c.store_intern_hits, c.store_intern_misses),
                            ),
                            ("store_ops", pair(c.store_op_hits, c.store_op_misses)),
                            (
                                "extract_memo",
                                pair(c.extract_memo_hits, c.extract_memo_misses),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `stats` payload: server counters plus the shared cache counters.
fn stats_snapshot(shared: &Shared) -> Value {
    let session = shared.current_session();
    let s = session.stats();
    let store = session.p3().store().stats();
    Value::object(vec![
        (
            "uptime_ms",
            Value::from(shared.started.elapsed().as_millis() as u64),
        ),
        ("workers", Value::from(shared.workers)),
        (
            "eval_mode",
            Value::from(session.eval_mode().as_str().to_string()),
        ),
        ("queue_depth", Value::from(shared.queue.depth())),
        ("queue_capacity", Value::from(shared.queue_cap)),
        ("total_requests", Value::from(shared.stats.total())),
        ("requests", shared.stats.snapshot()),
        (
            "session",
            Value::object(vec![
                ("hits", Value::from(s.hits)),
                ("misses", Value::from(s.misses)),
                ("evictions", Value::from(s.evictions)),
                ("resident", Value::from(s.resident)),
                ("warm_restored", Value::from(s.warm_restored)),
            ]),
        ),
        (
            "persist",
            match &shared.store {
                None => Value::object(vec![("enabled", Value::from(false))]),
                Some(store) => Value::object(vec![
                    ("enabled", Value::from(true)),
                    ("active", Value::from(store.active.load(Ordering::SeqCst))),
                    (
                        "records_written",
                        Value::from(store.backend.stats().records_written),
                    ),
                    ("warm_restored", Value::from(store.restore.memos())),
                ]),
            },
        ),
        (
            "store",
            Value::object(vec![
                ("formulas", Value::from(store.formulas)),
                ("intern_hits", Value::from(store.intern_hits)),
                ("intern_misses", Value::from(store.intern_misses)),
                ("op_hits", Value::from(store.op_hits)),
                ("op_misses", Value::from(store.op_misses)),
            ]),
        ),
        ("engine", engine_stats_value(&session)),
    ])
}

/// The `stats` payload's `engine` section: run-level [`EngineStats`] and
/// per-stratum [`StratumStats`] aggregated over every evaluation the
/// session's system has retained a plan for.
///
/// [`EngineStats`]: p3_datalog::engine::EngineStats
/// [`StratumStats`]: p3_datalog::engine::StratumStats
fn engine_stats_value(session: &QuerySession) -> Value {
    let plans = session.p3().explain_plans();
    let (mut iterations, mut firings, mut tuples) = (0u64, 0u64, 0u64);
    // Strata aggregate positionally: stratum i of every retained plan is
    // the same program layer, so its counters sum meaningfully.
    let mut strata: Vec<(u64, u64, u64)> = Vec::new();
    for plan in &plans {
        iterations += plan.stats.iterations as u64;
        firings += plan.stats.firings as u64;
        tuples += plan.stats.tuples as u64;
        for (i, st) in plan.strata.iter().enumerate() {
            if strata.len() <= i {
                strata.resize(i + 1, (0, 0, 0));
            }
            strata[i].0 += st.iterations as u64;
            strata[i].1 += st.firings as u64;
            strata[i].2 += st.derived_tuples as u64;
        }
    }
    Value::object(vec![
        ("evaluations", Value::from(plans.len())),
        (
            "rule_cost_total",
            Value::from(plans.iter().map(ExplainPlan::total_cost).sum::<u64>()),
        ),
        ("iterations", Value::from(iterations)),
        ("firings", Value::from(firings)),
        ("derived_tuples", Value::from(tuples)),
        (
            "strata",
            Value::Array(
                strata
                    .iter()
                    .enumerate()
                    .map(|(i, (it, fi, tu))| {
                        Value::object(vec![
                            ("stratum", Value::from(i)),
                            ("iterations", Value::from(*it)),
                            ("firings", Value::from(*fi)),
                            ("derived_tuples", Value::from(*tu)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `GET /analyze` payload: the static cost prediction for the
/// currently loaded program — ranked predicted rule costs, per-predicate
/// cardinality and DNF-width bounds, the eval-mode recommendation with
/// its reason, and any `P37xx` diagnostics. Computed fresh per request
/// (analysis is microseconds) and evaluates nothing.
pub(crate) fn analyze_snapshot(shared: &Shared) -> Value {
    let session = shared.current_session();
    let plan = session.analyze(None);
    Value::parse(&plan.to_json_string()).unwrap_or_else(|e| {
        Value::object(vec![(
            "error",
            Value::from(format!("analyze payload encoding: {e}")),
        )])
    })
}

/// The `GET /explain` payload: the current session's accumulated cost
/// attribution — every retained [`ExplainPlan`] plus the cross-plan
/// top-rules ranking — for operators who want "which rules are burning
/// the CPU?" without crafting a query.
///
/// [`ExplainPlan`]: p3_datalog::explain::ExplainPlan
pub(crate) fn explain_snapshot(shared: &Shared) -> Value {
    let session = shared.current_session();
    let p3 = session.p3();
    let plans = p3.explain_plans();
    Value::object(vec![
        (
            "eval_mode",
            Value::from(session.eval_mode().as_str().to_string()),
        ),
        ("evaluations", Value::from(plans.len())),
        (
            "rule_cost_total",
            Value::from(plans.iter().map(ExplainPlan::total_cost).sum::<u64>()),
        ),
        (
            "top_rules",
            Value::Array(
                p3_datalog::explain::top_rules(&plans, p3_datalog::explain::METRIC_TOP_RULES)
                    .into_iter()
                    .map(|(rule, cost)| {
                        Value::object(vec![
                            ("rule", Value::from(rule)),
                            ("cost", Value::from(cost)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "plans",
            Value::Array(plans.iter().map(explain_plan_value).collect()),
        ),
    ])
}

/// One retained [`ExplainPlan`](p3_datalog::explain::ExplainPlan) as JSON
/// (the per-evaluation entries of `GET /explain`).
fn explain_plan_value(plan: &p3_datalog::explain::ExplainPlan) -> Value {
    Value::object(vec![
        ("mode", Value::from(plan.mode.to_string())),
        ("total_cost", Value::from(plan.total_cost())),
        ("iterations", Value::from(plan.stats.iterations)),
        ("firings", Value::from(plan.stats.firings)),
        ("tuples", Value::from(plan.stats.tuples)),
        (
            "rules",
            Value::Array(
                plan.rules
                    .iter()
                    .map(|r| {
                        Value::object(vec![
                            ("rule", Value::from(r.label.clone())),
                            ("head", Value::from(r.head.clone())),
                            ("recursive", Value::from(r.recursive)),
                            ("cost", Value::from(r.cost())),
                            ("firings", Value::from(r.firings)),
                            ("new_tuples", Value::from(r.new_tuples)),
                            ("candidates", Value::from(r.candidates)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "magic_cost",
            plan.magic
                .map(|m| Value::from(m.cost()))
                .unwrap_or(Value::Null),
        ),
    ])
}

/// The `warm` payload: what the persistent store's recovery and warm-boot
/// replay found at startup (frozen at boot — live counters are under
/// `store-stats`).
fn warm_snapshot(shared: &Shared) -> Value {
    let Some(store) = &shared.store else {
        return Value::object(vec![("enabled", Value::from(false))]);
    };
    Value::object(vec![
        ("enabled", Value::from(true)),
        ("active", Value::from(store.active.load(Ordering::SeqCst))),
        ("dir", Value::from(store.dir.display().to_string())),
        ("stale", Value::from(store.report.stale)),
        (
            "recovery_truncations",
            Value::from(u64::from(store.report.truncations)),
        ),
        (
            "recovery_truncated_bytes",
            Value::from(store.report.truncated_bytes),
        ),
        (
            "snapshot_records",
            Value::from(store.report.snapshot_records),
        ),
        ("log_records", Value::from(store.report.log_records)),
        ("restored_formulas", Value::from(store.restore.formulas)),
        ("restored_dnf_memos", Value::from(store.restore.dnf_memos)),
        ("restored_prob_memos", Value::from(store.restore.prob_memos)),
        ("restored_skipped", Value::from(store.restore.skipped)),
    ])
}

/// The `store-stats` payload: live backend counters.
fn store_stats_snapshot(shared: &Shared) -> Value {
    let Some(store) = &shared.store else {
        return Value::object(vec![("enabled", Value::from(false))]);
    };
    let stats = store.backend.stats();
    Value::object(vec![
        ("enabled", Value::from(true)),
        ("active", Value::from(store.active.load(Ordering::SeqCst))),
        ("kind", Value::from(stats.kind.to_string())),
        ("records_written", Value::from(stats.records_written)),
        ("pending_records", Value::from(stats.pending_records)),
        ("snapshot_records", Value::from(stats.snapshot_records)),
        ("snapshot_bytes", Value::from(stats.snapshot_bytes)),
        (
            "recovery_truncations",
            Value::from(stats.recovery_truncations),
        ),
    ])
}

/// One audit record as a JSON value — the audit crate owns the canonical
/// JSON shape; the service parses it back rather than re-encoding.
fn audit_record_value(record: &AuditRecord) -> Value {
    Value::parse(&record.to_json_string()).unwrap_or(Value::Null)
}

/// The audit log's live counters as a JSON object.
fn audit_stats_value(stats: &p3_audit::AuditStats) -> Value {
    Value::object(vec![
        ("records_appended", Value::from(stats.records_appended)),
        ("records_recovered", Value::from(stats.records_recovered)),
        ("segments", Value::from(stats.segments)),
        ("total_bytes", Value::from(stats.total_bytes)),
        ("rotations", Value::from(stats.rotations)),
        ("pruned", Value::from(stats.pruned)),
        (
            "recovery_truncations",
            Value::from(stats.recovery_truncations),
        ),
    ])
}

/// The `audit-tail` payload (and `GET /audit`): the `n` most recent
/// audit records, newest first, plus the log's counters.
pub(crate) fn audit_tail_snapshot(shared: &Shared, n: usize) -> Value {
    let Some(audit) = &shared.audit else {
        return Value::object(vec![("enabled", Value::from(false))]);
    };
    let records = audit.recent(n);
    Value::object(vec![
        ("enabled", Value::from(true)),
        (
            "records",
            Value::Array(records.iter().map(audit_record_value).collect()),
        ),
        ("stats", audit_stats_value(&audit.stats())),
    ])
}

/// The `audit-top` payload (and `GET /audit/top`): worst offenders from
/// the in-memory audit ring ranked by `by`, each with its trace id as
/// the exemplar link into `/traces`.
pub(crate) fn audit_top_snapshot(shared: &Shared, by: AuditKey, n: usize) -> Value {
    let Some(audit) = &shared.audit else {
        return Value::object(vec![("enabled", Value::from(false))]);
    };
    let records = audit.top(n, |r| by.key(r));
    Value::object(vec![
        ("enabled", Value::from(true)),
        ("by", Value::from(by.as_str().to_string())),
        (
            "records",
            Value::Array(records.iter().map(audit_record_value).collect()),
        ),
    ])
}

/// One window's burn accounting as a JSON object.
fn window_burn_value(w: &p3_obs::slo::WindowBurn) -> Value {
    Value::object(vec![
        ("events", Value::from(w.events)),
        ("bad", Value::from(w.bad)),
        ("burn_rate", Value::from(w.burn_rate)),
        ("tripped", Value::from(w.tripped)),
    ])
}

/// The `slo` payload (and `GET /slo`): every objective's burn state over
/// the fast (5 min) and slow (1 h) windows, plus whether any fast window
/// is currently tripped (the `/readyz` gate under `--slo-readyz`).
pub(crate) fn slo_snapshot(shared: &Shared) -> Value {
    let now_ms = unix_ms();
    let statuses = shared.slo.status(now_ms);
    Value::object(vec![
        ("now_ms", Value::from(now_ms)),
        (
            "any_fast_trip",
            Value::from(statuses.iter().any(|s| s.fast.tripped)),
        ),
        ("readyz_gated", Value::from(shared.slo_readyz)),
        (
            "objectives",
            Value::Array(
                statuses
                    .iter()
                    .map(|s| {
                        Value::object(vec![
                            ("class", Value::from(s.config.class.clone())),
                            ("target_ms", Value::from(s.config.target_ms)),
                            ("objective", Value::from(s.config.objective)),
                            ("fast", window_burn_value(&s.fast)),
                            ("slow", window_burn_value(&s.slow)),
                            ("budget_remaining", Value::from(s.budget_remaining)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Refreshes scrape-time gauges from live server state. Called on every
/// exposition — the NDJSON `metrics` op and the HTTP `GET /metrics` — and
/// once at startup so the families exist before the first request.
pub(crate) fn refresh_gauges(shared: &Shared) {
    p3_obs::process::refresh();
    shared.slo.publish(unix_ms());
    if let Some(audit) = &shared.audit {
        audit.publish_metrics();
    }
    let session = shared.current_session();
    let s = session.stats();
    let store = session.p3().store();

    set_queue_depth_gauge(shared.queue.depth());
    set_workers_busy_gauge(shared.workers_busy.load(Ordering::SeqCst));
    p3_obs::gauge!("p3_service_workers", "Worker pool size").set(shared.workers as i64);
    p3_obs::gauge!(
        "p3_service_uptime_seconds",
        "Seconds since the server started"
    )
    .set(shared.started.elapsed().as_secs() as i64);
    p3_obs::gauge!(
        "p3_core_session_resident",
        "Entries resident across the shared session memo tables"
    )
    .set(s.resident as i64);
    p3_obs::gauge!(
        "p3_prob_store_formulas",
        "Interned DNF formulas in the hash-consed store"
    )
    .set(store.stats().formulas as i64);
    for (i, shard) in store.shard_stats().iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        let set = |name, help, value: u64| {
            p3_obs::metrics::labeled_gauge(name, help, &labels).set(value as i64);
        };
        set(
            "p3_prob_store_shard_entries",
            "Interned nodes held by each DnfStore shard",
            shard.entries as u64,
        );
        set(
            "p3_prob_store_shard_intern_hits",
            "Hash-cons intern hits per DnfStore shard",
            shard.intern_hits,
        );
        set(
            "p3_prob_store_shard_intern_misses",
            "Hash-cons intern misses per DnfStore shard",
            shard.intern_misses,
        );
        set(
            "p3_prob_store_shard_op_hits",
            "Memoized or/and/restrict hits per DnfStore shard",
            shard.op_hits,
        );
        set(
            "p3_prob_store_shard_op_misses",
            "Memoized or/and/restrict misses per DnfStore shard",
            shard.op_misses,
        );
    }
}

/// The `metrics` payload: refreshes scrape-time gauges from live state,
/// then renders the whole process registry as Prometheus text exposition
/// (version 0.0.4).
fn metrics_snapshot(shared: &Shared) -> Value {
    refresh_gauges(shared);
    Value::object(vec![
        (
            "content_type",
            Value::from("text/plain; version=0.0.4".to_string()),
        ),
        ("text", Value::from(p3_obs::metrics::prometheus_text())),
    ])
}

fn span_tree_value(tree: &p3_obs::span::SpanTree) -> Value {
    let r = &tree.record;
    Value::object(vec![
        ("name", Value::from(r.name.to_string())),
        ("span_id", Value::from(r.id)),
        ("start_us", Value::from(r.start_us)),
        ("dur_us", Value::from(r.dur_us)),
        (
            "fields",
            Value::Object(
                r.fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::from(v.clone())))
                    .collect(),
            ),
        ),
        (
            "children",
            Value::Array(tree.children.iter().map(span_tree_value).collect()),
        ),
    ])
}

/// The `trace` payload: the `n` most recent completed request span trees
/// (newest first). Empty unless span collection is enabled (`p3-serve`
/// turns it on at startup).
fn trace_snapshot(n: usize) -> Value {
    let trees = p3_obs::span::recent_roots(Some("request"), n);
    Value::object(vec![
        ("enabled", Value::from(p3_obs::span::enabled())),
        (
            "trees",
            Value::Array(trees.iter().map(span_tree_value).collect()),
        ),
    ])
}

/// A standalone [`Shared`] for exercising readiness and HTTP routing in
/// tests — no listeners, no worker threads.
#[cfg(test)]
pub(crate) fn test_shared(workers: usize, queue_cap: usize) -> Arc<Shared> {
    test_shared_with_audit(workers, queue_cap, None)
}

/// Like [`test_shared`], with an audit log attached (tests only).
#[cfg(test)]
pub(crate) fn test_shared_with_audit(
    workers: usize,
    queue_cap: usize,
    audit: Option<p3_audit::AuditConfig>,
) -> Arc<Shared> {
    let p3 = P3::from_source("t 1.0: a(1).").unwrap();
    Arc::new(Shared {
        session: RwLock::new(p3.session()),
        sessions_by_mode: RwLock::new(HashMap::new()),
        cache_cap: None,
        eval_mode: EvalMode::Auto,
        stats: ServiceStats::new(),
        queue: JobQueue::new(queue_cap),
        shutdown: AtomicBool::new(false),
        workers,
        queue_cap: queue_cap.max(1),
        workers_busy: AtomicUsize::new(0),
        default_timeout_ms: None,
        slow_ms: None,
        started: Instant::now(),
        store: None,
        audit: audit.map(|cfg| AuditLog::open(cfg).unwrap()),
        slo: SloEngine::new(default_slos()),
        slo_readyz: false,
    })
}

/// Exposes the request funnel to sibling modules' tests (tests only).
#[cfg(test)]
pub(crate) fn test_handle_line(line: &str, shared: &Shared) -> Response {
    handle_line(line, shared)
}

#[cfg(test)]
impl Shared {
    /// Forces the busy-worker count (tests only).
    pub(crate) fn test_set_busy(&self, n: usize) {
        self.workers_busy.store(n, Ordering::SeqCst);
    }

    /// Fills the queue with `n` inert jobs (tests only). Panics if the
    /// queue cannot take them without blocking.
    pub(crate) fn test_fill_queue(&self, n: usize) {
        for _ in 0..n {
            let (reply, _rx) = mpsc::sync_channel(1);
            self.queue
                .push(Job {
                    op: Op::Ping,
                    class: "ping",
                    hop_limit: None,
                    eval_mode: None,
                    deadline: Some(Instant::now()),
                    enqueued: Instant::now(),
                    root_span: 0,
                    reply,
                })
                .unwrap_or_else(|_| panic!("test queue full"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    const ACQ: &str = r#"
        r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
        r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
        r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
        t1 1.0: live("Steve","DC").
        t2 1.0: live("Elena","DC").
        t3 1.0: live("Mary","NYC").
        t4 0.4: like("Steve","Veggies").
        t5 0.6: like("Elena","Veggies").
        t6 1.0: know("Ben","Steve").
    "#;

    const Q: &str = r#"know("Ben","Elena")"#;

    fn start_tcp() -> Server {
        let p3 = P3::from_source(ACQ).unwrap();
        Server::start(
            p3,
            ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn the_worker_guard_turns_a_panic_into_an_internal_error() {
        let mut record = AuditRecord::default();
        let result = guarded(&mut record, |_| panic!("target probability 2 out of range"));
        assert_eq!(
            result,
            Err("internal error: target probability 2 out of range".to_string())
        );
        assert_eq!(record.outcome, p3_audit::Outcome::Internal);
        let mut record = AuditRecord::default();
        let ok = guarded(&mut record, |_| Ok(Value::from(1u64)));
        assert_eq!(ok, Ok(Value::from(1u64)));
        assert_eq!(record.outcome, AuditRecord::default().outcome);
    }

    #[test]
    fn tcp_round_trip_all_query_classes() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}","id":1}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);
        assert_eq!(resp.id, Some(1));
        let p = resp
            .result
            .unwrap()
            .get("probability")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((p - 0.16384).abs() < 1e-9, "{p}");

        for (line, field) in [
            (
                format!(
                    r#"{{"op":"explanation","query":"{}"}}"#,
                    Q.replace('"', "\\\"")
                ),
                "polynomial",
            ),
            (
                format!(
                    r#"{{"op":"derivation","query":"{}","eps":0.01}}"#,
                    Q.replace('"', "\\\"")
                ),
                "kept",
            ),
            (
                format!(
                    r#"{{"op":"influence","query":"{}","method":"exact"}}"#,
                    Q.replace('"', "\\\"")
                ),
                "entries",
            ),
            (
                format!(
                    r#"{{"op":"modification","query":"{}","target":0.5,"tolerance":1e-9}}"#,
                    Q.replace('"', "\\\"")
                ),
                "steps",
            ),
        ] {
            let resp = client.request(&line).unwrap();
            assert_eq!(resp.status, crate::protocol::Status::Ok, "{line}");
            assert!(resp.result.unwrap().get(field).is_some(), "{line}");
        }

        server.shutdown();
        server.join();
    }

    #[test]
    fn unix_round_trip_and_stats() {
        let path = std::env::temp_dir().join(format!("p3-test-{}.sock", std::process::id()));
        let p3 = P3::from_source(ACQ).unwrap();
        let server = Server::start(
            p3,
            ServerConfig {
                unix: Some(path.clone()),
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect_unix(&path).unwrap();
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);

        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let result = stats.result.unwrap();
        assert!(result.get("total_requests").unwrap().as_u64().unwrap() >= 1);
        assert!(result.get("session").is_some());
        assert!(result.get("store").is_some());

        server.shutdown();
        server.join();
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn expired_deadline_reports_timeout_and_keeps_connection() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        // timeout_ms: 0 — the deadline has already expired on arrival.
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}","timeout_ms":0,"id":9}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Timeout);
        assert_eq!(resp.id, Some(9));
        // Same connection still serves.
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);
        server.shutdown();
        server.join();
    }

    #[test]
    fn malformed_and_failing_requests_keep_the_connection() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let resp = client.request("this is not json").unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Error);
        let resp = client
            .request(r#"{"op":"probability","query":"nonexistent(\"x\")"}"#)
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Error);
        assert!(resp.error.unwrap().contains("bad query"));
        let resp = client.request(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);
        server.shutdown();
        server.join();
    }

    #[test]
    fn load_program_swaps_the_session() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let resp = client
            .request(r#"{"op":"load-program","source":"r 0.5: b(X) :- a(X).\nt 1.0: a(1)."}"#)
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let resp = client
            .request(r#"{"op":"probability","query":"b(1)"}"#)
            .unwrap();
        let p = resp
            .result
            .unwrap()
            .get("probability")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((p - 0.5).abs() < 1e-12);
        // The old program is gone.
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Error);
        server.shutdown();
        server.join();
    }

    #[test]
    fn readiness_flips_under_saturation_and_back() {
        let shared = test_shared(2, 10); // high water = 9
        assert!(shared.readiness().is_ok());

        // All workers busy but the queue is shallow: still ready.
        shared.test_set_busy(2);
        assert!(shared.readiness().is_ok());

        // Queue at the high-water mark with every worker busy: not ready.
        shared.test_fill_queue(9);
        let why = shared.readiness().unwrap_err();
        assert!(why.contains("saturated"), "{why}");
        assert!(why.contains("queue_depth=9"), "{why}");

        // A free worker means the backlog is draining: ready again.
        shared.test_set_busy(1);
        assert!(shared.readiness().is_ok());

        // Shutdown trumps everything.
        shared.initiate_shutdown();
        assert!(shared.readiness().unwrap_err().contains("shutting down"));
    }

    #[test]
    fn profile_op_reports_stage_breakdown() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let resp = client
            .request(&format!(
                r#"{{"op":"profile","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(
            result.get("class").unwrap().as_str().unwrap(),
            "probability"
        );
        let p = result.get("probability").unwrap().as_f64().unwrap();
        assert!((p - 0.16384).abs() < 1e-9, "{p}");
        let stages = match result.get("stages").unwrap() {
            Value::Array(stages) => stages,
            other => panic!("{other:?}"),
        };
        let names: Vec<&str> = stages
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        // ACQ is recursive, so the default (auto) session evaluates on
        // demand and the profile grows a transform stage.
        assert_eq!(names, ["parse", "transform", "extract", "probability"]);
        for stage in stages {
            assert!(stage.get("wall_us").unwrap().as_u64().is_some());
            assert!(stage.get("session").unwrap().get("hits").is_some());
            assert!(stage.get("store_ops").unwrap().get("misses").is_some());
            assert!(stage.get("extract_memo").is_some());
        }
        // A profiled derivation ends in its class stage.
        let resp = client
            .request(&format!(
                r#"{{"op":"profile","class":"derivation","query":"{}","eps":0.01}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("class").unwrap().as_str().unwrap(), "derivation");
        server.shutdown();
        server.join();
    }

    #[test]
    fn eval_mode_override_answers_identically() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let mut probabilities = Vec::new();
        for mode in ["auto", "naive", "demand"] {
            let resp = client
                .request(&format!(
                    r#"{{"op":"probability","query":"{}","eval_mode":"{mode}"}}"#,
                    Q.replace('"', "\\\"")
                ))
                .unwrap();
            assert_eq!(resp.status, crate::protocol::Status::Ok, "{mode}: {resp:?}");
            probabilities.push(
                resp.result
                    .unwrap()
                    .get("probability")
                    .unwrap()
                    .as_f64()
                    .unwrap(),
            );
        }
        assert!(probabilities.iter().all(|p| (p - 0.16384).abs() < 1e-9));

        // ACQ is recursive: the default session resolves auto -> demand,
        // and `stats` reports the resolved mode.
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let mode = stats.result.unwrap();
        assert_eq!(mode.get("eval_mode").unwrap().as_str().unwrap(), "demand");

        // Loading a non-recursive program resolves to naive and reports
        // the materialised model size; a recursive one stays unforced.
        let resp = client
            .request(r#"{"op":"load-program","source":"r 0.5: b(X) :- a(X).\nt 1.0: a(1)."}"#)
            .unwrap();
        let result = resp.result.unwrap();
        assert_eq!(result.get("eval_mode").unwrap().as_str().unwrap(), "naive");
        assert!(result.get("tuples").unwrap().as_u64().is_some());

        server.shutdown();
        server.join();
    }

    #[test]
    fn request_span_adopts_the_client_trace_id() {
        p3_obs::span::set_enabled(true);
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let trace_id = crate::protocol::new_trace_id();
        let resp = client
            .request(&format!(r#"{{"op":"ping","trace":"{trace_id}"}}"#))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);
        // The server's request tree carries the adopted id as a field,
        // visible through the trace op (and GET /traces).
        let resp = client.request(r#"{"op":"trace","n":5}"#).unwrap();
        let trees = resp.result.unwrap().to_json();
        assert!(trees.contains(&trace_id), "{trees}");
        server.shutdown();
        server.join();
        p3_obs::span::set_enabled(false);
    }

    #[test]
    fn audit_ops_round_trip_with_an_audit_log() {
        let dir = std::env::temp_dir().join(format!("p3-audit-ops-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p3 = P3::from_source(ACQ).unwrap();
        let server = Server::start(
            p3,
            ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                workers: 2,
                audit: Some(p3_audit::AuditConfig::new(&dir)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);

        // The probability request is on the tail, with its cost facts.
        let resp = client.request(r#"{"op":"audit-tail","n":10}"#).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert!(result.get("enabled").unwrap().as_bool().unwrap());
        let records = match result.get("records").unwrap() {
            Value::Array(records) => records,
            other => panic!("{other:?}"),
        };
        let prob = records
            .iter()
            .find(|r| r.get("class").unwrap().as_str() == Some("probability"))
            .expect("probability record on the tail");
        assert_eq!(prob.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(prob.get("total_us").unwrap().as_u64().unwrap() > 0);
        assert!(prob.get("dnf_monomials").unwrap().as_u64().unwrap() > 0);
        let stages = match prob.get("stages").unwrap() {
            Value::Array(stages) => stages,
            other => panic!("{other:?}"),
        };
        let names: Vec<&str> = stages
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["extract", "probability"]);

        // audit-top ranks by the requested key.
        let resp = client
            .request(r#"{"op":"audit-top","by":"latency","n":3}"#)
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("by").unwrap().as_str(), Some("latency"));

        // slo reports the default objectives.
        let resp = client.request(r#"{"op":"slo"}"#).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("any_fast_trip").unwrap().as_bool(), Some(false));
        let objectives = match result.get("objectives").unwrap() {
            Value::Array(objectives) => objectives,
            other => panic!("{other:?}"),
        };
        assert_eq!(objectives.len(), 5, "five default query-class SLOs");

        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_op_attributes_cost_and_audits_rule_cost() {
        let dir = std::env::temp_dir().join(format!("p3-explain-ops-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p3 = P3::from_source(ACQ).unwrap();
        let server = Server::start(
            p3,
            ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                workers: 2,
                audit: Some(p3_audit::AuditConfig::new(&dir)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

        // ACQ is recursive, so the default session explains on demand.
        let resp = client
            .request(&format!(
                r#"{{"op":"explain","query":"{}"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("demand"));
        assert!(result.get("total_cost").unwrap().as_u64().unwrap() > 0);
        assert!(
            result.get("magic").is_some(),
            "demand plans carry a magic bucket"
        );
        assert!(result.get("caches").is_some());
        assert!(result.get("recommendations").is_some());
        let rules = match result.get("rules").unwrap() {
            Value::Array(rules) => rules,
            other => panic!("{other:?}"),
        };
        assert!(!rules.is_empty());
        assert_eq!(
            rules[0].get("rule").unwrap().as_str(),
            Some("r3"),
            "the recursive rule ranks first: {rules:?}"
        );

        // The naive override explains the whole-program evaluation.
        let resp = client
            .request(&format!(
                r#"{{"op":"explain","query":"{}","eval_mode":"naive"}}"#,
                Q.replace('"', "\\\"")
            ))
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("naive"));
        assert!(result.get("magic").is_none(), "no transform under naive");

        // The stats op surfaces the engine's run-level and per-stratum
        // counters for the evaluations the session has retained.
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let engine = stats.result.unwrap();
        let engine = engine.get("engine").expect("stats carry an engine section");
        assert!(engine.get("evaluations").unwrap().as_u64().unwrap() >= 1);
        assert!(engine.get("rule_cost_total").unwrap().as_u64().unwrap() > 0);
        assert!(engine.get("firings").unwrap().as_u64().unwrap() > 0);
        let strata = match engine.get("strata").unwrap() {
            Value::Array(strata) => strata,
            other => panic!("{other:?}"),
        };
        assert!(!strata.is_empty());
        assert!(strata[0].get("derived_tuples").unwrap().as_u64().is_some());

        // The explain request's audit record carries its rule-cost delta
        // and the top-rules exemplar, and audit-top ranks by it.
        let resp = client.request(r#"{"op":"audit-tail","n":10}"#).unwrap();
        let result = resp.result.unwrap();
        let records = match result.get("records").unwrap() {
            Value::Array(records) => records,
            other => panic!("{other:?}"),
        };
        let explain = records
            .iter()
            .find(|r| r.get("class").unwrap().as_str() == Some("explain"))
            .expect("explain record on the tail");
        assert!(
            explain.get("rule_cost").unwrap().as_u64().unwrap() > 0,
            "cold explain forced an evaluation: {explain:?}"
        );
        let top = match explain.get("top_rules").unwrap() {
            Value::Array(top) => top,
            other => panic!("{other:?}"),
        };
        assert!(!top.is_empty());
        assert!(top[0].get("cost").unwrap().as_u64().unwrap() > 0);

        let resp = client
            .request(r#"{"op":"audit-top","by":"rule_cost","n":3}"#)
            .unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{resp:?}");
        let result = resp.result.unwrap();
        assert_eq!(result.get("by").unwrap().as_str(), Some("rule_cost"));

        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sends one request line and returns its result payload.
    fn result_of(client: &mut Client, line: &str) -> Value {
        let resp = client.request(line).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok, "{line}: {resp:?}");
        resp.result.unwrap()
    }

    #[test]
    fn audit_costs_come_from_the_evaluations_the_request_forced() {
        let dir = std::env::temp_dir().join(format!("p3-audit-forced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::start(
            P3::from_source(ACQ).unwrap(),
            ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                workers: 1,
                audit: Some(p3_audit::AuditConfig::new(&dir)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        // Two cold demand queries on different atoms: each forces its own
        // evaluation, and the second record must carry only its own.
        let second = r#"know(\"Steve\",\"Elena\")"#;
        for query in [Q.replace('"', "\\\""), second.to_string()] {
            result_of(
                &mut client,
                &format!(r#"{{"op":"probability","query":"{query}"}}"#),
            );
        }
        let plan = result_of(
            &mut client,
            &format!(r#"{{"op":"explain","query":"{second}"}}"#),
        );
        let tail = result_of(&mut client, r#"{"op":"audit-tail","n":10}"#);
        let records = tail.get("records").and_then(Value::as_array).unwrap();
        // Newest first: explain, then the second probability.
        let record = &records[1];
        assert_eq!(record.get("class").unwrap().as_str(), Some("probability"));
        assert_eq!(
            record.get("rule_cost").unwrap().as_u64(),
            plan.get("total_cost").unwrap().as_u64()
        );
        let pairs = |v: &Value, name: &str, cost: &str| -> Vec<(String, u64)> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|r| {
                    let label = r.get(name).unwrap().as_str().unwrap().to_string();
                    (label, r.get(cost).unwrap().as_u64().unwrap())
                })
                .filter(|&(_, c)| c > 0)
                .take(p3_audit::MAX_TOP_RULES)
                .collect()
        };
        assert_eq!(
            pairs(record.get("top_rules").unwrap(), "rule", "cost"),
            pairs(plan.get("rules").unwrap(), "rule", "cost"),
        );
        // The warm explain forced nothing.
        assert_eq!(records[0].get("rule_cost").unwrap().as_u64(), Some(0));
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_query_is_charged_for_the_evaluation_it_forced() {
        let dir = std::env::temp_dir().join(format!("p3-audit-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::start(
            P3::from_source(ACQ).unwrap(),
            ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                workers: 1,
                audit: Some(p3_audit::AuditConfig::new(&dir)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        // Neither atom is derivable, but a cold demand query evaluates
        // before it can tell: the error is charged that evaluation.
        for (op, query) in [
            ("probability", r#"know(\"Mary\",\"Steve\")"#),
            ("explain", r#"know(\"Steve\",\"Ben\")"#),
        ] {
            let resp = client
                .request(&format!(r#"{{"op":"{op}","query":"{query}"}}"#))
                .unwrap();
            assert_eq!(resp.status, crate::protocol::Status::Error, "{resp:?}");
        }
        let tail = result_of(&mut client, r#"{"op":"audit-tail","n":2}"#);
        let records = tail.get("records").and_then(Value::as_array).unwrap();
        for (record, class) in records.iter().zip(["explain", "probability"]) {
            assert_eq!(record.get("class").unwrap().as_str(), Some(class));
            assert_eq!(record.get("outcome").unwrap().as_str(), Some("error"));
            let stages: Vec<&str> = record
                .get("stages")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|s| s.get("name").unwrap().as_str().unwrap())
                .collect();
            assert_eq!(stages, ["extract"], "{class}");
            assert!(record.get("rule_cost").unwrap().as_u64().unwrap() > 0);
            assert!(!record
                .get("top_rules")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty());
            assert!(record.get("session_misses").unwrap().as_u64().unwrap() > 0);
        }
        // So `audit-top --by rule_cost` ranks the failed requests.
        let top = result_of(&mut client, r#"{"op":"audit-top","by":"rule_cost","n":1}"#);
        let records = top.get("records").and_then(Value::as_array).unwrap();
        assert_eq!(records[0].get("outcome").unwrap().as_str(), Some("error"));
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hop_limit_reaches_modification() {
        let server = start_tcp();
        let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        let q = Q.replace('"', "\\\"");
        // One hop cannot derive know(Ben,Elena): P = 0 under the limit.
        let p = result_of(
            &mut client,
            &format!(r#"{{"op":"probability","query":"{q}","hop_limit":1}}"#),
        );
        assert_eq!(p.get("probability").unwrap().as_f64(), Some(0.0));
        for line in [
            format!(r#"{{"op":"modification","query":"{q}","target":0.5,"hop_limit":1}}"#),
            format!(
                r#"{{"op":"profile","class":"modification","query":"{q}","target":0.5,"hop_limit":1}}"#
            ),
        ] {
            let result = result_of(&mut client, &line);
            if let Some(initial) = result.get("initial_probability") {
                assert_eq!(initial.as_f64(), Some(0.0), "{line}");
            } else {
                // The profile reports the plan's achieved probability.
                assert_eq!(result.get("probability").unwrap().as_f64(), Some(0.0));
            }
        }
        // Without the limit the modification starts from the full answer.
        let result = result_of(
            &mut client,
            &format!(r#"{{"op":"modification","query":"{q}","target":0.5}}"#),
        );
        let initial = result.get("initial_probability").unwrap().as_f64().unwrap();
        assert!((initial - 0.16384).abs() < 1e-12, "{initial}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_request_drains_and_stops() {
        let server = start_tcp();
        let addr = server.tcp_addr().unwrap().to_string();
        let mut client = Client::connect_tcp(&addr).unwrap();
        let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Ok);
        assert!(server.is_shutting_down());
        server.join();
        // New connections are refused (or reset) once the listener is gone.
        std::thread::sleep(Duration::from_millis(100));
        let refused = match Client::connect_tcp(&addr) {
            Err(_) => true,
            Ok(mut c) => c.request(r#"{"op":"ping"}"#).is_err(),
        };
        assert!(refused, "listener should be closed after shutdown");
    }
}
