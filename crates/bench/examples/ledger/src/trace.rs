//! The traced run's span recorder and counting allocator.
//!
//! Spans are recorded by the ledger itself, around its calls into each
//! layer's public functions: name, start, end, parent and request id,
//! kept in memory and written as chrome-trace JSON when the run ends. A
//! layer's self time is its span's duration minus what its child spans
//! cover. Allocation counts come from a global allocator that counts only
//! while tracing is on, and are attributed the same way.
//!
//! Recording and allocation counts are per thread: only the thread that
//! sends the requests records, and only its allocations count.

use p3_service::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Threads recording spans; allocations are counted while any is. A
/// statistic switch that publishes no other data, hence `Relaxed`.
static RECORDING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised `Cell`s have no lazy set-up and no destructor, so
    // touching them never allocates and cannot re-enter the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting this thread's allocations
/// (and their bytes) while tracing is on. Off, it costs one relaxed load
/// per call.
pub struct CountingAlloc;

fn count(bytes: usize) {
    if RECORDING.load(Ordering::Relaxed) > 0 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only an atomic
// and const-initialised thread-locals and never allocates, so it cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// One recorded span. Times are nanoseconds since the recorder started;
/// allocation counts are inclusive of child spans.
pub struct SpanRec {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Replay spans time a layer split after the request has finished;
    /// they are excluded from request totals.
    pub replay: bool,
}

impl SpanRec {
    pub fn dur_ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// One clock for every thread's spans, so they line up in one trace.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Recorder {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    req: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, allocation counts included.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        })
    });
    RECORDING.fetch_add(1, Ordering::Relaxed);
}

/// Stops recording on this thread and returns every span it recorded.
pub fn finish() -> Vec<SpanRec> {
    RECORDING.fetch_sub(1, Ordering::Relaxed);
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

fn open(name: &'static str, replay: bool) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start = now_ns();
        let (allocs, alloc_bytes) = allocs();
        rec.spans.push(SpanRec {
            name,
            req: rec.req,
            parent: rec.stack.last().copied(),
            start,
            end: start,
            allocs,
            alloc_bytes,
            replay,
        });
        rec.stack.push(idx);
        Some(idx)
    })
}

fn close(idx: usize) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("span closed while recording");
        rec.stack.pop();
        let end = now_ns();
        let (allocs, alloc_bytes) = allocs();
        let span = &mut rec.spans[idx];
        span.end = end;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
    })
}

/// Runs `f` inside a span named after the layer it calls into. Without an
/// active recorder this is a plain call.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = open(name, false) else {
        return f();
    };
    let out = f();
    close(idx);
    out
}

/// Like [`span`], for replay timings outside the request total.
pub fn replay<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = open(name, true) else {
        return f();
    };
    let out = f();
    close(idx);
    out
}

/// Runs one request `f` under a root `request` span tagged `req`.
pub fn request<R>(req: u64, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.req = req;
        }
    });
    span("request", f)
}

/// Per-request self time (ms) and allocations of each layer, summed over
/// the recorded requests, plus the request wall time they sum towards.
#[derive(Default)]
pub struct LayerTotals {
    pub requests: u64,
    pub request_ms: f64,
    pub self_ms: BTreeMap<&'static str, f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl LayerTotals {
    /// Mean self time of `layer` per request, ms.
    pub fn per_request(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0) / self.requests.max(1) as f64
    }

    /// Share of the request time spent in `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        crate::common::ratio(
            self.self_ms.get(layer).copied().unwrap_or(0.0),
            self.request_ms,
        )
    }

    /// Share of the request time attributed to named layers.
    pub fn attributed(&self) -> f64 {
        let named: f64 = self.self_ms.values().sum();
        crate::common::ratio(named, self.request_ms)
    }

    pub fn add(&mut self, layer: &'static str, ms: f64) {
        *self.self_ms.entry(layer).or_insert(0.0) += ms;
    }
}

/// Self times of every non-replay span. The `demand` span (one call to
/// `evaluate_query_with_provenance`) is split into `transform`, `engine`
/// and `capture` using the request's replay spans: `replay.transform`
/// times `magic_transform`, `replay.engine` times `Engine::run` with a
/// no-op sink on the transformed program; the rest of the call — capture
/// sink and projection back onto the source program — is `capture`.
pub fn layer_totals(spans: &[SpanRec]) -> LayerTotals {
    let mut child_ms = vec![0.0; spans.len()];
    let mut child_allocs = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.dur_ms();
            child_allocs[p].0 += s.allocs;
            child_allocs[p].1 += s.alloc_bytes;
        }
    }
    let mut replays: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.replay) {
        *replays.entry((s.req, s.name)).or_insert(0.0) += s.dur_ms();
    }
    let mut totals = LayerTotals::default();
    for (i, s) in spans.iter().enumerate() {
        if s.replay {
            continue;
        }
        let self_ms = (s.dur_ms() - child_ms[i]).max(0.0);
        totals.allocs += s.allocs - child_allocs[i].0;
        totals.alloc_bytes += s.alloc_bytes - child_allocs[i].1;
        match s.name {
            "request" => {
                totals.requests += 1;
                totals.request_ms += s.dur_ms();
            }
            "demand" => {
                let t = replays
                    .get(&(s.req, "replay.transform"))
                    .copied()
                    .unwrap_or(0.0);
                let e = replays
                    .get(&(s.req, "replay.engine"))
                    .copied()
                    .unwrap_or(0.0);
                let scale = if t + e > self_ms {
                    self_ms / (t + e)
                } else {
                    1.0
                };
                totals.add("transform", t * scale);
                totals.add("engine", e * scale);
                totals.add("capture", self_ms - (t + e) * scale);
            }
            name => totals.add(name, self_ms),
        }
    }
    totals
}

/// The duration of every request span, ms.
pub fn request_ms(spans: &[SpanRec]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == "request")
        .map(SpanRec::dur_ms)
        .collect()
}

/// The spans as chrome-trace (`chrome://tracing`) JSON, replay spans on a
/// track of their own, with allocation counts in each event's args,
/// followed by the per-layer self time per request.
pub fn chrome_trace(spans: &[SpanRec], layers: &LayerTotals) -> String {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::object(vec![
                ("name", Value::from(s.name)),
                ("ph", Value::from("X")),
                ("ts", Value::from(s.start as f64 / 1e3)),
                ("dur", Value::from((s.end - s.start) as f64 / 1e3)),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(u64::from(s.replay))),
                (
                    "args",
                    Value::object(vec![
                        ("id", Value::from(i)),
                        ("req", Value::from(s.req)),
                        ("parent", s.parent.map(Value::from).unwrap_or(Value::Null)),
                        ("allocs", Value::from(s.allocs)),
                        ("alloc_bytes", Value::from(s.alloc_bytes)),
                    ]),
                ),
            ])
        })
        .collect();
    let self_ms = layers
        .self_ms
        .iter()
        .map(|(k, v)| {
            (
                k.to_string(),
                Value::from(v / layers.requests.max(1) as f64),
            )
        })
        .collect();
    Value::object(vec![
        ("traceEvents", Value::Array(events)),
        ("self_ms_per_request", Value::Object(self_ms)),
        ("requests", Value::from(layers.requests)),
        (
            "request_ms_per_request",
            Value::from(layers.request_ms / layers.requests.max(1) as f64),
        ),
    ])
    .to_json()
}
