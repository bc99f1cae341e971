//! Lightweight hierarchical spans with a ring-buffer collector.
//!
//! Collection is off by default: [`span`] costs one relaxed atomic load
//! and returns an inert guard. Binaries that want tracing call
//! [`set_enabled`]`(true)` (`p3-serve` does this at startup; the `p3`
//! CLI and bench binaries do it for `--trace-out`).
//!
//! While enabled, each guard records its name, start time, duration,
//! thread, parent and `key=value` fields. Parentage is tracked through a
//! thread-local "current span" stack; [`child_of`] grafts a span onto an
//! explicit parent id instead, which is how a request's root span
//! (opened on the connection handler thread) adopts the execution span
//! opened on a worker thread.
//!
//! Finished spans land in a bounded global ring (oldest dropped first).
//! [`recent_roots`] rebuilds the most recent span trees for the service
//! `trace` op; [`chrome_trace_json`] renders the whole ring as Chrome
//! trace-event JSON for chrome://tracing.
//!
//! While enabled, each thread additionally maintains a stack of its *live*
//! (unfinished) span names, published through [`live_stacks`] — the raw
//! material of the sampling wall-clock profiler in [`crate::profile`].

use crate::json::Value;
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Maximum finished spans retained; older records are dropped.
const RING_CAP: usize = 16 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Id of the innermost live span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Small stable per-thread id for trace output (0 = unassigned).
    static TID: Cell<u64> = const { Cell::new(0) };
    /// This thread's stack of *live* span names, shared with the sampling
    /// profiler through [`live_stacks`].
    static LIVE: OnceCell<Arc<LiveStack>> = const { OnceCell::new() };
}

/// The names of the spans currently open on one thread, innermost last.
type LiveStack = Mutex<Vec<&'static str>>;

/// The global live-stack registry's entries: `(thread id, stack)`.
type LiveRegistry = Mutex<Vec<(u64, Weak<LiveStack>)>>;

/// Registry of every thread's live-span stack. Entries are weak: a stack
/// dies with its thread and is pruned on the next [`live_stacks`] call.
fn live_registry() -> &'static LiveRegistry {
    static REGISTRY: OnceLock<LiveRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f` on this thread's live-span stack, registering it globally on
/// first use.
fn with_live_stack<R>(f: impl FnOnce(&LiveStack) -> R) -> R {
    LIVE.with(|cell| {
        let stack = cell.get_or_init(|| {
            let stack = Arc::new(Mutex::new(Vec::new()));
            live_registry()
                .lock()
                .unwrap()
                .push((thread_id(), Arc::downgrade(&stack)));
            stack
        });
        f(stack)
    })
}

/// A point-in-time snapshot of every thread's open spans: `(thread id,
/// span names outermost→innermost)`. Threads with no open span are
/// skipped; dead threads are pruned. This is the input of the sampling
/// wall-clock profiler in [`crate::profile`].
pub fn live_stacks() -> Vec<(u64, Vec<&'static str>)> {
    let mut registry = live_registry().lock().unwrap();
    let mut out = Vec::new();
    registry.retain(|(tid, weak)| match weak.upgrade() {
        Some(stack) => {
            let names = stack.lock().unwrap();
            if !names.is_empty() {
                out.push((*tid, names.clone()));
            }
            true
        }
        None => false,
    });
    out
}

/// Turns span collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic process clock origin; all span times are µs since this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// A finished span as stored in the ring.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Static span name, e.g. `"request"` or `"provenance.extract"`.
    pub name: &'static str,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Small per-thread id (for trace viewers).
    pub tid: u64,
    /// Attached `key=value` annotations.
    pub fields: Vec<(&'static str, String)>,
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

struct SpanData {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    /// CURRENT value to restore when this guard drops.
    prev: u64,
    fields: Vec<(&'static str, String)>,
}

/// RAII span guard: records itself into the ring when dropped. Inert
/// (and nearly free) while collection is disabled.
pub struct Span {
    data: Option<SpanData>,
}

impl Span {
    fn start(name: &'static str, parent: u64) -> Span {
        if !enabled() {
            return Span { data: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| {
            let prev = c.get();
            c.set(id);
            prev
        });
        with_live_stack(|s| s.lock().unwrap().push(name));
        Span {
            data: Some(SpanData {
                id,
                parent,
                name,
                start_us: now_us(),
                prev,
                fields: Vec::new(),
            }),
        }
    }

    /// This span's id, or 0 when collection is disabled. Pass it to
    /// [`child_of`] to parent work done on another thread.
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }

    /// Attaches a `key=value` annotation (no-op while disabled).
    pub fn add_field(&mut self, key: &'static str, value: impl Display) {
        if let Some(data) = self.data.as_mut() {
            data.fields.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        CURRENT.with(|c| c.set(data.prev));
        with_live_stack(|s| {
            s.lock().unwrap().pop();
        });
        let record = SpanRecord {
            id: data.id,
            parent: data.parent,
            name: data.name,
            start_us: data.start_us,
            dur_us: now_us().saturating_sub(data.start_us),
            tid: thread_id(),
            fields: data.fields,
        };
        let mut ring = ring().lock().unwrap();
        if ring.len() == RING_CAP {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// Opens a span as a child of the innermost live span on this thread
/// (a root if there is none).
pub fn span(name: &'static str) -> Span {
    let parent = if enabled() {
        CURRENT.with(Cell::get)
    } else {
        0
    };
    Span::start(name, parent)
}

/// Opens a span under an explicit parent id (0 for a root). This is the
/// cross-thread hook: the parent guard lives on another thread and its
/// id travelled with the work item.
pub fn child_of(name: &'static str, parent: u64) -> Span {
    Span::start(name, parent)
}

/// Clears the ring (tests and fresh trace captures).
pub fn clear() {
    ring().lock().unwrap().clear();
}

/// Copies out every finished span currently in the ring, oldest first.
pub fn snapshot() -> Vec<SpanRecord> {
    ring().lock().unwrap().iter().cloned().collect()
}

/// A reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanTree>,
}

fn build_tree(record: &SpanRecord, all: &[SpanRecord]) -> SpanTree {
    let mut children: Vec<SpanTree> = all
        .iter()
        .filter(|r| r.parent == record.id)
        .map(|r| build_tree(r, all))
        .collect();
    children.sort_by_key(|t| t.record.start_us);
    SpanTree {
        record: record.clone(),
        children,
    }
}

/// The `n` most recent root spans (optionally only those named `name`)
/// as fully reconstructed trees, most recent first. Children always
/// finish before their parent, so a root present in the ring normally
/// has its whole subtree present too (barring ring overflow).
pub fn recent_roots(name: Option<&str>, n: usize) -> Vec<SpanTree> {
    let all = snapshot();
    let mut roots: Vec<&SpanRecord> = all
        .iter()
        .filter(|r| r.parent == 0 && name.is_none_or(|want| r.name == want))
        .collect();
    roots.sort_by_key(|r| std::cmp::Reverse(r.start_us));
    roots
        .into_iter()
        .take(n)
        .map(|r| build_tree(r, &all))
        .collect()
}

/// One span as a Chrome "complete" (`ph:"X"`) trace event.
fn event(record: &SpanRecord) -> Value {
    let ids = [("span_id", record.id), ("parent_id", record.parent)];
    let args = ids.iter().map(|&(key, id)| (key, id.to_string()));
    let args = args.chain(
        record
            .fields
            .iter()
            .map(|(key, value)| (*key, value.clone())),
    );
    Value::object(vec![
        ("name", record.name.into()),
        ("ph", "X".into()),
        ("cat", "p3".into()),
        ("pid", 1u64.into()),
        ("tid", record.tid.into()),
        ("ts", record.start_us.into()),
        ("dur", record.dur_us.into()),
        (
            "args",
            Value::object(args.map(|(key, value)| (key, value.into())).collect()),
        ),
    ])
}

fn render_chrome<'a>(records: impl IntoIterator<Item = &'a SpanRecord>) -> String {
    Value::object(vec![
        ("traceEvents", records.into_iter().map(event).collect()),
        ("displayTimeUnit", "ms".into()),
    ])
    .to_json()
}

/// Renders every span in the ring as Chrome trace-event JSON ("complete"
/// `ph:"X"` events), loadable in chrome://tracing or Perfetto.
pub fn chrome_trace_json() -> String {
    let all = snapshot();
    render_chrome(all.iter())
}

/// Renders only the given span trees (e.g. from [`recent_roots`]) as
/// Chrome trace-event JSON — the admin plane's `GET /traces` payload.
pub fn chrome_trace_json_for(trees: &[SpanTree]) -> String {
    fn walk<'t>(tree: &'t SpanTree, out: &mut Vec<&'t SpanRecord>) {
        out.push(&tree.record);
        for child in &tree.children {
            walk(child, out);
        }
    }
    let mut records = Vec::new();
    for tree in trees {
        walk(tree, &mut records);
    }
    records.sort_by_key(|r| r.start_us);
    render_chrome(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the global ring, so they run under one lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap()
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = serial();
        set_enabled(false);
        clear();
        let mut s = span("noop");
        assert_eq!(s.id(), 0);
        s.add_field("k", 1);
        drop(s);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nesting_tracks_parentage_through_the_thread_local() {
        let _guard = serial();
        set_enabled(true);
        clear();
        {
            let outer = span("outer");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = span("inner");
                assert_ne!(inner.id(), outer_id);
            }
            let sibling = span("sibling");
            drop(sibling);
        }
        set_enabled(false);
        let all = snapshot();
        assert_eq!(all.len(), 3);
        let outer = all.iter().find(|r| r.name == "outer").unwrap();
        let inner = all.iter().find(|r| r.name == "inner").unwrap();
        let sibling = all.iter().find(|r| r.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
    }

    #[test]
    fn child_of_adopts_work_on_another_thread() {
        let _guard = serial();
        set_enabled(true);
        clear();
        let root = span("request");
        let root_id = root.id();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut exec = child_of("execute", root_id);
                exec.add_field("class", "probability");
            });
        });
        drop(root);
        set_enabled(false);

        let trees = recent_roots(Some("request"), 10);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].record.id, root_id);
        assert_eq!(trees[0].children.len(), 1);
        let exec = &trees[0].children[0];
        assert_eq!(exec.record.name, "execute");
        assert_eq!(exec.record.fields[0], ("class", "probability".to_string()));
        assert_ne!(exec.record.tid, trees[0].record.tid);
    }

    #[test]
    fn recent_roots_returns_most_recent_first_and_honours_n() {
        let _guard = serial();
        set_enabled(true);
        clear();
        for _ in 0..5 {
            drop(span("request"));
            drop(span("other"));
        }
        set_enabled(false);
        let trees = recent_roots(Some("request"), 3);
        assert_eq!(trees.len(), 3);
        assert!(trees[0].record.start_us >= trees[1].record.start_us);
        assert!(trees.iter().all(|t| t.record.name == "request"));
        let unfiltered = recent_roots(None, 100);
        assert_eq!(unfiltered.len(), 10);
    }

    #[test]
    fn live_stacks_tracks_open_spans_and_unwinds() {
        let _guard = serial();
        set_enabled(true);
        clear();
        let own_tid = thread_id();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            let ours: Vec<_> = live_stacks()
                .into_iter()
                .filter(|(tid, _)| *tid == own_tid)
                .collect();
            assert_eq!(ours.len(), 1);
            assert_eq!(ours[0].1, vec!["outer", "inner"]);
        }
        // Closed spans are gone; an empty stack is not reported.
        assert!(!live_stacks().iter().any(|(tid, _)| *tid == own_tid));
        set_enabled(false);
        // Disabled spans never touch the stack.
        let _noop = span("noop");
        assert!(!live_stacks().iter().any(|(tid, _)| *tid == own_tid));
    }

    #[test]
    fn chrome_trace_json_for_renders_only_the_given_trees() {
        let _guard = serial();
        set_enabled(true);
        clear();
        {
            let root = span("request");
            let _child = child_of("execute", root.id());
        }
        drop(span("unrelated"));
        set_enabled(false);
        let trees = recent_roots(Some("request"), 10);
        let json = chrome_trace_json_for(&trees);
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(!json.contains("\"name\":\"unrelated\""));
    }

    #[test]
    fn chrome_trace_json_is_wellformed_and_escapes_fields() {
        let _guard = serial();
        set_enabled(true);
        clear();
        {
            let mut s = span("quoted");
            s.add_field("query", "know(\"Ben\",\"Elena\")");
        }
        set_enabled(false);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"quoted\""));
        assert!(json.contains("know(\\\"Ben\\\",\\\"Elena\\\")"));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        // Balanced braces/brackets outside strings ⇒ parseable shape.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
