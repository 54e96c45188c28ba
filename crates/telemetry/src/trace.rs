//! RAII wall-time spans forming a hierarchical trace tree.
//!
//! A [`Span`] measures the wall time between its creation and its drop.
//! Spans opened while another span is live **on the same thread** become
//! its children, so nesting scopes yields a tree without any explicit
//! plumbing. Finished spans are appended to a global collector;
//! [`drain`] assembles them into a [`Trace`] and empties the collector.
//!
//! While telemetry is disabled ([`crate::enabled`] is false), [`span`]
//! costs one relaxed atomic load and returns an inert guard.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// A finished span as recorded by the collector (internal form).
struct RawSpan {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
    thread_name: Option<String>,
}

/// Monotonic clock origin shared by every span in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn collector() -> MutexGuard<'static, Vec<RawSpan>> {
    static SPANS: OnceLock<Mutex<Vec<RawSpan>>> = OnceLock::new();
    SPANS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Span ids start at 1; 0 means "no parent" (a root span).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Thread ordinals start at 1 and are assigned in first-span order.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost live span on this thread, or 0 at top level.
    static CURRENT: Cell<u64> = const { Cell::new(0) };

    /// This thread's telemetry identity: a process-unique ordinal plus
    /// the OS thread name, captured once on the thread's first span.
    static THREAD_INFO: (u64, Option<String>) = (
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        std::thread::current().name().map(str::to_string),
    );
}

fn thread_info() -> (u64, Option<String>) {
    THREAD_INFO.with(|t| (t.0, t.1.clone()))
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    /// CURRENT value to restore on drop (differs from `parent` for spans
    /// opened with an explicit cross-thread [`SpanContext`]).
    prev: u64,
    name: Cow<'static, str>,
    start_ns: u64,
}

/// RAII guard measuring the wall time of a scope; see [`span`].
///
/// Not `Send`: a span must be dropped on the thread that opened it so the
/// thread-local parent chain stays consistent (RAII scoping guarantees
/// this naturally).
pub struct Span {
    inner: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

/// A handle to a live span that can be passed to another thread so work
/// done there parents under it in the trace tree (see [`span_in`]).
///
/// Obtained from [`current_context`]. The default context parents at the
/// root, as does any context captured while telemetry is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext(u64);

/// The innermost live span on the calling thread, as a [`SpanContext`]
/// that other threads can parent their spans under.
pub fn current_context() -> SpanContext {
    SpanContext(CURRENT.with(|c| c.get()))
}

/// Opens a span named `name`; the returned guard records the scope's wall
/// time when dropped. Inert (one relaxed atomic load, no allocation) while
/// telemetry is disabled.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    open(name, None)
}

/// Opens a span parented under `context` instead of the calling thread's
/// innermost live span. This is how worker threads attach their spans to
/// the span that spawned them rather than surfacing as unlabeled roots.
/// Nested [`span`] calls on the worker thread parent under this span as
/// usual. Inert while telemetry is disabled.
pub fn span_in(name: impl Into<Cow<'static, str>>, context: SpanContext) -> Span {
    open(name, Some(context))
}

fn open(name: impl Into<Cow<'static, str>>, context: Option<SpanContext>) -> Span {
    if !crate::enabled() {
        return Span {
            inner: None,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    let parent = context.map_or(prev, |ctx| ctx.0);
    Span {
        inner: Some(ActiveSpan {
            id,
            parent,
            prev,
            name: name.into(),
            start_ns: now_ns(),
        }),
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            let end_ns = now_ns();
            CURRENT.with(|c| c.set(active.prev));
            let (thread, thread_name) = thread_info();
            collector().push(RawSpan {
                id: active.id,
                parent: active.parent,
                name: active.name,
                start_ns: active.start_ns,
                end_ns,
                thread,
                thread_name,
            });
        }
    }
}

/// One node of an assembled trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Process-unique ordinal of the thread the span ran on, assigned in
    /// first-span order starting at 1 (0 only in traces predating thread
    /// attribution).
    pub thread: u64,
    /// OS name of that thread, when it had one (worker pools name their
    /// threads so trace tooling can group by worker).
    pub thread_name: Option<String>,
    /// Start time in seconds since the process telemetry epoch.
    pub start_secs: f64,
    /// Wall time between the span's open and drop, in seconds.
    pub duration_secs: f64,
    /// Spans opened (and closed) while this one was live, oldest first.
    pub children: Vec<SpanNode>,
}

/// A fully assembled trace: the forest of root spans, oldest first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Top-level spans (no live parent on their thread when opened).
    pub roots: Vec<SpanNode>,
}

impl Trace {
    /// Total number of spans in the trace.
    pub fn len(&self) -> usize {
        fn count(nodes: &[SpanNode]) -> usize {
            nodes.iter().map(|n| 1 + count(&n.children)).sum()
        }
        count(&self.roots)
    }

    /// True when the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Depth-first walk over every node in the trace.
    pub(crate) fn walk(&self, mut visit: impl FnMut(&SpanNode)) {
        fn go(nodes: &[SpanNode], visit: &mut impl FnMut(&SpanNode)) {
            for n in nodes {
                visit(n);
                go(&n.children, visit);
            }
        }
        go(&self.roots, &mut visit);
    }

    /// The trace as JSON (`trace.json`): `{"roots": [...]}`, each span an
    /// object whose keys follow [`SpanNode`]'s field order.
    pub fn to_json(&self) -> Json {
        Json::object([("roots", self.roots.iter().map(SpanNode::to_json).collect())])
    }
}

impl SpanNode {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", (&self.name).into()),
            ("thread", self.thread.into()),
            ("thread_name", self.thread_name.as_ref().into()),
            ("start_secs", self.start_secs.into()),
            ("duration_secs", self.duration_secs.into()),
            (
                "children",
                self.children.iter().map(SpanNode::to_json).collect(),
            ),
        ])
    }
}

/// Removes all finished spans from the collector and assembles them into
/// a [`Trace`]. Spans whose parent is still live (not yet dropped) are
/// promoted to roots rather than lost.
pub fn drain() -> Trace {
    let raw: Vec<RawSpan> = std::mem::take(&mut *collector());
    build_tree(raw)
}

/// Discards all finished spans without assembling them.
pub fn clear() {
    collector().clear();
}

fn build_tree(mut raw: Vec<RawSpan>) -> Trace {
    // Children finish (and are pushed) before their parents, so sort by
    // start time to get stable oldest-first ordering at every level.
    raw.sort_by_key(|r| (r.start_ns, r.id));
    let present: HashMap<u64, usize> = raw.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in raw.iter().enumerate() {
        if r.parent != 0 && present.contains_key(&r.parent) {
            children.entry(r.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    fn assemble(i: usize, raw: &[RawSpan], children: &HashMap<u64, Vec<usize>>) -> SpanNode {
        let r = &raw[i];
        let kids = children
            .get(&r.id)
            .map(|ks| ks.iter().map(|&k| assemble(k, raw, children)).collect())
            .unwrap_or_default();
        SpanNode {
            name: r.name.to_string(),
            thread: r.thread,
            thread_name: r.thread_name.clone(),
            start_secs: r.start_ns as f64 / 1e9,
            duration_secs: (r.end_ns - r.start_ns) as f64 / 1e9,
            children: kids,
        }
    }
    Trace {
        roots: roots
            .into_iter()
            .map(|i| assemble(i, &raw, &children))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(false);
        {
            let _a = span("a");
            let _b = span("b");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_builds_a_tree() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        {
            let _root = span("root");
            {
                let _first = span("first");
                let _leaf = span("leaf");
            }
            let _second = span("second");
        }
        crate::set_enabled(false);
        let trace = drain();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.roots.len(), 1);
        let root = &trace.roots[0];
        assert_eq!(root.name, "root");
        let kids: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["first", "second"]);
        assert_eq!(root.children[0].children[0].name, "leaf");
    }

    #[test]
    fn child_intervals_nest_within_parent() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::set_enabled(false);
        let trace = drain();
        let outer = &trace.roots[0];
        let inner = &outer.children[0];
        let eps = 1e-9;
        assert!(inner.start_secs + eps >= outer.start_secs);
        assert!(
            inner.start_secs + inner.duration_secs <= outer.start_secs + outer.duration_secs + eps
        );
        assert!(inner.duration_secs <= outer.duration_secs + eps);
        assert!(outer.duration_secs >= 0.004);
    }

    #[test]
    fn spans_from_other_threads_become_separate_roots() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        {
            let _main = span("main");
            std::thread::spawn(|| {
                let _worker = span("worker");
            })
            .join()
            .unwrap();
        }
        crate::set_enabled(false);
        let trace = drain();
        let names: Vec<&str> = trace.roots.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"main"));
        assert!(names.contains(&"worker"));
        assert!(trace.roots.iter().all(|r| r.children.is_empty()));
    }

    #[test]
    fn span_in_parents_worker_spans_under_the_spawning_span() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        {
            let _root = span("root");
            let ctx = current_context();
            std::thread::Builder::new()
                .name("pool-7".to_string())
                .spawn(move || {
                    let _w = span_in("worker", ctx);
                    let _leaf = span("leaf");
                })
                .unwrap()
                .join()
                .unwrap();
        }
        crate::set_enabled(false);
        let trace = drain();
        assert_eq!(trace.roots.len(), 1);
        let root = &trace.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 1);
        let worker = &root.children[0];
        assert_eq!(worker.name, "worker");
        assert_eq!(worker.thread_name.as_deref(), Some("pool-7"));
        assert_ne!(worker.thread, root.thread);
        assert_eq!(worker.children.len(), 1);
        let leaf = &worker.children[0];
        assert_eq!(leaf.name, "leaf");
        // Nested spans on the worker thread stay on the worker's chain.
        assert_eq!(leaf.thread, worker.thread);
    }

    #[test]
    fn every_span_carries_a_nonzero_thread_ordinal() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        {
            let _main = span("main");
            std::thread::spawn(|| {
                let _other = span("other");
            })
            .join()
            .unwrap();
        }
        crate::set_enabled(false);
        let trace = drain();
        let mut threads = Vec::new();
        trace.walk(|n| threads.push(n.thread));
        assert_eq!(threads.len(), 2);
        assert!(threads.iter().all(|&t| t > 0));
        assert_ne!(threads[0], threads[1]);
    }

    #[test]
    fn default_context_and_disabled_context_parent_at_the_root() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(false);
        let while_disabled = current_context();
        crate::set_enabled(true);
        {
            let _a = span_in("a", SpanContext::default());
            // `a` is live, but the explicit context still wins.
            let _b = span_in("b", while_disabled);
        }
        crate::set_enabled(false);
        let trace = drain();
        let names: Vec<&str> = trace.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn orphaned_children_are_promoted_to_roots() {
        let _guard = crate::test_guard();
        clear();
        crate::set_enabled(true);
        let parent = span("parent");
        {
            let _child = span("child");
        }
        // Drain while the parent is still live: the child's parent id is
        // absent from the collector and the child must surface as a root.
        let trace = drain();
        crate::set_enabled(false);
        drop(parent);
        clear();
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.roots[0].name, "child");
    }
}
