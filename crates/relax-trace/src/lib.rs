//! End-to-end tracing for the Relax stack: hierarchical spans across
//! compile, VM and serving, with Chrome trace-event export.
//!
//! The compiler (`relax-passes`), the VM (`relax-vm`) and the
//! serving engine (`relax-serve`) each kept their own timing silo —
//! per-pass wall times, per-kernel compile/run splits, request latency
//! percentiles. This crate gives them one time-ordered substrate:
//!
//! - [`span`] opens a synchronous RAII span on the current thread. Spans
//!   nest through a thread-local stack, so a kernel span launched while
//!   a request executes records that request as its parent. The guard
//!   **always** measures wall time — [`SpanGuard::finish`] returns the
//!   elapsed [`Duration`] whether or not tracing is enabled — so callers
//!   feed their reports (e.g. `CompileReport`) from the same clock that
//!   stamps the trace, and the two can never disagree.
//! - [`async_begin`]/[`async_end`] bracket work that migrates across
//!   threads (a serving request travels from the submit thread through
//!   the queue to a worker); the [`SpanId`] is carried alongside the
//!   work and closes the span wherever it lands.
//! - [`instant`] marks point events (allocator fallbacks, shed
//!   requests).
//!
//! Events carry typed [`Payload`]s and land in a lock-sharded bounded
//! buffer ([`take`] drains it). Two exporters read a drained [`Trace`]:
//! [`chrome_json`] writes Chrome trace-event JSON loadable in
//! `chrome://tracing` / Perfetto (re-checkable with
//! [`validate_chrome_trace`]), and [`flame_summary`] prints a
//! plain-text hot-path table.
//!
//! # Cost when disabled
//!
//! Tracing is compiled in but **off** by default. The off fast path of
//! every emission function is a single relaxed atomic load (after a
//! one-time env check): no id is allocated, no name is formatted — name
//! and payload arguments are closures evaluated only when recording —
//! and no event is buffered; a span only pushes a `0` on its thread's
//! parent stack and pops it on close. Set `RELAX_TRACE=1` in the
//! environment or call [`set_enabled`]`(true)` to record.
//!
//! # Ownership
//!
//! Every switch-on starts a recording *epoch*, and span ids carry it. An
//! event is recorded in the live epoch only if its parent (explicit, or
//! the innermost open span on its thread) is recorded in the same epoch
//! or it has none; so a [`Capture`] holds exactly the spans that opened
//! while it was live — including their closes, which it waits for — and
//! never a child of work that began untraced or in an earlier capture.
//!
//! ```
//! let _capture = relax_trace::Capture::begin();
//! {
//!     let sp = relax_trace::span("compile", || "pass:demo".to_string());
//!     let wall = sp.finish_with(|| relax_trace::Payload::Pass {
//!         pass: "demo".to_string(),
//!         changed: false,
//!     });
//!     assert!(wall.as_nanos() > 0);
//! }
//! let trace = _capture.finish();
//! trace.validate().unwrap();
//! assert_eq!(trace.sync_span_count("compile", "pass:"), 1);
//! let stats = relax_trace::validate_chrome_trace(&trace.chrome_json()).unwrap();
//! assert_eq!(stats.sync_pairs, 1);
//! ```

#![forbid(unsafe_code)]

mod buffer;
mod chrome;
mod event;
mod flame;
mod lock;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

pub use buffer::{clear, dropped, set_capacity, take, Trace, DEFAULT_CAPACITY};
pub use chrome::{chrome_json, parse_json, validate_chrome_trace, ChromeStats, Json};
pub use event::{
    CacheOutcome, EventKind, Payload, RequestPhase, SessionPhase, SpanId, TraceEvent, WorkerEvent,
};
pub use flame::flame_summary;
pub use lock::{lock_wait_stats, reset_lock_wait_stats, LockSite, LockWaitStat};

// ---------------------------------------------------------------------
// The enable switch: the recording epoch.
// ---------------------------------------------------------------------

/// [`LIVE`] value while nothing records.
const OFF: u64 = 0;
/// [`LIVE`] value until the first call consults `RELAX_TRACE`.
const UNINIT: u64 = u64::MAX;

/// The recording epoch, or [`OFF`]. Every switch-on (a [`Capture`], or
/// [`set_enabled`] from off) starts a fresh epoch, and every recorded
/// event carries the epoch of the work it belongs to in its id (see
/// [`epoch_of`]), so one recording never collects another's events.
static LIVE: AtomicU64 = AtomicU64::new(UNINIT);
static LAST_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Span ids keep the epoch above this bit and a per-process counter
/// below it. Ids stay below 2^53, exact in the Chrome JSON, for 2^21
/// epochs.
const EPOCH_SHIFT: u32 = 32;

fn new_epoch() -> u64 {
    LAST_EPOCH.fetch_add(1, Ordering::Relaxed) + 1
}

/// The recording epoch a span id was allocated in.
pub(crate) fn epoch_of(id: SpanId) -> u64 {
    id >> EPOCH_SHIFT
}

/// One-time cold path: resolve the initial state from `RELAX_TRACE`.
#[cold]
fn init_state() -> u64 {
    let on = matches!(
        std::env::var("RELAX_TRACE").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    );
    // Racing initializers agree on on/off (the env cannot change between
    // them), and an explicit `set_enabled` always wins via a plain store.
    let _ = LIVE.compare_exchange(
        UNINIT,
        if on { new_epoch() } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    LIVE.load(Ordering::Relaxed)
}

/// The recording epoch, or [`OFF`].
#[inline]
fn live_epoch() -> u64 {
    match LIVE.load(Ordering::Relaxed) {
        UNINIT => init_state(),
        epoch => epoch,
    }
}

/// `true` when tracing records events. The hot path is a single relaxed
/// atomic load; the first call per process consults `RELAX_TRACE`.
#[inline]
pub fn enabled() -> bool {
    live_epoch() != OFF
}

/// Programmatically switches tracing on or off, overriding
/// `RELAX_TRACE`. Switching on from off starts a fresh epoch.
pub fn set_enabled(on: bool) {
    if !on {
        LIVE.store(OFF, Ordering::Relaxed);
    } else if live_epoch() == OFF {
        let _ = LIVE.compare_exchange(OFF, new_epoch(), Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// The epoch a new event records in, or `None` when it is not recorded:
/// tracing is off, or its parent belongs to another epoch — work an
/// earlier recording started is not this recording's.
fn owning_epoch(parent: Option<SpanId>) -> Option<u64> {
    let epoch = live_epoch();
    (epoch != OFF && parent.is_none_or(|p| epoch_of(p) == epoch)).then_some(epoch)
}

// ---------------------------------------------------------------------
// Per-thread identity and the parent stack.
// ---------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static PARENTS: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The trace-local id of the calling thread (assigned densely from 1 on
/// first use; stable for the thread's lifetime).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed) + 1;
            t.set(id);
        }
        id
    })
}

/// Nanoseconds since the process trace epoch (the first event ever
/// recorded anchors it).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The innermost open span on this thread: `Some(0)` inside a span
/// that is not recorded, whose children then stay unrecorded too.
fn current_parent() -> Option<SpanId> {
    PARENTS
        .try_with(|p| p.borrow().last().copied())
        .ok()
        .flatten()
}

// ---------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------

fn emit(kind: EventKind, id: SpanId, parent: Option<SpanId>, cat: &'static str, name: String, payload: Payload) -> bool {
    buffer::push(TraceEvent {
        seq: 0, // stamped by the buffer
        ts_ns: now_ns(),
        tid: thread_id(),
        kind,
        id,
        parent,
        cat,
        name,
        payload,
    })
}

/// An open synchronous span. Dropping it closes the span; prefer
/// [`SpanGuard::finish`]/[`SpanGuard::finish_with`] to also read the
/// measured wall time back (reports and traces then share one clock).
#[must_use = "dropping immediately measures nothing"]
pub struct SpanGuard {
    start: Instant,
    /// `0` when the span is not recorded (tracing off or buffer full).
    id: SpanId,
    cat: &'static str,
    /// Kept so the close event repeats the open event's name.
    name: Option<String>,
    closed: bool,
}

impl SpanGuard {
    /// This span's id, for cross-thread stitching via
    /// [`span_under`]/[`async_end`]. `0` when unrecorded.
    pub fn id(&self) -> SpanId {
        self.id
    }

    fn close(&mut self, payload: Payload) {
        self.closed = true;
        let _ = PARENTS.try_with(|p| {
            let mut stack = p.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        if self.id == 0 {
            return;
        }
        let name = self.name.take().unwrap_or_default();
        // Close events bypass the buffer's capacity check (this span's
        // Begin was stored, so its End always fits the balance bound);
        // emit() cannot fail here.
        emit(EventKind::End, self.id, None, self.cat, name, payload);
    }

    /// Closes the span and returns its measured wall time.
    pub fn finish(self) -> Duration {
        self.finish_with(|| Payload::None)
    }

    /// Closes the span with a payload (built lazily, only when the span
    /// is recorded) and returns its measured wall time.
    pub fn finish_with(mut self, payload: impl FnOnce() -> Payload) -> Duration {
        let wall = self.start.elapsed();
        let payload = if self.id != 0 { payload() } else { Payload::None };
        self.close(payload);
        wall
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.close(Payload::None);
        }
    }
}

/// Opens a synchronous span on the current thread, parented to the
/// innermost open span. `name` is evaluated only when recording. The
/// guard measures wall time regardless of whether tracing is enabled.
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    span_under(cat, None, name)
}

/// Opens a synchronous span with an explicit parent (use the [`SpanId`]
/// carried across a thread boundary; `None` or `Some(0)` falls back to
/// the thread-local parent). This is how a serving worker stitches its
/// execute span under the request span opened on the submit thread.
pub fn span_under(
    cat: &'static str,
    parent: Option<SpanId>,
    name: impl FnOnce() -> String,
) -> SpanGuard {
    let mut guard = SpanGuard {
        start: Instant::now(),
        id: 0,
        cat,
        name: None,
        closed: false,
    };
    if enabled() {
        let parent = parent.filter(|&p| p != 0).or_else(current_parent);
        if let Some(epoch) = owning_epoch(parent) {
            let name = name();
            let id = buffer::next_span_id(epoch);
            // A full buffer leaves the span unrecorded so the trace keeps
            // its Begin/End balance.
            if emit(
                EventKind::Begin,
                id,
                parent,
                cat,
                name.clone(),
                Payload::None,
            ) {
                guard.id = id;
                guard.name = Some(name);
            }
        }
    }
    // Unrecorded spans go on the stack too (as 0), so work nested in
    // them is never mistaken for a root.
    let _ = PARENTS.try_with(|p| p.borrow_mut().push(guard.id));
    guard
}

/// Records a point event (no duration). Name and payload are evaluated
/// only when recording.
pub fn instant(
    cat: &'static str,
    name: impl FnOnce() -> String,
    payload: impl FnOnce() -> Payload,
) {
    if !enabled() {
        return;
    }
    let parent = current_parent();
    let Some(epoch) = owning_epoch(parent) else {
        return;
    };
    let id = buffer::next_span_id(epoch);
    emit(EventKind::Instant, id, parent, cat, name(), payload());
}

/// Opens an asynchronous span that may close on another thread. Returns
/// the [`SpanId`] to carry with the work and hand to [`async_end`]
/// (and, optionally, to [`span_under`] for on-worker children). Returns
/// `0` when unrecorded; `async_end(…, 0, …)` is a no-op, so callers
/// need no conditional.
pub fn async_begin(
    cat: &'static str,
    name: &'static str,
    payload: impl FnOnce() -> Payload,
) -> SpanId {
    if !enabled() {
        return 0;
    }
    let parent = current_parent();
    let Some(epoch) = owning_epoch(parent) else {
        return 0;
    };
    let id = buffer::next_span_id(epoch);
    if emit(
        EventKind::AsyncBegin,
        id,
        parent,
        cat,
        name.to_string(),
        payload(),
    ) {
        id
    } else {
        0
    }
}

/// Closes an asynchronous span by the id [`async_begin`] returned.
/// `cat` and `name` must match the begin. A zero id is a no-op.
pub fn async_end(
    cat: &'static str,
    name: &'static str,
    id: SpanId,
    payload: impl FnOnce() -> Payload,
) {
    if id == 0 {
        return;
    }
    // A nonzero id means the AsyncBegin was stored, and close events
    // bypass the buffer's capacity check — emit() cannot fail here.
    emit(EventKind::AsyncEnd, id, None, cat, name.to_string(), payload());
}

/// Formats a concrete shape signature for [`Payload::Kernel`]:
/// `"7x8;8x4"` for a matmul's argument list, `-` for rank-0/scalar
/// entries.
pub fn shape_sig(shapes: &[Vec<usize>]) -> String {
    let mut out = String::new();
    for (i, dims) in shapes.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        if dims.is_empty() {
            out.push('-');
        } else {
            for (j, d) in dims.iter().enumerate() {
                if j > 0 {
                    out.push('x');
                }
                out.push_str(&d.to_string());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Exclusive capture sessions.
// ---------------------------------------------------------------------

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// How long [`Capture::finish`] waits for spans its epoch opened on other
/// threads to close.
const CLOSE_WAIT: Duration = Duration::from_secs(1);

/// An exclusive recording session over the global buffer. It records
/// only the work it owns (see the crate docs' *Ownership*): events that
/// open while it is live, and the closes of the spans among them — not
/// events on behalf of a span that opened before it (or in another
/// capture). Sessions serialize on a global lock, so concurrent tests
/// (or a bench and a smoke run) cannot mix their events.
pub struct Capture {
    epoch: u64,
    prev: bool,
    lock: Option<MutexGuard<'static, ()>>,
    finished: bool,
}

impl Capture {
    /// Starts an exclusive capture (blocking until any other capture
    /// finishes), clears leftover events and starts a fresh epoch.
    pub fn begin() -> Capture {
        let lock = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = enabled();
        clear();
        let epoch = new_epoch();
        LIVE.store(epoch, Ordering::Relaxed);
        Capture {
            epoch,
            prev,
            lock: Some(lock),
            finished: false,
        }
    }

    /// Stops recording, drains this capture's [`Trace`] and restores the
    /// previous enable state. A span the capture opened on some thread
    /// and that is still open is waited for, up to one second, so other
    /// threads' short spans end up whole; join emitting threads first
    /// for anything longer, or its half-open span fails validation.
    pub fn finish(mut self) -> Trace {
        LIVE.store(OFF, Ordering::Relaxed);
        self.finished = true;
        let trace = buffer::take_epoch(self.epoch, CLOSE_WAIT);
        set_enabled(self.prev);
        drop(self.lock.take());
        trace
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.finished {
            LIVE.store(OFF, Ordering::Relaxed);
            set_enabled(self.prev);
            clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emission_records_nothing_but_still_times() {
        let _lock = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_enabled(false);
        let sp = span("vm", || unreachable!("name must not be built when disabled"));
        std::thread::sleep(Duration::from_millis(1));
        let wall = sp.finish_with(|| unreachable!("payload must not be built when disabled"));
        assert!(wall >= Duration::from_millis(1));
        instant("vm", || unreachable!(), || unreachable!());
        let id = async_begin("vm", "x", || unreachable!());
        assert_eq!(id, 0);
        async_end("vm", "x", id, || unreachable!());
        assert!(take().is_empty());
    }

    #[test]
    fn nesting_parents_and_async_stitching() {
        let cap = Capture::begin();
        let outer = span("vm", || "outer".to_string());
        let outer_id = outer.id();
        let inner = span("vm", || "inner".to_string());
        drop(inner);
        drop(outer);

        let req = async_begin("serve", "request", || Payload::Request {
            request: 1,
            phase: RequestPhase::Queue,
        });
        let handle = std::thread::spawn(move || {
            let sp = span_under("serve", Some(req), || "execute".to_string());
            sp.finish_with(|| Payload::Request {
                request: 1,
                phase: RequestPhase::Execute,
            });
            async_end("serve", "request", req, || Payload::Request {
                request: 1,
                phase: RequestPhase::Reply,
            });
        });
        handle.join().unwrap();

        let trace = cap.finish();
        trace.validate().unwrap();
        let inner_begin = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "inner")
            .unwrap();
        assert_eq!(inner_begin.parent, Some(outer_id));
        let exec_begin = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "execute")
            .unwrap();
        assert_eq!(exec_begin.parent, Some(req));
        assert_ne!(
            exec_begin.tid,
            trace.events.first().unwrap().tid,
            "execute ran on another thread"
        );
        let stats = validate_chrome_trace(&trace.chrome_json()).unwrap();
        assert_eq!(stats.sync_pairs, 3);
        assert_eq!(stats.async_pairs, 1);
    }

    #[test]
    fn bounded_buffer_drops_whole_spans_and_stays_balanced() {
        let cap = Capture::begin();
        set_capacity(32); // 2 events per shard
        for i in 0..500 {
            let sp = span("vm", || format!("s{i}"));
            sp.finish();
        }
        set_capacity(DEFAULT_CAPACITY);
        let trace = cap.finish();
        assert!(trace.dropped > 0, "tiny buffer must drop");
        trace.validate().unwrap();
        validate_chrome_trace(&trace.chrome_json()).unwrap();
    }

    #[test]
    fn nested_spans_and_instants_stay_balanced_at_odd_capacity() {
        // Regression: a shard filling *between* a span's Begin and its
        // End used to drop the End, leaving a recorded span unclosed.
        // Odd per-shard capacity plus nesting plus instants forces
        // exactly that interleaving on a single thread.
        let cap = Capture::begin();
        set_capacity(48); // 3 events per shard
        for i in 0..200 {
            let outer = span("vm", || format!("outer{i}"));
            instant("vm", || format!("mark{i}"), || Payload::None);
            let inner = span("vm", || format!("inner{i}"));
            let req = async_begin("serve", "request", || Payload::None);
            async_end("serve", "request", req, || Payload::None);
            drop(inner);
            drop(outer);
        }
        set_capacity(DEFAULT_CAPACITY);
        let trace = cap.finish();
        assert!(trace.dropped > 0, "tiny odd capacity must drop");
        trace.validate().unwrap();
        validate_chrome_trace(&trace.chrome_json()).unwrap();
    }

    #[test]
    fn shape_sig_formats() {
        assert_eq!(shape_sig(&[vec![7, 8], vec![8, 4]]), "7x8;8x4");
        assert_eq!(shape_sig(&[vec![], vec![3]]), "-;3");
        assert_eq!(shape_sig(&[]), "");
    }

    #[test]
    fn flame_summary_mentions_hot_paths() {
        let cap = Capture::begin();
        let outer = span("compile", || "pipeline".to_string());
        let p = span("compile", || "pass:fuse".to_string());
        drop(p);
        drop(outer);
        instant("vm", || "alloc_fallback".to_string(), || Payload::None);
        let trace = cap.finish();
        let text = trace.flame_summary();
        assert!(text.contains("pipeline;pass:fuse"));
        assert!(text.contains("alloc_fallback"));
    }
}
