//! A bounded MPMC request queue with shape-aware batch dequeue and
//! watermark-driven overload control.
//!
//! `std` only: one `Mutex<VecDeque>` (instrumented as the `serve.queue`
//! lock site) and one `Condvar`. A batch is the oldest request plus every
//! queued request with the same batching key `(function, shape
//! signature)`, up to a cap, taken in FIFO order. Requests batched
//! together resolve the same plan-cache entry, so a worker pays at most
//! one cache probe chain per batch of identical decode steps.
//!
//! Producers never block — a full queue is *backpressure* and the submit
//! call reports it to the caller instead of buffering unboundedly.
//! Between "empty" and "full" an optional [`OverloadPolicy`] adds two
//! watermarks: at the *shed* watermark each admission evicts the queued
//! request with the least remaining deadline budget (when one expires
//! sooner than the newcomer), and at the *reject* watermark new work is
//! refused outright.
//!
//! A push wakes one parked consumer (`notify_one`, and only when one is
//! parked); closing wakes them all, and they drain what is left before
//! seeing `None`.
//!
//! A refused push hands the request *back* to the caller instead of
//! dropping it: who resolves the reply channel (refuse typed, retry
//! later, …) is the engine's decision, not the queue's.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use relax_trace::LockSite;
use relax_vm::Value;

use crate::engine::{AdmissionLevel, OverloadPolicy, ServeError};

static QUEUE_SITE: LockSite = LockSite::new("serve.queue");

/// A queued inference request.
pub(crate) struct Request {
    /// Engine-assigned request id (dense from 1), for telemetry and
    /// trace payloads.
    pub id: u64,
    /// The request's trace span, opened on the submit thread and closed
    /// wherever the request resolves (`0` when unrecorded). Carrying it
    /// through the queue is what stitches worker-side spans under the
    /// submitting session's request span.
    pub trace: relax_trace::SpanId,
    /// VM function to run.
    pub func: String,
    /// Arguments.
    pub args: Vec<Value>,
    /// Concrete shape signature of the tensor arguments (batching key).
    pub shape_sig: Vec<Vec<usize>>,
    /// Absolute deadline; requests past it are shed, not executed.
    pub deadline: Option<Instant>,
    /// When the request entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Failures this request has already consumed (submit counts as
    /// attempt 0; each retryable failure increments it — see
    /// [`crate::RetryPolicy::max_attempts`]).
    pub attempt: u32,
    /// Where the response goes.
    pub reply: mpsc::Sender<Result<Value, ServeError>>,
}

impl Request {
    /// Same function, same concrete argument shapes: the two can share a
    /// batch.
    fn batches_with(&self, other: &Request) -> bool {
        self.func == other.func && self.shape_sig == other.shape_sig
    }
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity (backpressure).
    Full,
    /// Overload control is rejecting new work (reject watermark), or
    /// the incoming request had less deadline budget than everything
    /// already queued (shed watermark).
    Overloaded,
    /// The engine is shutting down.
    Closed,
}

/// What `push` did with the request.
pub(crate) enum PushOutcome {
    /// The request entered the queue. `shed` carries a queued victim
    /// evicted by overload control to make room — the caller must
    /// resolve its reply channel.
    Admitted { shed: Option<Request> },
    /// The request was not admitted; it comes back to the caller
    /// untouched along with the reason.
    Refused { req: Request, why: PushError },
}

/// Everything behind the queue lock.
#[derive(Default)]
struct State {
    items: VecDeque<Request>,
    closed: bool,
    /// Consumers parked on the condvar.
    parked: usize,
    /// Wakeups issued by pushes (close's `notify_all` is not counted).
    /// Test observability.
    wakeups: u64,
}

/// Bounded multi-producer multi-consumer queue.
pub(crate) struct RequestQueue {
    state: Mutex<State>,
    ready: Condvar,
    capacity: usize,
    overload: Option<OverloadPolicy>,
}

impl RequestQueue {
    pub(crate) fn new(capacity: usize, overload: Option<OverloadPolicy>) -> Self {
        RequestQueue {
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            overload: overload.map(|p| p.clamped(capacity.max(1))),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        QUEUE_SITE.lock(&self.state)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued requests.
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// The admission level the overload watermarks currently dictate.
    pub(crate) fn level(&self) -> AdmissionLevel {
        let depth = self.depth();
        match self.overload {
            Some(p) if depth >= p.reject_depth => AdmissionLevel::Reject,
            Some(p) if depth >= p.shed_depth => AdmissionLevel::Shed,
            _ => AdmissionLevel::Accept,
        }
    }

    /// Non-blocking enqueue. A full or overloaded queue pushes back on
    /// the caller, returning the request instead of dropping it.
    pub(crate) fn push(&self, req: Request) -> PushOutcome {
        let mut st = self.lock();
        let depth = st.items.len();
        let refused = if st.closed {
            Some(PushError::Closed)
        } else if depth >= self.capacity {
            Some(PushError::Full)
        } else if self.overload.is_some_and(|p| depth >= p.reject_depth) {
            Some(PushError::Overloaded)
        } else {
            None
        };
        if let Some(why) = refused {
            return PushOutcome::Refused { req, why };
        }
        // Shed level: the queue churns toward later-deadline work.
        // Admission evicts the queued request with the earliest deadline
        // — but only when that victim expires strictly sooner than the
        // incoming request would (deadline-less requests count as never
        // expiring). With no such victim the request is admitted anyway
        // and depth grows toward the reject watermark.
        let shed = if self.overload.is_some_and(|p| depth >= p.shed_depth) {
            Self::take_shed_victim(&mut st.items, &req)
        } else {
            None
        };
        st.items.push_back(req);
        let wake = st.parked > 0;
        if wake {
            st.wakeups += 1;
        }
        drop(st);
        if wake {
            self.ready.notify_one();
        }
        PushOutcome::Admitted { shed }
    }

    /// Removes the queued request with the earliest deadline, if it
    /// expires strictly sooner than `incoming`.
    fn take_shed_victim(items: &mut VecDeque<Request>, incoming: &Request) -> Option<Request> {
        let (pos, victim_deadline) = items
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.deadline.map(|d| (i, d)))
            .min_by_key(|&(_, d)| d)?;
        if incoming.deadline.is_some_and(|rd| victim_deadline >= rd) {
            return None;
        }
        items.remove(pos)
    }

    /// Blocks until at least one request is queued (or the queue closes),
    /// then dequeues the oldest request plus up to `max_batch - 1` later
    /// requests with the same batching key. Returns `None` only when the
    /// queue is closed *and* drained.
    pub(crate) fn pop_batch(&self, max_batch: usize) -> Option<Vec<Request>> {
        let max_batch = max_batch.max(1);
        let mut st = self.lock();
        loop {
            if let Some(head) = st.items.pop_front() {
                let mut batch = vec![head];
                // Collect same-shape riders; `remove` keeps the rest in
                // FIFO order.
                let mut i = 0;
                while i < st.items.len() && batch.len() < max_batch {
                    if st.items[i].batches_with(&batch[0]) {
                        batch.push(st.items.remove(i).expect("index in range"));
                    } else {
                        i += 1;
                    }
                }
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st.parked += 1;
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
            st.parked -= 1;
        }
    }

    /// Closes the queue: new pushes fail, consumers drain what is left
    /// and then see `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn req(func: &str, dims: &[usize]) -> (Request, mpsc::Receiver<Result<Value, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                id: 0,
                trace: 0,
                func: func.to_string(),
                args: Vec::new(),
                shape_sig: vec![dims.to_vec()],
                deadline: None,
                enqueued: Instant::now(),
                attempt: 0,
                reply: tx,
            },
            rx,
        )
    }

    fn push_ok(q: &RequestQueue, r: Request) {
        match q.push(r) {
            PushOutcome::Admitted { shed: None } => {}
            PushOutcome::Admitted { shed: Some(_) } => panic!("unexpected eviction"),
            PushOutcome::Refused { why, .. } => panic!("push refused: {why:?}"),
        }
    }

    fn refusal(outcome: PushOutcome) -> PushError {
        match outcome {
            PushOutcome::Refused { why, .. } => why,
            PushOutcome::Admitted { .. } => panic!("expected refusal"),
        }
    }

    #[test]
    fn batches_group_identical_shape_keys() {
        let q = RequestQueue::new(16, None);
        for dims in [&[2usize, 8][..], &[2, 8], &[4, 8], &[2, 8], &[4, 8]] {
            let (r, rx) = req("decode", dims);
            std::mem::forget(rx);
            push_ok(&q, r);
        }
        let b1 = q.pop_batch(8).unwrap();
        assert_eq!(b1.len(), 3); // the three (2, 8) requests ride together
        assert!(b1.iter().all(|r| r.shape_sig == vec![vec![2, 8]]));
        let b2 = q.pop_batch(8).unwrap();
        assert_eq!(b2.len(), 2); // then the two (4, 8)
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn batch_cap_is_respected_and_order_kept() {
        let q = RequestQueue::new(16, None);
        for _ in 0..5 {
            let (r, rx) = req("decode", &[1]);
            std::mem::forget(rx);
            push_ok(&q, r);
        }
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.pop_batch(2).unwrap().len(), 1);
    }

    #[test]
    fn full_queue_pushes_back_and_returns_the_request() {
        let q = RequestQueue::new(2, None);
        for _ in 0..2 {
            let (r, rx) = req("f", &[1]);
            std::mem::forget(rx);
            push_ok(&q, r);
        }
        let (r, _rx) = req("f", &[1]);
        match q.push(r) {
            PushOutcome::Refused { req, why } => {
                assert_eq!(why, PushError::Full);
                assert_eq!(req.func, "f"); // the request survives refusal
            }
            PushOutcome::Admitted { .. } => panic!("queue should be full"),
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let q = RequestQueue::new(4, None);
        let (r, rx) = req("f", &[1]);
        std::mem::forget(rx);
        push_ok(&q, r);
        q.close();
        let (r2, _rx2) = req("f", &[1]);
        assert_eq!(refusal(q.push(r2)), PushError::Closed);
        assert_eq!(q.pop_batch(4).unwrap().len(), 1);
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn reject_watermark_refuses_new_work() {
        let policy = OverloadPolicy {
            shed_depth: 2,
            reject_depth: 3,
        };
        let q = RequestQueue::new(8, Some(policy));
        let now = Instant::now();
        // Decreasing deadlines: each incoming is the earliest, so no
        // eviction ever helps it and depth climbs to the reject mark.
        for secs in [12u64, 11, 10] {
            let (mut r, rx) = req("f", &[1]);
            r.deadline = Some(now + Duration::from_secs(secs));
            std::mem::forget(rx);
            match q.push(r) {
                PushOutcome::Admitted { shed: None } => {}
                PushOutcome::Admitted { shed: Some(_) } => panic!("unexpected eviction"),
                PushOutcome::Refused { why, .. } => panic!("push refused: {why:?}"),
            }
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.level(), AdmissionLevel::Reject);
        let (r, _rx) = req("f", &[1]);
        assert_eq!(refusal(q.push(r)), PushError::Overloaded);
    }

    #[test]
    fn shed_watermark_evicts_the_earliest_deadline() {
        let policy = OverloadPolicy {
            shed_depth: 2,
            reject_depth: 8,
        };
        let q = RequestQueue::new(8, Some(policy));
        let now = Instant::now();
        let mut rxs = Vec::new();
        for (id, secs) in [(1u64, 5u64), (2, 1)] {
            let (mut r, rx) = req("f", &[1]);
            r.id = id;
            r.deadline = Some(now + Duration::from_secs(secs));
            rxs.push(rx);
            match q.push(r) {
                PushOutcome::Admitted { shed: None } => {}
                _ => panic!("below shed watermark"),
            }
        }
        assert_eq!(q.level(), AdmissionLevel::Shed);
        // Depth 2 == shed watermark: admitting request 3 (10s of budget)
        // evicts request 2 (1s of budget, the least).
        let (mut r, _rx) = req("f", &[1]);
        r.id = 3;
        r.deadline = Some(now + Duration::from_secs(10));
        match q.push(r) {
            PushOutcome::Admitted { shed: Some(victim) } => assert_eq!(victim.id, 2),
            _ => panic!("expected an eviction"),
        }
        assert_eq!(q.depth(), 2);
        // An incoming request with *less* budget than everything queued
        // is admitted without an eviction (depth grows toward reject).
        let (mut r, _rx2) = req("f", &[1]);
        r.id = 4;
        r.deadline = Some(now + Duration::from_millis(1));
        match q.push(r) {
            PushOutcome::Admitted { shed: None } => {}
            _ => panic!("expected plain admission"),
        }
        assert_eq!(q.depth(), 3);
    }

    /// Regression for the thundering herd: with N workers parked on an
    /// empty queue, a single submit must issue exactly one targeted
    /// wakeup — the other workers stay asleep.
    #[test]
    fn single_submit_wakes_exactly_one_idle_worker() {
        const WORKERS: usize = 4;
        let q = Arc::new(RequestQueue::new(8, None));
        let consumed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while let Some(batch) = q.pop_batch(4) {
                        consumed.fetch_add(batch.len(), Ordering::SeqCst);
                    }
                })
            })
            .collect();

        let parked = |n: usize| {
            while q.lock().parked < n {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        parked(WORKERS);
        let before = q.lock().wakeups;

        let (r, rx) = req("decode", &[2, 8]);
        std::mem::forget(rx);
        push_ok(&q, r);
        while consumed.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The popping worker goes back to sleep; once all N are parked
        // again the whole submit/consume cycle is over.
        parked(WORKERS);
        assert_eq!(
            q.lock().wakeups - before,
            1,
            "one submit with idle workers must issue exactly one notify_one"
        );

        q.close();
        for h in handles {
            h.join().unwrap();
        }
    }
}
