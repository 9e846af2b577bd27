//! The serving engine: one executable, many sessions, self-healing
//! workers — and the pool core it shares with the session manager.
//!
//! A [`ServeEngine`] owns a single immutable [`Executable`] and a
//! supervised worker pool ([`crate::supervisor::Pool`]), each worker
//! running its own [`relax_vm::Vm`] built with
//! [`relax_vm::Vm::from_parts`] — per-invocation state (register frame,
//! memory pool, telemetry) is private to the worker, while the
//! executable, the foreign-function registry and the kernel-plan cache
//! are shared. The pool's `Core` is not engine-specific: it holds a
//! list of programs, and [`crate::SessionManager`] runs its session
//! steps on the same kind of pool. Requests flow through a bounded queue
//! with backpressure; stale requests are shed against their deadline
//! instead of executed late; and the dequeue path batches queued
//! requests with identical concrete shapes so a plan compiled for one
//! session is reused by the rest of the batch without even a cache
//! probe race.
//!
//! Failures are *typed*, never panics: VM-level faults keep their full
//! [`VmError`] taxonomy and frame trace inside [`ServeError::Vm`], and
//! admission-control outcomes (queue full, overload, deadline missed,
//! shutdown) and session outcomes (evicted, retries exhausted, rejected)
//! get their own variants so callers can distinguish "retry later" from
//! "this request is wrong". Even a worker thread *panicking* mid-request
//! stays inside the taxonomy: the panic is contained at the worker loop,
//! the in-flight request resolves as [`ServeError::WorkerLost`] (or is
//! retried), and a supervisor thread respawns fresh VMs into the slot —
//! see [`crate::supervisor`].
//!
//! Three optional policies harden the engine under faults and load:
//!
//! - [`RetryPolicy`]: transient failures (lost workers, queue-full /
//!   overload refusals, kernel faults) are re-enqueued with exponential
//!   backoff instead of surfacing to the caller, within an attempt
//!   budget and the request's own deadline. Calls only: session steps
//!   keep the scheduler's attempt budget.
//! - [`OverloadPolicy`]: queue-depth watermarks drive admission — below
//!   the shed watermark everything is accepted; above it each admission
//!   evicts the queued request with the least deadline budget (when one
//!   expires sooner than the newcomer); above the reject watermark new
//!   work is refused outright.
//! - supervision knobs ([`ServeConfig::restart_budget`],
//!   [`ServeConfig::stall_timeout`]): how patiently the supervisor
//!   waits on a wedged worker and how many respawns a slot gets before
//!   quarantine.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use relax_vm::registry::Registry;
use relax_vm::{Executable, FaultPlan, KvPagePool, SharedPlanCache, Value, VmError, VmErrorKind};

use crate::queue::{PushError, PushOutcome, Request, RequestQueue, Work};
use crate::supervisor::{self, Pool, SupervisorState};
use crate::telemetry::{EngineReport, EngineStats, LatencyReservoir};

/// Locks a mutex, ignoring poisoning: engine state stays readable even
/// if a holder panicked (panics are contained, but stay defensive).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which failure classes the engine retries. All `true` by default.
#[derive(Debug, Clone, Copy)]
pub struct RetryOn {
    /// [`ServeError::WorkerLost`]: the worker died (panic) before
    /// replying — the request itself may be fine.
    pub worker_lost: bool,
    /// [`ServeError::QueueFull`] / [`ServeError::Overloaded`]: admission
    /// refusals that a moment of backoff may clear.
    pub overload: bool,
    /// [`ServeError::Vm`] with a kernel failure — the transient-looking
    /// VM error class (and the one fault injection exercises).
    /// Deterministic errors (shape mismatches, unknown functions) are
    /// never retried.
    pub kernel_faults: bool,
}

impl Default for RetryOn {
    fn default() -> Self {
        RetryOn {
            worker_lost: true,
            overload: true,
            kernel_faults: true,
        }
    }
}

/// Retry budget for transient failures. A failed request is re-enqueued
/// with exponential backoff (`backoff`, `2×backoff`, `4×backoff`, …
/// capped at `max_backoff`) until it has consumed `max_attempts` total
/// attempts or its deadline passes — whichever comes first. A deadline
/// that expires mid-backoff resolves the request as
/// [`ServeError::DeadlineExceeded`]; retries never extend a request's
/// budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts a request may consume (first execution included).
    /// Clamped to at least 1; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Upper bound on the per-retry backoff.
    pub max_backoff: Duration,
    /// Which failure classes are retried.
    pub retry_on: RetryOn,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
            retry_on: RetryOn::default(),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `failures` (1-based): exponential,
    /// capped.
    pub(crate) fn backoff_for(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// Queue-depth watermarks for overload control (the `queue` module's
/// docs describe the mechanism).
#[derive(Debug, Clone, Copy)]
pub struct OverloadPolicy {
    /// At or above this depth, admission requires evicting the queued
    /// request with the least deadline budget.
    pub shed_depth: usize,
    /// At or above this depth, new work is refused outright.
    pub reject_depth: usize,
}

impl OverloadPolicy {
    /// Conventional watermarks for a queue of `capacity`: shed at 3/4,
    /// reject at 9/10.
    pub fn for_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        OverloadPolicy {
            shed_depth: (capacity * 3 / 4).max(1),
            reject_depth: (capacity * 9 / 10).max(1),
        }
    }

    /// Normalises the watermarks against the queue capacity:
    /// `1 ≤ shed ≤ reject ≤ capacity`.
    pub(crate) fn clamped(self, capacity: usize) -> Self {
        let reject = self.reject_depth.clamp(1, capacity);
        OverloadPolicy {
            shed_depth: self.shed_depth.clamp(1, reject),
            reject_depth: reject,
        }
    }
}

/// The admission level the overload watermarks currently dictate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionLevel {
    /// Below the shed watermark (or no overload policy): everything is
    /// admitted.
    #[default]
    Accept,
    /// Between the watermarks: admission costs the eviction of the
    /// queued request with the least deadline budget.
    Shed,
    /// At or above the reject watermark: new work is refused.
    Reject,
}

impl AdmissionLevel {
    /// Stable lower-case label (for exporters and bench output).
    pub fn label(self) -> &'static str {
        match self {
            AdmissionLevel::Accept => "accept",
            AdmissionLevel::Shed => "shed",
            AdmissionLevel::Reject => "reject",
        }
    }
}

/// Serving configuration. The defaults run 4 workers over a shared
/// plan cache with no deadline, no retries and no overload policy — a
/// request either runs once or fails typed, exactly like a plain VM
/// call. Supervision is always on: panicked workers are respawned up
/// to [`ServeConfig::restart_budget`] even with default settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one VM). Clamped to at least 1.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests a worker dequeues per batch (same function,
    /// same concrete shapes).
    pub max_batch: usize,
    /// Deadline applied to every request submitted without an explicit
    /// one. `None` means requests never expire.
    pub default_deadline: Option<Duration>,
    /// Capacity of the plan cache all workers share: a shape compiled
    /// by any worker is a hit for every other.
    pub plan_cache_capacity: usize,
    /// Deterministic fault plans installed on specific workers at
    /// startup, for fault-isolation and chaos testing: `(worker index,
    /// plan)`. VM sites go to the worker's `Vm`; serving sites
    /// (panic/stall/reply-drop) to the worker loop. Respawned
    /// generations carry no faults.
    pub worker_faults: Vec<(usize, FaultPlan)>,
    /// Retry budget for transient failures; `None` (default) fails fast.
    pub retry: Option<RetryPolicy>,
    /// Overload watermarks; `None` (default) admits until the queue is
    /// full.
    pub overload: Option<OverloadPolicy>,
    /// Respawns a worker slot gets before it is quarantined.
    pub restart_budget: u32,
    /// How long a *busy* worker may go without a heartbeat before the
    /// supervisor declares it wedged and replaces it.
    pub stall_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 8,
            default_deadline: None,
            plan_cache_capacity: 64,
            worker_faults: Vec::new(),
            retry: None,
            overload: None,
            restart_budget: 3,
            stall_timeout: Duration::from_secs(1),
        }
    }
}

/// Why a request or a session did not produce its output.
#[derive(Debug)]
pub enum ServeError {
    /// The queue was at capacity when the request arrived — backpressure;
    /// the caller should retry later or slow down.
    QueueFull {
        depth: usize,
        capacity: usize,
    },
    /// Overload control refused or evicted the request: the queue depth
    /// was above a watermark and this request had the least deadline
    /// budget of the candidates.
    Overloaded {
        depth: usize,
    },
    /// The request's deadline passed while it waited (in the queue or in
    /// retry backoff) and it was shed without executing; or a session's
    /// deadline passed before it finished.
    DeadlineExceeded {
        missed_by: Duration,
    },
    /// The worker handling the request disappeared before replying
    /// (panic, dropped reply channel), or no live worker is left to run
    /// it (every slot quarantined).
    WorkerLost,
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// The session was evicted under page-pool pressure (earliest
    /// deadline first).
    Evicted,
    /// The session's attempt budget ran out (repeated worker panics or
    /// unresolvable page-pool pressure).
    RetriesExhausted(String),
    /// The session request was malformed (empty prompt).
    Rejected(String),
    /// The request executed and failed inside the VM. The full
    /// [`VmError`] taxonomy and frame trace are preserved.
    Vm(VmError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "request queue full ({depth}/{capacity}); retry later")
            }
            ServeError::Overloaded { depth } => {
                write!(f, "engine overloaded (queue depth {depth}); retry later")
            }
            ServeError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded by {missed_by:?}; request shed")
            }
            ServeError::WorkerLost => write!(f, "worker lost before replying"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Evicted => write!(f, "session evicted under page-pool pressure"),
            ServeError::RetriesExhausted(why) => write!(f, "retries exhausted: {why}"),
            ServeError::Rejected(why) => write!(f, "rejected: {why}"),
            ServeError::Vm(e) => write!(f, "vm error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for ServeError {
    fn from(e: VmError) -> Self {
        ServeError::Vm(e)
    }
}

/// A handle to an in-flight request or session; redeem it with
/// [`Ticket::wait`] (or poll it with [`Ticket::wait_timeout`] /
/// [`Ticket::try_wait`]). `T` is [`Value`] for engine calls and
/// [`crate::SessionOutput`] for sessions.
///
/// A ticket always resolves: every admitted request either replies,
/// fails typed, or — if its worker vanished in a way nobody could
/// report — resolves as [`ServeError::WorkerLost`] when the reply
/// channel closes. It never hangs forever; polling again after a result
/// was taken sees the closed channel, so it returns `WorkerLost` too.
pub struct Ticket<T = Value> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> Ticket<T> {
    pub(crate) fn new(rx: mpsc::Receiver<Result<T, ServeError>>) -> Self {
        Ticket { rx }
    }

    /// Blocks until the request completes, is shed, or its worker dies.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Waits up to `timeout` for the request to resolve. `None` means
    /// still in flight; a closed reply channel (the worker vanished
    /// without reporting) resolves as [`ServeError::WorkerLost`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }

    /// Non-blocking poll; same contract as [`Ticket::wait_timeout`].
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// Shared admission/completion counters (lock-free; workers bump them).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) shed_overload: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) replies_dropped: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_extra: AtomicU64,
}

/// One program the pool runs: an executable and the plan cache every
/// worker's VM for it shares. Respawned workers reuse the cache, so a
/// healed pool keeps its warm plans.
pub(crate) struct Program {
    pub(crate) exec: Arc<Executable>,
    pub(crate) plans: SharedPlanCache,
}

/// Everything the worker pool, the supervisor and the pool's owner
/// share. One `Arc<Core>` per pool; workers and the supervisor each
/// hold a clone so the owner can be dropped independently.
pub(crate) struct Core {
    pub(crate) queue: RequestQueue,
    pub(crate) counters: Counters,
    pub(crate) latencies: Mutex<LatencyReservoir>,
    /// Heartbeats are nanoseconds since this instant (a shared epoch so
    /// they fit an `AtomicU64`).
    pub(crate) epoch: Instant,
    /// Every worker incarnation builds one VM per program. Calls run on
    /// the first; steps pick theirs.
    pub(crate) programs: Vec<Program>,
    pub(crate) registry: Arc<Registry>,
    /// The page pool behind session KV caches (`None` for engine pools).
    pub(crate) kv_pool: Option<Arc<KvPagePool>>,
    pub(crate) max_batch: usize,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) restart_budget: u32,
    pub(crate) stall_timeout: Duration,
    /// Set once at the start of shutdown; workers and the retry path
    /// stop scheduling new work and resolve everything typed.
    pub(crate) stopping: AtomicBool,
    pub(crate) sup: SupervisorState,
}

/// Latency samples the bounded reservoir keeps (O(1) memory however
/// many requests complete).
const LATENCY_SAMPLES: usize = 2048;

impl Core {
    pub(crate) fn new(
        config: &ServeConfig,
        programs: Vec<Program>,
        registry: Arc<Registry>,
        kv_pool: Option<Arc<KvPagePool>>,
    ) -> Self {
        // Seed chosen once; the reservoir is deterministic per engine.
        const LATENCY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
        Core {
            queue: RequestQueue::new(config.queue_capacity, config.overload),
            counters: Counters::default(),
            latencies: Mutex::new(LatencyReservoir::new(LATENCY_SAMPLES, LATENCY_SEED)),
            epoch: Instant::now(),
            programs,
            registry,
            kv_pool,
            max_batch: config.max_batch.max(1),
            retry: config.retry.clone(),
            restart_budget: config.restart_budget,
            stall_timeout: config.stall_timeout.max(Duration::from_millis(1)),
            stopping: AtomicBool::new(false),
            sup: SupervisorState::new(),
        }
    }

    /// Nanoseconds since the engine epoch (heartbeat clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// A point-in-time snapshot of the engine counters.
    pub(crate) fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            admission: self.queue.level(),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_full: c.rejected_full.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            replies_dropped: c.replies_dropped.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_extra: c.batched_extra.load(Ordering::Relaxed),
            plan_cache: self.programs[0].plans.stats(),
            latency: lock(&self.latencies).summary(),
        }
    }
}

/// Resolves a call successfully: counters, latency sample, span end,
/// reply.
pub(crate) fn resolve_ok(core: &Core, req: Request, value: Value) {
    let Work::Call { reply, .. } = req.work else {
        return; // steps report through their own channel
    };
    core.counters.completed.fetch_add(1, Ordering::Relaxed);
    let ns = req.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    lock(&core.latencies).push(ns);
    relax_trace::async_end("serve", "request", req.trace, || {
        relax_trace::Payload::Request {
            request: req.id,
            phase: relax_trace::RequestPhase::Reply,
        }
    });
    let _ = reply.send(Ok(value));
}

/// Resolves a request with a *final* error: classifies it into the
/// counter buckets (deadline/overload sheds are `timed_out`, the rest
/// `failed`), closes the request span and replies. Use
/// [`fail_or_retry`] instead when the failure may still be retried.
/// A step reports [`crate::session`]'s `Panicked` outcome instead.
pub(crate) fn resolve_err(core: &Core, req: Request, err: ServeError) {
    let reply = match req.work {
        Work::Call { reply, .. } => reply,
        Work::Step(step) => return step.abandon(&err),
    };
    let shed = match &err {
        ServeError::DeadlineExceeded { .. } => {
            core.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            true
        }
        ServeError::Overloaded { .. } => {
            core.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            core.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            true
        }
        _ => {
            core.counters.failed.fetch_add(1, Ordering::Relaxed);
            false
        }
    };
    let phase = if shed {
        relax_trace::RequestPhase::Shed
    } else {
        relax_trace::RequestPhase::Reply
    };
    if shed {
        relax_trace::instant(
            "serve",
            || format!("shed:{}", req.id),
            || relax_trace::Payload::Request {
                request: req.id,
                phase: relax_trace::RequestPhase::Shed,
            },
        );
    }
    relax_trace::async_end("serve", "request", req.trace, || {
        relax_trace::Payload::Request {
            request: req.id,
            phase,
        }
    });
    let _ = reply.send(Err(err));
}

/// Maps a queue refusal to its typed error. A queue closed while the
/// pool is not stopping has no live worker left (every slot
/// quarantined).
pub(crate) fn refusal_error(core: &Core, why: PushError) -> ServeError {
    match why {
        PushError::Full => ServeError::QueueFull {
            depth: core.queue.depth(),
            capacity: core.queue.capacity(),
        },
        PushError::Overloaded => ServeError::Overloaded {
            depth: core.queue.depth(),
        },
        PushError::Closed if core.stopping.load(Ordering::Acquire) => ServeError::ShuttingDown,
        PushError::Closed => ServeError::WorkerLost,
    }
}

/// Pushes a request into the queue on behalf of the pool (a retry, a
/// batch rider handed back, a session step). An overload victim
/// resolves `Overloaded`; a refusal is retried or resolved typed.
pub(crate) fn requeue(core: &Core, req: Request) {
    match core.queue.push(req) {
        PushOutcome::Admitted { shed } => {
            if let Some(victim) = shed {
                resolve_err(
                    core,
                    victim,
                    ServeError::Overloaded {
                        depth: core.queue.depth(),
                    },
                );
            }
        }
        PushOutcome::Refused { req, why } => {
            let err = refusal_error(core, why);
            fail_or_retry(core, req, err);
        }
    }
}

/// Resolves a failed request — or, when the engine has a retry policy
/// that covers this failure class and the request has attempt budget
/// left, schedules it for re-enqueue after exponential backoff instead.
/// The request's deadline is *not* checked here: it is checked when the
/// backoff elapses, so a deadline expiring mid-backoff resolves as
/// [`ServeError::DeadlineExceeded`], never as a retry past budget.
pub(crate) fn fail_or_retry(core: &Core, req: Request, err: ServeError) {
    if let Some(req) = retry_later(core, req, &err) {
        resolve_err(core, req, err);
    }
}

/// Schedules `req` for re-enqueue after backoff when the retry policy
/// covers `err` and the request has attempts left; hands it back
/// otherwise (always while stopping).
fn retry_later(core: &Core, mut req: Request, err: &ServeError) -> Option<Request> {
    let policy = match &core.retry {
        Some(policy) if !core.stopping.load(Ordering::Acquire) => policy,
        _ => return Some(req),
    };
    let class_ok = match err {
        ServeError::WorkerLost => policy.retry_on.worker_lost,
        ServeError::QueueFull { .. } | ServeError::Overloaded { .. } => policy.retry_on.overload,
        ServeError::Vm(e) => {
            policy.retry_on.kernel_faults && matches!(e.kind, VmErrorKind::Kernel(_))
        }
        _ => false,
    };
    if !class_ok || req.attempt + 1 >= policy.max_attempts.max(1) {
        return Some(req);
    }
    req.attempt += 1;
    core.counters.retries.fetch_add(1, Ordering::Relaxed);
    relax_trace::instant(
        "serve",
        || format!("retry:{}", req.id),
        || relax_trace::Payload::Request {
            request: req.id,
            phase: relax_trace::RequestPhase::Retry,
        },
    );
    let due = Instant::now() + policy.backoff_for(req.attempt);
    supervisor::schedule_retry(core, req, due);
    None
}

/// The concrete shape signature of an argument list — the batching key.
/// Tensors contribute their shapes, shape values contribute themselves,
/// tuples recurse; scalars contribute a marker so arity still matters.
fn shape_signature(args: &[Value]) -> Vec<Vec<usize>> {
    fn walk(v: &Value, out: &mut Vec<Vec<usize>>) {
        match v {
            Value::Tensor(t) => out.push(t.shape().to_vec()),
            Value::Shape(dims) => {
                out.push(dims.iter().map(|&d| d.max(0) as usize).collect())
            }
            Value::Tuple(items) => {
                for item in items {
                    walk(item, out);
                }
            }
            _ => out.push(Vec::new()),
        }
    }
    let mut sig = Vec::with_capacity(args.len());
    for a in args {
        walk(a, &mut sig);
    }
    sig
}

/// Multi-session serving engine over one executable. See the module
/// docs for the architecture; see [`ServeConfig`] for the knobs.
pub struct ServeEngine {
    pool: Pool,
    /// Dense request-id source (first request gets 1).
    next_request_id: AtomicU64,
    default_deadline: Option<Duration>,
}

impl ServeEngine {
    /// Builds an engine over `exec` with the default registry.
    pub fn new(exec: Executable, config: ServeConfig) -> Self {
        Self::with_registry(exec, Registry::new(), config)
    }

    /// Builds an engine with a custom foreign-function registry.
    pub fn with_registry(exec: Executable, registry: Registry, config: ServeConfig) -> Self {
        let program = Program {
            exec: Arc::new(exec),
            plans: SharedPlanCache::new(config.plan_cache_capacity),
        };
        ServeEngine {
            pool: Pool::start(&config, vec![program], Arc::new(registry), None),
            next_request_id: AtomicU64::new(0),
            default_deadline: config.default_deadline,
        }
    }

    /// Submits a request under the engine's default deadline. Returns a
    /// [`Ticket`] immediately, or the backpressure/shutdown error if the
    /// request was not admitted (and could not be scheduled for retry).
    pub fn submit(&self, func: &str, args: &[Value]) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(func, args, self.default_deadline)
    }

    /// Submits a request that must *start* within `deadline` of now;
    /// requests still queued (or backing off between retries) past it
    /// are shed with [`ServeError::DeadlineExceeded`] instead of
    /// executing late.
    pub fn submit_with_deadline(
        &self,
        func: &str,
        args: &[Value],
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let core = &*self.pool.core;
        let now = Instant::now();
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        // The request span opens *before* the push: once the request is
        // in the queue a worker may finish it at any moment, and the
        // async end must never precede its begin.
        let trace = relax_trace::async_begin("serve", "request", || {
            relax_trace::Payload::Request {
                request: id,
                phase: relax_trace::RequestPhase::Queue,
            }
        });
        let admit = relax_trace::span("serve", || format!("admit:{id}"));
        let (tx, rx) = mpsc::channel();
        let req = Request {
            id,
            trace,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            attempt: 0,
            work: Work::Call {
                func: func.to_string(),
                args: args.to_vec(),
                shape_sig: shape_signature(args),
                reply: tx,
            },
        };
        let outcome = core.queue.push(req);
        admit.finish_with(|| relax_trace::Payload::Request {
            request: id,
            phase: relax_trace::RequestPhase::Admit,
        });
        match outcome {
            PushOutcome::Admitted { shed } => {
                core.counters.accepted.fetch_add(1, Ordering::Relaxed);
                if let Some(victim) = shed {
                    // Overload control evicted the queued request with
                    // the least deadline budget to admit this one.
                    resolve_err(
                        core,
                        victim,
                        ServeError::Overloaded {
                            depth: core.queue.depth(),
                        },
                    );
                }
                Ok(Ticket::new(rx))
            }
            PushOutcome::Refused { req, why } => {
                let closed = why == PushError::Closed;
                let err = refusal_error(core, why);
                // A refusal the retry policy covers becomes a deferred
                // admission: the engine takes responsibility for the
                // ticket and re-enqueues after backoff.
                let req = if closed {
                    req
                } else {
                    match retry_later(core, req, &err) {
                        None => {
                            core.counters.accepted.fetch_add(1, Ordering::Relaxed);
                            return Ok(Ticket::new(rx));
                        }
                        Some(req) => req,
                    }
                };
                // Refused outright: the request never entered the queue;
                // close its span here so the trace stays balanced.
                relax_trace::async_end("serve", "request", req.trace, || {
                    relax_trace::Payload::Request {
                        request: id,
                        phase: relax_trace::RequestPhase::Reply,
                    }
                });
                match err {
                    ServeError::QueueFull { .. } => &core.counters.rejected_full,
                    ServeError::Overloaded { .. } => &core.counters.rejected_overload,
                    _ => return Err(err),
                }
                .fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    /// Convenience: submit and wait in one call (single-session use).
    pub fn run(&self, func: &str, args: &[Value]) -> Result<Value, ServeError> {
        self.submit(func, args)?.wait()
    }

    /// A point-in-time snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        self.pool.core.stats()
    }

    /// Stops admitting requests, flushes pending retries, drains the
    /// queue, joins every worker incarnation (and the supervisor) and
    /// returns the final stats plus per-incarnation VM snapshots.
    /// Dropping the engine runs the same stop sequence.
    ///
    /// Never panics — a worker that died uncontained is reported as
    /// [`crate::WorkerExit::Panicked`] in the [`EngineReport`] instead.
    pub fn shutdown(mut self) -> EngineReport {
        let workers = self.pool.stop();
        EngineReport {
            stats: self.pool.core.stats(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_signature_covers_tensors_shapes_tuples_and_scalars() {
        use relax_arith::DataType;
        use relax_tir::NDArray;
        let t = NDArray::zeros(&[2, 3], DataType::F32);
        let sig = shape_signature(&[
            Value::Tensor(t.clone()),
            Value::Shape(vec![4, 5]),
            Value::Tuple(vec![Value::Tensor(t)]),
        ]);
        assert_eq!(sig, vec![vec![2, 3], vec![4, 5], vec![2, 3]]);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            retry_on: RetryOn::default(),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(8));
        assert_eq!(p.backoff_for(4), Duration::from_millis(10)); // capped
        assert_eq!(p.backoff_for(30), Duration::from_millis(10));
    }

    #[test]
    fn overload_policy_clamps_to_capacity() {
        let p = OverloadPolicy {
            shed_depth: 100,
            reject_depth: 50,
        }
        .clamped(40);
        assert_eq!(p.reject_depth, 40);
        assert_eq!(p.shed_depth, 40);
        let p = OverloadPolicy::for_capacity(100);
        assert_eq!(p.shed_depth, 75);
        assert_eq!(p.reject_depth, 90);
    }
}
