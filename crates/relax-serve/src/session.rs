//! Session-centric serving: a [`SessionManager`] runs many generation
//! sessions over one shared paged KV-cache pool with **continuous
//! (iteration-level) batching**.
//!
//! The request-oriented [`crate::ServeEngine`] treats every submission
//! as an independent stateless call. Generation workloads are stateful:
//! a *session* is a prompt, a growing paged KV cache and a token
//! budget, and its decode steps must interleave with other sessions'
//! steps so short requests are not stuck behind long ones. The
//! scheduler here runs an iteration loop:
//!
//! 1. **Admit** pending sessions into the running set (up to
//!    `max_running`), creating each one's [`KvCache`] on the shared
//!    [`KvPagePool`].
//! 2. **Shed** sessions whose deadline passed while queued or running.
//! 3. **Dispatch** one step per running session to the worker pool —
//!    a prefill step (whole prompt prefix through the copy-based
//!    prefill function, bit-copied into pages) or a decode step (one
//!    token through the paged `decode_paged` function, appending in
//!    place) — prefill and decode interleave freely in one iteration.
//! 4. **Collect** the results and advance, retire, retry or fail each
//!    session; under page-pool pressure, **evict** the
//!    earliest-deadline session and roll the losers back to their
//!    pre-step lengths (`KvCache::truncate_to`), so no step is ever
//!    half-applied.
//!
//! Steps run on the same supervised worker pool as engine calls
//! ([`crate::supervisor`]): each step is one work item in the pool's
//! request queue, and each worker incarnation holds one VM per session
//! program (decode, prefill, draft, verify — each with its own plan
//! cache). A step that panics reports `Panicked` to the scheduler and
//! its incarnation is replaced like any engine worker; wedged workers
//! are found by heartbeat. Attempts stay with the scheduler's
//! `max_attempts` — the engine's retry policy never applies to steps.
//! The page pool's `allocated == in_use + free` invariant is preserved
//! through every panic, stall, eviction and rollback (the chaos harness
//! asserts it).

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::registry::Registry;
use relax_vm::{
    Executable, FaultInjector, FaultPlan, FaultSite, KvCache, KvCacheConfig, KvPagePool,
    KvPageStats, PlanCacheStats, SharedPlanCache, Value, Vm, VmError, VmErrorKind,
};

use crate::engine::{lock, requeue, Core, Program, ServeConfig, ServeError, Ticket};
use crate::queue::{Request, Work};
use crate::supervisor::{panic_message, Pool};

/// The compiled model a [`SessionManager`] serves.
///
/// `decode` must contain a function taking
/// `(tokens (1,1) i64, kv_cache handle, weights...)` and returning
/// `(logits, handle)` — see `relax_models::llama::build_decode_paged`.
/// `prefill`, when present, takes `(tokens (1,s) i64, weights...)` and
/// returns the per-stream K/V tensors to seed the cache; without it,
/// prompts are fed one token at a time through the decode function.
#[derive(Clone)]
pub struct SessionModelSpec {
    /// Executable holding the paged decode function.
    pub decode: Arc<Executable>,
    /// Name of the paged decode function.
    pub decode_func: String,
    /// Executable holding the prefill function, if any.
    pub prefill: Option<Arc<Executable>>,
    /// Name of the prefill function.
    pub prefill_func: String,
    /// Weight arguments, in parameter order after the token/cache
    /// parameters (shared by prefill and decode).
    pub weights: Vec<Value>,
    /// Geometry of every session's cache (`batch` must be 1).
    pub cache: KvCacheConfig,
    /// Speculative decoding: a draft model proposes tokens greedily and
    /// a multi-token verify pass of the serving model accepts or
    /// rejects them. `None` decodes one token per step.
    pub speculative: Option<SpeculativeSpec>,
}

/// Draft/verify configuration for speculative decoding.
///
/// Each speculation step proposes `lookahead` tokens through the draft
/// model (one single-token paged decode per proposal, on a per-session
/// draft cache sharing the manager's page pool), then verifies them in
/// **one** multi-token feed of the serving model (`verify_func`, see
/// `relax_models::llama::build_decode_paged_multi`). Proposals are
/// committed up to the first disagreement with the verify model's
/// greedy choice, plus the verify model's own token at the point of
/// disagreement; the rejected tail is rolled off both paged caches with
/// `truncate_to`. Because only verify-chosen tokens are ever committed,
/// the generated stream is identical to plain autoregressive decoding
/// of the serving model regardless of draft quality — the draft only
/// moves throughput.
#[derive(Clone)]
pub struct SpeculativeSpec {
    /// Executable holding the draft model's paged decode function.
    pub draft: Arc<Executable>,
    /// Name of the draft decode function (`(1,1)` tokens).
    pub draft_func: String,
    /// Draft weight arguments, after the token/cache parameters.
    pub draft_weights: Vec<Value>,
    /// Geometry of every session's draft cache (`batch` must be 1).
    pub draft_cache: KvCacheConfig,
    /// Executable holding the serving model's multi-token decode.
    pub verify: Arc<Executable>,
    /// Name of the multi-token verify function (`(1,s)` tokens,
    /// `(1,s,vocab)` logits). Runs with the manager's `weights`.
    pub verify_func: String,
    /// Tokens proposed per speculation step (≥ 1).
    pub lookahead: usize,
    /// Probability that a proposal is deterministically corrupted
    /// before verification — a knob for exercising rejection paths and
    /// dialing the acceptance rate in tests/benches. `0.0` leaves the
    /// draft untouched.
    pub noise: f64,
    /// Seed for the corruption hash; together with the session id and
    /// the absolute token position it makes corruption independent of
    /// scheduling, so the same request corrupts identically at any
    /// worker count.
    pub noise_seed: u64,
}

/// One generation request: a prompt and a token budget.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<i64>,
    /// Number of tokens to generate.
    pub max_new_tokens: usize,
    /// Relative deadline; `None` uses the manager default. Sessions
    /// past their deadline are shed, and the *earliest* deadline is
    /// evicted first under page-pool pressure.
    pub deadline: Option<Duration>,
}

/// A finished session.
#[derive(Debug, Clone)]
pub struct SessionOutput {
    /// The scheduler-assigned session id.
    pub session: u64,
    /// Greedy-decoded (argmax) generated tokens.
    pub tokens: Vec<i64>,
    /// Final per-stream KV tensors gathered from the pages, when the
    /// manager was configured with `return_kv` (differential tests
    /// compare these bitwise against the copy-based oracle).
    pub kv: Option<Vec<NDArray>>,
}

/// Tuning and fault-injection knobs for a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads executing steps.
    pub workers: usize,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Page-pool capacity in pages (`usize::MAX` = unbounded).
    pub pool_pages: usize,
    /// Maximum sessions in the running set; the rest wait admission.
    pub max_running: usize,
    /// Consecutive failed attempts (panic or pool pressure) a session
    /// survives before it is failed.
    pub max_attempts: u32,
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Duration,
    /// Gather final KV views into every [`SessionOutput`].
    pub return_kv: bool,
    /// Deterministic fault plans installed on specific workers at
    /// startup (chaos testing), as in [`ServeConfig::worker_faults`]:
    /// VM sites go to each of the worker's VMs, serving sites
    /// (`WorkerPanic` / `WorkerStall`) to its loop. Respawned
    /// generations carry no faults.
    pub worker_faults: Vec<(usize, FaultPlan)>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 4,
            page_tokens: 16,
            pool_pages: usize::MAX,
            max_running: 32,
            max_attempts: 3,
            default_deadline: Duration::from_secs(30),
            return_kv: false,
            worker_faults: Vec::new(),
        }
    }
}

/// Monotonic scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions admitted into the running set.
    pub admitted: u64,
    /// Sessions that produced their full token budget.
    pub retired: u64,
    /// Sessions evicted under page-pool pressure.
    pub evicted: u64,
    /// Sessions failed (VM error, rejection, retries exhausted).
    pub failed: u64,
    /// Sessions shed on deadline.
    pub shed: u64,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Prefill steps executed successfully.
    pub prefills: u64,
    /// Decode steps executed successfully.
    pub decodes: u64,
    /// Generated tokens across all sessions.
    pub tokens: u64,
    /// Pre-step-length rollbacks (after panics or pool pressure).
    pub rollbacks: u64,
    /// Steps lost to a worker panic (contained and healed) or to a pool
    /// with no live worker left.
    pub worker_panics: u64,
    /// Peak pages in use observed at iteration boundaries.
    pub peak_pages_in_use: u64,
    /// Speculation steps executed successfully.
    pub speculations: u64,
    /// Draft tokens proposed across all speculation steps.
    pub spec_proposed: u64,
    /// Draft proposals accepted by the verify model.
    pub spec_accepted: u64,
}

type SessionResult = Result<SessionOutput, ServeError>;

/// What one dispatched step asks a worker to do.
enum StepKind {
    /// Run the prefill function over these prompt tokens and bit-copy
    /// the resulting K/V tensors into the session's pages.
    Prefill(Vec<i64>),
    /// Run the paged decode function on this input token.
    Decode(i64),
    /// Speculate: catch the draft cache up on `draft_feed` (the
    /// committed tokens it has not seen, ending with the next input
    /// token, which sits at position `fed`), propose `lookahead` draft
    /// tokens, verify them in one multi-token feed, and commit the
    /// agreed prefix.
    Speculate {
        draft_feed: Vec<i64>,
        fed: usize,
        lookahead: usize,
    },
}

/// The session model as the pool runs it: the spec plus the index of
/// each program's VM in a worker's VM list (decode is always 0).
struct StepModel {
    spec: SessionModelSpec,
    prefill: Option<usize>,
    draft: Option<usize>,
    verify: Option<usize>,
}

struct Job {
    session: u64,
    kind: StepKind,
    cache: KvCache,
    /// The session's draft cache (speculative decoding only).
    draft: Option<KvCache>,
    /// The session's async span, so worker-side step spans (and the
    /// kernel spans the VM opens under them) nest session → step →
    /// kernel.
    parent: relax_trace::SpanId,
    model: Arc<StepModel>,
}

enum StepOutcome {
    /// Prefill landed; this many prompt tokens are now in the cache.
    Prefilled(usize),
    /// Decode landed; argmax over the logits chose this token.
    Decoded(i64),
    /// Speculation landed: `committed` tokens (accepted proposals plus
    /// the verify model's token at the first disagreement) are in the
    /// cache; the rejected tail is already truncated away.
    Speculated {
        committed: Vec<i64>,
        proposed: u64,
        accepted: u64,
    },
    /// The page pool refused an acquire (retryable after eviction).
    PoolExhausted(String),
    /// The worker panicked mid-step (and was replaced), or the step was
    /// lost with no worker left to run it.
    Panicked(String),
    /// A deterministic VM failure.
    Failed(VmError),
}

/// One session step as a work item of the pool: the job and where its
/// outcome goes. Each path through the pool (run, or abandoned with no
/// worker left) reports exactly once, and only after the job — with its
/// KV-cache handles — is dropped.
pub(crate) struct Step {
    job: Job,
    reply: Sender<(u64, StepOutcome)>,
}

impl Step {
    /// Runs the step on a worker's VMs under panic containment. Returns
    /// the panic message when the step panicked; the caller's VMs may be
    /// poisoned then.
    pub(crate) fn run(self, vms: &mut [Vm], faults: &mut FaultInjector) -> Option<String> {
        match panic::catch_unwind(AssertUnwindSafe(|| run_step(vms, &self.job, faults))) {
            Ok(outcome) => {
                self.report(outcome);
                None
            }
            Err(payload) => {
                let message = panic_message(payload);
                self.report(StepOutcome::Panicked(message.clone()));
                Some(message)
            }
        }
    }

    /// Resolves a step that will not run (no live worker left).
    pub(crate) fn abandon(self, err: &ServeError) {
        self.report(StepOutcome::Panicked(err.to_string()));
    }

    /// Drops the job — and with it the worker's KV-cache handles —
    /// *before* publishing the outcome: once the scheduler has every
    /// result of an iteration, no worker-side cache clone can pin pages,
    /// so eviction decisions see the true pool occupancy.
    fn report(self, outcome: StepOutcome) {
        let Step { job, reply } = self;
        let session = job.session;
        drop(job);
        let _ = reply.send((session, outcome));
    }
}

/// One live session inside the scheduler.
struct Session {
    id: u64,
    prompt: Vec<i64>,
    max_new: usize,
    deadline: Instant,
    submitted: Instant,
    reply: Sender<SessionResult>,
    cache: KvCache,
    /// Draft-model cache on the same shared pool (speculative only).
    draft: Option<KvCache>,
    /// Prompt/generated tokens already consumed by the model.
    fed: usize,
    /// Per-stream lengths of the main and draft cache when the current
    /// step was dispatched; any failure rolls the caches back to these,
    /// so no step is half-applied.
    pre_lens: Vec<usize>,
    draft_pre_lens: Vec<usize>,
    generated: Vec<i64>,
    /// Consecutive failed attempts at the current step.
    attempts: u32,
    span: relax_trace::SpanId,
}

impl Session {
    /// The committed token at absolute position `pos` (prompt first,
    /// then the session's own generations).
    fn token_at(&self, pos: usize) -> i64 {
        if pos < self.prompt.len() {
            self.prompt[pos]
        } else {
            self.generated[pos - self.prompt.len()]
        }
    }

    /// The token the next decode step feeds (teacher-forcing through
    /// the prompt, then the session's own generations).
    fn next_token(&self) -> i64 {
        self.token_at(self.fed)
    }

    fn done(&self) -> bool {
        self.generated.len() >= self.max_new
    }
}

struct PendingSession {
    id: u64,
    request: SessionRequest,
    submitted: Instant,
    reply: Sender<SessionResult>,
}

struct Shared {
    pending: Mutex<VecDeque<PendingSession>>,
    wake: Condvar,
    stopping: AtomicBool,
    stats: Mutex<SessionStats>,
    pool: Arc<KvPagePool>,
    /// Wall time of each scheduler iteration, nanoseconds.
    iteration_ns: Mutex<Vec<u64>>,
    /// Completion latency (submit → resolve) of each finished session.
    completion_ns: Mutex<Vec<u64>>,
}

/// Continuous-batching scheduler over paged KV caches.
///
/// See the module docs for the iteration loop. Construction spawns the
/// scheduler thread and a supervised worker pool;
/// [`SessionManager::shutdown`] (or drop) resolves everything still
/// queued with [`ServeError::ShuttingDown`] and joins them.
pub struct SessionManager {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<()>>,
    workers: Pool,
    draft_plans: SharedPlanCache,
    verify_plans: SharedPlanCache,
}

impl SessionManager {
    /// Spawns the scheduler and a pool of `config.workers` workers.
    pub fn new(spec: SessionModelSpec, config: SessionConfig) -> Self {
        let pool = Arc::new(KvPagePool::with_capacity(
            config.page_tokens,
            config.pool_pages,
        ));
        let shared = Arc::new(Shared {
            pending: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
            stats: Mutex::new(SessionStats::default()),
            pool: pool.clone(),
            iteration_ns: Mutex::new(Vec::new()),
            completion_ns: Mutex::new(Vec::new()),
        });

        // One program per executable, each with its own plan cache.
        let mut programs = Vec::new();
        let mut add = |exec: &Arc<Executable>, plans: SharedPlanCache| {
            programs.push(Program {
                exec: exec.clone(),
                plans,
            });
            programs.len() - 1
        };
        add(&spec.decode, SharedPlanCache::new(64));
        let prefill = spec
            .prefill
            .as_ref()
            .map(|exec| add(exec, SharedPlanCache::new(64)));
        let draft_plans = SharedPlanCache::new(64);
        let verify_plans = SharedPlanCache::new(64);
        let (draft, verify) = match &spec.speculative {
            Some(sp) => (
                Some(add(&sp.draft, draft_plans.clone())),
                Some(add(&sp.verify, verify_plans.clone())),
            ),
            None => (None, None),
        };
        let model = Arc::new(StepModel {
            spec,
            prefill,
            draft,
            verify,
        });
        // Each running session has at most one step in flight, so the
        // queue never refuses one.
        let serve = ServeConfig {
            workers: config.workers,
            queue_capacity: config.max_running.max(1),
            max_batch: 1,
            worker_faults: config.worker_faults.clone(),
            ..ServeConfig::default()
        };
        let workers = Pool::start(&serve, programs, Arc::new(Registry::new()), Some(pool));

        let scheduler = thread::Builder::new()
            .name("relax-session-scheduler".into())
            .spawn({
                let shared = shared.clone();
                let core = workers.core.clone();
                move || scheduler_loop(shared, core, model, config)
            })
            .expect("spawn session scheduler");

        SessionManager {
            shared,
            next_id: AtomicU64::new(0),
            scheduler: Some(scheduler),
            workers,
            draft_plans,
            verify_plans,
        }
    }

    /// Submits a session; the ticket resolves when it retires, is
    /// evicted, shed, or fails.
    pub fn submit(&self, request: SessionRequest) -> Ticket<SessionOutput> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (reply, rx) = mpsc::channel();
        lock(&self.shared.stats).submitted += 1;
        lock(&self.shared.pending).push_back(PendingSession {
            id,
            request,
            submitted: Instant::now(),
            reply,
        });
        self.shared.wake.notify_all();
        Ticket::new(rx)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionStats {
        *lock(&self.shared.stats)
    }

    /// The shared page pool (tests assert its accounting reconciles).
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.shared.pool
    }

    /// Page-pool accounting snapshot.
    pub fn pool_stats(&self) -> KvPageStats {
        self.shared.pool.stats()
    }

    /// Plan-cache counters for the speculative executables, aggregated
    /// across all workers: `(draft, verify)`. The draft sees
    /// variable-length catch-up feeds and the verify sees
    /// `lookahead + 1`-token windows, so these are the ragged-shape
    /// cache populations the `dynamic_workloads` bench reports. Both
    /// are zero when the manager has no speculative spec.
    pub fn speculative_plan_stats(&self) -> (PlanCacheStats, PlanCacheStats) {
        (self.draft_plans.stats(), self.verify_plans.stats())
    }

    /// Wall time of every scheduler iteration so far, nanoseconds.
    pub fn iteration_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.iteration_ns).clone()
    }

    /// Submit-to-resolve latency of every finished session so far,
    /// nanoseconds.
    pub fn completion_latencies_ns(&self) -> Vec<u64> {
        lock(&self.shared.completion_ns).clone()
    }

    /// Stops the scheduler (it finishes its iteration first, so no step
    /// is in flight), then the worker pool.
    fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        self.workers.stop();
    }

    /// Stops the scheduler and workers (pending and running sessions
    /// resolve with [`ServeError::ShuttingDown`]) and returns the
    /// final counters.
    pub fn shutdown(mut self) -> SessionStats {
        self.stop();
        self.stats()
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Classifies a VM error: page-pool exhaustion is retryable after the
/// scheduler frees pages; everything else is deterministic.
fn classify(e: VmError) -> StepOutcome {
    if let VmErrorKind::Kernel(k) = &e.kind {
        if k.detail.contains("kv page pool exhausted") {
            return StepOutcome::PoolExhausted(k.detail.clone());
        }
    }
    StepOutcome::Failed(e)
}

fn argmax(logits: &NDArray) -> i64 {
    argmax_slice(&logits.to_f64_vec())
}

fn argmax_slice(vals: &[f64]) -> i64 {
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as i64
}

/// Deterministically corrupts a draft proposal with probability
/// `spec.noise`. Keyed by the session id and the proposal's absolute
/// stream position, so the same request corrupts identically whatever
/// the worker count or retry history — and since corruption only makes
/// a proposal *wrong*, it can change throughput but never the committed
/// stream.
fn corrupt(spec: &SpeculativeSpec, session: u64, pos: usize, token: i64) -> i64 {
    if spec.noise <= 0.0 {
        return token;
    }
    let mut z = spec
        .noise_seed
        .wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((pos as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if ((z % 10_000) as f64) < spec.noise * 10_000.0 {
        // Nudge to a guaranteed-different id that stays a valid token.
        if token > 0 {
            token - 1
        } else {
            token + 1
        }
    } else {
        token
    }
}

/// One speculation step: draft catch-up + proposals (single-token paged
/// decodes on the draft cache), a mid-verify fault window, one
/// multi-token verify feed on the session cache, the commit loop, and
/// the `truncate_to` rollback of both caches to the committed prefix.
fn run_speculate(
    vms: &mut [Vm],
    job: &Job,
    faults: &mut FaultInjector,
    draft_feed: &[i64],
    fed: usize,
    lookahead: usize,
) -> StepOutcome {
    let model = &*job.model;
    let spec = model
        .spec
        .speculative
        .as_ref()
        .expect("speculate step without a speculative spec");
    let draft_cache = job
        .draft
        .as_ref()
        .expect("speculate step without draft cache");
    let draft_vm = &mut vms[model.draft.expect("speculate step without draft VM")];
    let k = lookahead.max(1);

    // Draft phase: feed the tokens the draft cache is missing, then
    // its own proposals; every feed past the catch-up prefix yields the
    // next proposal.
    let mut proposals: Vec<i64> = Vec::with_capacity(k);
    for i in 0..draft_feed.len() + k - 1 {
        let tok = if i < draft_feed.len() {
            draft_feed[i]
        } else {
            proposals[i - draft_feed.len()]
        };
        let t = NDArray::from_i64(&[1, 1], DataType::I64, vec![tok]).expect("draft token tensor");
        let mut args = vec![Value::Tensor(t), Value::KvCache(draft_cache.clone())];
        args.extend(spec.draft_weights.iter().cloned());
        match draft_vm.run(&spec.draft_func, &args) {
            Ok(out) => {
                if i + 1 >= draft_feed.len() {
                    match out.as_tuple().and_then(|items| items.first()) {
                        Some(Value::Tensor(logits)) => {
                            let pos = fed + 1 + proposals.len();
                            proposals.push(corrupt(spec, job.session, pos, argmax(logits)));
                        }
                        _ => {
                            return StepOutcome::Failed(VmError::new(VmErrorKind::TypeMismatch {
                                expected: "tuple of (logits, kv_cache)",
                                actual: out.kind(),
                            }))
                        }
                    }
                }
            }
            Err(e) => return classify(e),
        }
    }

    // Mid-verify fault window: a stall or panic here leaves the draft
    // cache extended but the verify cache untouched — exactly the
    // half-speculated state the rollback path must absorb.
    if let Some(fired) = faults.check(FaultSite::WorkerStall) {
        thread::sleep(fired.stall.unwrap_or_default());
    }
    if faults.check(FaultSite::WorkerPanic).is_some() {
        panic!("injected worker panic");
    }

    // Verify phase: one variable-length feed of the next committed
    // token plus every proposal; row `i` of the logits is bitwise what
    // a sequential single-token decode would produce at that position.
    let mut window = Vec::with_capacity(1 + k);
    window.push(*draft_feed.last().expect("non-empty draft feed"));
    window.extend(proposals.iter().copied());
    let t = NDArray::from_i64(&[1, window.len()], DataType::I64, window.clone())
        .expect("verify token tensor");
    let mut args = vec![Value::Tensor(t), Value::KvCache(job.cache.clone())];
    args.extend(model.spec.weights.iter().cloned());
    let verify_vm = &mut vms[model.verify.expect("speculate step without verify VM")];
    let logits = match verify_vm.run(&spec.verify_func, &args) {
        Ok(out) => match out.as_tuple().and_then(|items| items.first()) {
            Some(Value::Tensor(l)) => l.clone(),
            _ => {
                return StepOutcome::Failed(VmError::new(VmErrorKind::TypeMismatch {
                    expected: "tuple of (logits, kv_cache)",
                    actual: out.kind(),
                }))
            }
        },
        Err(e) => return classify(e),
    };
    let vocab = logits.shape().last().copied().unwrap_or(1).max(1);
    let vals = logits.to_f64_vec();
    if vals.len() < window.len() * vocab {
        return StepOutcome::Failed(VmError::new(VmErrorKind::TypeMismatch {
            expected: "(1, s, vocab) verify logits",
            actual: "short logits tensor",
        }));
    }

    // Commit loop: proposals up to the first disagreement, then the
    // verify model's own greedy token at that position (so every step
    // commits at least one token).
    let mut committed = Vec::with_capacity(k + 1);
    let mut accepted = 0u64;
    for i in 0..window.len() {
        let v = argmax_slice(&vals[i * vocab..(i + 1) * vocab]);
        committed.push(v);
        if i + 1 == window.len() || proposals[i] != v {
            break;
        }
        accepted += 1;
    }

    // Roll the rejected tail off both paged caches.
    let keep = fed + 1 + accepted as usize;
    let lens = vec![keep; job.cache.lens().len()];
    if let Err(e) = job.cache.truncate_to(&lens) {
        return classify(VmError::new(VmErrorKind::Kernel(e)));
    }
    let draft_keep: Vec<usize> = draft_cache.lens().iter().map(|&l| l.min(keep)).collect();
    if let Err(e) = draft_cache.truncate_to(&draft_keep) {
        return classify(VmError::new(VmErrorKind::Kernel(e)));
    }
    StepOutcome::Speculated {
        committed,
        proposed: k as u64,
        accepted,
    }
}

/// Runs one step body on a worker's VMs. Called inside `catch_unwind`
/// (an injected `WorkerStall` already fired in the worker loop); an
/// injected `WorkerPanic` fault fires *after* the VM ran — the appends
/// have landed, the report is lost — which is exactly the
/// mid-iteration crash the rollback path must absorb.
fn run_step(vms: &mut [Vm], job: &Job, faults: &mut FaultInjector) -> StepOutcome {
    let model = &*job.model;
    let sp = relax_trace::span_under("serve", Some(job.parent), || match &job.kind {
        StepKind::Prefill(tokens) => format!("prefill:{}", tokens.len()),
        StepKind::Decode(_) => "decode".to_string(),
        StepKind::Speculate { lookahead, .. } => format!("speculate:{lookahead}"),
    });
    let phase = match &job.kind {
        StepKind::Prefill(_) => relax_trace::SessionPhase::Prefill,
        StepKind::Decode(_) | StepKind::Speculate { .. } => relax_trace::SessionPhase::Decode,
    };
    let outcome = match &job.kind {
        StepKind::Prefill(tokens) => {
            let t = NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.clone())
                .expect("prefill token tensor");
            let mut args = vec![Value::Tensor(t)];
            args.extend(model.spec.weights.iter().cloned());
            let vm = &mut vms[model.prefill.expect("prefill job without prefill VM")];
            match vm.run(&model.spec.prefill_func, &args) {
                Ok(out) => {
                    let items = match out.as_tuple() {
                        Some(items) => items.to_vec(),
                        None => vec![out],
                    };
                    let mut failed = None;
                    for (stream, item) in items.iter().enumerate() {
                        let tensor = match item.as_tensor() {
                            Some(t) => t,
                            None => {
                                failed = Some(StepOutcome::Failed(VmError::new(
                                    VmErrorKind::TypeMismatch {
                                        expected: "tensor",
                                        actual: item.kind(),
                                    },
                                )));
                                break;
                            }
                        };
                        if let Err(e) = job.cache.append(stream, tensor) {
                            failed = Some(classify(VmError::new(VmErrorKind::Kernel(e))));
                            break;
                        }
                    }
                    failed.unwrap_or(StepOutcome::Prefilled(tokens.len()))
                }
                Err(e) => classify(e),
            }
        }
        StepKind::Decode(token) => {
            let t = NDArray::from_i64(&[1, 1], DataType::I64, vec![*token])
                .expect("decode token tensor");
            let mut args = vec![Value::Tensor(t), Value::KvCache(job.cache.clone())];
            args.extend(model.spec.weights.iter().cloned());
            match vms[0].run(&model.spec.decode_func, &args) {
                Ok(out) => match out.as_tuple().and_then(|items| items.first()) {
                    Some(Value::Tensor(logits)) => StepOutcome::Decoded(argmax(logits)),
                    _ => StepOutcome::Failed(VmError::new(VmErrorKind::TypeMismatch {
                        expected: "tuple of (logits, kv_cache)",
                        actual: out.kind(),
                    })),
                },
                Err(e) => classify(e),
            }
        }
        StepKind::Speculate {
            draft_feed,
            fed,
            lookahead,
        } => run_speculate(vms, job, faults, draft_feed, *fed, *lookahead),
    };
    sp.finish_with(|| relax_trace::Payload::Session {
        session: job.session,
        phase,
    });
    if faults.check(FaultSite::WorkerPanic).is_some() {
        panic!("injected worker panic");
    }
    outcome
}

// ---------------------------------------------------------------------
// Scheduler side
// ---------------------------------------------------------------------

/// Resolves a running session, counting it by its outcome; dropping the
/// session drops its cache handles, which releases its pages.
fn finish(shared: &Shared, s: Session, result: SessionResult) {
    let phase = {
        let mut st = lock(&shared.stats);
        match &result {
            Ok(_) => {
                st.retired += 1;
                relax_trace::SessionPhase::Retire
            }
            Err(ServeError::Evicted) => {
                st.evicted += 1;
                relax_trace::SessionPhase::Evict
            }
            Err(ServeError::DeadlineExceeded { .. }) => {
                st.shed += 1;
                relax_trace::SessionPhase::Fail
            }
            Err(_) => {
                st.failed += 1;
                relax_trace::SessionPhase::Fail
            }
        }
    };
    lock(&shared.completion_ns).push(s.submitted.elapsed().as_nanos() as u64);
    relax_trace::async_end("serve", "session", s.span, || {
        relax_trace::Payload::Session {
            session: s.id,
            phase,
        }
    });
    let _ = s.reply.send(result);
}

fn scheduler_loop(
    shared: Arc<Shared>,
    core: Arc<Core>,
    model: Arc<StepModel>,
    config: SessionConfig,
) {
    let spec = &model.spec;
    // Every step carries a clone of `tx`; the scheduler keeps one, so
    // `recv` never sees a disconnect — each step reports exactly once.
    let (tx, results) = mpsc::channel::<(u64, StepOutcome)>();
    let mut running: Vec<Session> = Vec::new();
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            for s in running.drain(..) {
                finish(&shared, s, Err(ServeError::ShuttingDown));
            }
            for p in lock(&shared.pending).drain(..) {
                let _ = p.reply.send(Err(ServeError::ShuttingDown));
                lock(&shared.stats).failed += 1;
            }
            return;
        }

        // Admit pending sessions into the running set.
        {
            let mut pending = lock(&shared.pending);
            while running.len() < config.max_running.max(1) {
                let Some(p) = pending.pop_front() else { break };
                drop(pending);
                admit(&shared, spec, &config, &mut running, p);
                pending = lock(&shared.pending);
            }
            // Nothing to do: sleep until a submit or shutdown wakes us.
            if running.is_empty() {
                if pending.is_empty() && !shared.stopping.load(Ordering::Acquire) {
                    let _ = shared
                        .wake
                        .wait_timeout(pending, Duration::from_millis(20));
                }
                continue;
            }
        }

        // Shed sessions whose deadline passed.
        let now = Instant::now();
        let mut i = 0;
        while i < running.len() {
            if now >= running[i].deadline {
                let s = running.swap_remove(i);
                let missed_by = now - s.deadline;
                finish(&shared, s, Err(ServeError::DeadlineExceeded { missed_by }));
            } else {
                i += 1;
            }
        }
        if running.is_empty() {
            continue;
        }

        // Dispatch one step per running session (prefill and decode
        // interleave within the iteration) and collect every result.
        let iter_span = relax_trace::span("serve", || format!("iteration:{}", running.len()));
        let started = Instant::now();
        for s in &mut running {
            s.pre_lens = s.cache.lens();
            s.draft_pre_lens = s.draft.as_ref().map(|c| c.lens()).unwrap_or_default();
            let kind = if s.fed == 0 && s.prompt.len() > 1 && spec.prefill.is_some() {
                StepKind::Prefill(s.prompt[..s.prompt.len() - 1].to_vec())
            } else if let Some(sp) = spec.speculative.as_ref().filter(|_| {
                // Speculate only once every remaining feed produces
                // a model-chosen token; teacher-forced prompt
                // tokens go through plain decode.
                s.fed + 1 >= s.prompt.len()
            }) {
                let d = s
                    .draft
                    .as_ref()
                    .and_then(|c| c.lens().first().copied())
                    .unwrap_or(0);
                StepKind::Speculate {
                    draft_feed: (d..=s.fed).map(|p| s.token_at(p)).collect(),
                    fed: s.fed,
                    lookahead: sp.lookahead.max(1),
                }
            } else {
                StepKind::Decode(s.next_token())
            };
            let step = Step {
                job: Job {
                    session: s.id,
                    kind,
                    cache: s.cache.clone(),
                    draft: s.draft.clone(),
                    parent: s.span,
                    model: model.clone(),
                },
                reply: tx.clone(),
            };
            requeue(
                &core,
                Request {
                    id: 0,
                    trace: 0,
                    deadline: None,
                    enqueued: started,
                    attempt: 0,
                    work: Work::Step(step),
                },
            );
        }
        let mut outcomes: HashMap<u64, StepOutcome> = results.iter().take(running.len()).collect();
        lock(&shared.stats).iterations += 1;
        lock(&shared.iteration_ns).push(started.elapsed().as_nanos() as u64);

        // Advance, retire, retry or fail each session.
        let mut pressure = false;
        let mut i = 0;
        while i < running.len() {
            let s = &mut running[i];
            let Some(outcome) = outcomes.remove(&s.id) else {
                i += 1;
                continue;
            };
            let mut st = lock(&shared.stats);
            let mut end: Option<SessionResult> = None;
            let mut retry: Option<String> = None;
            match outcome {
                StepOutcome::Prefilled(fed) => {
                    s.attempts = 0;
                    s.fed = fed;
                    st.prefills += 1;
                }
                StepOutcome::Decoded(next) => {
                    s.attempts = 0;
                    s.fed += 1;
                    st.decodes += 1;
                    if s.fed >= s.prompt.len() {
                        s.generated.push(next);
                        st.tokens += 1;
                    }
                }
                StepOutcome::Speculated {
                    committed,
                    proposed,
                    accepted,
                } => {
                    s.attempts = 0;
                    st.speculations += 1;
                    st.spec_proposed += proposed;
                    st.spec_accepted += accepted;
                    let pushed = committed
                        .len()
                        .min(s.max_new.saturating_sub(s.generated.len()));
                    s.generated.extend_from_slice(&committed[..pushed]);
                    st.tokens += pushed as u64;
                    s.fed += pushed;
                    if pushed < committed.len() {
                        // The budget filled mid-batch: shed the
                        // overshoot appends so the final cache is
                        // exactly what a plain decode of the same
                        // stream would hold.
                        let keep = vec![s.fed; s.cache.lens().len()];
                        let _ = s.cache.truncate_to(&keep);
                        if let Some(d) = &s.draft {
                            let dk: Vec<usize> =
                                d.lens().iter().map(|&l| l.min(s.fed)).collect();
                            let _ = d.truncate_to(&dk);
                        }
                    }
                }
                StepOutcome::PoolExhausted(why) => {
                    pressure = true;
                    retry = Some(why);
                }
                StepOutcome::Panicked(why) => {
                    st.worker_panics += 1;
                    retry = Some(why);
                }
                StepOutcome::Failed(e) => {
                    st.rollbacks += 1;
                    rollback(s);
                    end = Some(Err(ServeError::Vm(e)));
                }
            }
            if let Some(why) = retry {
                st.rollbacks += 1;
                rollback(s);
                s.attempts += 1;
                if s.attempts > config.max_attempts {
                    end = Some(Err(ServeError::RetriesExhausted(why)));
                }
            }
            drop(st);
            if end.is_none() && s.done() {
                let kv = if config.return_kv {
                    gather_kv(&s.cache)
                } else {
                    None
                };
                end = Some(Ok(SessionOutput {
                    session: s.id,
                    tokens: std::mem::take(&mut s.generated),
                    kv,
                }));
            }
            match end {
                Some(result) => finish(&shared, running.swap_remove(i), result),
                None => i += 1,
            }
        }

        // Page-pool pressure: evict the earliest-deadline session so
        // the losers' retries can make progress next iteration. Never
        // evict the last running session — its failed step already
        // rolled back, so evicting it frees nothing its own retry
        // would not see; if it alone exceeds the pool, the attempt
        // budget fails it with a typed `RetriesExhausted` instead.
        if pressure && running.len() > 1 {
            let victim = running
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.deadline)
                .map(|(i, _)| i)
                .unwrap_or(0);
            finish(
                &shared,
                running.swap_remove(victim),
                Err(ServeError::Evicted),
            );
        }

        let in_use = shared.pool.stats().in_use as u64;
        let mut st = lock(&shared.stats);
        st.peak_pages_in_use = st.peak_pages_in_use.max(in_use);
        drop(st);
        iter_span.finish();
    }
}

fn admit(
    shared: &Shared,
    spec: &SessionModelSpec,
    config: &SessionConfig,
    running: &mut Vec<Session>,
    p: PendingSession,
) {
    if p.request.prompt.is_empty() {
        let _ = p
            .reply
            .send(Err(ServeError::Rejected("empty prompt".to_string())));
        lock(&shared.stats).failed += 1;
        return;
    }
    let deadline = p.submitted + p.request.deadline.unwrap_or(config.default_deadline);
    let cache = KvCache::new(spec.cache, shared.pool.clone());
    let draft = spec
        .speculative
        .as_ref()
        .map(|sp| KvCache::new(sp.draft_cache, shared.pool.clone()));
    let span = relax_trace::async_begin("serve", "session", || relax_trace::Payload::Session {
        session: p.id,
        phase: relax_trace::SessionPhase::Admit,
    });
    lock(&shared.stats).admitted += 1;
    let s = Session {
        id: p.id,
        prompt: p.request.prompt,
        max_new: p.request.max_new_tokens,
        deadline,
        submitted: p.submitted,
        reply: p.reply,
        cache,
        draft,
        fed: 0,
        pre_lens: Vec::new(),
        draft_pre_lens: Vec::new(),
        generated: Vec::new(),
        attempts: 0,
        span,
    };
    if s.max_new == 0 {
        let output = SessionOutput {
            session: p.id,
            tokens: Vec::new(),
            kv: None,
        };
        finish(shared, s, Ok(output));
        return;
    }
    running.push(s);
}

/// Rolls both caches back to their pre-step lengths.
fn rollback(s: &Session) {
    // `truncate_to` never grows; it only sheds this step's partial
    // appends and releases now-empty tail pages.
    if s.cache.truncate_to(&s.pre_lens).is_err() {
        // Length mismatch can only mean the job raced a config error;
        // drop the whole cache state instead of leaving partials.
        let zeros = vec![0; s.cache.lens().len()];
        let _ = s.cache.truncate_to(&zeros);
    }
    if let Some(d) = &s.draft {
        if s.draft_pre_lens.is_empty() || d.truncate_to(&s.draft_pre_lens).is_err() {
            let zeros = vec![0; d.lens().len()];
            let _ = d.truncate_to(&zeros);
        }
    }
}

fn gather_kv(cache: &KvCache) -> Option<Vec<NDArray>> {
    let streams = cache.config().streams;
    let mut out = Vec::with_capacity(streams);
    for s in 0..streams {
        match cache.view(s) {
            Ok(t) => out.push(t),
            Err(_) => return None,
        }
    }
    Some(out)
}
