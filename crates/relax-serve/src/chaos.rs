//! A serving-layer chaos harness: seeded random fault schedules over a
//! real workload, with the engine's robustness invariants checked from
//! the *client's* side of the API.
//!
//! [`run_chaos`] takes an executable and a workload (a list of
//! `(function, args)` requests), computes fault-free reference outputs
//! on a plain single-threaded [`Vm`], then serves the same workload
//! through a [`ServeEngine`] whose workers carry a seeded random
//! [`FaultPlan`] — worker panics, worker stalls, dropped replies and
//! injected kernel faults, distributed by a deterministic RNG so every
//! run reproduces. The [`ChaosReport`] captures what a client observed:
//!
//! - **Typed resolution**: every ticket resolved within the guard
//!   timeout (`unresolved == 0` is the invariant tests assert).
//! - **No cross-session leakage**: completed outputs are bitwise equal
//!   to the fault-free reference (`mismatches == 0`) — a fault on one
//!   request never corrupts another.
//! - **Availability**: `completed / submitted`, which retry and
//!   supervision should hold near 1.0 at low fault rates.

use std::sync::Once;
use std::time::{Duration, Instant};

use relax_vm::{Executable, FaultPlan, FaultSite, Value, Vm};

use crate::engine::{OverloadPolicy, RetryPolicy, ServeConfig, ServeEngine, ServeError, Ticket};
use crate::session::{
    SessionConfig, SessionManager, SessionModelSpec, SessionOutput, SessionRequest, SessionStats,
};
use crate::telemetry::EngineReport;

/// One chaos request: VM function name and arguments.
pub type ChaosRequest = (String, Vec<Value>);

/// Knobs for a chaos run. `engine` is the base serving configuration;
/// its `worker_faults` are replaced by the generated schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// RNG seed for the fault schedule (same seed, same faults).
    pub seed: u64,
    /// Approximate faults per submitted request (`0.01` = 1%). The
    /// schedule holds `round(requests × fault_rate)` faults.
    pub fault_rate: f64,
    /// Base engine configuration (workers, retry, overload, budgets).
    pub engine: ServeConfig,
    /// Duration of injected worker stalls. Should comfortably exceed
    /// `engine.stall_timeout` so the supervisor provably notices.
    pub stall: Duration,
    /// Per-ticket resolution guard: a ticket still unresolved after
    /// this long is counted in [`ChaosReport::unresolved`] instead of
    /// hanging the harness. Generous by design — it bounds the *test*,
    /// not the engine.
    pub guard: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let queue_capacity = 128;
        ChaosConfig {
            seed: 0xC4A0_5EED,
            fault_rate: 0.01,
            engine: ServeConfig {
                workers: 4,
                queue_capacity,
                max_batch: 4,
                retry: Some(RetryPolicy::default()),
                overload: Some(OverloadPolicy::for_capacity(queue_capacity)),
                restart_budget: 8,
                // Wide enough that a cold plan compile on a healthy
                // worker is never mistaken for a wedge.
                stall_timeout: Duration::from_millis(150),
                ..ServeConfig::default()
            },
            stall: Duration::from_millis(400),
            guard: Duration::from_secs(30),
        }
    }
}

/// What the clients of a chaos run observed, plus the engine's own
/// final report.
#[derive(Debug)]
pub struct ChaosReport {
    /// Requests submitted (tickets issued + synchronous refusals).
    pub submitted: u64,
    /// Tickets that resolved `Ok` with a value.
    pub completed: u64,
    /// Tickets that resolved with a non-shed error (VM fault, lost
    /// worker, shutdown).
    pub failed: u64,
    /// Tickets shed typed (`DeadlineExceeded` / `Overloaded`).
    pub shed: u64,
    /// Submissions refused synchronously (backpressure / overload).
    pub rejected: u64,
    /// Tickets that did not resolve within the guard timeout. The
    /// engine's core invariant is that this is always zero.
    pub unresolved: u64,
    /// Completed outputs that were *not* bitwise equal to the
    /// fault-free reference. The isolation invariant is zero.
    pub mismatches: u64,
    /// Faults the schedule injected.
    pub scheduled_faults: u64,
    /// `completed / submitted`.
    pub availability: f64,
    /// The engine's own shutdown report (restarts, quarantines, per-
    /// incarnation exits).
    pub report: EngineReport,
}

/// xorshift64* — the harness's only randomness, fully determined by the
/// seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0 | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Installs a process-wide panic hook that swallows the harness's
/// *injected* worker panics (payload `"injected worker panic"`) so
/// chaos runs do not spray panic backtraces over test output. Every
/// other panic still reaches the previous hook. Idempotent.
pub fn silence_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| *s == "injected worker panic")
                .unwrap_or(false)
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s == "injected worker panic")
                    .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Flattens a value to `f64`s for bitwise comparison (tensors flatten,
/// tuples concatenate, shapes and scalars contribute their numbers).
pub fn flatten_value(v: &Value) -> Vec<f64> {
    fn walk(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Tensor(t) => out.extend(t.to_f64_vec()),
            Value::Tuple(items) => {
                for item in items {
                    walk(item, out);
                }
            }
            Value::Shape(dims) => out.extend(dims.iter().map(|&d| d as f64)),
            Value::Prim(p) => out.push(*p as f64),
            Value::KvCache(c) => {
                // Gather every stream so survivors' paged caches are
                // compared bitwise, pages and block tables included.
                for s in 0..c.config().streams {
                    if let Ok(t) = c.view(s) {
                        out.extend(t.to_f64_vec());
                    }
                }
            }
            Value::None | Value::Storage { .. } => {}
        }
    }
    let mut out = Vec::new();
    walk(v, &mut out);
    out
}

/// Builds the per-worker fault schedule: `n_faults` faults spread over
/// the workers, each at a uniformly chosen site of `sites` and a
/// uniformly chosen occurrence within the worker's expected share of
/// the `events` (requests, or step fault checks) the run makes.
fn build_schedule(
    rng: &mut Rng,
    workers: usize,
    events: u64,
    n_faults: u64,
    sites: &[FaultSite],
    kernels_per_event: u64,
    stall: Duration,
) -> Vec<(usize, FaultPlan)> {
    let per_worker = (events / workers.max(1) as u64).max(1);
    let mut plans: Vec<FaultPlan> = (0..workers).map(|_| FaultPlan::new()).collect();
    for _ in 0..n_faults {
        let worker = rng.below(workers as u64) as usize;
        let nth = 1 + rng.below(per_worker);
        let plan = std::mem::take(&mut plans[worker]);
        plans[worker] = match sites[rng.below(sites.len() as u64) as usize] {
            FaultSite::WorkerPanic => plan.fail_worker_panic(nth),
            FaultSite::WorkerStall => plan.stall_worker(nth, stall),
            FaultSite::ReplyDrop => plan.drop_reply(nth),
            // Kernel faults count kernel calls, not requests: scale the
            // occurrence by the measured kernels-per-request.
            _ => plan.fail_kernel(1 + rng.below(per_worker * kernels_per_event.max(1))),
        };
    }
    plans
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .collect()
}

/// Waits for `ticket` in 50 ms slices; `None` once `guard` has passed.
fn wait_guarded<T>(ticket: &Ticket<T>, guard: Duration) -> Option<Result<T, ServeError>> {
    let started = Instant::now();
    loop {
        match ticket.wait_timeout(Duration::from_millis(50)) {
            Some(r) => return Some(r),
            None if started.elapsed() > guard => return None,
            None => {}
        }
    }
}

/// Runs `workload` through a chaos-configured engine and reports what
/// the clients observed. See the module docs for the invariants.
///
/// The fault-free reference outputs are computed first on a plain
/// single-threaded [`Vm`] over a clone of `exec`; completed chaos
/// outputs are compared bitwise against them.
pub fn run_chaos(exec: Executable, workload: &[ChaosRequest], config: ChaosConfig) -> ChaosReport {
    silence_injected_panics();
    let mut rng = Rng(config.seed);

    // Fault-free reference pass; also measures kernels per request so
    // kernel-fault occurrences land inside the real range.
    let mut reference_vm = Vm::new(exec.clone());
    let reference: Vec<Option<Vec<f64>>> = workload
        .iter()
        .map(|(func, args)| reference_vm.run(func, args).ok().map(|v| flatten_value(&v)))
        .collect();
    let kernels_per_request = reference_vm.telemetry().kernel_launches / workload.len().max(1) as u64;

    let mut engine_config = config.engine.clone();
    let scheduled_faults = ((workload.len() as f64) * config.fault_rate).round() as u64;
    engine_config.worker_faults = build_schedule(
        &mut rng,
        engine_config.workers.max(1),
        workload.len() as u64,
        scheduled_faults,
        &[
            FaultSite::WorkerPanic,
            FaultSite::WorkerStall,
            FaultSite::ReplyDrop,
            FaultSite::Kernel,
        ],
        kernels_per_request,
        config.stall,
    );

    let engine = ServeEngine::new(exec, engine_config);
    let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(workload.len());
    let mut rejected = 0u64;
    for (i, (func, args)) in workload.iter().enumerate() {
        match engine.submit(func, args) {
            Ok(t) => tickets.push((i, t)),
            Err(_) => rejected += 1,
        }
    }

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut unresolved = 0u64;
    let mut mismatches = 0u64;
    for (i, ticket) in tickets {
        match wait_guarded(&ticket, config.guard) {
            Some(Ok(value)) => {
                completed += 1;
                if reference[i].as_deref() != Some(&flatten_value(&value)[..]) {
                    mismatches += 1;
                }
            }
            Some(Err(ServeError::DeadlineExceeded { .. } | ServeError::Overloaded { .. })) => {
                shed += 1
            }
            Some(Err(_)) => failed += 1,
            None => unresolved += 1,
        }
    }

    let submitted = workload.len() as u64;
    ChaosReport {
        submitted,
        completed,
        failed,
        shed,
        rejected,
        unresolved,
        mismatches,
        scheduled_faults,
        availability: completed as f64 / submitted.max(1) as f64,
        report: engine.shutdown(),
    }
}

/// How long an injected session-worker stall lasts: long enough to
/// reorder step completions, well under the pool's stall timeout.
const SESSION_STALL: Duration = Duration::from_millis(50);

/// Knobs for a **session** chaos run (the continuous-batching
/// scheduler under worker panics and stalls mid-iteration).
#[derive(Debug, Clone)]
pub struct SessionChaosConfig {
    /// RNG seed for the fault schedule.
    pub seed: u64,
    /// Worker faults to schedule across the run (panics and stalls,
    /// chosen pseudo-randomly; each stall lasts 50 ms).
    pub faults: usize,
    /// Base manager configuration; its `worker_faults` are replaced by
    /// the generated schedule and `return_kv` is forced on so final
    /// caches can be compared bitwise.
    pub manager: SessionConfig,
    /// Per-ticket resolution guard (bounds the harness, not the
    /// scheduler).
    pub guard: Duration,
}

impl Default for SessionChaosConfig {
    fn default() -> Self {
        SessionChaosConfig {
            seed: 0x5E55_C4A0,
            faults: 4,
            manager: SessionConfig {
                workers: 4,
                max_attempts: 8,
                ..SessionConfig::default()
            },
            guard: Duration::from_secs(60),
        }
    }
}

/// What a session chaos run observed.
#[derive(Debug)]
pub struct SessionChaosReport {
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions that retired with their full token budget.
    pub retired: u64,
    /// Sessions resolved typed with an error (evicted / shed / failed).
    pub errored: u64,
    /// Tickets unresolved within the guard (invariant: zero).
    pub unresolved: u64,
    /// Retired sessions whose tokens or final KV differed bitwise from
    /// the fault-free reference (invariant: zero).
    pub mismatches: u64,
    /// Faults the schedule injected.
    pub scheduled_faults: u64,
    /// `allocated == in_use + free` held on the shared pool after
    /// shutdown (invariant: true).
    pub pool_reconciles: bool,
    /// Pages still `in_use` after every session resolved and the
    /// manager shut down (invariant: zero — no leak through panics,
    /// rollbacks or evictions).
    pub pages_leaked: usize,
    /// The faulty manager's final counters (`worker_panics` and
    /// `rollbacks` show the faults actually bit).
    pub stats: SessionStats,
}

/// Drives `workload` through a [`SessionManager`] twice — once
/// fault-free on one worker to obtain reference tokens and final KV
/// caches, once under a seeded schedule of worker panics and stalls
/// fired **mid-iteration** (after a step's in-place appends landed,
/// before its result was reported) — and checks the scheduler's
/// invariants: retired sessions are bitwise equal to the reference,
/// and the page pool reconciles with zero leaked pages after healing.
pub fn run_session_chaos(
    spec: SessionModelSpec,
    workload: &[SessionRequest],
    config: SessionChaosConfig,
) -> SessionChaosReport {
    silence_injected_panics();
    let mut rng = Rng(config.seed);

    let mut reference_cfg = config.manager.clone();
    reference_cfg.workers = 1;
    reference_cfg.worker_faults = Vec::new();
    reference_cfg.return_kv = true;
    let reference_mgr = SessionManager::new(spec.clone(), reference_cfg);
    let tickets: Vec<Ticket<SessionOutput>> = workload
        .iter()
        .map(|r| reference_mgr.submit(r.clone()))
        .collect();
    let flatten_kv = |out: &SessionOutput| -> Vec<f64> {
        out.kv
            .iter()
            .flatten()
            .flat_map(|t| t.to_f64_vec())
            .collect()
    };
    let reference: Vec<Option<(Vec<i64>, Vec<f64>)>> = tickets
        .into_iter()
        .map(|t| {
            t.wait().ok().map(|out| {
                let kv = flatten_kv(&out);
                (out.tokens, kv)
            })
        })
        .collect();
    let ref_stats = reference_mgr.shutdown();
    // Fault checks the workload makes end to end (a speculation step
    // checks each serving site twice); occurrences land in this range so
    // they actually fire.
    let total_steps = ref_stats.prefills + ref_stats.decodes + 2 * ref_stats.speculations;

    let mut faulty_cfg = config.manager.clone();
    faulty_cfg.return_kv = true;
    let scheduled_faults = config.faults as u64;
    faulty_cfg.worker_faults = build_schedule(
        &mut rng,
        faulty_cfg.workers.max(1),
        total_steps,
        scheduled_faults,
        &[FaultSite::WorkerPanic, FaultSite::WorkerStall],
        1,
        SESSION_STALL,
    );

    let mgr = SessionManager::new(spec, faulty_cfg);
    let pool = mgr.pool().clone();
    let tickets: Vec<Ticket<SessionOutput>> =
        workload.iter().map(|r| mgr.submit(r.clone())).collect();

    let mut retired = 0u64;
    let mut errored = 0u64;
    let mut unresolved = 0u64;
    let mut mismatches = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match wait_guarded(&ticket, config.guard) {
            Some(Ok(out)) => {
                retired += 1;
                let kv = flatten_kv(&out);
                if reference[i] != Some((out.tokens, kv)) {
                    mismatches += 1;
                }
            }
            Some(Err(_)) => errored += 1,
            None => unresolved += 1,
        }
    }

    let stats = mgr.shutdown();
    let pool_stats = pool.stats();
    SessionChaosReport {
        submitted: workload.len() as u64,
        retired,
        errored,
        unresolved,
        mismatches,
        scheduled_faults,
        pool_reconciles: pool_stats.reconciles(),
        pages_leaked: pool_stats.in_use,
        stats,
    }
}
