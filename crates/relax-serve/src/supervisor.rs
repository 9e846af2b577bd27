//! The worker pool: panic containment, heartbeat monitoring, respawn
//! with budgets, quarantine, the delayed-retry schedule, and the one stop
//! sequence. [`crate::ServeEngine`] and [`crate::SessionManager`] each
//! own a [`Pool`].
//!
//! Every worker incarnation holds one [`Vm`] per program of the pool's
//! core and runs [`worker_loop`], which wraps the execution of each
//! work item in `catch_unwind`: a panic — injected or real — never
//! unwinds past the worker. A call resolves typed (or is retried), a
//! session step reports `Panicked` to its scheduler, unprocessed batch
//! riders go back to the queue, and the incarnation exits with
//! [`WorkerExit::Panicked`].
//!
//! A single supervisor thread per pool runs [`supervisor_loop`]:
//!
//! - **Reap & respawn**: a finished worker whose exit was a panic gets a
//!   fresh incarnation (new VMs over the same shared executables,
//!   registry and plan caches — warm plans survive healing) up to the
//!   slot's restart budget, after which the slot is quarantined. Once
//!   every slot is quarantined the queue closes and what it holds
//!   resolves `WorkerLost`: no work waits for a worker that will never
//!   come.
//! - **Stall detection**: every worker bumps a heartbeat (nanoseconds
//!   since the pool epoch, in an `AtomicU64`) as it makes progress; a
//!   *busy* worker whose heartbeat goes stale past the stall timeout is
//!   declared wedged, marked retired (it exits on its next loop
//!   iteration), its handle moved aside, and its slot respawned.
//! - **Delayed retries**: [`crate::engine::fail_or_retry`] schedules
//!   failed requests into a min-heap keyed by their backoff due time;
//!   the supervisor re-enqueues them when due — unless their deadline
//!   expired mid-backoff, which resolves them as `DeadlineExceeded`.

use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use relax_vm::registry::Registry;
use relax_vm::{FaultInjector, FaultPlan, FaultSite, KvPagePool, Vm};

use crate::engine::{
    fail_or_retry, lock, requeue, resolve_err, resolve_ok, Core, Program, ServeConfig, ServeError,
};
use crate::queue::{Request, Work};
use crate::telemetry::{WorkerExit, WorkerReport};

/// The liveness flags a worker incarnation shares with the supervisor.
#[derive(Clone)]
pub(crate) struct WorkerFlags {
    /// Nanoseconds since the engine epoch at the worker's last sign of
    /// progress.
    pub(crate) heartbeat: Arc<AtomicU64>,
    /// `true` while the worker is processing a batch (stall detection
    /// only applies to busy workers; idle ones legitimately block).
    pub(crate) busy: Arc<AtomicBool>,
    /// Set by the supervisor to tell a wedged worker it has been
    /// replaced; it exits with [`WorkerExit::Retired`] on its next loop.
    pub(crate) retired: Arc<AtomicBool>,
}

/// One worker slot: a stable index whose incarnations come and go.
pub(crate) struct Slot {
    pub(crate) idx: usize,
    /// Incarnation currently (or last) occupying the slot.
    pub(crate) generation: u32,
    /// Respawns consumed so far (compared against the restart budget).
    pub(crate) restarts: u32,
    /// `true` once the slot exhausted its budget; it stays empty.
    pub(crate) quarantined: bool,
    pub(crate) handle: Option<JoinHandle<WorkerReport>>,
    pub(crate) flags: WorkerFlags,
}

/// A retry waiting out its backoff.
pub(crate) struct Delayed {
    pub(crate) due: Instant,
    /// Tie-breaker preserving schedule order for equal due times.
    seq: u64,
    pub(crate) req: Request,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// The delayed-retry schedule (min-heap on due time).
#[derive(Default)]
pub(crate) struct RetryHeap {
    pub(crate) heap: BinaryHeap<Delayed>,
    seq: u64,
}

/// State shared between the engine handle, the workers and the
/// supervisor thread.
pub(crate) struct SupervisorState {
    pub(crate) slots: Mutex<Vec<Slot>>,
    /// Handles of retired-but-still-running incarnations (stalled
    /// workers finish their in-hand batch before exiting); joined at
    /// shutdown. `(slot, generation, handle)`.
    pub(crate) abandoned: Mutex<Vec<(usize, u32, JoinHandle<WorkerReport>)>>,
    /// Reports of incarnations the supervisor already joined.
    pub(crate) reaped: Mutex<Vec<WorkerReport>>,
    pub(crate) retries: Mutex<RetryHeap>,
    /// Wakes the supervisor early (new retry scheduled, shutdown).
    pub(crate) wake: Condvar,
}

impl SupervisorState {
    pub(crate) fn new() -> Self {
        SupervisorState {
            slots: Mutex::new(Vec::new()),
            abandoned: Mutex::new(Vec::new()),
            reaped: Mutex::new(Vec::new()),
            retries: Mutex::new(RetryHeap::default()),
            wake: Condvar::new(),
        }
    }
}

/// Schedules a request for re-enqueue at `due`; wakes the supervisor.
pub(crate) fn schedule_retry(core: &Core, req: Request, due: Instant) {
    {
        let mut retries = lock(&core.sup.retries);
        retries.seq += 1;
        let seq = retries.seq;
        retries.heap.push(Delayed { due, seq, req });
    }
    core.sup.wake.notify_all();
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked (non-string payload)".to_string(),
        },
    }
}

/// Joins a worker handle; a join error (a panic that escaped
/// containment) becomes a synthesized [`WorkerExit::Panicked`] report
/// instead of propagating — shutdown never panics on a dead worker.
pub(crate) fn join_report(
    handle: JoinHandle<WorkerReport>,
    idx: usize,
    generation: u32,
) -> WorkerReport {
    match handle.join() {
        Ok(report) => report,
        Err(payload) => WorkerReport {
            worker: idx,
            generation,
            exit: WorkerExit::Panicked {
                message: panic_message(payload),
            },
            requests: 0,
            telemetry: Default::default(),
            kernel_stats: Default::default(),
        },
    }
}

/// Spawns one worker incarnation into slot `idx`, with one VM per
/// program. `faults` installs a combined fault plan: VM sites on each of
/// the worker's VMs, serving sites on the worker loop's own injector.
pub(crate) fn spawn_worker(
    core: &Arc<Core>,
    idx: usize,
    generation: u32,
    faults: Option<FaultPlan>,
) -> (JoinHandle<WorkerReport>, WorkerFlags) {
    let flags = WorkerFlags {
        heartbeat: Arc::new(AtomicU64::new(core.now_ns())),
        busy: Arc::new(AtomicBool::new(false)),
        retired: Arc::new(AtomicBool::new(false)),
    };
    let (vm_plan, serve_plan) = faults.unwrap_or_default().split_serving();
    let vms: Vec<Vm> = core
        .programs
        .iter()
        .map(|p| {
            let mut vm = Vm::from_parts(p.exec.clone(), core.registry.clone(), p.plans.clone());
            if let Some(pool) = &core.kv_pool {
                vm.set_kv_pool(pool.clone());
            }
            vm.inject_faults(vm_plan.clone());
            vm
        })
        .collect();
    let injector = FaultInjector::new(serve_plan);
    let handle = std::thread::Builder::new()
        .name(format!("relax-serve-{idx}g{generation}"))
        .spawn({
            let core = core.clone();
            let flags = flags.clone();
            move || worker_loop(core, idx, generation, vms, injector, flags)
        })
        .expect("spawn serve worker");
    (handle, flags)
}

/// A running worker pool: the shared core, its slots and the supervisor
/// thread. [`Pool::stop`] runs the one stop sequence; dropping the pool
/// runs it too.
pub(crate) struct Pool {
    pub(crate) core: Arc<Core>,
    supervisor: Option<JoinHandle<()>>,
}

impl Pool {
    /// Builds the core, spawns `config.workers` slots (with their
    /// `worker_faults`) and the supervisor.
    pub(crate) fn start(
        config: &ServeConfig,
        programs: Vec<Program>,
        registry: Arc<Registry>,
        kv_pool: Option<Arc<KvPagePool>>,
    ) -> Pool {
        let core = Arc::new(Core::new(config, programs, registry, kv_pool));
        {
            let mut slots = lock(&core.sup.slots);
            for idx in 0..config.workers.max(1) {
                let faults = config
                    .worker_faults
                    .iter()
                    .filter(|(target, _)| *target == idx)
                    .map(|(_, plan)| plan.clone())
                    .next_back();
                let (handle, flags) = spawn_worker(&core, idx, 0, faults);
                slots.push(Slot {
                    idx,
                    generation: 0,
                    restarts: 0,
                    quarantined: false,
                    handle: Some(handle),
                    flags,
                });
            }
        }
        let supervisor = std::thread::Builder::new()
            .name("relax-serve-supervisor".into())
            .spawn({
                let core = core.clone();
                move || supervisor_loop(core)
            })
            .expect("spawn serve supervisor");
        Pool {
            core,
            supervisor: Some(supervisor),
        }
    }

    /// Stops admitting work, flushes pending retries, drains the queue
    /// and joins the supervisor and every worker incarnation. Returns one
    /// report per incarnation, sorted by `(slot, generation)`; a second
    /// call finds nothing left and returns none.
    pub(crate) fn stop(&mut self) -> Vec<WorkerReport> {
        let core = &self.core;
        core.stopping.store(true, Ordering::Release);
        core.sup.wake.notify_all();
        // The supervisor's final pass flushes pending retries back into
        // the (still open) queue so workers drain them.
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        core.queue.close();

        let mut workers: Vec<WorkerReport> = Vec::new();
        for slot in lock(&core.sup.slots).iter_mut() {
            if let Some(h) = slot.handle.take() {
                workers.push(join_report(h, slot.idx, slot.generation));
            }
        }
        for (idx, generation, h) in lock(&core.sup.abandoned).drain(..) {
            workers.push(join_report(h, idx, generation));
        }
        workers.extend(lock(&core.sup.reaped).drain(..));
        workers.sort_by_key(|w| (w.worker, w.generation));

        // Retries scheduled in the race window after the supervisor
        // exited have nobody to re-enqueue them: resolve them typed so
        // no ticket ever hangs.
        let orphans: Vec<Request> = lock(&core.sup.retries)
            .heap
            .drain()
            .map(|d| d.req)
            .collect();
        for req in orphans {
            resolve_err(core, req, ServeError::ShuttingDown);
        }
        workers
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_instant(idx: usize, event: relax_trace::WorkerEvent) {
    relax_trace::instant(
        "serve",
        || format!("{}:{idx}", event.label()),
        || relax_trace::Payload::Worker {
            worker: idx as u64,
            event,
        },
    );
}

/// The worker loop: dequeue a shape-homogeneous batch (or one session
/// step), shed what is past deadline, run the rest on this worker's
/// private VMs under panic containment, resolve (or retry) each request.
pub(crate) fn worker_loop(
    core: Arc<Core>,
    idx: usize,
    generation: u32,
    mut vms: Vec<Vm>,
    mut faults: FaultInjector,
    flags: WorkerFlags,
) -> WorkerReport {
    let mut requests = 0u64;
    let mut exit = WorkerExit::Drained;
    loop {
        if flags.retired.load(Ordering::Acquire) {
            exit = WorkerExit::Retired;
            break;
        }
        flags.heartbeat.store(core.now_ns(), Ordering::Release);
        let Some(batch) = core.queue.pop_batch(core.max_batch) else {
            break; // queue closed and drained
        };
        flags.heartbeat.store(core.now_ns(), Ordering::Release);
        flags.busy.store(true, Ordering::Release);
        core.counters.batches.fetch_add(1, Ordering::Relaxed);
        core.counters
            .batched_extra
            .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
        let batch_span = relax_trace::span("serve", || format!("batch:{}", batch.len()));
        let mut panicked: Option<String> = None;
        let mut pending = batch.into_iter();
        for req in pending.by_ref() {
            flags.heartbeat.store(core.now_ns(), Ordering::Release);
            requests += 1;
            let now = Instant::now();
            if let Some(deadline) = req.deadline {
                if now > deadline {
                    resolve_err(
                        &core,
                        req,
                        ServeError::DeadlineExceeded {
                            missed_by: now - deadline,
                        },
                    );
                    continue;
                }
            }
            // Injected wedge: sleep without heartbeating, long enough
            // for the supervisor to notice (when it exceeds the stall
            // timeout).
            if let Some(fired) = faults.check(FaultSite::WorkerStall) {
                std::thread::sleep(fired.stall.unwrap_or_default());
            }
            // Either path contains a panic and resolves the item (a
            // step reports to its scheduler); the incarnation then exits.
            let message = if let Work::Step(step) = req.work {
                step.run(&mut vms, &mut faults)
            } else {
                run_call(&core, &mut vms[0], req, &mut faults)
            };
            if message.is_some() {
                worker_instant(idx, relax_trace::WorkerEvent::Panic);
                panicked = message;
                break;
            }
        }
        if panicked.is_some() {
            // Hand unprocessed batch riders back to the queue: the
            // panic was this incarnation's, not theirs.
            for rest in pending {
                requeue(&core, rest);
            }
        }
        batch_span.finish();
        flags.busy.store(false, Ordering::Release);
        flags.heartbeat.store(core.now_ns(), Ordering::Release);
        if let Some(message) = panicked {
            exit = WorkerExit::Panicked { message };
            break;
        }
    }
    flags.busy.store(false, Ordering::Release);
    WorkerReport {
        worker: idx,
        generation,
        exit,
        requests,
        telemetry: vms[0].telemetry(),
        kernel_stats: vms[0].kernel_stats().clone(),
    }
}

/// Runs one call on `vm` and resolves (or retries) it. Returns the panic
/// message when the call panicked: the VM may be poisoned, so the
/// incarnation must exit.
fn run_call(core: &Core, vm: &mut Vm, req: Request, faults: &mut FaultInjector) -> Option<String> {
    let drop_reply = faults.check(FaultSite::ReplyDrop).is_some();
    let panic_now = faults.check(FaultSite::WorkerPanic).is_some();
    let Work::Call { func, args, .. } = &req.work else {
        unreachable!("steps run through Step::run");
    };
    // Stitch the worker-side span under the request span opened on the
    // submit thread: the id crossed the queue with the request.
    let exec_span =
        relax_trace::span_under("serve", Some(req.trace), || format!("execute:{}", req.id));
    // Containment boundary: a panic anywhere in request execution —
    // injected here, or real inside the VM — must not unwind past the
    // worker loop. `AssertUnwindSafe` is sound because a poisoned `vm`
    // is never run again: the incarnation exits and the supervisor
    // builds fresh VMs for the slot.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if panic_now {
            panic!("injected worker panic");
        }
        vm.run(func, args)
    }));
    exec_span.finish_with(|| relax_trace::Payload::Request {
        request: req.id,
        phase: relax_trace::RequestPhase::Execute,
    });
    match result {
        Ok(_) if drop_reply => {
            // Injected lost reply: the sender is dropped without
            // answering, so the ticket observes a closed channel and
            // resolves as `WorkerLost` — typed, never a hang.
            core.counters.failed.fetch_add(1, Ordering::Relaxed);
            core.counters
                .replies_dropped
                .fetch_add(1, Ordering::Relaxed);
            relax_trace::async_end("serve", "request", req.trace, || {
                relax_trace::Payload::Request {
                    request: req.id,
                    phase: relax_trace::RequestPhase::Reply,
                }
            });
            None
        }
        Ok(Ok(value)) => {
            resolve_ok(core, req, value);
            None
        }
        Ok(Err(e)) => {
            fail_or_retry(core, req, ServeError::Vm(e));
            None
        }
        Err(payload) => {
            fail_or_retry(core, req, ServeError::WorkerLost);
            Some(panic_message(payload))
        }
    }
}

/// The supervisor loop: flush due retries, reap/respawn workers, detect
/// stalls; repeat until shutdown. The final pass (after `stopping` is
/// set) flushes *every* pending retry back into the still-open queue so
/// workers drain them during shutdown.
pub(crate) fn supervisor_loop(core: Arc<Core>) {
    loop {
        let stopping = core.stopping.load(Ordering::Acquire);
        flush_due_retries(&core, stopping);
        monitor_slots(&core, stopping);
        if stopping {
            break;
        }
        // Sleep until the next retry comes due, but at most one tick —
        // stall detection needs a periodic look at the heartbeats.
        let tick = (core.stall_timeout / 2)
            .min(Duration::from_millis(5))
            .max(Duration::from_millis(1));
        let retries = lock(&core.sup.retries);
        let timeout = retries
            .heap
            .peek()
            .map(|d| d.due.saturating_duration_since(Instant::now()))
            .unwrap_or(tick)
            .min(tick);
        if timeout > Duration::ZERO {
            let _ = core.sup.wake.wait_timeout(retries, timeout);
        }
    }
}

/// Pops every due retry (every retry, when stopping) and re-enqueues
/// it — or resolves it, when its deadline expired mid-backoff.
fn flush_due_retries(core: &Arc<Core>, stopping: bool) {
    loop {
        let req = {
            let mut retries = lock(&core.sup.retries);
            let ready = retries
                .heap
                .peek()
                .map(|d| stopping || d.due <= Instant::now())
                .unwrap_or(false);
            if ready {
                retries.heap.pop().map(|d| d.req)
            } else {
                None
            }
        };
        match req {
            Some(req) => redeliver(core, req),
            None => break,
        }
    }
}

/// Re-enqueues a retry whose backoff elapsed. Deadline is checked
/// *here*, at re-enqueue time: a request whose deadline passed while it
/// backed off is shed (`DeadlineExceeded`), never retried past budget.
fn redeliver(core: &Arc<Core>, req: Request) {
    let now = Instant::now();
    if let Some(deadline) = req.deadline {
        if now > deadline {
            resolve_err(
                core,
                req,
                ServeError::DeadlineExceeded {
                    missed_by: now - deadline,
                },
            );
            return;
        }
    }
    // A refusal consumes another attempt or resolves it typed.
    requeue(core, req);
}

/// One pass over the slots: reap finished incarnations (respawning
/// panicked ones) and retire wedged ones.
fn monitor_slots(core: &Arc<Core>, stopping: bool) {
    let now_ns = core.now_ns();
    let stall_ns = core.stall_timeout.as_nanos().min(u64::MAX as u128) as u64;
    let mut slots = lock(&core.sup.slots);
    for slot in slots.iter_mut() {
        let finished = match slot.handle.as_ref() {
            Some(h) => h.is_finished(),
            None => continue,
        };
        if finished {
            let handle = slot.handle.take().expect("handle checked above");
            let report = join_report(handle, slot.idx, slot.generation);
            let respawn = matches!(report.exit, WorkerExit::Panicked { .. }) && !stopping;
            lock(&core.sup.reaped).push(report);
            if respawn {
                respawn_or_quarantine(core, slot);
            }
        } else if !stopping
            && slot.flags.busy.load(Ordering::Acquire)
            && now_ns.saturating_sub(slot.flags.heartbeat.load(Ordering::Acquire)) > stall_ns
        {
            // Busy with a stale heartbeat: wedged. Retire it (it will
            // exit after its in-hand batch), park the handle for
            // shutdown, and respawn the slot.
            slot.flags.retired.store(true, Ordering::Release);
            worker_instant(slot.idx, relax_trace::WorkerEvent::Stall);
            let handle = slot.handle.take().expect("handle checked above");
            lock(&core.sup.abandoned).push((slot.idx, slot.generation, handle));
            respawn_or_quarantine(core, slot);
        }
    }
    if !stopping && slots.iter().all(|s| s.quarantined) {
        // No live worker is left to drain the queue: close it and
        // resolve what it holds, so no ticket (and no session step)
        // waits for work nobody will run. Later pushes are refused.
        for req in core.queue.close_and_take() {
            resolve_err(core, req, ServeError::WorkerLost);
        }
    }
}

/// Respawns a fresh incarnation into the slot, or quarantines it once
/// the restart budget is spent.
fn respawn_or_quarantine(core: &Arc<Core>, slot: &mut Slot) {
    if slot.restarts >= core.restart_budget {
        if !slot.quarantined {
            slot.quarantined = true;
            core.counters.quarantined.fetch_add(1, Ordering::Relaxed);
            worker_instant(slot.idx, relax_trace::WorkerEvent::Quarantine);
        }
        return;
    }
    slot.restarts += 1;
    slot.generation += 1;
    core.counters.restarts.fetch_add(1, Ordering::Relaxed);
    // Respawned generations never carry fault plans: healing is real.
    let (handle, flags) = spawn_worker(core, slot.idx, slot.generation, None);
    slot.handle = Some(handle);
    slot.flags = flags;
    worker_instant(slot.idx, relax_trace::WorkerEvent::Restart);
}
