//! Self-healing and chaos tests on the tiny Llama decode model: panic
//! containment and respawn, dropped-reply resolution, retry-to-success,
//! deadline-vs-backoff interaction, overload watermarks, quarantine of
//! the whole pool, and the full
//! seeded chaos harness invariants (typed resolution, bitwise-correct
//! survivors, availability under faults).

use std::collections::HashMap;
use std::time::Duration;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::{run_chaos, silence_injected_panics, ChaosConfig, ChaosRequest};
use relax_serve::{
    AdmissionLevel, OverloadPolicy, RetryPolicy, ServeConfig, ServeEngine, ServeError, Ticket,
    WorkerExit,
};
use relax_tir::NDArray;
use relax_vm::{Executable, FaultPlan, Value, Vm};

fn random_arr(shape: &[usize], dtype: DataType, seed: &mut u64) -> NDArray {
    let n: usize = shape.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.2
        })
        .collect();
    NDArray::from_f64(shape, dtype, vals).unwrap()
}

fn concrete(ir: &ModelIr, sinfo: &StructInfo, batch: i64, kv: i64) -> (Vec<usize>, DataType) {
    let mut env = HashMap::new();
    env.insert(ir.batch.clone(), batch);
    env.insert(ir.seq.clone(), kv);
    match sinfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Known(dims),
            dtype,
        } => (
            dims.iter()
                .map(|d| d.eval(&env).unwrap() as usize)
                .collect(),
            dtype.unwrap(),
        ),
        other => panic!("unexpected annotation {other}"),
    }
}

fn decode_args(ir: &ModelIr, batch: i64, kv: i64, seed: &mut u64) -> Vec<Value> {
    ir.params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = concrete(ir, sinfo, batch, kv);
            if name == "tokens" {
                Value::Tensor(NDArray::from_i64(&dims, dt, vec![3; dims.iter().product()]).unwrap())
            } else {
                Value::Tensor(random_arr(&dims, dt, seed))
            }
        })
        .collect()
}

fn tiny_exec() -> (ModelIr, Executable) {
    let ir = build_decode(&LlamaConfig::tiny()).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    (ir, exec)
}

fn flatten_output(v: &Value) -> Vec<Vec<f64>> {
    v.as_tuple()
        .unwrap()
        .iter()
        .map(|e| e.as_tensor().unwrap().to_f64_vec())
        .collect()
}

/// Satellite regression: a worker panic mid-request must not panic
/// `shutdown()`. The panic is contained, the in-flight request resolves
/// as [`ServeError::WorkerLost`], the supervisor respawns the slot, and
/// the report carries the `Panicked` incarnation alongside its healed
/// successor.
#[test]
fn panicked_worker_is_contained_respawned_and_reported() {
    silence_injected_panics();
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            worker_faults: vec![(0, FaultPlan::new().fail_worker_panic(1))],
            ..ServeConfig::default()
        },
    );
    let mut seed = 11u64;
    let args = decode_args(&ir, 1, 1, &mut seed);
    let tickets: Vec<Ticket> = (0..3)
        .map(|_| engine.submit("decode", &args).unwrap())
        .collect();

    // Without a retry policy the panicked request surfaces typed; the
    // respawned incarnation drains the rest.
    let mut lost = 0u64;
    let mut ok = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::WorkerLost) => lost += 1,
            Err(other) => panic!("unexpected serve error: {other}"),
        }
    }
    assert_eq!(lost, 1, "exactly the panicked request is lost");
    assert_eq!(ok, 2, "the respawned worker serves the remainder");

    // The old bug: shutdown() unwrapped the worker join and panicked.
    let report = engine.shutdown();
    assert_eq!(report.stats.restarts, 1);
    assert_eq!(report.stats.quarantined, 0);
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.workers.len(), 2, "one report per incarnation");
    let gen0 = &report.workers[0];
    assert_eq!((gen0.worker, gen0.generation), (0, 0));
    match &gen0.exit {
        WorkerExit::Panicked { message } => {
            assert!(message.contains("injected worker panic"), "message: {message}")
        }
        other => panic!("expected a panicked exit, got {other:?}"),
    }
    let gen1 = &report.workers[1];
    assert_eq!((gen1.worker, gen1.generation), (0, 1));
    assert!(gen1.exit.is_clean());
    assert_eq!(report.slots_drained(), 1, "the pool healed");
}

/// Satellite: a reply sender dropped by the worker resolves the ticket
/// as [`ServeError::WorkerLost`] via [`Ticket::wait_timeout`] — never a
/// hang — and [`Ticket::try_wait`] polls without blocking.
#[test]
fn dropped_reply_resolves_worker_lost_instead_of_hanging() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            worker_faults: vec![(0, FaultPlan::new().drop_reply(1))],
            ..ServeConfig::default()
        },
    );
    let mut seed = 13u64;
    let args = decode_args(&ir, 1, 1, &mut seed);

    let doomed = engine.submit("decode", &args).unwrap();
    match doomed.wait_timeout(Duration::from_secs(20)) {
        Some(Err(ServeError::WorkerLost)) => {}
        other => panic!("expected a typed lost-worker resolution, got {other:?}"),
    }

    // The worker survives a dropped reply; later requests are fine, and
    // `try_wait` eventually observes the result without ever blocking.
    let next = engine.submit("decode", &args).unwrap();
    let out = loop {
        match next.try_wait() {
            Some(r) => break r,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    out.unwrap();

    let report = engine.shutdown();
    assert_eq!(report.stats.replies_dropped, 1);
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.restarts, 0, "a dropped reply is not a dead worker");
}

/// Tentpole: a transient kernel fault under a [`RetryPolicy`] is
/// retried with backoff and completes bitwise-equal to the fault-free
/// reference — the client never sees the fault.
#[test]
fn transient_kernel_fault_retries_to_success() {
    let (ir, exec) = tiny_exec();
    let mut seed = 17u64;
    let args = decode_args(&ir, 1, 2, &mut seed);

    let mut reference = Vm::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap());
    let expected = flatten_output(&reference.run("decode", &args).unwrap());

    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            worker_faults: vec![(0, FaultPlan::new().fail_kernel(1))],
            retry: Some(RetryPolicy::default()),
            ..ServeConfig::default()
        },
    );
    let out = engine.submit("decode", &args).unwrap().wait().unwrap();
    assert_eq!(flatten_output(&out), expected, "retried result diverged");

    let report = engine.shutdown();
    assert_eq!(report.stats.retries, 1);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.failed, 0);
}

/// Satellite: a deadline that expires while the request sits in retry
/// backoff resolves as [`ServeError::DeadlineExceeded`] at redelivery —
/// retries never extend a request's budget — and the counters still
/// reconcile.
#[test]
fn deadline_expiring_mid_backoff_is_shed_typed() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            worker_faults: vec![(0, FaultPlan::new().fail_kernel(1))],
            // Backoff far beyond the deadline: the one retry is always
            // redelivered after expiry.
            retry: Some(RetryPolicy {
                max_attempts: 5,
                backoff: Duration::from_millis(600),
                max_backoff: Duration::from_millis(600),
                ..RetryPolicy::default()
            }),
            ..ServeConfig::default()
        },
    );
    let mut seed = 19u64;
    let args = decode_args(&ir, 1, 1, &mut seed);
    let ticket = engine
        .submit_with_deadline("decode", &args, Some(Duration::from_millis(150)))
        .unwrap();
    match ticket.wait() {
        Err(ServeError::DeadlineExceeded { missed_by }) => {
            assert!(missed_by > Duration::ZERO)
        }
        other => panic!("expected a mid-backoff deadline shed, got {other:?}"),
    }

    let report = engine.shutdown();
    assert_eq!(report.stats.retries, 1, "the retry was scheduled before expiry");
    assert_eq!(report.stats.timed_out, 1);
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.stats.failed, 0);
    // Accounting reconciliation: every accepted request resolved into
    // exactly one terminal counter.
    assert_eq!(
        report.stats.accepted,
        report.stats.completed + report.stats.failed + report.stats.timed_out
    );
}

/// Overload watermarks at the engine level: while the only worker is
/// wedged, depth past the shed mark evicts the earliest-deadline queued
/// request in favour of later-deadline arrivals, depth past the reject
/// mark refuses new work outright, and everything still resolves typed.
#[test]
fn overload_watermarks_shed_then_reject_under_a_wedged_worker() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_capacity: 8,
            overload: Some(OverloadPolicy {
                shed_depth: 4,
                reject_depth: 6,
            }),
            // Wedge the worker long enough to build queue depth, but
            // keep the supervisor from declaring it dead.
            worker_faults: vec![(0, FaultPlan::new().stall_worker(1, Duration::from_millis(600)))],
            stall_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let mut seed = 23u64;
    let args = decode_args(&ir, 1, 1, &mut seed);
    let sub = |budget_secs: u64| {
        engine.submit_with_deadline("decode", &args, Some(Duration::from_secs(budget_secs)))
    };

    // The first request is popped and wedges the worker; wait until the
    // queue is empty again so the depths below are exact.
    let head = sub(600).unwrap();
    while engine.stats().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }

    // Fill to the shed watermark with decreasing deadlines.
    let fillers: Vec<Ticket> = [60, 50, 40, 30].map(sub).map(Result::unwrap).into();
    // At depth 4 a later-deadline arrival evicts the earliest-deadline
    // victim (the 30 s one) instead of being refused.
    let late = sub(70).unwrap();
    // Earlier-deadline arrivals never profit from eviction, so depth
    // climbs to the reject watermark…
    let climb: Vec<Ticket> = [20, 10].map(sub).map(Result::unwrap).into();
    // …where new work is refused outright.
    match sub(5) {
        Err(ServeError::Overloaded { depth }) => assert_eq!(depth, 6),
        Err(other) => panic!("expected an overload refusal, got {other:?}"),
        Ok(_) => panic!("expected an overload refusal, got a ticket"),
    }
    assert_eq!(engine.stats().admission, AdmissionLevel::Reject);

    // The evicted 30 s request resolved typed as overload shedding.
    let mut outcomes: Vec<Result<Value, ServeError>> = Vec::new();
    for t in fillers.into_iter().chain([late]).chain(climb) {
        outcomes.push(t.wait());
    }
    let shed: Vec<_> = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
        .collect();
    assert_eq!(shed.len(), 1, "exactly the earliest-deadline request was evicted");
    assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 6);
    head.wait().unwrap();

    let report = engine.shutdown();
    assert_eq!(report.stats.accepted, 8);
    assert_eq!(report.stats.completed, 7);
    assert_eq!(report.stats.shed_overload, 1);
    assert_eq!(report.stats.timed_out, 1);
    assert_eq!(report.stats.rejected_overload, 1);
    assert_eq!(report.stats.restarts, 0);
}

/// Quarantine: when the last live slot exhausts its restart budget,
/// every request still queued resolves `WorkerLost` at once — not at
/// shutdown — and later submissions are refused with the same error.
#[test]
fn fully_quarantined_pool_resolves_queued_tickets() {
    silence_injected_panics();
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            restart_budget: 0,
            worker_faults: vec![(0, FaultPlan::new().fail_worker_panic(1))],
            ..ServeConfig::default()
        },
    );
    let mut seed = 27u64;
    let args = decode_args(&ir, 1, 1, &mut seed);
    let mut tickets: Vec<Ticket> = Vec::new();
    for _ in 0..3 {
        match engine.submit("decode", &args) {
            Ok(t) => tickets.push(t),
            // The slot may already be quarantined: refused typed.
            Err(ServeError::WorkerLost) => {}
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(
        !tickets.is_empty(),
        "the first submission is always admitted"
    );
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait_timeout(Duration::from_secs(2)) {
            Some(Err(ServeError::WorkerLost)) => {}
            other => panic!("ticket {i}: expected WorkerLost within 2 s, got {other:?}"),
        }
    }
    match engine.submit("decode", &args) {
        Err(ServeError::WorkerLost) => {}
        Err(other) => panic!("expected a WorkerLost refusal, got {other}"),
        Ok(_) => panic!("a pool with no live worker admitted a request"),
    }

    let report = engine.shutdown();
    assert_eq!(report.stats.quarantined, 1);
    assert_eq!(report.stats.restarts, 0);
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.slots_drained(), 0, "the only slot is quarantined");
    assert_eq!(
        report.stats.accepted,
        report.stats.completed + report.stats.failed + report.stats.timed_out
    );
}

/// A stalled worker is detected by heartbeat, retired and replaced; the
/// replacement drains the queue while the original finishes its batch,
/// and both incarnations appear in the report.
#[test]
fn stalled_worker_is_replaced_and_queue_drains() {
    let (ir, exec) = tiny_exec();
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            worker_faults: vec![(0, FaultPlan::new().stall_worker(1, Duration::from_millis(400)))],
            stall_timeout: Duration::from_millis(30),
            ..ServeConfig::default()
        },
    );
    let mut seed = 29u64;
    let args = decode_args(&ir, 1, 1, &mut seed);
    let tickets: Vec<Ticket> = (0..3)
        .map(|_| engine.submit("decode", &args).unwrap())
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.completed, 3, "the stalled request still finished");
    assert_eq!(report.stats.restarts, 1);
    assert!(
        report
            .workers
            .iter()
            .any(|w| matches!(w.exit, WorkerExit::Retired)),
        "the wedged incarnation exits Retired: {:?}",
        report.workers.iter().map(|w| &w.exit).collect::<Vec<_>>()
    );
    assert_eq!(report.slots_drained(), 1);
}

/// The full chaos harness: a llama-decode workload under a seeded
/// random fault schedule (panics, stalls, dropped replies, kernel
/// faults). Invariants: every ticket resolves typed, completed outputs
/// are bitwise-equal to the fault-free reference, losses are bounded by
/// the number of injected faults, and the pool heals.
#[test]
fn chaos_llama_decode_holds_robustness_invariants() {
    let (ir, exec) = tiny_exec();
    let mut seed = 31u64;
    let shapes = [(1i64, 1i64), (1, 2), (2, 2), (1, 3)];
    let workload: Vec<ChaosRequest> = (0..80)
        .map(|i| {
            let (batch, kv) = shapes[i % shapes.len()];
            ("decode".to_string(), decode_args(&ir, batch, kv, &mut seed))
        })
        .collect();

    let config = ChaosConfig {
        seed: 0xC4A0_5EED,
        fault_rate: 0.05,
        ..ChaosConfig::default()
    };
    let chaos = run_chaos(exec, &workload, config);

    assert_eq!(chaos.scheduled_faults, 4, "5% of 80 requests");
    // Core invariant: no ticket hangs, ever.
    assert_eq!(chaos.unresolved, 0, "every ticket resolved typed");
    // Isolation invariant: a fault never corrupts another session.
    assert_eq!(chaos.mismatches, 0, "survivors are bitwise-equal to the reference");
    // Loss bound: each injected fault costs at most one request (retry
    // and supervision absorb the rest).
    assert!(
        chaos.failed + chaos.shed <= chaos.scheduled_faults,
        "faults leaked: {} failed + {} shed > {} injected",
        chaos.failed,
        chaos.shed,
        chaos.scheduled_faults
    );
    assert_eq!(chaos.rejected, 0, "the queue never saturated");
    assert!(
        chaos.availability >= 1.0 - chaos.scheduled_faults as f64 / chaos.submitted as f64,
        "availability {} below the fault floor",
        chaos.availability
    );

    let stats = &chaos.report.stats;
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.timed_out,
        "terminal counters do not reconcile"
    );
    assert_eq!(stats.latency.count, stats.completed);
    assert_eq!(stats.quarantined, 0);
    // Structural invariant: every restart contributes exactly one extra
    // incarnation report, and every slot's final incarnation drained.
    assert_eq!(chaos.report.workers.len(), 4 + stats.restarts as usize);
    assert_eq!(chaos.report.slots_drained(), 4, "the pool healed");
}

/// The CI chaos smoke: a fixed-seed 1%-fault run over a smaller
/// workload must hold full availability with retries absorbing every
/// transient. Kept fast enough for every CI run.
#[test]
fn chaos_smoke_fixed_seed_availability() {
    let (ir, exec) = tiny_exec();
    let mut seed = 37u64;
    let workload: Vec<ChaosRequest> = (0..24)
        .map(|_| ("decode".to_string(), decode_args(&ir, 1, 2, &mut seed)))
        .collect();
    let chaos = run_chaos(
        exec,
        &workload,
        ChaosConfig {
            fault_rate: 0.01,
            ..ChaosConfig::default()
        },
    );
    assert_eq!(chaos.unresolved, 0);
    assert_eq!(chaos.mismatches, 0);
    assert!(chaos.failed + chaos.shed <= chaos.scheduled_faults);
    assert!(chaos.availability >= 0.95, "availability {}", chaos.availability);
}
