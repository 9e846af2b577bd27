//! Session-manager integration tests: seeded random session schedules
//! (staggered admits, early retirements, mixed prefill/decode lengths)
//! asserted bitwise-equal to the copy-based kv_append oracle, serial
//! and under 8 workers; earliest-deadline eviction under page-pool
//! pressure; accounting smoke; shutdown and drop mid-wave; ticket
//! redemption after `try_wait`; and chaos (worker panics and stalls
//! mid-iteration) with page-pool reconciliation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, build_decode_paged, build_prefill, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::{run_session_chaos, silence_injected_panics, SessionChaosConfig};
use relax_serve::{
    ServeError, SessionConfig, SessionManager, SessionModelSpec, SessionOutput, SessionRequest,
    Ticket,
};
use relax_tir::NDArray;
use relax_vm::{Executable, FaultPlan, KvCacheConfig, Value, Vm};

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

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn concrete(sinfo: &StructInfo) -> (Vec<usize>, DataType) {
    let env = HashMap::new();
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
        other => panic!("unexpected weight annotation {other}"),
    }
}

/// Weight values shared by the paged manager and the copy-based
/// oracle, in parameter order (weights have no symbolic dims).
fn build_weights(ir: &ModelIr, seed: &mut u64) -> Vec<Value> {
    ir.params
        .iter()
        .filter(|(name, _)| name != "tokens" && name != "kv_cache")
        .map(|(_, sinfo)| {
            let (dims, dt) = concrete(sinfo);
            Value::Tensor(random_arr(&dims, dt, seed))
        })
        .collect()
}

fn argmax(logits: &NDArray) -> i64 {
    let vals = logits.to_f64_vec();
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

/// The fixture: tiny Llama compiled three ways (paged decode, copy
/// decode, prefill) over one shared weight set.
struct Fixture {
    cfg: LlamaConfig,
    spec: SessionModelSpec,
    decode_exec: Executable,
    prefill_exec: Executable,
    weights: Vec<Value>,
}

fn fixture() -> Fixture {
    let cfg = LlamaConfig::tiny();
    let paged_ir = build_decode_paged(&cfg).unwrap();
    let paged_exec = compile(paged_ir.module.clone(), &CompileOptions::default()).unwrap();
    let decode_ir = build_decode(&cfg).unwrap();
    let decode_exec = compile(decode_ir.module.clone(), &CompileOptions::default()).unwrap();
    let prefill_ir = build_prefill(&cfg).unwrap();
    let prefill_exec = compile(prefill_ir.module.clone(), &CompileOptions::default()).unwrap();

    let mut wseed = 0xFACE_F00Du64;
    let weights = build_weights(&paged_ir, &mut wseed);
    let spec = SessionModelSpec {
        decode: Arc::new(paged_exec),
        decode_func: "decode_paged".into(),
        prefill: Some(Arc::new(prefill_exec.clone())),
        prefill_func: "prefill".into(),
        weights: weights.clone(),
        cache: KvCacheConfig {
            streams: 2 * cfg.n_layers,
            batch: 1,
            heads: cfg.n_kv_heads as usize,
            head_dim: cfg.head_dim as usize,
            dtype: cfg.dtype,
        },
        speculative: None,
    };
    Fixture {
        cfg,
        spec,
        decode_exec,
        prefill_exec,
        weights,
    }
}

/// Greedy generation through the copy-based `vm.builtin.kv_append`
/// path: prefill the prompt prefix, then thread `(b, h, s, hd)` cache
/// tensors through `build_decode` step by step. Returns the generated
/// tokens and the final per-stream caches flattened to `f64`.
fn oracle_run(fx: &Fixture, prompt: &[i64], max_new: usize) -> (Vec<i64>, Vec<Vec<f64>>) {
    let cfg = &fx.cfg;
    let nkv = cfg.n_kv_heads as usize;
    let hd = cfg.head_dim as usize;
    let streams = 2 * cfg.n_layers;

    let mut prefill_vm = Vm::new(fx.prefill_exec.clone());
    let mut decode_vm = Vm::new(fx.decode_exec.clone());

    let mut caches: Vec<NDArray> = if prompt.len() > 1 {
        let prefix = &prompt[..prompt.len() - 1];
        let tokens =
            NDArray::from_i64(&[1, prefix.len()], DataType::I64, prefix.to_vec()).unwrap();
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(fx.weights.iter().cloned());
        let out = prefill_vm.run("prefill", &args).unwrap();
        out.as_tuple()
            .unwrap()
            .iter()
            .map(|v| v.as_tensor().unwrap().clone())
            .collect()
    } else {
        (0..streams)
            .map(|_| NDArray::zeros(&[1, nkv, 0, hd], cfg.dtype))
            .collect()
    };

    let mut fed = caches[0].shape()[2];
    let mut generated: Vec<i64> = Vec::new();
    while generated.len() < max_new {
        let token = if fed < prompt.len() {
            prompt[fed]
        } else {
            generated[fed - prompt.len()]
        };
        let tokens = NDArray::from_i64(&[1, 1], DataType::I64, vec![token]).unwrap();
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(caches.iter().cloned().map(Value::Tensor));
        args.extend(fx.weights.iter().cloned());
        let out = decode_vm.run("decode", &args).unwrap();
        let items = out.as_tuple().unwrap();
        let next = argmax(items[0].as_tensor().unwrap());
        caches = items[1..]
            .iter()
            .map(|v| v.as_tensor().unwrap().clone())
            .collect();
        fed += 1;
        if fed >= prompt.len() {
            generated.push(next);
        }
    }
    let kv = caches.iter().map(|c| c.to_f64_vec()).collect();
    (generated, kv)
}

/// A seeded random schedule: mixed prompt lengths (1..=9, so both the
/// prefill path and the prefill-free single-token path run), mixed
/// budgets (1..=6, so sessions retire at different iterations).
fn random_schedule(n: usize, seed: &mut u64) -> Vec<SessionRequest> {
    (0..n)
        .map(|_| {
            let plen = 1 + (lcg(seed) % 9) as usize;
            let prompt: Vec<i64> = (0..plen)
                .map(|_| (lcg(seed) % LlamaConfig::tiny().vocab as u64) as i64)
                .collect();
            SessionRequest {
                prompt,
                max_new_tokens: 1 + (lcg(seed) % 6) as usize,
                deadline: None,
            }
        })
        .collect()
}

fn run_and_compare(fx: &Fixture, schedule: &[SessionRequest], workers: usize) {
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers,
            return_kv: true,
            ..SessionConfig::default()
        },
    );
    // Staggered admits: sessions join while earlier ones are already
    // decoding, exercising iteration-level admission.
    let tickets: Vec<Ticket<SessionOutput>> = schedule
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i % 3 == 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
            mgr.submit(r.clone())
        })
        .collect();
    for (i, (t, r)) in tickets.into_iter().zip(schedule).enumerate() {
        let out = t.wait().unwrap_or_else(|e| panic!("session {i}: {e}"));
        let (want_tokens, want_kv) = oracle_run(fx, &r.prompt, r.max_new_tokens);
        assert_eq!(out.tokens, want_tokens, "session {i} tokens diverged");
        let got_kv: Vec<Vec<f64>> = out
            .kv
            .expect("return_kv")
            .iter()
            .map(|c| c.to_f64_vec())
            .collect();
        assert_eq!(got_kv, want_kv, "session {i} final KV diverged");
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, schedule.len() as u64);
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked after shutdown: {ps:?}");
}

/// Satellite: seeded random session schedules are bitwise-equal to the
/// copy-based oracle, serially (1 worker)...
#[test]
fn random_sessions_match_copy_oracle_bitwise_serial() {
    let fx = fixture();
    let mut seed = 0x5EED_0001u64;
    run_and_compare(&fx, &random_schedule(8, &mut seed), 1);
}

/// ...and under 8 workers racing on the shared page pool.
#[test]
fn random_sessions_match_copy_oracle_bitwise_parallel() {
    let fx = fixture();
    let mut seed = 0x5EED_0002u64;
    run_and_compare(&fx, &random_schedule(10, &mut seed), 8);
}

/// Under a pool too small for every session, the earliest-deadline
/// session is evicted, survivors stay bitwise-correct, and the pool
/// reconciles with nothing leaked.
#[test]
fn pool_pressure_evicts_and_survivors_stay_bitwise_correct() {
    let fx = fixture();
    // 4 streams × ceil(11/4) pages = 12 pages per full session; 20
    // pages fit one comfortably but not three.
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 2,
            page_tokens: 4,
            pool_pages: 20,
            max_attempts: 6,
            return_kv: true,
            ..SessionConfig::default()
        },
    );
    let reqs: Vec<SessionRequest> = (0..3)
        .map(|i| SessionRequest {
            prompt: vec![(3 + i) as i64; 6],
            max_new_tokens: 6,
            // Session 0 has the earliest deadline: the designated
            // eviction victim under pressure.
            deadline: Some(Duration::from_secs(5 + 10 * i as u64)),
        })
        .collect();
    let tickets: Vec<Ticket<SessionOutput>> = reqs.iter().map(|r| mgr.submit(r.clone())).collect();
    let mut retired = 0;
    let mut evicted = 0;
    for (t, r) in tickets.into_iter().zip(&reqs) {
        match t.wait() {
            Ok(out) => {
                retired += 1;
                let (want_tokens, want_kv) = oracle_run(&fx, &r.prompt, r.max_new_tokens);
                assert_eq!(out.tokens, want_tokens, "survivor tokens diverged");
                let got_kv: Vec<Vec<f64>> = out
                    .kv
                    .expect("return_kv")
                    .iter()
                    .map(|c| c.to_f64_vec())
                    .collect();
                assert_eq!(got_kv, want_kv, "survivor final KV diverged");
            }
            Err(ServeError::Evicted) => evicted += 1,
            Err(other) => panic!("unexpected session error: {other}"),
        }
    }
    assert!(retired >= 1, "no session survived pool pressure");
    assert!(evicted >= 1, "pool pressure never evicted");
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, retired);
    assert_eq!(stats.evicted, evicted);
    assert!(stats.rollbacks >= 1, "pressure should roll steps back");
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked: {ps:?}");
}

/// The CI release-mode smoke: mixed traffic (hundreds of tokens across
/// concurrent sessions with varied context lengths) and the accounting
/// identities hold.
#[test]
fn mixed_traffic_smoke_accounting() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 4,
            return_kv: false,
            ..SessionConfig::default()
        },
    );
    let mut seed = 0x5EED_0003u64;
    let schedule = random_schedule(12, &mut seed);
    let tickets: Vec<Ticket<SessionOutput>> =
        schedule.iter().map(|r| mgr.submit(r.clone())).collect();
    for t in tickets {
        t.wait().expect("mixed-traffic session failed");
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert_eq!(stats.submitted, 12);
    assert_eq!(
        stats.retired + stats.evicted + stats.failed + stats.shed,
        stats.submitted,
        "session accounting does not add up: {stats:?}"
    );
    assert_eq!(stats.retired, 12);
    assert!(stats.tokens >= 12, "every session generates >= 1 token");
    assert!(stats.decodes >= stats.tokens);
    assert!(stats.peak_pages_in_use >= 1);
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked after shutdown: {ps:?}");
}

/// Shutting a manager down in the middle of a 17-session wave — or
/// dropping it without `shutdown` — resolves every ticket (`Ok` or
/// `ShuttingDown`), keeps the accounting identity, and returns every
/// page to the pool.
#[test]
fn shutdown_or_drop_mid_wave_resolves_every_session() {
    let fx = fixture();
    let mut seed = 0x5EED_0005u64;
    let mut schedule = random_schedule(17, &mut seed);
    for r in &mut schedule {
        r.max_new_tokens = 8; // long enough that the wave is mid-flight
    }
    for explicit in [true, false] {
        let mgr = SessionManager::new(
            fx.spec.clone(),
            SessionConfig {
                workers: 2,
                ..SessionConfig::default()
            },
        );
        let pool = mgr.pool().clone();
        let tickets: Vec<Ticket<SessionOutput>> =
            schedule.iter().map(|r| mgr.submit(r.clone())).collect();
        while mgr.stats().iterations < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = if explicit {
            Some(mgr.shutdown())
        } else {
            drop(mgr);
            None
        };
        let (mut retired, mut shut_down) = (0u64, 0u64);
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait_timeout(Duration::from_secs(10)) {
                Some(Ok(out)) => {
                    assert_eq!(out.tokens.len(), 8, "session {i} retired short");
                    retired += 1;
                }
                Some(Err(ServeError::ShuttingDown)) => shut_down += 1,
                other => panic!("session {i} (explicit={explicit}): {other:?}"),
            }
        }
        assert_eq!(retired + shut_down, schedule.len() as u64);
        if let Some(stats) = stats {
            assert_eq!(stats.submitted, schedule.len() as u64);
            assert_eq!(
                stats.retired + stats.evicted + stats.failed + stats.shed,
                stats.submitted,
                "session accounting does not add up: {stats:?}"
            );
            assert_eq!((stats.retired, stats.failed), (retired, shut_down));
        }
        let ps = pool.stats();
        assert!(
            ps.reconciles(),
            "pool accounting broke (explicit={explicit}): {ps:?}"
        );
        assert_eq!(ps.in_use, 0, "pages leaked (explicit={explicit}): {ps:?}");
    }
}

/// A ticket whose result was already taken by `try_wait` answers a
/// later `wait` promptly with a typed error instead of blocking.
#[test]
fn wait_after_a_successful_try_wait_returns_promptly() {
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 1,
            ..SessionConfig::default()
        },
    );
    let ticket = mgr.submit(SessionRequest {
        prompt: vec![1, 2, 3],
        max_new_tokens: 2,
        deadline: None,
    });
    let first = loop {
        match ticket.try_wait() {
            Some(r) => break r,
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    assert_eq!(first.expect("session finishes").tokens.len(), 2);
    // Guard thread: a `wait` that blocks forever fails the test instead
    // of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ticket.wait().map(|out| out.tokens));
    });
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Err(ServeError::WorkerLost)) => {}
        Ok(other) => panic!("expected a typed WorkerLost, got {other:?}"),
        Err(_) => panic!("wait blocked after a successful try_wait"),
    }
    mgr.shutdown();
}

/// Satellite: an explicit mid-iteration worker panic (after the step's
/// in-place appends landed) plus a stall; the scheduler rolls back,
/// retries, every session still finishes bitwise-equal, and the page
/// pool reconciles.
#[test]
fn worker_panic_mid_iteration_rolls_back_and_heals() {
    silence_injected_panics();
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 2,
            max_attempts: 6,
            return_kv: true,
            worker_faults: vec![
                (0, FaultPlan::new().fail_worker_panic(3)),
                (
                    1,
                    FaultPlan::new().stall_worker(5, Duration::from_millis(30)),
                ),
            ],
            ..SessionConfig::default()
        },
    );
    let reqs: Vec<SessionRequest> = (0..4)
        .map(|i| SessionRequest {
            prompt: vec![1 + i as i64; 4],
            max_new_tokens: 4,
            deadline: None,
        })
        .collect();
    let tickets: Vec<Ticket<SessionOutput>> = reqs.iter().map(|r| mgr.submit(r.clone())).collect();
    for (t, r) in tickets.into_iter().zip(&reqs) {
        let out = t.wait().expect("session should survive the panic");
        let (want_tokens, want_kv) = oracle_run(&fx, &r.prompt, r.max_new_tokens);
        assert_eq!(out.tokens, want_tokens);
        let got_kv: Vec<Vec<f64>> = out
            .kv
            .expect("return_kv")
            .iter()
            .map(|c| c.to_f64_vec())
            .collect();
        assert_eq!(got_kv, want_kv);
    }
    let pool = mgr.pool().clone();
    let stats = mgr.shutdown();
    assert!(stats.worker_panics >= 1, "the panic never fired: {stats:?}");
    assert!(stats.rollbacks >= 1, "the panic never rolled back: {stats:?}");
    assert_eq!(stats.retired, 4);
    let ps = pool.stats();
    assert!(
        ps.reconciles(),
        "pool must reconcile after healing: {ps:?}"
    );
    assert_eq!(ps.in_use, 0, "pages leaked through the panic: {ps:?}");
}

/// A worker panic shows in the manager's stats as one respawn, read
/// from the pool's supervisor; nothing is quarantined.
#[test]
fn session_stats_count_worker_restarts() {
    silence_injected_panics();
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers: 1,
            max_attempts: 4,
            worker_faults: vec![(0, FaultPlan::new().fail_worker_panic(1))],
            ..SessionConfig::default()
        },
    );
    let tickets: Vec<Ticket<SessionOutput>> = (0..2)
        .map(|i| {
            mgr.submit(SessionRequest {
                prompt: vec![1 + i; 4],
                max_new_tokens: 3,
                deadline: None,
            })
        })
        .collect();
    for t in tickets {
        t.wait().expect("session should survive the panic");
    }
    // The supervisor counts a respawn on its next pass, not
    // synchronously with the panic.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while mgr.stats().worker_restarts == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never counted the respawn: {:?}",
            mgr.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = mgr.shutdown();
    assert_eq!(
        stats.worker_restarts, 1,
        "one panic, one respawn: {stats:?}"
    );
    assert_eq!(stats.workers_quarantined, 0, "{stats:?}");
    assert!(stats.worker_panics >= 1, "{stats:?}");
}

/// Satellite: the seeded chaos harness — random panics and stalls over
/// a random schedule — upholds the same invariants end to end.
#[test]
fn session_chaos_reconciles_and_survivors_match() {
    let fx = fixture();
    let mut seed = 0x5EED_0004u64;
    let schedule = random_schedule(6, &mut seed);
    let report = run_session_chaos(
        fx.spec.clone(),
        &schedule,
        SessionChaosConfig {
            faults: 5,
            ..SessionChaosConfig::default()
        },
    );
    assert_eq!(report.unresolved, 0, "a ticket hung: {report:?}");
    assert_eq!(report.mismatches, 0, "chaos corrupted a session: {report:?}");
    assert_eq!(report.retired, report.submitted, "{report:?}");
    assert!(report.pool_reconciles, "{report:?}");
    assert_eq!(report.pages_leaked, 0, "{report:?}");
    assert_eq!(report.scheduled_faults, 5);
}
