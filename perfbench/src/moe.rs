//! `moe-requests`: one closed-loop client sending stateless
//! `moe_dispatch` requests through a `ServeEngine` with one worker per
//! core. Each request routes a ragged number of tokens (1–64) to experts,
//! gathers them with `match_cast`-bound shapes, runs the expert FFNs and
//! scatters back. The unit of work is one request, timed from when it was
//! sent.

use std::sync::{Arc, Mutex};

use relax_core::DataType;
use relax_models::moe::{build_dispatch, reference_moe, reference_route, MoeConfig};
use relax_serve::{EngineStats, ServeConfig, ServeEngine};
use relax_tir::NDArray;
use relax_vm::Value;

use crate::gen::{self, Rng};
use crate::host::nproc;
use crate::layers::{ratio, Layers};
use crate::models::{self, PassTimes};
use crate::load::{self, Waiter};
use crate::pace::Pace;
use crate::stats::Summary;
use crate::workload::{window_rates, Segment, Workload};

/// Concurrent clients. On a 2-vCPU host with 2 workers, one client
/// gives about 185-200 requests/s, while two or more clients reach the
/// engine's saturation of about 420-450 requests/s (a quieter stretch of
/// the same host) and p50 grows from queueing. One client keeps the load
/// at under half of saturation, so p50/p95 measure latency below
/// saturation; `batch` covers throughput at saturation.
const CLIENTS: usize = 1;
/// Requests per segment checked against the pure-Rust oracle.
const ORACLE_REQUESTS: usize = 400;

fn config() -> MoeConfig {
    MoeConfig {
        d_model: 64,
        d_ff: 128,
        experts: 8,
        dtype: DataType::F32,
    }
}

/// Fixed model weights: the router and each expert's `w1`, `w2`.
pub struct MoeWeights {
    router: Vec<f64>,
    w1: Vec<Vec<f64>>,
    w2: Vec<Vec<f64>>,
    args: Vec<Value>,
}

fn make_weights(cfg: &MoeConfig) -> MoeWeights {
    let (d, h, e) = (cfg.d_model as usize, cfg.d_ff as usize, cfg.experts as usize);
    let mut r = Rng::new(0x3E1A_0F_5EED, 0, 0);
    let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| r.f32_sym(0.5)).collect() };
    let router = draw(d * e);
    let w1: Vec<Vec<f64>> = (0..e).map(|_| draw(d * h)).collect();
    let w2: Vec<Vec<f64>> = (0..e).map(|_| draw(h * d)).collect();
    let mut args = vec![tensor(d, e, &router)];
    for i in 0..e {
        args.push(tensor(d, h, &w1[i]));
        args.push(tensor(h, d, &w2[i]));
    }
    MoeWeights {
        router,
        w1,
        w2,
        args,
    }
}

fn tensor(rows: usize, cols: usize, vals: &[f64]) -> Value {
    Value::Tensor(NDArray::from_f64(&[rows, cols], DataType::F32, vals.to_vec()).expect("tensor"))
}

/// A 64-bit digest of a result's exact bits.
fn digest(vals: &[f64]) -> u64 {
    vals.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01B3).rotate_left(29)
    })
}

pub struct Moe {
    seed: u64,
    cfg: MoeConfig,
    weights: Arc<MoeWeights>,
    engine: ServeEngine,
}

/// Engine counters over a segment. The engine's own latency summary
/// covers its whole life, so `engine.p50_ms` is taken from the segment's
/// requests instead: submit to reply, as the engine sees them.
fn engine_layers(l: &mut Layers, s0: &EngineStats, s1: &EngineStats, latency_ms: &[Option<f64>]) {
    l.set("engine.batches", (s1.batches - s0.batches) as f64);
    l.set("engine.batched_extra", (s1.batched_extra - s0.batched_extra) as f64);
    l.set("engine.retries", (s1.retries - s0.retries) as f64);
    let lat: Vec<f64> = latency_ms.iter().flatten().copied().collect();
    l.set("engine.p50_ms", Summary::of(&lat).map_or(0.0, |s| s.median));
    let hits = (s1.plan_cache.hits - s0.plan_cache.hits) as f64;
    let misses = (s1.plan_cache.misses - s0.plan_cache.misses) as f64;
    l.set("engine.plan_hit_ratio", ratio(hits, hits + misses));
}

impl Workload for Moe {
    const LIMIT_MS: f64 = 50.0;
    const SETUP_REPS: usize = 120;

    type Weights = Arc<MoeWeights>;

    fn weights() -> Self::Weights {
        Arc::new(make_weights(&config()))
    }

    fn setup(seed: u64, weights: &Self::Weights, passes: &mut PassTimes) -> Self {
        let cfg = config();
        let ir = build_dispatch(&cfg).expect("moe_dispatch IR");
        let weights = weights.clone();
        let engine = ServeEngine::new(
            models::compile(&ir.module, passes),
            ServeConfig {
                workers: nproc(),
                queue_capacity: 1024,
                ..ServeConfig::default()
            },
        );
        Moe {
            seed,
            cfg,
            weights,
            engine,
        }
    }

    fn warm(&mut self) {
        let d = self.cfg.d_model as usize;
        for i in 0..16 {
            let (t, x) = gen::moe_tokens(self.seed, u64::MAX - i, d);
            let mut args = vec![tensor(t, d, &x)];
            args.extend(self.weights.args.iter().cloned());
            self.engine.run("moe_dispatch", &args).expect("warm-up request");
        }
    }

    fn segment(&mut self, part: u64, seconds: f64) -> Segment {
        let (d, h, e) = (
            self.cfg.d_model as usize,
            self.cfg.d_ff as usize,
            self.cfg.experts as usize,
        );
        let seed = self.seed;
        let index = |i: usize| (part << 32) | i as u64;
        let digests: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let s0 = self.engine.stats();
        let locks0 = relax_trace::lock_wait_stats();

        let engine = &self.engine;
        let weight_args = &self.weights.args;
        let mut pace = Pace::new();
        let run = load::closed(CLIENTS, seconds, || pace.tick(), |i| {
            let _sp = relax_trace::span("bench", || "moe.submit".into());
            let (t, x) = gen::moe_tokens(seed, index(i), d);
            let mut args = Vec::with_capacity(1 + weight_args.len());
            args.push(tensor(t, d, &x));
            args.extend(weight_args.iter().cloned());
            digests.lock().unwrap().push(None);
            let ticket = match engine.submit("moe_dispatch", &args) {
                Ok(ticket) => ticket,
                Err(err) => {
                    eprintln!("moe request {i} refused: {err}");
                    return None;
                }
            };
            let digests = digests.clone();
            Some(Box::new(move || match ticket.wait() {
                Ok(v) => {
                    let out = v.as_tensor().map(|t| digest(&t.to_f64_vec()));
                    digests.lock().unwrap()[i] = out;
                    out.is_some()
                }
                Err(err) => {
                    eprintln!("moe request {i} failed: {err}");
                    false
                }
            }) as Waiter)
        });

        let digests = std::mem::take(&mut *digests.lock().unwrap());
        let count = digests.len();
        pace.sample();
        let mut seg = Segment {
            elapsed_s: run.span.as_secs_f64(),
            attempted: count as u64,
            failed: run.latency_ms.iter().filter(|l| l.is_none()).count() as u64,
            ..Segment::default()
        };
        let done: Vec<(f64, u64)> = run
            .done_at
            .iter()
            .enumerate()
            .filter_map(|(i, at)| {
                Some((at.as_ref()?.as_secs_f64(), gen::moe_token_count(seed, index(i)) as u64))
            })
            .collect();
        seg.rates = window_rates(&done, seg.elapsed_s);
        engine_layers(&mut seg.layers, &s0, &self.engine.stats(), &run.latency_ms);
        seg.layers.set_lock_waits(&locks0);
        seg.at_s = run
            .done_at
            .iter()
            .map(|at| at.map(|d| d.as_secs_f64()))
            .collect();
        seg.latency_ms = run.latency_ms;
        seg.pace = pace;

        // Oracle: an evenly spaced, seeded sample of the outputs against
        // the pure-Rust router and expert references, bitwise.
        let stride = count.div_ceil(ORACLE_REQUESTS).max(1);
        let first = Rng::new(seed, 0x0AC1E, 0x200 | part).range(0, stride - 1);
        for i in (first..count).step_by(stride) {
            let Some(got) = digests[i] else { continue };
            let (t, x) = gen::moe_tokens(seed, index(i), d);
            let assign = reference_route(&x, &self.weights.router, t, d, e);
            let want = reference_moe(&x, &assign, &self.weights.w1, &self.weights.w2, d, h);
            if got != digest(&want) {
                eprintln!("moe oracle mismatch on request {i} ({t} tokens)");
                seg.mismatches += 1;
                seg.failed += 1;
            }
        }
        seg
    }
}
