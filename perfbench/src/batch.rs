//! `batch`: offline waves of sessions, all submitted at t=0 to a
//! `SessionManager` — first a plain pass, then a speculative pass over
//! the same sessions (a 1-layer draft proposing for a 12-layer
//! identity-tail verify model). The unit of work is one session of the
//! plain pass, timed from the wave's start.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use relax_core::DataType;
use relax_models::llama::LlamaConfig;
use relax_serve::{
    SessionConfig, SessionManager, SessionModelSpec, SessionRequest, SessionStats, SpeculativeSpec,
};
use relax_tir::NDArray;

use crate::gen::{self, Job};
use crate::host::nproc;
use crate::layers::{ratio, Layers};
use crate::models::{self, PassTimes};
use crate::load::{self, Waiter};
use crate::pace::Pace;
use crate::stats::Summary;
use crate::workload::{Segment, Workload};

/// Sessions per wave: one block of the stratified output lengths.
const WAVE: usize = 17;
const LOOKAHEAD: usize = 6;
const NOISE: f64 = 0.05;
const NOISE_SEED: u64 = 0xD1CE_5EED;
const POOL_PAGES: usize = 4096;
/// Calibration samples taken before each pass and after the last one;
/// a pass is scaled by the samples on both sides of it.
const PASS_PACE: usize = 20;

/// A launch-bound model: tiny arithmetic per kernel, so a multi-token
/// verify feed costs about one single-token pass.
fn spec_cfg(n_layers: usize) -> LlamaConfig {
    LlamaConfig {
        name: "SpecBench".into(),
        hidden: 8,
        intermediate: 8,
        n_layers,
        n_heads: 1,
        n_kv_heads: 1,
        head_dim: 8,
        vocab: 16,
        max_context: 128,
        dtype: DataType::F32,
        quant4: false,
    }
}

pub struct Batch {
    seed: u64,
    vocab: usize,
    plain: SessionManager,
    spec: SessionManager,
}

/// Builds the paged session model for `cfg` with `weights`.
fn session_spec(
    cfg: &LlamaConfig,
    weights: &HashMap<String, NDArray>,
    passes: &mut PassTimes,
) -> SessionModelSpec {
    let paged = relax_models::llama::build_decode_paged(cfg).expect("paged decode IR");
    let prefill = relax_models::llama::build_prefill(cfg).expect("prefill IR");
    SessionModelSpec {
        decode: Arc::new(models::compile(&paged.module, passes)),
        decode_func: "decode_paged".into(),
        prefill: Some(Arc::new(models::compile(&prefill.module, passes))),
        prefill_func: "prefill".into(),
        weights: models::weight_args(&paged, weights),
        cache: models::kv_config(cfg, cfg.n_layers),
        speculative: None,
    }
}

fn request(job: &Job) -> SessionRequest {
    SessionRequest {
        prompt: job.prompt.clone(),
        max_new_tokens: job.new_tokens,
        deadline: None,
    }
}

/// Session-scheduler counters over a segment, and the KV page peak.
fn serve_layers(l: &mut Layers, mgr: &SessionManager, s0: &SessionStats, iters0: usize) {
    let s1 = mgr.stats();
    let iterations = (s1.iterations - s0.iterations) as f64;
    let steps = (s1.prefills + s1.decodes + s1.speculations
        - s0.prefills
        - s0.decodes
        - s0.speculations) as f64;
    let iter_ms: Vec<f64> = mgr.iteration_latencies_ns()[iters0..]
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    l.set("serve.iterations", iterations);
    l.set("serve.iter_p50_ms", Summary::of(&iter_ms).map_or(0.0, |s| s.median));
    l.set("serve.steps_per_iter", ratio(steps, iterations));
    l.set("serve.rollbacks", (s1.rollbacks - s0.rollbacks) as f64);
    l.set("serve.evicted", (s1.evicted - s0.evicted) as f64);
    l.set("serve.shed", (s1.shed - s0.shed) as f64);
    // The manager keeps one peak for its whole life and cannot reset it,
    // so these two cover the warm-up and every earlier segment too.
    let capacity = mgr.pool_stats().capacity as f64;
    l.set("kv.lifetime_peak_pages", s1.peak_pages_in_use as f64);
    l.set("kv.lifetime_page_util", ratio(s1.peak_pages_in_use as f64, capacity));
}

/// One pass over a wave: per-session latency from t=0 and the streams.
struct Pass {
    run: load::LoadRun,
    streams: Vec<Option<Vec<i64>>>,
}

fn run_pass(mgr: &SessionManager, jobs: &[Job], label: &'static str) -> Pass {
    let outputs: Arc<Mutex<Vec<Option<Vec<i64>>>>> = Arc::new(Mutex::new(vec![None; jobs.len()]));
    let _sp = relax_trace::span("bench", || format!("batch.{label}"));
    let run = load::wave(jobs.len(), |i| {
        let ticket = mgr.submit(request(&jobs[i]));
        let want = jobs[i].new_tokens;
        let outputs = outputs.clone();
        Some(Box::new(move || match ticket.wait() {
            Ok(out) => {
                let ok = out.tokens.len() == want;
                outputs.lock().unwrap()[i] = Some(out.tokens);
                ok
            }
            Err(e) => {
                eprintln!("batch {label} session {i} failed: {e}");
                false
            }
        }) as Waiter)
    });
    let streams = std::mem::take(&mut *outputs.lock().unwrap());
    Pass { run, streams }
}

impl Pass {
    /// Committed tokens per second over the whole pass.
    fn rate(&self) -> f64 {
        let tokens: usize = self.streams.iter().flatten().map(Vec::len).sum();
        ratio(tokens as f64, self.run.span.as_secs_f64())
    }
}

impl Workload for Batch {
    const LIMIT_MS: f64 = 2000.0;
    const SETUP_REPS: usize = 10;

    type Weights = HashMap<String, NDArray>;

    fn weights() -> Self::Weights {
        let verify_ir = relax_models::llama::build_decode_paged(&spec_cfg(12)).expect("verify IR");
        let mut weights = models::random_weights(&verify_ir);
        models::identity_tail(&mut weights);
        weights
    }

    fn setup(seed: u64, weights: &Self::Weights, passes: &mut PassTimes) -> Self {
        let vcfg = spec_cfg(12);
        let dcfg = spec_cfg(1);
        let plain_spec = session_spec(&vcfg, weights, passes);
        let multi = relax_models::llama::build_decode_paged_multi(&vcfg).expect("multi IR");
        let draft = relax_models::llama::build_decode_paged(&dcfg).expect("draft IR");
        let spec_spec = SessionModelSpec {
            speculative: Some(SpeculativeSpec {
                draft: Arc::new(models::compile(&draft.module, passes)),
                draft_func: "decode_paged".into(),
                draft_weights: models::weight_args(&draft, weights),
                draft_cache: models::kv_config(&dcfg, dcfg.n_layers),
                verify: Arc::new(models::compile(&multi.module, passes)),
                verify_func: "decode_paged_multi".into(),
                lookahead: LOOKAHEAD,
                noise: NOISE,
                noise_seed: NOISE_SEED,
            }),
            ..plain_spec.clone()
        };
        let config = SessionConfig {
            workers: nproc(),
            pool_pages: POOL_PAGES,
            ..SessionConfig::default()
        };
        Batch {
            seed,
            vocab: vcfg.vocab as usize,
            plain: SessionManager::new(plain_spec, config.clone()),
            spec: SessionManager::new(spec_spec, config),
        }
    }

    fn warm(&mut self) {
        let jobs: Vec<Job> = (0..4)
            .map(|i| gen::batch_job(self.seed, u64::MAX - i, self.vocab))
            .collect();
        run_pass(&self.plain, &jobs, "warm");
        run_pass(&self.spec, &jobs, "warm");
    }

    fn segment(&mut self, part: u64, seconds: f64) -> Segment {
        let mut seg = Segment::default();
        let s0 = self.plain.stats();
        let iters0 = self.plain.iteration_latencies_ns().len();
        let spec0 = self.spec.stats();
        let (_, verify0) = self.spec.speculative_plan_stats();
        let locks0 = relax_trace::lock_wait_stats();

        let (mut plain_s, mut spec_s) = (0.0, 0.0);
        let mut spec_rates = Vec::new();
        let mut waves = Vec::new();
        let mut pace = Pace::new();
        while plain_s + spec_s < seconds {
            let first = ((part << 24) + waves.len() as u64) * WAVE as u64;
            let jobs: Vec<Job> = (first..first + WAVE as u64)
                .map(|i| gen::batch_job(self.seed, i, self.vocab))
                .collect();
            // Each pass is placed on the region's clock at its middle.
            let mut timed = |mgr, label| {
                for _ in 0..PASS_PACE {
                    pace.sample();
                }
                let at = pace.now_s();
                let pass = run_pass(mgr, &jobs, label);
                (at + pass.run.span.as_secs_f64() / 2.0, pass)
            };
            let (plain_at, plain) = timed(&self.plain, "plain");
            let (spec_at, spec) = timed(&self.spec, "spec");
            seg.rates.push((plain_at, plain.rate()));
            spec_rates.push((spec_at, spec.rate()));
            plain_s += plain.run.span.as_secs_f64();
            spec_s += spec.run.span.as_secs_f64();
            waves.push((plain, spec));
        }
        for _ in 0..PASS_PACE {
            pace.sample();
        }
        seg.elapsed_s = plain_s;
        // Scaled to the reference host speed like `tok_s`.
        let spec_scaled: Vec<f64> = spec_rates
            .iter()
            .map(|&(at, r)| r / pace.speed_at(at))
            .collect();
        let spec_tok_s = Summary::of(&spec_scaled).map_or(0.0, |s| s.median);
        seg.spec_tok_s = Some(spec_tok_s);

        serve_layers(&mut seg.layers, &self.plain, &s0, iters0);
        seg.layers.set_lock_waits(&locks0);
        let spec1 = self.spec.stats();
        seg.layers.set(
            "spec.acceptance",
            ratio(
                (spec1.spec_accepted - spec0.spec_accepted) as f64,
                (spec1.spec_proposed - spec0.spec_proposed) as f64,
            ),
        );
        let (_, verify1) = self.spec.speculative_plan_stats();
        let (hits, misses) = (
            (verify1.hits - verify0.hits) as f64,
            (verify1.misses - verify0.misses) as f64,
        );
        seg.layers.set("spec.verify_hit_ratio", ratio(hits, hits + misses));
        seg.layers.set("spec.tok_s", spec_tok_s);

        // Oracle: every speculative stream must equal the plain stream of
        // the same session bitwise; a session that failed in either pass
        // is a failure.
        for (plain, spec) in waves {
            seg.attempted += 2 * WAVE as u64;
            for i in 0..WAVE {
                seg.failed += plain.run.latency_ms[i].is_none() as u64;
                seg.failed += spec.run.latency_ms[i].is_none() as u64;
                if let (Some(p), Some(s)) = (&plain.streams[i], &spec.streams[i]) {
                    if p != s {
                        eprintln!("batch oracle mismatch: plain {p:?} vs speculative {s:?}");
                        seg.mismatches += 1;
                        seg.failed += 1;
                    }
                }
            }
            // Sessions are scaled by the host speed over the whole
            // region: a per-pass speed moves each pass's sessions together,
            // and its sampling noise widened the tail that p95 reads.
            seg.at_s.extend([None; WAVE]);
            seg.latency_ms.extend(plain.run.latency_ms);
        }
        seg.pace = pace;
        seg
    }
}
