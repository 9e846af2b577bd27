//! `decode`: one VM pair runs a closed-loop greedy decode of tiny-llama on
//! the copy-KV `build_prefill` + `build_decode` executables. The unit of
//! work is one decode step.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use relax_models::llama::LlamaConfig;
use relax_tir::NDArray;
use relax_vm::{KernelStat, Telemetry};

use crate::gen::{self, Rng};
use crate::layers::{ratio, Layers};
use crate::models::{self, CopyDecoder, PassTimes};
use crate::load::ms;
use crate::pace::Pace;
use crate::workload::{window_rates, Segment, Workload};

/// Sequences per segment replayed on the reference interpreter.
const ORACLE_SEQUENCES: usize = 2;

pub struct Decode {
    seed: u64,
    cfg: LlamaConfig,
    weights: HashMap<String, NDArray>,
    dec: CopyDecoder,
}

/// Kernel time of a segment, by layer, from `Vm::kernel_stats` deltas.
#[derive(Debug, Default, Clone, Copy)]
struct KernelSplit {
    tir_ms: f64,
    attention_ms: f64,
    lib_ms: f64,
    matmul_ms: f64,
    compile_ms: f64,
    compiles: u64,
}

fn kernel_split(
    dec: &CopyDecoder,
    before: &HashMap<String, KernelStat>,
    after: &HashMap<String, KernelStat>,
) -> KernelSplit {
    let mut k = KernelSplit::default();
    let tir = &dec.decode.executable().tir_funcs;
    for (name, s) in after {
        let b = before.get(name).copied().unwrap_or_default();
        let run = ms(s.run_time - b.run_time);
        k.compile_ms += ms(s.compile_time - b.compile_time);
        k.compiles += s.plan_compiles - b.plan_compiles;
        if tir.contains_key(name) {
            k.tir_ms += run;
            if name.contains("attention") {
                k.attention_ms += run;
            }
        } else {
            k.lib_ms += run;
            if name.contains("matmul") {
                k.matmul_ms += run;
            }
        }
    }
    k
}

impl Workload for Decode {
    const LIMIT_MS: f64 = 25.0;
    const SETUP_REPS: usize = 30;

    type Weights = HashMap<String, NDArray>;

    fn weights() -> Self::Weights {
        models::random_weights(
            &relax_models::llama::build_decode(&LlamaConfig::tiny()).expect("decode IR"),
        )
    }

    fn setup(seed: u64, weights: &Self::Weights, passes: &mut PassTimes) -> Self {
        let cfg = LlamaConfig::tiny();
        let dec = models::copy_decoder(&cfg, weights, false, passes);
        Decode {
            seed,
            cfg,
            weights: weights.clone(),
            dec,
        }
    }

    fn warm(&mut self) {
        let job = gen::decode_job(self.seed, u64::MAX, self.cfg.vocab as usize);
        self.dec
            .stream(&job.prompt, 4)
            .expect("warm-up decode");
    }

    fn segment(&mut self, part: u64, seconds: f64) -> Segment {
        let vocab = self.cfg.vocab as usize;
        let mut seg = Segment::default();
        let mut jobs = Vec::new();
        let mut streams: Vec<Option<Vec<i64>>> = Vec::new();
        let mut run_ms = 0.0;
        let mut done = Vec::new();
        let k0 = self.dec.decode.kernel_stats().clone();
        let t0 = self.dec.decode.telemetry();

        let mut pace = Pace::new();
        while pace.now_s() < seconds {
            let job = gen::decode_job(self.seed, (part << 32) | jobs.len() as u64, vocab);
            let _sp = relax_trace::span("bench", || "decode.sequence".into());
            let mut caches = self.dec.prefill(&job.prompt);
            let mut tok = *job.prompt.last().expect("non-empty prompt");
            let mut out = Vec::with_capacity(job.new_tokens);
            while out.len() < job.new_tokens {
                pace.tick();
                let sp = relax_trace::span("bench", || "decode.step".into());
                let t = Instant::now();
                let step = self.dec.step(tok, &mut caches);
                let dt = ms(t.elapsed());
                sp.finish();
                seg.attempted += 1;
                let at = pace.now_s();
                seg.at_s.push(Some(at));
                match step {
                    Ok(next) => {
                        seg.latency_ms.push(Some(dt));
                        done.push((at, 1));
                        run_ms += ms(self.dec.last_run);
                        tok = next;
                        out.push(next);
                    }
                    Err(e) => {
                        eprintln!("decode step failed: {e}");
                        seg.latency_ms.push(None);
                        seg.failed += 1;
                        break;
                    }
                }
            }
            streams.push((out.len() == job.new_tokens).then_some(out));
            jobs.push(job);
        }
        pace.sample();
        seg.elapsed_s = pace.now_s();
        seg.rates = window_rates(&done, seg.elapsed_s);
        seg.pace = pace;

        let k = kernel_split(&self.dec, &k0, self.dec.decode.kernel_stats());
        let t1 = self.dec.decode.telemetry();
        let steps = seg.latency_ms.iter().flatten().count() as f64;
        seg.layers = decode_layers(&k, &t0, &t1, run_ms, steps);
        seg.report = Some(attribution_table(&k, run_ms, steps));

        // Oracle: a seeded sample of whole streams, replayed on a VM pair
        // with kernel planning disabled (the reference TIR interpreter).
        let mut oracle = models::copy_decoder(&self.cfg, &self.weights, true, &mut PassTimes::default());
        let mut r = Rng::new(self.seed, 0x0AC1E, part);
        for _ in 0..ORACLE_SEQUENCES.min(jobs.len()) {
            let i = r.range(0, jobs.len() - 1);
            let Some(got) = &streams[i] else { continue };
            let want = oracle
                .stream(&jobs[i].prompt, jobs[i].new_tokens)
                .expect("interpreter decode");
            if *got != want {
                eprintln!("decode oracle mismatch on sequence {i}: {got:?} vs {want:?}");
                seg.mismatches += 1;
                seg.failed += 1;
            }
        }
        seg
    }
}

fn decode_layers(k: &KernelSplit, t0: &Telemetry, t1: &Telemetry, run_ms: f64, steps: f64) -> Layers {
    let per_step = |x: f64| ratio(x, steps);
    let mut l = Layers::default();
    l.set("tir.kernel_ms", per_step(k.tir_ms));
    l.set("tir.attention_ms", per_step(k.attention_ms));
    l.set("tir.plan_compile_ms", per_step(k.compile_ms));
    l.set("tir.plan_compiles", k.compiles as f64);
    l.set("lib.matmul_ms", per_step(k.matmul_ms));
    l.set("vm.run_ms", per_step(run_ms));
    l.set(
        "vm.other_ms",
        per_step(run_ms - k.tir_ms - k.lib_ms - k.compile_ms),
    );
    let hits = (t1.plan_cache_hits - t0.plan_cache_hits) as f64;
    let misses = (t1.plan_cache_misses - t0.plan_cache_misses) as f64;
    l.set("vm.plan_hits", hits);
    l.set("vm.plan_misses", misses);
    l.set("vm.plan_hit_ratio", ratio(hits, hits + misses));
    l.set(
        "vm.plan_evictions",
        (t1.plan_cache_evictions - t0.plan_cache_evictions) as f64,
    );
    l.set(
        "vm.launches_per_step",
        per_step((t1.kernel_launches - t0.kernel_launches) as f64),
    );
    l
}

/// The decode step split into layers, in ms per step. The kernel parts
/// (tir, library, plan compile) are measured by the VM around each launch
/// and `vm.run` by the benchmark around each call; `vm.other` is what
/// remains. The table checks that the measured parts fit inside `vm.run`:
/// a negative remainder means the spans overlap or `vm.run` misses time,
/// and the attribution is flagged as invalid.
fn attribution_table(k: &KernelSplit, run_ms: f64, steps: f64) -> String {
    let per_step = |x: f64| ratio(x, steps);
    let run = per_step(run_ms);
    let measured = per_step(k.tir_ms + k.lib_ms + k.compile_ms);
    let other = run - measured;
    let rows = [
        ("tir kernels", per_step(k.tir_ms)),
        ("  of which attention", per_step(k.attention_ms)),
        ("library matmul", per_step(k.matmul_ms)),
        ("library other", per_step(k.lib_ms - k.matmul_ms)),
        ("plan compile", per_step(k.compile_ms)),
        ("vm other (dispatch, builtins, alloc)", other),
    ];
    let mut out = format!("decode step attribution over {steps} steps (ms per step):\n");
    for (name, v) in rows {
        let _ = writeln!(out, "  {name:<38} {v:>10.5}  {:>5.1}%", ratio(v, run) * 100.0);
    }
    let _ = writeln!(out, "  {:<38} {run:>10.5}", "vm.run");
    if other >= 0.0 && run > 0.0 {
        let _ = writeln!(
            out,
            "  check: measured kernel parts {measured:.5} fit inside vm.run {run:.5}; vm other >= 0"
        );
    } else {
        eprintln!("decode attribution is invalid: kernel parts {measured:.5} ms exceed vm.run {run:.5} ms");
        let _ = writeln!(
            out,
            "  INVALID: measured kernel parts {measured:.5} exceed vm.run {run:.5}; the split does not hold"
        );
    }
    out
}
