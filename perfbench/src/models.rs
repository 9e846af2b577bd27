//! Model construction through the public APIs of `relax-models` and
//! `relax-passes`: IR builders, fixed random weights, compilation with
//! per-pass timing, and the greedy-decode reference used by the oracles.

use std::collections::HashMap;
use std::time::Duration;

use relax_core::{DataType, IRModule, ShapeDesc, StructInfo};
use relax_models::llama::{LlamaConfig, ModelIr};
use relax_passes::{compile_with_report, CompileOptions, CompileReport};
use relax_tir::NDArray;
use relax_vm::{Executable, KvCacheConfig, Value, Vm};

use crate::gen::Rng;

/// Seed of the fixed model weights. Weights belong to the model, not to
/// the run: only the inputs change with `--seed`.
const WEIGHT_SEED: u64 = 0x5EED_0F_3E1A;

/// Compile-time totals, summed over the executables one set-up compiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    pub compile: Duration,
    pub fuse_ops: Duration,
    pub fuse_tensor_ir: Duration,
    pub legalize: Duration,
    pub memory_plan: Duration,
}

impl PassTimes {
    fn add(&mut self, report: &CompileReport) {
        self.compile += report.total;
        for p in &report.passes {
            let slot = match p.name.as_str() {
                "fuse_ops" => &mut self.fuse_ops,
                "fuse_tensor_ir" => &mut self.fuse_tensor_ir,
                "legalize" => &mut self.legalize,
                "memory_plan" => &mut self.memory_plan,
                _ => continue,
            };
            *slot += p.wall;
        }
    }
}

/// Compiles `module` with the default pipeline and charges its passes.
pub fn compile(module: &IRModule, passes: &mut PassTimes) -> Executable {
    let (exec, report) = compile_with_report(module.clone(), &CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile failed: {e}"));
    passes.add(&report);
    exec
}

/// Concrete dims of a parameter annotation without symbolic dims.
fn static_dims(sinfo: &StructInfo) -> (Vec<usize>, DataType) {
    match sinfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Known(d),
            dtype: Some(dt),
        } => (
            d.iter()
                .map(|e| e.eval(&HashMap::new()).expect("static weight dim") as usize)
                .collect(),
            *dt,
        ),
        other => panic!("not a static tensor annotation: {other:?}"),
    }
}

fn is_weight(name: &str) -> bool {
    name != "tokens" && !name.contains("cache")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Fixed random f32 weights for every weight parameter of `ir`, by name:
/// a parameter's values depend only on its name, so models that share
/// parameter names (prefill and decode, a draft and its verify model)
/// share weights.
pub fn random_weights(ir: &ModelIr) -> HashMap<String, NDArray> {
    ir.params
        .iter()
        .filter(|(name, _)| is_weight(name))
        .map(|(name, sinfo)| {
            let (dims, dt) = static_dims(sinfo);
            let mut r = Rng::new(WEIGHT_SEED, fnv1a(name.as_bytes()), 0);
            let n: usize = dims.iter().product();
            let vals = (0..n).map(|_| r.f32_sym(0.5)).collect();
            (name.clone(), NDArray::from_f64(&dims, dt, vals).expect("weight tensor"))
        })
        .collect()
}

/// The weight arguments of `ir`, in parameter order, taken by name from
/// `weights`.
pub fn weight_args(ir: &ModelIr, weights: &HashMap<String, NDArray>) -> Vec<Value> {
    ir.params
        .iter()
        .filter(|(name, _)| is_weight(name))
        .map(|(name, _)| Value::Tensor(weights[name].clone()))
        .collect()
}

/// Zeroes `wo` and `w_down` of every layer past the first, so each of
/// those layers adds exactly `+0` to the residual stream: a deep model
/// whose greedy stream a 1-layer draft with the shared weights predicts.
pub fn identity_tail(weights: &mut HashMap<String, NDArray>) {
    for (name, w) in weights.iter_mut() {
        let tail = name
            .strip_prefix('l')
            .and_then(|rest| rest.split_once('.'))
            .is_some_and(|(layer, field)| {
                layer.parse::<usize>().is_ok_and(|l| l >= 1) && (field == "wo" || field == "w_down")
            });
        if tail {
            *w = NDArray::zeros(w.shape(), w.dtype());
        }
    }
}

/// The paged KV-cache layout of a model with `layers` layers.
pub fn kv_config(cfg: &LlamaConfig, layers: usize) -> KvCacheConfig {
    KvCacheConfig {
        streams: 2 * layers,
        batch: 1,
        heads: cfg.n_kv_heads as usize,
        head_dim: cfg.head_dim as usize,
        dtype: cfg.dtype,
    }
}

/// First maximum wins, as the session scheduler's greedy sampler does.
pub fn argmax(logits: &NDArray) -> i64 {
    let vals = logits.to_f64_vec();
    let mut best = 0usize;
    for (i, &v) in vals.iter().enumerate() {
        if v > vals[best] {
            best = i;
        }
    }
    best as i64
}

fn token(t: i64) -> Value {
    Value::Tensor(NDArray::from_i64(&[1, 1], DataType::I64, vec![t]).expect("token tensor"))
}

fn tensors(out: &Value) -> Vec<NDArray> {
    out.as_tuple()
        .expect("tuple result")
        .iter()
        .map(|v| v.as_tensor().expect("tensor item").clone())
        .collect()
}

/// Copy-KV greedy decode on one VM pair: the prompt prefix goes through
/// `prefill`, then every later position through one `decode` step.
pub struct CopyDecoder {
    pub prefill: Vm,
    pub decode: Vm,
    pub cfg: LlamaConfig,
    pub prefill_weights: Vec<Value>,
    pub decode_weights: Vec<Value>,
    /// Wall time of the last `decode` VM run alone.
    pub last_run: Duration,
}

impl CopyDecoder {
    /// Fills the caches from `prompt[..len-1]`; returns them.
    pub fn prefill(&mut self, prompt: &[i64]) -> Vec<NDArray> {
        let prefix = &prompt[..prompt.len() - 1];
        if prefix.is_empty() {
            let (nkv, hd) = (self.cfg.n_kv_heads as usize, self.cfg.head_dim as usize);
            return (0..2 * self.cfg.n_layers)
                .map(|_| NDArray::zeros(&[1, nkv, 0, hd], self.cfg.dtype))
                .collect();
        }
        let tokens = NDArray::from_i64(&[1, prefix.len()], DataType::I64, prefix.to_vec())
            .expect("prompt tensor");
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(self.prefill_weights.iter().cloned());
        tensors(&self.prefill.run("prefill", &args).expect("prefill step"))
    }

    /// One decode step: feeds `tok`, returns the greedy next token and
    /// replaces `caches` with the grown ones.
    pub fn step(&mut self, tok: i64, caches: &mut Vec<NDArray>) -> Result<i64, String> {
        let mut args = Vec::with_capacity(1 + caches.len() + self.decode_weights.len());
        args.push(token(tok));
        args.extend(caches.drain(..).map(Value::Tensor));
        args.extend(self.decode_weights.iter().cloned());
        let t = std::time::Instant::now();
        let out = self.decode.run("decode", &args);
        self.last_run = t.elapsed();
        let out = out.map_err(|e| e.to_string())?;
        let mut items = tensors(&out);
        let next = argmax(&items[0]);
        *caches = items.split_off(1);
        Ok(next)
    }

    /// The whole greedy stream of a job, untimed.
    pub fn stream(&mut self, prompt: &[i64], new_tokens: usize) -> Result<Vec<i64>, String> {
        let mut caches = self.prefill(prompt);
        let mut out = Vec::with_capacity(new_tokens);
        let mut tok = *prompt.last().expect("non-empty prompt");
        while out.len() < new_tokens {
            tok = self.step(tok, &mut caches)?;
            out.push(tok);
        }
        Ok(out)
    }
}

/// Builds a copy-KV decoder for `cfg`. With `interpreter`, kernel
/// planning is disabled and every kernel runs on the reference TIR
/// interpreter — the oracle the planned paths must match bitwise.
pub fn copy_decoder(
    cfg: &LlamaConfig,
    weights: &HashMap<String, NDArray>,
    interpreter: bool,
    passes: &mut PassTimes,
) -> CopyDecoder {
    let prefill_ir = relax_models::llama::build_prefill(cfg).expect("prefill IR");
    let decode_ir = relax_models::llama::build_decode(cfg).expect("decode IR");
    let mut prefill = Vm::new(compile(&prefill_ir.module, passes));
    let mut decode = Vm::new(compile(&decode_ir.module, passes));
    if interpreter {
        prefill.set_plan_cache_capacity(0);
        decode.set_plan_cache_capacity(0);
    }
    CopyDecoder {
        prefill,
        decode,
        cfg: cfg.clone(),
        prefill_weights: weight_args(&prefill_ir, weights),
        decode_weights: weight_args(&decode_ir, weights),
        last_run: Duration::ZERO,
    }
}
