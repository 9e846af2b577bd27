//! Bitwise oracle for decode attention's macro-ops: the legalized
//! `Op::Attention` kernel, auto-scheduled so that both reductions (QKᵀ
//! and the softmax-weighted PV) run as `MacroMatmul` superinstructions,
//! must match the unscheduled plan and the reference interpreter bit for
//! bit — serially and through the worker pool — across GQA groups, causal
//! masks, IEEE specials, an aliased launch and integer arrays. It also
//! checks that tiny-llama's compiled decode attention keeps both macros.
//!
//! The generator is a seeded xorshift64* so failures reproduce exactly.

use relax_arith::DataType;
use relax_core::{legalize, Op, OpAttrs, StructInfo};
use relax_tir::{interp, plan, NDArray, PrimFunc};

/// xorshift64* — deterministic, dependency-free PRNG.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// The exact stored bits of an array.
fn bits(a: &NDArray) -> Vec<u64> {
    if matches!(a.dtype(), DataType::F16 | DataType::F32) {
        a.to_f64_vec().iter().map(|v| v.to_bits()).collect()
    } else {
        a.to_i64_vec().iter().map(|v| *v as u64).collect()
    }
}

fn rand_floats(rng: &mut XorShift, shape: &[usize], dtype: DataType) -> NDArray {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| (rng.next() % 64) as f64 * 0.25 - 8.0)
        .collect();
    NDArray::from_f64(shape, dtype, data).unwrap()
}

fn rand_ints(rng: &mut XorShift, shape: &[usize], dtype: DataType) -> NDArray {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| (rng.next() % 21) as i64 - 10).collect();
    NDArray::from_i64(shape, dtype, data).unwrap()
}

/// Runs the scheduled function four ways against the unscheduled
/// reference: interpreter, scheduled plan serial, scheduled plan forced
/// through the worker pool, and the unscheduled plan — all bitwise on the
/// output (the last argument).
fn assert_schedule_matches(f: &PrimFunc, sched: &PrimFunc, args: &[NDArray]) {
    let shapes: Vec<Vec<usize>> = args.iter().map(|a| a.shape().to_vec()).collect();
    let plain = plan::compile(f, &shapes).expect("unscheduled plan");
    let scheduled = plan::compile(sched, &shapes).expect("scheduled plan");

    let reference: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let unsched: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let serial: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();
    let pooled: Vec<NDArray> = args.iter().map(|a| a.deep_copy()).collect();

    interp::run(f, &reference).unwrap();
    plain.run(&unsched, 1).unwrap();
    scheduled.run(&serial, 1).unwrap();
    // Cutoff 0 forces the pool even for tiny shapes.
    scheduled.run_with_cutoff(&pooled, 3, 0).unwrap();

    let out = args.len() - 1;
    let want = bits(&reference[out]);
    assert_eq!(want, bits(&unsched[out]), "unscheduled plan vs interp");
    assert_eq!(want, bits(&serial[out]), "scheduled serial vs interp");
    assert_eq!(want, bits(&pooled[out]), "scheduled pooled vs interp");
}

/// `Op::Attention` legalized for `q: [b, hq, s, d]` over a kv cache of
/// `[b, hkv, skv, d]`, with the model's `1/sqrt(d)` scale.
fn attention(
    b: usize,
    hq: usize,
    hkv: usize,
    s: usize,
    skv: usize,
    d: usize,
    causal: bool,
) -> PrimFunc {
    let sinfo = |h: usize, n: usize| {
        StructInfo::tensor(
            [b, h, n, d].iter().map(|&x| (x as i64).into()).collect(),
            DataType::F32,
        )
    };
    let mut attrs = OpAttrs::new();
    attrs.insert("scale".into(), format!("{}", 1.0 / (d as f64).sqrt()));
    attrs.insert("causal".into(), causal.to_string());
    legalize(
        Op::Attention,
        &attrs,
        &[sinfo(hq, s), sinfo(hkv, skv), sinfo(hkv, skv)],
        "attention",
    )
    .expect("attention legalizes")
}

/// Random floats with roughly one element in 48 replaced by an IEEE
/// special or a mask-sized value: ±inf, two NaN payloads, or -1e9.
fn floats_with_specials(rng: &mut XorShift, shape: &[usize]) -> NDArray {
    const SPECIALS: [f64; 5] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, -1e9];
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.next().is_multiple_of(48) {
                SPECIALS[rng.range(0, SPECIALS.len() - 1)]
            } else {
                (rng.next() % 64) as f64 * 0.25 - 8.0
            }
        })
        .collect();
    NDArray::from_f64(shape, DataType::F32, data).unwrap()
}

#[test]
fn attention_macros_match_bitwise_across_gqa_groups_and_masks() {
    let mut rng = XorShift::new(0x5eed_a77e);
    for (group, hkv) in [(1usize, 2usize), (2, 2), (4, 1)] {
        for causal in [false, true] {
            for s in [1usize, 3] {
                for skv in [1usize, 5, 64] {
                    let hq = group * hkv;
                    let b = rng.range(1, 2);
                    // 65 crosses the macro's register-block width, so the
                    // softmax prologue is re-evaluated for a second block.
                    let d = [4, 65][rng.range(0, 1)];
                    let f = attention(b, hq, hkv, s, skv, d, causal);
                    let sched = relax_tir::schedule::auto_schedule(&f)
                        .expect("attention should auto-schedule");
                    let (q, kv) = (vec![b, hq, s, d], vec![b, hkv, skv, d]);
                    let shapes = [q.clone(), kv.clone(), kv, q];
                    let plan = plan::compile(&sched, &shapes).expect("attention plan");
                    assert_eq!(plan.macro_ops(), 2, "QK and PV macroize (group {group})");
                    let args = [
                        floats_with_specials(&mut rng, &shapes[0]),
                        floats_with_specials(&mut rng, &shapes[1]),
                        floats_with_specials(&mut rng, &shapes[2]),
                        NDArray::zeros(&shapes[3], DataType::F32),
                    ];
                    assert_schedule_matches(&f, &sched, &args);
                }
            }
        }
    }
}

#[test]
fn attention_with_output_aliasing_v_runs_the_scalar_body() {
    // O bound to V's array (hq == hkv, s == skv): the macros' slot
    // distinctness proof does not hold for this launch, so the plan must
    // fall back to its scalar body and match the interpreter exactly.
    let mut rng = XorShift::new(0x5eed_a11a);
    let (b, h, s, d) = (1, 2, 3, 4);
    let f = attention(b, h, h, s, s, d, true);
    let sched = relax_tir::schedule::auto_schedule(&f).unwrap();
    let shape = [b, h, s, d];
    let plan = plan::compile(&sched, &vec![shape.to_vec(); 4]).unwrap();
    assert_eq!(plan.macro_ops(), 2);
    let q = rand_floats(&mut rng, &shape, DataType::F32);
    let k = rand_floats(&mut rng, &shape, DataType::F32);
    let v = rand_floats(&mut rng, &shape, DataType::F32);
    let run = |go: &dyn Fn(&[NDArray])| {
        let v = v.deep_copy();
        go(&[q.clone(), k.clone(), v.clone(), v.clone()]);
        bits(&v)
    };
    let want = run(&|a| interp::run(&f, a).unwrap());
    assert_eq!(want, run(&|a| plan.run(a, 1).unwrap()), "serial");
    let pooled = run(&|a| plan.run_with_cutoff(a, 3, 0).unwrap());
    assert_eq!(want, pooled, "pooled");
}

#[test]
fn attention_on_integer_arrays_uses_the_scalar_fallback() {
    // I64 arrays bound to the F32-declared kernel: neither macro may take
    // its float fast path, and the fallback nests agree bit for bit.
    let mut rng = XorShift::new(0x5eed_a1e4);
    let (b, hq, hkv, s, skv, d) = (2, 4, 2, 3, 5, 4);
    let f = attention(b, hq, hkv, s, skv, d, true);
    let sched = relax_tir::schedule::auto_schedule(&f).unwrap();
    let args = [
        rand_ints(&mut rng, &[b, hq, s, d], DataType::I64),
        rand_ints(&mut rng, &[b, hkv, skv, d], DataType::I64),
        rand_ints(&mut rng, &[b, hkv, skv, d], DataType::I64),
        NDArray::zeros(&[b, hq, s, d], DataType::I64),
    ];
    assert_schedule_matches(&f, &sched, &args);
}

#[test]
fn tiny_llama_decode_attention_plan_runs_both_reductions_as_macros() {
    // Guards the pipeline end to end: a legalize change that made K/V
    // non-affine again, or a prologue the recognizer stopped accepting,
    // would silently drop attention back onto the scalar tape.
    let cfg = relax_models::llama::LlamaConfig::tiny();
    let ir = relax_models::llama::build_decode(&cfg).unwrap();
    let exec = relax_passes::compile(ir.module, &relax_passes::CompileOptions::default()).unwrap();
    let (hq, hkv, d) = (
        cfg.n_heads as usize,
        cfg.n_kv_heads as usize,
        cfg.head_dim as usize,
    );
    assert!(hq > hkv, "tiny-llama exercises grouped-query attention");
    let attn: Vec<_> = exec
        .tir_funcs
        .iter()
        .filter(|(name, _)| name.contains("attention"))
        .collect();
    assert_eq!(attn.len(), cfg.n_layers);
    for (name, f) in attn {
        for skv in [1, 17] {
            let (q, kv) = (vec![1, hq, 1, d], vec![1, hkv, skv, d]);
            let shapes = [q.clone(), kv.clone(), kv, q];
            let plan = plan::compile(f, &shapes).expect("decode attention plans");
            assert!(plan.scheduled(), "{name} is scheduled");
            assert_eq!(plan.macro_ops(), 2, "{name}: QK and PV are macro-ops");
        }
    }
}
