//! The per-layer metrics of the traced run. Every workload reports every
//! metric; a layer a workload does not use reads zero.

use std::collections::BTreeMap;

use relax_trace::LockWaitStat;

use crate::report::Metric;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("passes.compile_ms", "ms"),
    ("passes.fuse_ops_ms", "ms"),
    ("passes.fuse_tensor_ir_ms", "ms"),
    ("passes.legalize_ms", "ms"),
    ("passes.memory_plan_ms", "ms"),
    ("tir.kernel_ms", "ms"),
    ("tir.attention_ms", "ms"),
    ("tir.plan_compile_ms", "ms"),
    ("tir.plan_compiles", "count"),
    ("lib.matmul_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.other_ms", "ms"),
    ("vm.plan_hits", "count"),
    ("vm.plan_misses", "count"),
    ("vm.plan_hit_ratio", "frac"),
    ("vm.plan_evictions", "count"),
    ("vm.launches_per_step", "count"),
    ("kv.lifetime_peak_pages", "count"),
    ("kv.lifetime_page_util", "frac"),
    ("serve.iterations", "count"),
    ("serve.iter_p50_ms", "ms"),
    ("serve.steps_per_iter", "count"),
    ("serve.rollbacks", "count"),
    ("serve.evicted", "count"),
    ("serve.shed", "count"),
    ("engine.batches", "count"),
    ("engine.batched_extra", "count"),
    ("engine.retries", "count"),
    ("engine.p50_ms", "ms"),
    ("engine.plan_hit_ratio", "frac"),
    ("lock.waits", "count"),
    ("lock.wait_ms", "ms"),
    ("spec.acceptance", "frac"),
    ("spec.verify_hit_ratio", "frac"),
    ("spec.tok_s", "tok/s"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer values measured by one segment.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, zero where this workload has no such layer.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, self.get(name)))
            .collect()
    }

    /// Lock contention since `before` (a [`relax_trace::lock_wait_stats`]
    /// snapshot), summed over every instrumented site.
    pub fn set_lock_waits(&mut self, before: &[LockWaitStat]) {
        let total = |stats: &[LockWaitStat]| {
            stats
                .iter()
                .fold((0u64, 0u64), |(w, ns), s| (w + s.waits, ns + s.total_wait_ns))
        };
        let (w0, ns0) = total(before);
        let (w1, ns1) = total(&relax_trace::lock_wait_stats());
        self.set("lock.waits", w1.saturating_sub(w0) as f64);
        self.set("lock.wait_ms", ns1.saturating_sub(ns0) as f64 / 1e6);
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::END_TO_END;
    use relax_trace::{parse_json, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_declaration() {
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
    }

    #[test]
    fn every_workload_reports_every_layer_metric() {
        let mut l = Layers::default();
        l.set("vm.run_ms", 1.5);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m.iter().find(|m| m.name == "vm.run_ms").unwrap().value, 1.5);
        assert!(m.iter().filter(|m| m.name != "vm.run_ms").all(|m| m.value == 0.0));
    }
}
