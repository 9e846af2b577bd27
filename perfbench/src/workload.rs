//! The measurement protocol shared by every workload: repeated timed
//! set-up, an untimed warm-up, then one untraced segment (`--trace 0`),
//! or an untraced and a traced half (`--trace 1`) whose difference is the
//! tracing overhead, then the rest of the timed set-ups. The gated times
//! are scaled to the reference host speed of [`crate::pace`].

use std::time::Instant;

use crate::layers::{ratio, Layers};
use crate::load::ms;
use crate::models::PassTimes;
use crate::pace::Pace;
use crate::report::Metric;
use crate::stats::{self, Summary};

/// `(name, unit)` of the end-to-end metrics, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tok_s", "tok/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("slo_frac", "frac"),
];

/// What one measured segment of a workload observed.
#[derive(Debug, Default)]
pub struct Segment {
    /// Length of the timed region, seconds.
    pub elapsed_s: f64,
    /// Throughput samples `(seconds into the region at the middle of
    /// the stretch, tokens per second)`, taken over consecutive stretches
    /// of the timed region; `tok_s` is the median of their scaled rates.
    pub rates: Vec<(f64, f64)>,
    /// Per unit of work: latency in ms, `None` when it failed or was
    /// refused.
    pub latency_ms: Vec<Option<f64>>,
    /// Per unit of work: when it resolved, seconds into the region, or
    /// `None` to scale it by the host speed over the whole region.
    pub at_s: Vec<Option<f64>>,
    /// Calibration samples taken through the region, on its clock.
    pub pace: Pace,
    /// Operations attempted and failed; oracle mismatches count as
    /// failures.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches alone.
    pub mismatches: u64,
    /// Committed tokens per second of a speculative pass, if any.
    pub spec_tok_s: Option<f64>,
    pub layers: Layers,
    /// Extra report text (the decode attribution table).
    pub report: Option<String>,
}

impl Segment {
    fn latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().flatten().copied().collect()
    }

    /// Latencies scaled to the reference host speed.
    fn scaled_latencies(&self) -> Vec<f64> {
        self.latency_ms
            .iter()
            .zip(&self.at_s)
            .filter_map(|(l, at)| {
                let speed = at.map_or_else(|| self.pace.speed(), |t| self.pace.speed_at(t));
                Some(l.as_ref()? * speed)
            })
            .collect()
    }

    /// Rates scaled to the reference host speed.
    fn scaled_rates(&self) -> Vec<f64> {
        self.rates
            .iter()
            .map(|&(at, r)| r / self.pace.speed_at(at))
            .collect()
    }

    /// The per-unit cost compared between traced and untraced halves.
    fn cost(&self) -> f64 {
        Summary::of(&self.scaled_latencies()).map_or(0.0, |s| s.median)
    }
}

/// Length of the windows `tok_s` takes its median over.
const WINDOW_S: f64 = 1.0;

/// Tokens per second in each whole one-second window of a timed region
/// of `elapsed_s`, from completion events `(seconds into the region,
/// tokens)`, each with the middle of its window. Their median moves less
/// under a brief stall of a shared host than the overall mean does. A
/// region shorter than three windows gives its overall rate alone.
pub fn window_rates(done: &[(f64, u64)], elapsed_s: f64) -> Vec<(f64, f64)> {
    let windows = (elapsed_s / WINDOW_S).floor() as usize;
    if windows < 3 {
        let total: u64 = done.iter().map(|d| d.1).sum();
        return vec![(elapsed_s / 2.0, ratio(total as f64, elapsed_s))];
    }
    let mut per = vec![0u64; windows];
    for &(t, n) in done {
        if let Some(w) = per.get_mut((t / WINDOW_S) as usize) {
            *w += n;
        }
    }
    per.iter()
        .enumerate()
        .map(|(w, &n)| ((w as f64 + 0.5) * WINDOW_S, n as f64 / WINDOW_S))
        .collect()
}

/// Set-ups timed together as one `setup_s` sample. A sample is their
/// mean, which smooths the bimodal cost of spawning threads; `setup_s`
/// is the median of the samples.
const SETUP_GROUP: usize = 4;

/// Calibration samples taken before each group of set-ups.
const SETUP_PACE: usize = 3;

/// Times `reps` samples of [`SETUP_GROUP`] set-ups each into `setup_s`
/// as `(seconds on the clock of pace, seconds per set-up)`, charging
/// compile passes to `passes`; returns the last instance built.
fn time_setups<W: Workload>(
    reps: usize,
    seed: u64,
    weights: &W::Weights,
    pace: &mut Pace,
    setup_s: &mut Vec<(f64, f64)>,
    passes: &mut Vec<PassTimes>,
) -> W {
    let mut group: Vec<W> = Vec::new();
    for _ in 0..reps {
        // Tear the previous group down outside the timed region.
        group.clear();
        for _ in 0..SETUP_PACE {
            pace.sample();
        }
        let at = pace.now_s();
        let t = Instant::now();
        for _ in 0..SETUP_GROUP {
            let mut p = PassTimes::default();
            group.push(W::setup(seed, weights, &mut p));
            passes.push(p);
        }
        setup_s.push((at, t.elapsed().as_secs_f64() / SETUP_GROUP as f64));
    }
    pace.sample();
    group.pop().expect("at least one set-up")
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Latency limit of one unit of work, for `slo_frac`.
    const LIMIT_MS: f64;
    /// `setup_s` samples per run, each of [`SETUP_GROUP`] set-ups. Half
    /// are taken before the warm-up and half after the last segment: the
    /// speed of a shared host changes over seconds, and two stretches of
    /// the run move the median less than one.
    const SETUP_REPS: usize;

    /// The fixed model weights. They stand in for weights a deployment
    /// loads, so they are made once per run, outside the set-up timing.
    type Weights;

    fn weights() -> Self::Weights;

    /// Builds the models, compiles every executable and builds the VMs
    /// or managers, charging compile passes to `passes`.
    fn setup(seed: u64, weights: &Self::Weights, passes: &mut PassTimes) -> Self;

    /// Untimed warm-up before the first timed operation.
    fn warm(&mut self);

    /// One timed region of about `seconds`, followed by its oracle
    /// checks. `part` keeps the inputs of consecutive segments apart. The
    /// region takes calibration samples into [`Segment::pace`] between its
    /// units of work, outside their timing.
    fn segment(&mut self, part: u64, seconds: f64) -> Segment;
}

/// A finished workload run.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Why the run's figures cannot be trusted: oracle mismatches,
    /// failed operations, or a segment with no completed unit. Empty for
    /// a correct run.
    pub problems: Vec<String>,
    pub spec_tok_s: Option<f64>,
    /// The untraced segment's figures as measured, before scaling, and
    /// the host speed it ran at.
    pub raw: Vec<Metric>,
    pub report: Option<String>,
    pub trace_note: Option<String>,
}

fn median_ms(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    Summary::of(&v).map_or(0.0, |s| s.median)
}

/// Runs workload `W` under the protocol and collects its metrics.
pub fn measure<W: Workload>(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(W::SETUP_REPS);
    let mut passes = Vec::with_capacity(W::SETUP_REPS * SETUP_GROUP);
    let weights = W::weights();
    let before = W::SETUP_REPS / 2;
    let mut setup_pace = Pace::new();
    let mut w: W = time_setups(before, seed, &weights, &mut setup_pace, &mut setup_s, &mut passes);
    w.warm();

    let mut trace_note = None;
    let (base, traced) = if trace {
        let base = w.segment(0, seconds / 2.0);
        let capture = relax_trace::Capture::begin();
        let traced = w.segment(1, seconds / 2.0);
        let t = capture.finish();
        trace_note = Some(crate::write_trace(name, &t));
        (base, Some(traced))
    } else {
        (w.segment(0, seconds), None)
    };
    drop(w);
    drop(time_setups::<W>(
        W::SETUP_REPS - before,
        seed,
        &weights,
        &mut setup_pace,
        &mut setup_s,
        &mut passes,
    ));

    // End-to-end figures always come from the untraced segment, scaled
    // to the reference host speed.
    let lat = base.scaled_latencies();
    let lat_sum = Summary::of(&lat);
    let rate_sum = Summary::of(&base.scaled_rates());
    let scaled_setup: Vec<f64> = setup_s
        .iter()
        .map(|&(at, s)| s * setup_pace.speed_at(at))
        .collect();
    let setup_sum = Summary::of(&scaled_setup).expect("set-up samples");
    let values = [
        (setup_sum.median, Some(setup_sum)),
        (rate_sum.map_or(0.0, |s| s.median), rate_sum),
        (lat_sum.map_or(0.0, |s| s.median), lat_sum),
        (lat_sum.map_or(0.0, |s| s.p95), lat_sum),
        (stats::slo_frac(&base.latency_ms, W::LIMIT_MS), None),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, sample))| Metric::new(name, unit, v).sampled(sample))
        .collect();
    let raw = raw_figures(&base, &setup_s, &setup_pace);

    let mut attempted = base.attempted;
    let mut failed = base.failed;
    let mut mismatches = base.mismatches;
    let spec_tok_s = base.spec_tok_s;
    let mut report = base.report.clone();
    let mut layers = base.layers.clone();
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.failed;
        mismatches += t.mismatches;
        layers = t.layers.clone();
        layers.set("trace.overhead_frac", ratio(t.cost(), base.cost()) - 1.0);
        report = t.report.clone();
    }
    layers.set("passes.compile_ms", median_ms(passes.iter().map(|p| ms(p.compile))));
    layers.set("passes.fuse_ops_ms", median_ms(passes.iter().map(|p| ms(p.fuse_ops))));
    layers.set(
        "passes.fuse_tensor_ir_ms",
        median_ms(passes.iter().map(|p| ms(p.fuse_tensor_ir))),
    );
    layers.set("passes.legalize_ms", median_ms(passes.iter().map(|p| ms(p.legalize))));
    layers.set(
        "passes.memory_plan_ms",
        median_ms(passes.iter().map(|p| ms(p.memory_plan))),
    );
    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!("{mismatches} oracle mismatches"));
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    for (half, seg) in std::iter::once(&base).chain(&traced).enumerate() {
        if seg.latencies().is_empty() {
            problems.push(format!("segment {half} completed no unit of work"));
        }
    }
    if let (Some(r), Some(t)) = (report.as_mut(), &traced) {
        r.push_str(&format!(
            "tracing overhead: {:+.1}% on the median unit ({:.4} ms traced vs {:.4} ms untraced)\n",
            (ratio(t.cost(), base.cost()) - 1.0) * 100.0,
            t.cost(),
            base.cost()
        ));
    }
    Outcome {
        end_to_end,
        per_layer: layers.metrics(),
        attempted,
        failed,
        mismatches,
        problems,
        spec_tok_s,
        raw,
        report,
        trace_note,
    }
}

/// The untraced figures before scaling, and the host speed they were
/// measured at, for the table and the result file.
fn raw_figures(base: &Segment, setup_s: &[(f64, f64)], setup_pace: &Pace) -> Vec<Metric> {
    let median = |xs: &[f64]| Summary::of(xs).map_or(0.0, |s| s.median);
    let setups: Vec<f64> = setup_s.iter().map(|s| s.1).collect();
    let rates: Vec<f64> = base.rates.iter().map(|r| r.1).collect();
    let lat = Summary::of(&base.latencies());
    vec![
        Metric::new("raw.setup_s", "s", median(&setups)),
        Metric::new("raw.tok_s", "tok/s", median(&rates)),
        Metric::new("raw.p50_ms", "ms", lat.map_or(0.0, |s| s.median)),
        Metric::new("raw.p95_ms", "ms", lat.map_or(0.0, |s| s.p95)),
        Metric::new("host.speed_setup", "x", setup_pace.speed()),
        Metric::new("host.speed", "x", base.pace.speed()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rates_split_the_region_into_seconds() {
        // Four whole one-second windows of 10, 10, 2 and 10 tokens; the
        // last half second is not a whole window.
        let mut done = Vec::new();
        for (w, n) in [(0.0, 10), (1.0, 10), (2.0, 2), (3.0, 10)] {
            for k in 0..n {
                done.push((w + k as f64 / 20.0, 1));
            }
        }
        assert_eq!(
            window_rates(&done, 4.5),
            vec![(0.5, 10.0), (1.5, 10.0), (2.5, 2.0), (3.5, 10.0)]
        );
        // Too short for windows: the overall rate.
        assert_eq!(window_rates(&[(0.1, 3), (1.5, 3)], 2.0), vec![(1.0, 3.0)]);
    }
}
