//! Host speed reference. The speed of a shared host wanders by up to 2x
//! over seconds to minutes (neighbours on the same physical cores), and a
//! plain timing of the program follows it. So every timed
//! region interleaves a fixed calibration loop with the workload, in the
//! gaps between units of work, and the gated end-to-end times are scaled
//! to a reference host speed by the calibration times measured around
//! them:
//!
//! ```text
//! speed(t)        = REF_MS / median calibration time near t
//! reference time  = measured time × speed(t)
//! reference rate  = measured rate / speed(t)
//! ```
//!
//! A change to the program moves its own time and not the calibration's,
//! so it shows in full in the scaled figures; the raw figures are
//! reported beside them.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::load::ms;

/// Calibration time of the reference host speed the figures are scaled
/// to: a nominal 1 ms. On a 2-vCPU Xeon (Sapphire Rapids, KVM guest) the
/// loop takes 0.6-1.0 ms as the host's load changes.
pub const REF_MS: f64 = 1.0;

/// Calibration samples are taken at most this often inside a timed
/// region, so they cost about 2% of it.
const EVERY: Duration = Duration::from_millis(50);

/// Samples within this many seconds of a time set the speed at it.
const HALF_WINDOW_S: f64 = 0.5;

/// Fewest samples a speed is taken from; the nearest ones in time when
/// the window holds fewer.
const MIN_SAMPLES: usize = 10;

/// Rounds of [`calibrate`]: about 1 ms on the reference host.
const CALIBRATION_ROUNDS: usize = 16;

/// Calibration work shaped like the program's own: small allocations,
/// string keys in an ordered map, hashed lookups, indirect calls through
/// boxed closures and a sort, all over a working set of a few KiB. A
/// shared host slows this kind of branchy, pointer-heavy code far more
/// than straight-line arithmetic (on the reference host, within one
/// 60-s decode run, 1-s windows of decode ran 391-813 tok/s while a
/// register-only loop moved 11% and this loop 70%, correlation 0.92).
fn calibrate() -> u64 {
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut h = 0u64;
    for _ in 0..CALIBRATION_ROUNDS {
        let mut rows: BTreeMap<String, Vec<f32>> = BTreeMap::new();
        let mut ops: HashMap<u64, Box<dyn Fn(f32) -> f32>> = HashMap::new();
        for i in 0..60u64 {
            let k = next();
            let row = (0..k % 24).map(|j| j as f32 * 0.5).collect();
            rows.insert(format!("v{}", k % 97), row);
            let c = (k % 5) as f32;
            let op: Box<dyn Fn(f32) -> f32> = match k % 3 {
                0 => Box::new(move |v| v * c + 1.0),
                1 => Box::new(move |v| v.max(c)),
                _ => Box::new(move |v| (v - c).abs()),
            };
            ops.insert(i, op);
        }
        let mut keys: Vec<u64> = (0..300).map(|_| next() % 1000).collect();
        keys.sort_unstable();
        for (name, row) in &rows {
            let mut acc = 0.0f32;
            for (i, v) in row.iter().enumerate() {
                acc += ops[&((i + name.len()) as u64 % 60)](*v);
            }
            h = h.wrapping_mul(31).wrapping_add(u64::from(acc.to_bits()));
        }
        h ^= keys[keys.len() / 2];
    }
    h
}

/// Calibration samples over one timed region.
#[derive(Debug)]
pub struct Pace {
    start: Instant,
    last: Option<Instant>,
    /// `(seconds into the region, calibration ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

impl Pace {
    /// Starts the region's clock now.
    pub fn new() -> Pace {
        Pace {
            start: Instant::now(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Seconds since the region's clock started.
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times one calibration run.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(calibrate());
        let took = ms(t.elapsed());
        self.samples.push(((t - self.start).as_secs_f64(), took));
        self.last = Some(Instant::now());
    }

    /// Takes a sample if none was taken in the last [`EVERY`].
    pub fn tick(&mut self) {
        if self.last.map_or(true, |l| l.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Host speed relative to the reference at `t` seconds into the
    /// region: [`REF_MS`] over the median calibration time of the samples
    /// within half a second of `t`, or of the [`MIN_SAMPLES`] nearest.
    pub fn speed_at(&self, t: f64) -> f64 {
        let mut near: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(at, cal)| ((at - t).abs(), cal))
            .collect();
        let within = near.iter().filter(|n| n.0 <= HALF_WINDOW_S).count();
        if within < MIN_SAMPLES {
            near.sort_by(|a, b| a.0.total_cmp(&b.0));
            near.truncate(MIN_SAMPLES);
        } else {
            near.retain(|n| n.0 <= HALF_WINDOW_S);
        }
        speed_of(near.into_iter().map(|n| n.1).collect())
    }

    /// Host speed over the whole region: [`REF_MS`] over the median
    /// calibration time of every sample.
    pub fn speed(&self) -> f64 {
        speed_of(self.samples.iter().map(|s| s.1).collect())
    }
}

/// [`REF_MS`] over the median of calibration times `cal`.
fn speed_of(mut cal: Vec<f64>) -> f64 {
    assert!(!cal.is_empty(), "no calibration samples");
    cal.sort_by(f64::total_cmp);
    REF_MS / cal[(cal.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(samples: &[(f64, f64)]) -> Pace {
        Pace {
            samples: samples.to_vec(),
            ..Pace::new()
        }
    }

    #[test]
    fn speed_is_the_reference_over_the_local_median() {
        // A slow second (2 ms per calibration) then a fast one (0.5 ms).
        let mut s: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 0.1, 2.0)).collect();
        s.extend((10..20).map(|i| (i as f64 * 0.1, 0.5)));
        let p = with(&s);
        assert_eq!(p.speed_at(0.2), REF_MS / 2.0);
        assert_eq!(p.speed_at(1.8), REF_MS / 0.5);
    }

    #[test]
    fn a_sparse_region_uses_the_nearest_samples() {
        let mut s: Vec<(f64, f64)> = (0..5).map(|i| (i as f64 * 0.01, 1.0)).collect();
        s.extend((0..6).map(|i| (2.0 + i as f64 * 0.01, 4.0)));
        s.extend((0..6).map(|i| (5.0 + i as f64 * 0.01, 2.0)));
        let p = with(&s);
        // No sample lies within half a second of 3.5 s; the ten nearest
        // are the six at 2 s (4 ms) and four at 5 s (2 ms).
        assert_eq!(p.speed_at(3.5), REF_MS / 4.0);
        // Near 4.5 s: the six at 5 s and four at 2 s.
        assert_eq!(p.speed_at(4.5), REF_MS / 2.0);
    }

    #[test]
    fn calibration_runs_and_is_timed() {
        let mut p = Pace::new();
        p.sample();
        p.tick(); // too soon for another
        assert_eq!(p.samples.len(), 1);
        assert!(p.samples[0].1 > 0.0);
        assert_eq!(p.speed_at(0.0), p.speed());
    }
}
