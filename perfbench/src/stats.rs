//! Sample statistics: nearest-rank percentiles, quartile summaries and
//! the latency-limit share.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample such that at least `p` percent of the samples are at
/// or below it (`p` in `(0, 100]`).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n` is exact for whole percentiles; the epsilon keeps a
    // product such as 95 * 200 / 100 from rounding up past 190.
    let r = ((p * n as f64) / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Count, quartiles and p95 of a sample, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            q1: nearest_rank(&s, 25.0),
            median: nearest_rank(&s, 50.0),
            q3: nearest_rank(&s, 75.0),
            p95: nearest_rank(&s, 95.0),
        })
    }
}

/// Share of units that finished within `limit_ms`. A unit that failed or
/// was refused (`None`) counts as a miss.
pub fn slo_frac(latencies_ms: &[Option<f64>], limit_ms: f64) -> f64 {
    if latencies_ms.is_empty() {
        return 0.0;
    }
    let met = latencies_ms
        .iter()
        .filter(|l| l.is_some_and(|ms| ms <= limit_ms))
        .count();
    met as f64 / latencies_ms.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 95.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn whole_percentiles_do_not_round_past_their_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 95.0), 190.0);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(0, 95.0), 0);
    }

    #[test]
    fn summary_reports_quartiles_by_nearest_rank() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3, s.p95), (4, 1.0, 2.0, 3.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn slo_frac_counts_failures_as_misses() {
        let lat = [Some(1.0), Some(5.0), None, Some(2.0)];
        assert_eq!(slo_frac(&lat, 2.0), 0.5);
        assert_eq!(slo_frac(&[None, None], 100.0), 0.0);
        assert_eq!(slo_frac(&[Some(3.0)], 3.0), 1.0);
    }
}
