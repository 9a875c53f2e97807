//! Order statistics the harness reports: medians with quartiles, and
//! latency percentiles computed from the harness's own samples (never from
//! `LatencyHistogram`, whose power-of-two buckets quantise every answer).

/// Median, quartiles and sample count of one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A quantity measured once (no spread to report).
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// Summarise `xs`. Panics on an empty slice: every caller times at
    /// least one pass.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of no samples");
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let (q1, median, q3) = quartiles_sorted(&v);
        Summary {
            median,
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `xs` (mean of the two middle elements when even).
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

/// `(q1, median, q3)` of an ascending slice, by the exclusive method of
/// Python's `statistics.quantiles(data, n=4)` — the one the benchmark
/// driver applies to our outputs, so spreads agree with its arithmetic.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles the picker chooses among, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// The highest candidate percentile that still has at least ten samples
/// beyond it; `None` when even p75 does not (fewer than 40 samples).
pub fn pick_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Latency digest: p50, p95, and the highest supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
    /// `(percentile, value)` of the highest tail with >= 10 samples beyond.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Latency {
    pub fn of(xs: &[f64]) -> Latency {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        Latency {
            p50: percentile_sorted(&v, 0.5),
            p95: percentile_sorted(&v, 0.95),
            tail: pick_tail(v.len()).map(|p| (p, percentile_sorted(&v, p))),
            n: v.len(),
        }
    }
}

/// Geometric mean of positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0]), Summary::single(7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((Summary::of(&xs).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(pick_tail(39), None);
        assert_eq!(pick_tail(40), Some(0.75));
        assert_eq!(pick_tail(100), Some(0.90));
        assert_eq!(pick_tail(199), Some(0.90));
        assert_eq!(pick_tail(200), Some(0.95));
        assert_eq!(pick_tail(240), Some(0.95));
        assert_eq!(pick_tail(1000), Some(0.99));
        assert_eq!(pick_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentiles_are_nearest_rank_on_raw_samples() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        let l = Latency::of(&xs);
        assert_eq!(l.p50, 0.1);
        assert_eq!(l.p95, 0.19);
        assert_eq!(l.tail, Some((0.95, 0.19)));
        // No power-of-two bucketing: an odd value comes back as itself.
        assert_eq!(Latency::of(&[0.3, 0.3, 0.3]).p50, 0.3);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
