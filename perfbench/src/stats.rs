//! The benchmark's own arithmetic: medians, quartiles, the tail-percentile
//! rule and failure shares. Everything here is pure so it can be tested
//! without running a workload.

/// Percentiles tried for a `*_tail_ms` metric, highest first, in tenths
/// of a percent (p99, p97.5, p95, p90, p75).
///
/// p97.5 is there for mixes whose slowest op kind is a twentieth of the
/// ops: a nearest-rank p95 then falls on the boundary between that kind
/// and the next slowest, so it reads the extreme of one of two groups and
/// jumps between them from run to run, while p97.5 reads the middle of the
/// slowest group.
pub const TAIL_LADDER: [u32; 5] = [990, 975, 950, 900, 750];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the reading of one or two slow ops.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method),
/// so spreads printed here agree with the ones an outside script computes.
/// `None` for fewer than two values.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread a
/// metric's bound is compared against.
#[must_use]
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 1-based nearest-rank index of percentile `p` (in tenths of a percent)
/// among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    ((u64::from(p) * n as u64).div_ceil(1000) as usize).max(1)
}

/// Nearest-rank percentile `p` (in tenths of a percent, so 950 is p95) of
/// `xs`. `None` for an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    let s = sorted(xs);
    (!s.is_empty()).then(|| s[rank(p, s.len()) - 1])
}

/// Number of samples strictly past the nearest-rank percentile `p` (in
/// tenths of a percent).
#[must_use]
pub fn beyond(p: u32, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// A tail reading: the percentile used, its value, and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported, in tenths of a percent (500 when no ladder
    /// rung qualifies).
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The tail rule: the highest of p99/p97.5/p95/p90/p75 with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. When the run is too short for
/// any of them, the median is reported and labelled p50, so a reader sees
/// that the tail was not resolved rather than a one-sample maximum.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    for p in TAIL_LADDER {
        if beyond(p, n) >= TAIL_MIN_BEYOND {
            return Some(Tail {
                pct: p,
                value: percentile(xs, p)?,
                beyond: beyond(p, n),
            });
        }
    }
    Some(Tail {
        pct: 500,
        value: median(xs)?,
        beyond: n / 2,
    })
}

/// Label of a percentile given in tenths of a percent: `p95`, `p97.5`.
#[must_use]
pub fn pct_label(p: u32) -> String {
    if p.is_multiple_of(10) {
        format!("p{}", p / 10)
    } else {
        format!("p{}.{}", p / 10, p % 10)
    }
}

/// Failed ops as a percentage of attempted ops (0 when nothing ran).
#[must_use]
pub fn failed_pct(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        100.0 * failed as f64 / attempted as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&xs, 990), Some(99.0));
        assert_eq!(percentile(&xs, 975), Some(98.0));
        assert_eq!(percentile(&xs, 1000), Some(100.0));
        assert_eq!(beyond(990, 100), 1);
        assert_eq!(beyond(975, 100), 2);
        assert_eq!(beyond(900, 100), 10);
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
        assert_eq!(pct_label(950), "p95");
        assert_eq!(pct_label(975), "p97.5");
    }

    #[test]
    fn tail_rule_picks_highest_rung_with_ten_beyond() {
        let xs = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 1000 samples: p99 has 10 beyond.
        let t = tail(&xs(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (990, 990.0, 10));
        // 999 samples: p99 has 9 beyond, p97.5 has 24.
        assert_eq!(tail(&xs(999)).unwrap().pct, 975);
        // 400: p97.5 has exactly 10 beyond.
        let t = tail(&xs(400)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (975, 390.0, 10));
        // 399: p97.5 has 9 beyond, p95 has 19.
        assert_eq!(tail(&xs(399)).unwrap().pct, 950);
        // 200: p95 has exactly 10 beyond.
        assert_eq!(tail(&xs(200)).unwrap().pct, 950);
        // 100: p90 has exactly 10 beyond.
        assert_eq!(tail(&xs(100)).unwrap().pct, 900);
        // 40: p75 has exactly 10 beyond.
        let t = tail(&xs(40)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (750, 30.0, 10));
        // 39: nothing qualifies, the median is reported as p50.
        let t = tail(&xs(39)).unwrap();
        assert_eq!((t.pct, t.value), (500, 20.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_reads_inside_the_slowest_group_of_a_mix() {
        // 460 samples: 437 fast ops, then 23 (a twentieth) of one slow kind.
        // p95 falls on the boundary and reads the slowest fast op; p97.5
        // reads the middle of the slow group.
        let mut xs: Vec<f64> = (0..437).map(|i| 100.0 + f64::from(i) / 437.0).collect();
        xs.extend((0..23).map(|i| 140.0 + f64::from(i)));
        assert!(percentile(&xs, 950).unwrap() < 101.0);
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.beyond), (975, 11));
        assert_eq!(t.value, 151.0);
    }

    #[test]
    fn failed_share() {
        assert_eq!(failed_pct(0, 0), 0.0);
        assert_eq!(failed_pct(0, 37), 0.0);
        assert_eq!(failed_pct(1, 4), 25.0);
        assert_eq!(failed_pct(3, 3), 100.0);
    }
}
