//! Order statistics and the SLO-ladder verdict.
//!
//! Every timing the benchmark reports goes through these helpers, so
//! their rules are pinned by the tests at the bottom of this file.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the
/// nearest-rank `p`th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= 1 && n.saturating_sub(rank.max(1)) >= MIN_BEYOND
}

/// The tail percentile to report for `n` samples: `wanted` when the
/// sample supports it, else the highest of 99, 95, 90, 75 and 50 that
/// it does; `None` when not even the median has ten samples beyond it.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    [wanted, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| supports(n, p))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so the benchmark's own spread
/// check matches the one its runs are judged by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// A backlog is growing when requests scheduled in the last quarter of
/// a probe wait clearly longer than those in the first: more than twice
/// as long, and by more than a quarter of the SLO (so microsecond
/// jitter at light load never counts).
pub fn backlog_growing(first_quarter_median: f64, last_quarter_median: f64, slo: f64) -> bool {
    last_quarter_median > 2.0 * first_quarter_median
        && last_quarter_median - first_quarter_median > slo / 4.0
}

/// What one ladder rung measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    /// p99 latency with every failed or shed request counted as a miss
    /// (infinite latency); `None` when the sample is too small.
    pub p99: Option<f64>,
    /// See [`backlog_growing`].
    pub growing: bool,
    /// p99 within the SLO and no growing backlog.
    pub pass: bool,
}

/// Judges one rung. `latencies` are in schedule order, one per
/// attempted request, with `f64::INFINITY` for a miss.
pub fn judge_rung(latencies: &[f64], slo: f64) -> RungVerdict {
    let n = latencies.len();
    if !supports(n, 99.0) {
        return RungVerdict {
            p99: None,
            growing: false,
            pass: false,
        };
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99 = percentile(&sorted, 99.0);
    let quarter = n / 4;
    let growing = backlog_growing(
        median(&latencies[..quarter]),
        median(&latencies[n - quarter..]),
        slo,
    );
    RungVerdict {
        p99: Some(p99),
        growing,
        pass: p99 <= slo && !growing,
    }
}

/// Geometric rate ladder from `low` to at least `high`, each rung
/// `step` times the one below.
pub fn ladder(low: f64, high: f64, step: f64) -> Vec<f64> {
    let mut rungs = vec![low];
    while *rungs.last().expect("ladder starts non-empty") < high {
        let next = rungs.last().expect("ladder starts non-empty") * step;
        rungs.push(next.round());
    }
    rungs
}

/// Highest rung index whose probe passes, assuming passing is monotone
/// (a rate that meets the SLO implies every lower rate does): a binary
/// search, so a ladder of `n` rungs costs about `log2(n)` probes.
pub fn search_ladder(rungs: usize, mut probe: impl FnMut(usize) -> bool) -> Option<usize> {
    // Invariant: every rung below `lo` passed, `hi` and above failed.
    let (mut lo, mut hi) = (0usize, rungs);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rung_passes_only_within_slo_and_without_backlog() {
        let steady = vec![1.0; 2000];
        assert!(judge_rung(&steady, 5.0).pass);
        // Too few samples to support a p99: never a pass.
        assert!(!judge_rung(&steady[..500], 5.0).pass);
        // 2% misses blow the p99.
        let mut missing = steady.clone();
        for i in (0..2000).step_by(50) {
            missing[i] = f64::INFINITY;
        }
        let v = judge_rung(&missing, 5.0);
        assert!(!v.pass);
        assert_eq!(v.p99, Some(f64::INFINITY));
        // Latency ramping up across the probe is a growing backlog even
        // while the p99 still meets the SLO.
        let ramp: Vec<f64> = (0..2000)
            .map(|i| 0.5 + 4.0 * f64::from(i) / 2000.0)
            .collect();
        let v = judge_rung(&ramp, 5.0);
        assert!(v.growing);
        assert!(v.p99.unwrap() <= 5.0);
        assert!(!v.pass);
        // Jitter well under the SLO is not a backlog.
        assert!(!backlog_growing(0.1, 0.3, 5.0));
        assert!(backlog_growing(1.0, 3.0, 5.0));
    }

    #[test]
    fn ladder_is_geometric_and_covers_the_range() {
        let l = ladder(100.0, 200.0, 1.25);
        assert_eq!(l, vec![100.0, 125.0, 156.0, 195.0, 244.0]);
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        for rungs in 1..20 {
            for limit in 0..=rungs {
                // Rungs below `limit` pass.
                let mut probes = 0;
                let found = search_ladder(rungs, |i| {
                    probes += 1;
                    i < limit
                });
                assert_eq!(found, limit.checked_sub(1), "rungs={rungs} limit={limit}");
                assert!(probes <= 5, "binary search, not a sweep");
            }
        }
    }
}
