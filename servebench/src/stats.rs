//! Percentiles, failure tallies and small summary helpers.

use std::time::Duration;

/// Percentiles a tail may be reported at, highest first, as `num / den`.
const TAIL_LADDER: [(usize, usize); 5] = [(999, 1000), (99, 100), (95, 100), (9, 10), (1, 2)];

/// Samples that must lie beyond a percentile before it may be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `num / den` in a sorted sample of `n`.
fn rank(n: usize, num: usize, den: usize) -> usize {
    ((num * n).div_ceil(den)).max(1) - 1
}

/// Value at quantile `num / den` (nearest rank) of an ascending sample.
fn at(sorted: &[f64], num: usize, den: usize) -> f64 {
    sorted[rank(sorted.len(), num, den)]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, as `(percent, value)`. `None` for fewer than 20 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .find(|&&(num, den)| n - 1 - rank(n, num, den) >= MIN_BEYOND)
        .map(|&(num, den)| (100.0 * num as f64 / den as f64, at(sorted, num, den)))
}

/// The p99 when the sample supports it, else the highest supported tail
/// percentile; `(percent, value)`.
pub fn p99_or_tail(sorted: &[f64]) -> (f64, f64) {
    match tail(sorted) {
        Some((p, _)) if p >= 99.0 => (99.0, at(sorted, 99, 100)),
        Some(t) => t,
        None => (100.0, sorted.last().copied().unwrap_or(0.0)),
    }
}

/// Median of an ascending sample (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        at(sorted, 1, 2)
    }
}

/// Lower quartile (nearest rank) of an unsorted sample (0 when empty).
pub fn lower_quartile(v: &[f64]) -> f64 {
    quantile(v, 1, 4)
}

/// Upper quartile (nearest rank) of an unsorted sample (0 when empty).
pub fn upper_quartile(v: &[f64]) -> f64 {
    quantile(v, 3, 4)
}

fn quantile(v: &[f64], num: usize, den: usize) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        at(&sorted(v.to_vec()), num, den)
    }
}

/// Sorts a sample in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 for an empty denominator.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Why one operation failed. Every variant counts in `failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Refused by admission control.
    Busy,
    /// Answered `ERR ...`, or an `OK` line without the expected fields.
    Err,
    /// The connection failed.
    Transport,
    /// Answered, but the count disagrees with the oracle.
    WrongCount,
    /// A continuous query's `EVENT DELTA` chain broke.
    BrokenChain,
}

/// Attempted and failed operations of one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations sent (or checks made).
    pub attempted: u64,
    /// Failures, in the order they were found.
    pub failures: Vec<Failure>,
}

impl Tally {
    /// Counts one operation; `Some` marks it failed.
    pub fn record(&mut self, failure: Option<Failure>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Marks an already-counted operation failed (a late oracle verdict).
    pub fn fail(&mut self, failure: Failure) {
        self.failures.push(failure);
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        frac(self.failed() as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond the p99 rank, so p99 is allowed.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: only 9 lie beyond p99, so the rule falls to p95.
        let (p, v) = tail(&ramp(999)).unwrap();
        assert_eq!(p, 95.0);
        assert_eq!(v, 950.0);
        // 10 000 samples support p99.9.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // Too few samples for any tail beyond the median.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn p99_falls_back_to_the_supported_tail() {
        assert_eq!(p99_or_tail(&ramp(5000)), (99.0, 4950.0));
        assert_eq!(p99_or_tail(&ramp(200)), (95.0, 190.0));
        assert_eq!(median(&ramp(5)), 3.0);
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(lower_quartile(&v), 2.0);
        assert_eq!(upper_quartile(&v), 6.0);
        assert_eq!(lower_quartile(&[9.0]), 9.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn wrong_count_is_a_failure() {
        let mut t = Tally::default();
        t.record(None);
        t.record(None);
        t.record(Some(Failure::WrongCount));
        t.record(None);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed(), 1);
        assert_eq!(t.failed_frac(), 0.25);
    }
}
