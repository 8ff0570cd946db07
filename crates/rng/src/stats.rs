//! Statistical helpers: a running mean/variance accumulator, and the
//! Wilson score interval behind E3's coin check and the MC-vs-DP
//! crosscheck.

/// Running mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use ants_rng::stats::Accumulator;
/// let mut acc = Accumulator::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { acc.push(x); }
/// assert_eq!(acc.mean(), 2.5);
/// assert!((acc.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation confidence half-width at `z` standard errors.
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_error()
    }

    /// Merge another accumulator (parallel Welford/Chan update).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Wilson score interval for a binomial proportion.
///
/// Returns `(low, high)` at `z` standard deviations (z = 5 ⇒ failure
/// probability < 6e-7 per test). Preferred over the normal interval for
/// small proportions like `1/2^{kℓ}`.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(trials > 0, "wilson_interval requires at least one trial");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let mut acc = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.push(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Accumulator::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &data[..40] {
            left.push(x);
        }
        for &x in &data[40..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_with_empty() {
        let mut a = Accumulator::new();
        a.push(1.0);
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a, before);
        let mut e = Accumulator::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn wilson_contains_true_p() {
        // 500 successes in 1000 trials: interval must contain 0.5.
        let (lo, hi) = wilson_interval(500, 1000, 5.0);
        assert!(lo < 0.5 && 0.5 < hi);
        // Fewer trials, wider interval, same bracket.
        let (lo_small, hi_small) = wilson_interval(5, 10, 5.0);
        assert!(lo_small < 0.5 && 0.5 < hi_small);
        assert!(hi - lo < hi_small - lo_small);
        // Extreme: zero successes still yields a valid interval.
        let (lo, hi) = wilson_interval(0, 1000, 5.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        // All successes: clamped at one from above only.
        let (lo, hi) = wilson_interval(1000, 1000, 5.0);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.95 && lo < 1.0);
    }
}
