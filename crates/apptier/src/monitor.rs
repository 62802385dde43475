//! Response-time statistics — the application-level monitor of Fig. 1.
//!
//! The paper controls the **90-percentile response time** of each
//! application as its example SLA metric, noting the solution extends to
//! other SLAs (§III). [`ResponseStats`] therefore exposes arbitrary
//! percentiles alongside mean/max, and [`SlaMetric`] selects which one a
//! controller tracks.

/// Which response-time statistic a controller treats as the SLA metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlaMetric {
    /// A percentile in `(0, 100]` — the paper uses 90.
    Percentile(f64),
    /// Mean response time.
    Mean,
    /// Maximum response time.
    Max,
}

impl SlaMetric {
    /// The paper's default: the 90th percentile.
    pub const P90: SlaMetric = SlaMetric::Percentile(90.0);

    /// Measure this metric over one period's response-time samples;
    /// `None` when no finite sample remains (non-finite samples are
    /// dropped, as [`ResponseStats::from_samples`] drops them).
    ///
    /// This is the one way a controller reads its SLA metric. A percentile
    /// selects its nearest-rank element in `O(n)` instead of sorting the
    /// batch; it is bit for bit [`ResponseStats::percentile`] on the same
    /// samples, because both take the index from the same rank rule and
    /// order by `f64::total_cmp`. `Mean` and `Max` go through
    /// [`ResponseStats`], so the mean sums the same sorted sequence.
    pub fn measure(&self, mut samples: Vec<f64>) -> Option<f64> {
        let stats = |samples: Vec<f64>| {
            Some(ResponseStats::from_samples(samples)).filter(|s| !s.is_empty())
        };
        match *self {
            SlaMetric::Percentile(p) => {
                samples.retain(|v| v.is_finite());
                if samples.is_empty() {
                    return None;
                }
                let k = nearest_rank_index(p, samples.len());
                Some(*samples.select_nth_unstable_by(k, f64::total_cmp).1)
            }
            SlaMetric::Mean => stats(samples).map(|s| s.mean()),
            SlaMetric::Max => stats(samples).map(|s| s.max()),
        }
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile in `n ≥ 1`
/// ascending samples: the smallest sample such that at least `p`% of the
/// samples are ≤ it. `p` is clamped to `[0, 100]`, and `p = 0` is the
/// minimum.
pub(crate) fn nearest_rank_index(p: f64, n: usize) -> usize {
    let p = p.clamp(0.0, 100.0);
    if p == 0.0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Summary statistics over a batch of response-time samples.
///
/// Construction sorts the samples once; every query is then `O(1)`.
#[derive(Debug, Clone, Default)]
pub struct ResponseStats {
    sorted: Vec<f64>,
    sum: f64,
}

impl ResponseStats {
    /// Build from a batch of samples (ordering irrelevant; non-finite
    /// samples are dropped defensively). The sort is by `f64::total_cmp`,
    /// the order [`SlaMetric::measure`] selects in; samples it calls equal
    /// are bit-identical, so an unstable sort yields the same sequence.
    pub fn from_samples(mut samples: Vec<f64>) -> ResponseStats {
        samples.retain(|v| v.is_finite());
        samples.sort_unstable_by(f64::total_cmp);
        let sum = samples.iter().sum();
        ResponseStats {
            sorted: samples,
            sum,
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sorted.iter().map(|v| (v - m).powi(2)).sum::<f64>() / n as f64).sqrt()
    }

    /// Minimum (0 if empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum (0 if empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Percentile `p ∈ (0, 100]` by the nearest-rank method (0 if empty).
    ///
    /// Nearest rank is what `ab`-style tools report: the smallest sample
    /// such that at least `p`% of samples are ≤ it.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[nearest_rank_index(p, self.sorted.len())]
    }

    /// The paper's SLA metric: the 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ResponseStats::from_samples(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p90(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(SlaMetric::P90.measure(vec![]), None);
        assert_eq!(SlaMetric::Mean.measure(vec![f64::NAN]), None);
        assert_eq!(SlaMetric::Max.measure(vec![f64::INFINITY]), None);
    }

    #[test]
    fn basic_moments() {
        let s = ResponseStats::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.sorted.len(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=10: p90 = ceil(0.9*10) = 9th value = 9.
        let s = ResponseStats::from_samples((1..=10).map(|i| i as f64).collect());
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(10.0), 1.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        // Out-of-range p is clamped.
        assert_eq!(s.percentile(150.0), 10.0);
        assert_eq!(s.percentile(-5.0), 1.0);
    }

    #[test]
    fn percentile_single_sample() {
        let s = ResponseStats::from_samples(vec![3.3]);
        assert_eq!(s.percentile(90.0), 3.3);
        assert_eq!(s.percentile(1.0), 3.3);
    }

    #[test]
    fn unsorted_input_and_nonfinite_dropped() {
        let s = ResponseStats::from_samples(vec![5.0, f64::NAN, 1.0, f64::INFINITY, 3.0]);
        assert_eq!(s.sorted.len(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn sla_metric_selection() {
        // Reversed input: the metric must not depend on sample order.
        let v: Vec<f64> = (1..=10).rev().map(|i| i as f64).collect();
        assert_eq!(SlaMetric::P90.measure(v.clone()), Some(9.0));
        assert_eq!(SlaMetric::Mean.measure(v.clone()), Some(5.5));
        assert_eq!(SlaMetric::Max.measure(v.clone()), Some(10.0));
        assert_eq!(SlaMetric::Percentile(50.0).measure(v.clone()), Some(5.0));
        assert_eq!(SlaMetric::Percentile(0.0).measure(v.clone()), Some(1.0));
        assert_eq!(SlaMetric::Percentile(150.0).measure(v), Some(10.0));
    }

    #[test]
    fn p90_dominates_mean_for_skewed_data() {
        let mut v = vec![0.1; 95];
        v.extend(vec![2.0; 5]);
        let s = ResponseStats::from_samples(v);
        assert!(s.p90() < 2.0);
        assert!(s.p90() >= s.percentile(50.0));
        assert!(s.max() == 2.0);
    }
}
