//! Thread-safe metric registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Everything is built on `std::sync` primitives so the workspace stays
//! hermetic. Hot-path updates touch only atomics (a counter increment is
//! one `fetch_add`; a histogram record is one `fetch_add` plus a handful
//! of CAS loops for min/max/sum); the registry lock is taken only when a
//! metric name is first seen, and instrumented call sites cache the
//! returned `Arc` handles where they can.
//!
//! Metric names follow a `layer.event[_unit]` convention (see DESIGN.md):
//! `mpc.qp_solve_ns`, `optimizer.migrations`, `cosim.sample_ns`. Snapshots
//! iterate a `BTreeMap`, so exports list metrics in sorted, deterministic
//! order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Sub-buckets per power of two in a [`Histogram`]: relative bucket width
/// `2^(1/8) − 1 ≈ 9 %`, comparable quantile error.
const SUBS_PER_OCTAVE: usize = 8;
/// Histogram range: `2^LOG2_MIN ≤ v < 2^LOG2_MAX` lands in a real bucket;
/// values outside clamp into the first/last bucket.
const LOG2_MIN: i32 = -16;
const LOG2_MAX: i32 = 48;
/// Total bucket count.
const N_BUCKETS: usize = ((LOG2_MAX - LOG2_MIN) as usize) * SUBS_PER_OCTAVE;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Overwrite the gauge value.
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Lock-free log-bucketed histogram over non-negative `f64` samples.
///
/// Buckets are geometric with `SUBS_PER_OCTAVE` sub-buckets per octave,
/// so quantile estimates carry ≈ ±4.5 % relative error — plenty for
/// latency distributions spanning nanoseconds to seconds. Exact min, max,
/// sum, and count are tracked on the side.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
    /// Minimum sample, as `f64` bits updated by CAS.
    min_bits: AtomicU64,
    /// Maximum sample, as `f64` bits updated by CAS.
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Bucket index of a sample (clamped into range; non-positive and
/// non-finite values land in bucket 0).
fn bucket_of(v: f64) -> usize {
    if !(v.is_finite() && v > 0.0) {
        return 0;
    }
    let pos = (v.log2() - LOG2_MIN as f64) * SUBS_PER_OCTAVE as f64;
    (pos.floor().max(0.0) as usize).min(N_BUCKETS - 1)
}

/// Representative value of a bucket (geometric midpoint).
fn bucket_value(idx: usize) -> f64 {
    let log2 = LOG2_MIN as f64 + (idx as f64 + 0.5) / SUBS_PER_OCTAVE as f64;
    log2.exp2()
}

impl Histogram {
    /// Record one sample.
    pub(crate) fn record(&self, v: f64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub(crate) fn min(&self) -> Option<f64> {
        let m = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        m.is_finite().then_some(m)
    }

    /// Largest sample (`None` when empty).
    pub(crate) fn max(&self) -> Option<f64> {
        let m = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        m.is_finite().then_some(m)
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the buckets,
    /// clamped into the exact observed `[min, max]`. `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Rank of the q-quantile among n samples (nearest-rank, 1-based).
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let v = bucket_value(i);
                return Some(v.clamp(self.min()?, self.max()?));
            }
        }
        self.max()
    }
}

/// Update an `f64`-in-`AtomicU64` cell with a pure function, via CAS.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Point-in-time view of one histogram, used by exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Mean of samples.
    pub mean: f64,
    /// Estimated 50th percentile.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub(crate) p99: f64,
}

/// Thread-safe registry of named metrics.
///
/// Names are created on first use; snapshotting walks sorted maps so the
/// export order is deterministic.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-insert a metric handle by name.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().expect("registry lock").get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl MetricRegistry {
    /// Counter handle for `name` (created on first use).
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Gauge handle for `name` (created on first use).
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Histogram handle for `name` (created on first use).
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Sorted `(name, value)` snapshot of all counters.
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Sorted `(name, value)` snapshot of all gauges.
    pub(crate) fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Sorted summaries of all non-empty histograms.
    pub(crate) fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| HistogramSummary {
                name: name.clone(),
                count: h.count(),
                min: h.min().unwrap_or(0.0),
                max: h.max().unwrap_or(0.0),
                mean: h.mean(),
                p50: h.quantile(0.50).unwrap_or(0.0),
                p90: h.quantile(0.90).unwrap_or(0.0),
                p99: h.quantile(0.99).unwrap_or(0.0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricRegistry::default();
        r.counter("a.events").add(2);
        r.counter("a.events").add(3);
        r.gauge("a.level").set(1.5);
        r.gauge("a.level").set(-2.5);
        assert_eq!(r.counter_values(), vec![("a.events".to_string(), 5)]);
        assert_eq!(r.gauge_values(), vec![("a.level".to_string(), -2.5)]);
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Log-bucketing gives ~±9 % relative error at worst.
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 / 500.0 - 1.0).abs() < 0.10, "p50 {p50}");
        assert!((p90 / 900.0 - 1.0).abs() < 0.10, "p90 {p90}");
        assert!((p99 / 990.0 - 1.0).abs() < 0.10, "p99 {p99}");
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn histogram_handles_degenerate_samples() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        // Degenerate samples land in bucket 0 and are clamped by min/max.
        assert_eq!(h.count(), 3);
        let q = h.quantile(0.5).unwrap();
        assert!(q.is_finite());
    }

    #[test]
    fn histogram_extreme_range() {
        let h = Histogram::default();
        h.record(1e-9); // below 2^-16: clamps to first bucket
        h.record(1e18); // above 2^48: clamps to last bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(1e-9));
        assert_eq!(h.max(), Some(1e18));
        // Quantiles stay inside the exact observed range.
        let p99 = h.quantile(0.99).unwrap();
        assert!((1e-9..=1e18).contains(&p99));
    }

    #[test]
    fn registry_is_sharable_across_threads() {
        let r = Arc::new(MetricRegistry::default());
        let c = r.counter("t.hits");
        let h = r.histogram("t.ns");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.add(1);
                        h.record(1.0 + i as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        let summaries = r.histogram_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "t.ns");
    }

    #[test]
    fn empty_histograms_are_omitted_from_summaries() {
        let r = MetricRegistry::default();
        let _ = r.histogram("never.recorded");
        assert!(r.histogram_summaries().is_empty());
    }
}
