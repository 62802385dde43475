//! `vdc-telemetry`: hermetic, std-only observability for the power /
//! performance management stack.
//!
//! The paper's claims are measured trajectories — 90-percentile response
//! time against the SLA `Ts`, energy per VM over a week, DVFS decisions
//! per arbitrator period — so the runtime needs an instrumentation layer
//! that can account for them without perturbing the simulation. This
//! crate provides:
//!
//! * a thread-safe **metric registry** ([`registry`]): counters, gauges,
//!   and log-bucketed histograms with p50/p90/p99 extraction, all on
//!   `std::sync` atomics;
//! * **spans** ([`span`]): `Instant`-based drop-guard timers whose
//!   disabled path performs no clock read;
//! * **SLO accounting** ([`slo`]): per-application `t_i` vs `Ts`
//!   distributions, violation counts, windows, and time-in-violation;
//! * **exporters** ([`export`]): `results/METRICS_<run>.json` / `.tsv`
//!   through the workspace's hand-rolled JSON writer;
//! * a leveled **reporter** ([`report`]) so human narration goes to
//!   stderr behind `--quiet` / `--verbose` while stdout stays
//!   machine-readable, beside the command-line flag parser
//!   ([`arg_num`], [`arg_count`], [`arg_value`]) that `vdcpower` and the
//!   experiment binaries share.
//!
//! The entry point is the cheap, cloneable [`Telemetry`] handle. A
//! disabled handle (the default everywhere) turns every call into a
//! branch on a `None`; an enabled handle shares one registry across every
//! clone, so controllers, optimizers, and simulation loops all feed the
//! same export. Telemetry reads wall-clock time but never feeds anything
//! back into the instrumented code, so enabling it cannot change
//! simulation state or RNG streams (enforced by `tests/determinism.rs`).
//!
//! ```
//! use vdc_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled();
//! t.incr("demo.events", 2);
//! {
//!     let _span = t.timer("demo.step_ns");
//!     // ... timed work ...
//! }
//! t.slo_observe(0, 1000.0, 850.0, 4.0);
//! let doc = vdc_telemetry::export::render_json(&t, "demo");
//! assert!(doc.contains("\"demo.events\":2"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, HistogramSummary, MetricRegistry};
pub use report::{arg_count, arg_num, arg_present, arg_value, exit_with, Level, Reporter};
pub use slo::{SloAccountant, SloEntry};
pub use span::SpanTimer;

use std::sync::{Arc, Mutex};

/// Shared state behind an enabled [`Telemetry`] handle.
#[derive(Debug, Default)]
struct Inner {
    metrics: MetricRegistry,
    slo: Mutex<SloAccountant>,
}

/// Cheap, cloneable telemetry handle.
///
/// All clones of an enabled handle share one registry; a disabled handle
/// makes every operation a no-op (no clock reads, no locks, no
/// allocation). Instrumented components hold a `Telemetry` by value and
/// default to [`Telemetry::disabled`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Point-in-time SLO summary for one application (see [`Telemetry::slo_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Application index.
    pub app: u32,
    /// SLA set point `Ts` (ms).
    pub setpoint_ms: f64,
    /// Number of measurements.
    pub samples: u64,
    /// Mean measurement (ms).
    pub mean_ms: f64,
    /// Estimated p50 measurement (ms).
    pub(crate) p50_ms: f64,
    /// Estimated p90 measurement (ms) — the paper's controlled statistic.
    pub(crate) p90_ms: f64,
    /// Estimated p99 measurement (ms).
    pub(crate) p99_ms: f64,
    /// Measurements above `Ts`.
    pub violations: u64,
    /// `violations / samples`.
    pub(crate) violation_fraction: f64,
    /// Wall time spent in violation (s).
    pub(crate) time_in_violation_s: f64,
    /// Total observed wall time (s).
    pub(crate) observed_s: f64,
    /// Longest run of consecutive violating samples.
    pub(crate) longest_violation_window: u64,
}

impl Telemetry {
    /// A live handle with a fresh, empty registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op handle: every operation is a branch and nothing else.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to the counter `name`.
    pub fn incr(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name).add(n);
        }
    }

    /// Set the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name).set(v);
        }
    }

    /// Record sample `v` into the histogram `name`.
    pub fn record(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram(name).record(v);
        }
    }

    /// Start a span recording elapsed nanoseconds into the histogram
    /// `name` when the returned guard drops. On a disabled handle the
    /// guard is inert and no clock is read.
    pub fn timer(&self, name: &str) -> SpanTimer {
        match &self.inner {
            Some(inner) => SpanTimer::started(inner.metrics.histogram(name)),
            None => SpanTimer::inert(),
        }
    }

    /// Record one SLO measurement for `app`: `measured_ms` against
    /// `setpoint_ms`, covering `dt_s` seconds of operation.
    pub fn slo_observe(&self, app: u32, setpoint_ms: f64, measured_ms: f64, dt_s: f64) {
        if let Some(inner) = &self.inner {
            inner
                .slo
                .lock()
                .expect("slo lock")
                .observe(app, setpoint_ms, measured_ms, dt_s);
        }
    }

    /// Sorted counter snapshot (empty when disabled).
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner
            .as_ref()
            .map(|i| i.metrics.counter_values())
            .unwrap_or_default()
    }

    /// Sorted gauge snapshot (empty when disabled).
    pub(crate) fn gauge_values(&self) -> Vec<(String, f64)> {
        self.inner
            .as_ref()
            .map(|i| i.metrics.gauge_values())
            .unwrap_or_default()
    }

    /// Sorted summaries of non-empty histograms (empty when disabled).
    pub fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        self.inner
            .as_ref()
            .map(|i| i.metrics.histogram_summaries())
            .unwrap_or_default()
    }

    /// Per-application SLO summaries in app order (empty when disabled).
    pub fn slo_snapshot(&self) -> Vec<SloSummary> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let slo = inner.slo.lock().expect("slo lock");
        slo.iter()
            .map(|(app, e)| SloSummary {
                app,
                setpoint_ms: e.setpoint_ms,
                samples: e.hist.count(),
                mean_ms: e.hist.mean(),
                p50_ms: e.hist.quantile(0.50).unwrap_or(0.0),
                p90_ms: e.hist.quantile(0.90).unwrap_or(0.0),
                p99_ms: e.hist.quantile(0.99).unwrap_or(0.0),
                violations: e.violations,
                violation_fraction: e.violation_fraction(),
                time_in_violation_s: e.time_in_violation_s,
                observed_s: e.observed_s,
                longest_violation_window: e.longest_violation_window,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.incr("x", 1);
        t.gauge_set("x", 1.0);
        t.record("x", 1.0);
        t.slo_observe(0, 1.0, 2.0, 1.0);
        let _span = t.timer("x");
        assert!(t.counter_values().is_empty());
        assert!(t.gauge_values().is_empty());
        assert!(t.histogram_summaries().is_empty());
        assert!(t.slo_snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.incr("shared.hits", 1);
        u.incr("shared.hits", 2);
        {
            let _span = u.timer("shared.ns");
        }
        assert_eq!(t.counter_values(), vec![("shared.hits".to_string(), 3)]);
        assert_eq!(t.histogram_summaries().len(), 1);
    }

    #[test]
    fn slo_snapshot_reports_p90_and_windows() {
        let t = Telemetry::enabled();
        for ms in [500.0, 1500.0, 1600.0, 700.0] {
            t.slo_observe(3, 1000.0, ms, 2.0);
        }
        let snap = t.slo_snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.app, 3);
        assert_eq!(s.samples, 4);
        assert_eq!(s.violations, 2);
        assert_eq!(s.longest_violation_window, 2);
        assert!((s.violation_fraction - 0.5).abs() < 1e-12);
        assert!((s.time_in_violation_s - 4.0).abs() < 1e-12);
        assert!(s.p90_ms > 1000.0);
    }

    #[test]
    fn debug_format_shows_state() {
        assert_eq!(
            format!("{:?}", Telemetry::disabled()),
            "Telemetry { enabled: false }"
        );
        assert_eq!(
            format!("{:?}", Telemetry::enabled()),
            "Telemetry { enabled: true }"
        );
    }
}
