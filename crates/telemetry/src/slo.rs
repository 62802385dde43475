//! Per-application SLO accounting.
//!
//! The paper's performance-assurance claim is about the measured
//! 90-percentile response time `t_i` of each application staying at its
//! SLA set point `Ts` (§III). This module keeps one streaming accountant
//! per application: a log-bucketed histogram of measurements (for p50 /
//! p90 / p99 extraction), a violation counter, time spent in violation,
//! and the longest run of consecutive violating samples — the "violation
//! window" a capacity planner cares about.

use crate::registry::Histogram;
use std::collections::BTreeMap;

/// Streaming SLO statistics for one application.
#[derive(Debug)]
pub struct SloEntry {
    /// SLA set point `Ts` the measurements are judged against (ms).
    pub(crate) setpoint_ms: f64,
    /// Distribution of measurements (ms).
    pub(crate) hist: Histogram,
    /// Samples whose measurement exceeded `Ts`.
    pub(crate) violations: u64,
    /// Accumulated wall time of violating samples (s).
    pub(crate) time_in_violation_s: f64,
    /// Accumulated observed time (s).
    pub(crate) observed_s: f64,
    /// Length of the current run of consecutive violating samples.
    current_window: u64,
    /// Longest run of consecutive violating samples seen so far.
    pub(crate) longest_violation_window: u64,
}

impl SloEntry {
    fn new(setpoint_ms: f64) -> SloEntry {
        SloEntry {
            setpoint_ms,
            hist: Histogram::default(),
            violations: 0,
            time_in_violation_s: 0.0,
            observed_s: 0.0,
            current_window: 0,
            longest_violation_window: 0,
        }
    }

    fn observe(&mut self, measured_ms: f64, dt_s: f64) {
        self.hist.record(measured_ms);
        self.observed_s += dt_s;
        if measured_ms > self.setpoint_ms {
            self.violations += 1;
            self.time_in_violation_s += dt_s;
            self.current_window += 1;
            self.longest_violation_window = self.longest_violation_window.max(self.current_window);
        } else {
            self.current_window = 0;
        }
    }

    /// Fraction of samples violating the set point (0 when empty).
    pub(crate) fn violation_fraction(&self) -> f64 {
        let n = self.hist.count();
        if n == 0 {
            0.0
        } else {
            self.violations as f64 / n as f64
        }
    }
}

/// SLO accountant over a set of applications keyed by index.
#[derive(Debug, Default)]
pub struct SloAccountant {
    apps: BTreeMap<u32, SloEntry>,
}

impl SloAccountant {
    /// Record one measurement for `app`: `measured_ms` against
    /// `setpoint_ms`, covering `dt_s` seconds of operation. The set point
    /// of an application is fixed by its first observation (a later,
    /// different set point updates it for subsequent judgments — the
    /// Fig. 5 sweep changes `Ts` at run time).
    pub(crate) fn observe(&mut self, app: u32, setpoint_ms: f64, measured_ms: f64, dt_s: f64) {
        let entry = self
            .apps
            .entry(app)
            .or_insert_with(|| SloEntry::new(setpoint_ms));
        entry.setpoint_ms = setpoint_ms;
        entry.observe(measured_ms, dt_s);
    }

    /// Iterate `(app, entry)` in app order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &SloEntry)> {
        self.apps.iter().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_violations_and_windows() {
        let mut s = SloAccountant::default();
        // Pattern: ok, viol, viol, viol, ok, viol — longest window 3.
        for (i, ms) in [900.0, 1100.0, 1200.0, 1050.0, 800.0, 1500.0]
            .iter()
            .enumerate()
        {
            let _ = i;
            s.observe(7, 1000.0, *ms, 2.0);
        }
        let e = s.apps.get(&7).unwrap();
        assert_eq!(e.violations, 4);
        assert_eq!(e.longest_violation_window, 3);
        assert!((e.time_in_violation_s - 8.0).abs() < 1e-12);
        assert!((e.observed_s - 12.0).abs() < 1e-12);
        assert!((e.violation_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(e.hist.count(), 6);
    }

    #[test]
    fn apps_are_independent_and_sorted() {
        let mut s = SloAccountant::default();
        s.observe(3, 500.0, 600.0, 1.0);
        s.observe(1, 500.0, 400.0, 1.0);
        s.observe(3, 500.0, 450.0, 1.0);
        let order: Vec<u32> = s.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![1, 3]);
        assert_eq!(s.apps.get(&1).unwrap().violations, 0);
        assert_eq!(s.apps.get(&3).unwrap().violations, 1);
        assert!(!s.apps.contains_key(&9));
    }

    #[test]
    fn p90_tracks_the_distribution() {
        let mut s = SloAccountant::default();
        for i in 1..=100 {
            s.observe(0, 95.0, i as f64, 1.0);
        }
        let e = s.apps.get(&0).unwrap();
        let p90 = e.hist.quantile(0.9).unwrap();
        assert!((p90 / 90.0 - 1.0).abs() < 0.10, "p90 {p90}");
        assert_eq!(e.violations, 5); // 96..=100
    }
}
