//! Deterministic churn-workload generation.
//!
//! A [`ChurnWorkload`] is the replayable artifact: a sorted lifecycle
//! event stream plus one sector-trace demand row per churn VM, all drawn
//! from [`vdc_apptier::rng::SimRng`] so the same seed always produces the
//! same workload. Generation is strictly single-threaded and happens
//! before any run loop starts; the run loop only *reads* the workload, so
//! sharded replays stay bit-identical at every shard count.
//!
//! Steady-state arrivals are a per-sample Poisson draw whose rate follows
//! a raised-cosine diurnal profile (the same shape the sector traces in
//! `vdc-trace` use for utilization); each arrival's lifetime is
//! exponential. Flash crowds are batch bursts at fixed samples layered on
//! top. Per-VM demand curves and memory footprints come from
//! [`vdc_trace::generate_trace`], so churn VMs look statistically like the
//! base population.

use crate::events::{EventKind, VmEvent};
use vdc_apptier::rng::{seed_stream, SimRng};
use vdc_trace::{generate_trace, TraceConfig, UtilizationTrace};

/// RNG stream tags so the event draw and the demand-trace draw never
/// overlap even though both derive from the same workload seed.
const STREAM_EVENTS: u64 = 0x5648_4552; // "VHER"
const STREAM_DEMAND: u64 = 0x5644_454D; // "VDEM"

/// A batch burst of arrivals at one sample — the "flash crowd" of the
/// scenario tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Sample index the burst lands on.
    pub at_sample: usize,
    /// Number of VMs arriving in the burst.
    pub arrivals: usize,
    /// Mean of the exponential lifetime draw for burst VMs (seconds);
    /// flash-crowd tenants are typically short-lived.
    pub mean_lifetime_s: f64,
}

/// Configuration of the churn generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mean steady-state arrival rate (VMs per day) before diurnal
    /// modulation.
    pub arrivals_per_day: f64,
    /// Diurnal modulation depth in `[0, 1]`: the per-sample arrival rate
    /// is scaled by `1 + amplitude * cos(angle to peak_hour)`, so 0 means
    /// a flat rate and 1 doubles the rate at the peak and zeroes it at the
    /// trough.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) the arrival rate peaks at.
    pub peak_hour: f64,
    /// Mean of the exponential lifetime draw for steady-state arrivals
    /// (seconds).
    pub mean_lifetime_s: f64,
    /// Batch bursts layered on the steady stream.
    pub flash_crowds: Vec<FlashCrowd>,
    /// Workload seed (fully deterministic given the seed).
    pub seed: u64,
}

impl ChurnConfig {
    /// A steady diurnal stream with no bursts: `arrivals_per_day` mean
    /// arrivals, one-day mean lifetime, business-hours peak.
    pub fn steady(arrivals_per_day: f64, seed: u64) -> ChurnConfig {
        ChurnConfig {
            arrivals_per_day,
            diurnal_amplitude: 0.6,
            peak_hour: 14.0,
            mean_lifetime_s: 86_400.0,
            flash_crowds: Vec::new(),
            seed,
        }
    }

    /// The steady stream plus one flash crowd of `arrivals` short-lived
    /// VMs (2-hour mean lifetime) landing at `at_sample`.
    pub fn with_flash_crowd(
        arrivals_per_day: f64,
        at_sample: usize,
        arrivals: usize,
        seed: u64,
    ) -> ChurnConfig {
        let mut cfg = ChurnConfig::steady(arrivals_per_day, seed);
        cfg.flash_crowds.push(FlashCrowd {
            at_sample,
            arrivals,
            mean_lifetime_s: 7_200.0,
        });
        cfg
    }
}

/// A generated, replayable churn workload: the sorted event stream and
/// one demand row per churn VM.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnWorkload {
    events: Vec<VmEvent>,
    /// Demand/meta rows, one per churn VM index `k`.
    trace: UtilizationTrace,
    n_samples: usize,
}

impl ChurnWorkload {
    /// Generate the workload for a horizon of `n_samples` samples spaced
    /// `interval_s` seconds apart (match these to the base trace the run
    /// replays). Arrival order — and therefore churn VM indices — is
    /// steady-state arrivals in time order first, then flash-crowd bursts
    /// in declaration order.
    pub fn generate(cfg: &ChurnConfig, n_samples: usize, interval_s: f64) -> ChurnWorkload {
        assert!(n_samples > 0, "churn workload needs a non-empty horizon");
        assert!(interval_s > 0.0, "churn workload needs a positive interval");
        assert!(
            (0.0..=1.0).contains(&cfg.diurnal_amplitude),
            "diurnal amplitude {} outside [0, 1]",
            cfg.diurnal_amplitude
        );
        let mut rng = SimRng::seed_from_u64(seed_stream(cfg.seed, STREAM_EVENTS));
        let mut events = Vec::new();
        let mut next_k = 0usize;
        let mut spawn =
            |events: &mut Vec<VmEvent>, rng: &mut SimRng, t: usize, mean_lifetime_s: f64| {
                let k = next_k;
                next_k += 1;
                events.push(VmEvent::arrive(t, k));
                let lifetime_samples =
                    ((rng.exponential(mean_lifetime_s) / interval_s).ceil() as usize).max(1);
                if let Some(depart) = t.checked_add(lifetime_samples) {
                    if depart < n_samples {
                        events.push(VmEvent::depart(depart, k));
                    }
                }
            };

        // Steady stream: per-sample Poisson draw at the diurnal rate.
        let per_sample = cfg.arrivals_per_day * interval_s / 86_400.0;
        for t in 0..n_samples {
            let hour = (t as f64 * interval_s / 3_600.0).rem_euclid(24.0);
            let angle = (hour - cfg.peak_hour) / 24.0 * 2.0 * std::f64::consts::PI;
            let rate = per_sample * (1.0 + cfg.diurnal_amplitude * angle.cos()).max(0.0);
            for _ in 0..poisson(&mut rng, rate) {
                spawn(&mut events, &mut rng, t, cfg.mean_lifetime_s);
            }
        }

        // Flash crowds: batch bursts on top.
        for fc in &cfg.flash_crowds {
            assert!(
                fc.at_sample < n_samples,
                "flash crowd at sample {} beyond horizon {n_samples}",
                fc.at_sample
            );
            for _ in 0..fc.arrivals {
                spawn(&mut events, &mut rng, fc.at_sample, fc.mean_lifetime_s);
            }
        }

        // Stable sort: same-sample events keep generation order, so a
        // burst's arrivals are admitted in index order.
        events.sort_by_key(|e| e.at_sample);

        // One sector-trace row per churn VM (demand curve + memory/nominal
        // capacity), statistically matched to the base population.
        let trace = generate_trace(&TraceConfig {
            n_vms: next_k,
            n_samples,
            interval_s,
            seed: seed_stream(cfg.seed, STREAM_DEMAND),
        });
        ChurnWorkload {
            events,
            trace,
            n_samples,
        }
    }

    /// A workload with zero lifecycle events (the fixed-population case:
    /// replaying it must be bit-identical to not replaying churn at all).
    pub fn empty(n_samples: usize, interval_s: f64) -> ChurnWorkload {
        ChurnWorkload {
            events: Vec::new(),
            trace: generate_trace(&TraceConfig {
                n_vms: 0,
                n_samples,
                interval_s,
                seed: 0,
            }),
            n_samples,
        }
    }

    /// The sorted event stream.
    pub fn events(&self) -> &[VmEvent] {
        &self.events
    }

    /// Horizon length in samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// CPU demand (GHz) of churn VM `k` at sample `t`.
    pub fn demand_ghz(&self, k: usize, t: usize) -> f64 {
        self.trace.demand_ghz(k, t)
    }

    /// Memory footprint (MiB) of churn VM `k`.
    pub fn memory_mib(&self, k: usize) -> f64 {
        self.trace.meta(k).memory_mib
    }

    /// Total arrival events: one per churn VM.
    pub fn total_arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Arrive(_)))
            .count()
    }

    /// Total departure events inside the horizon (VMs whose lifetime ends
    /// after the horizon never depart).
    pub fn total_departures(&self) -> usize {
        self.events.len() - self.total_arrivals()
    }
}

/// Knuth's Poisson sampler — exact and branch-deterministic, fine for the
/// per-sample rates churn uses (a handful of arrivals per sample at most).
fn poisson(rng: &mut SimRng, rate: f64) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let limit = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.uniform();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ChurnConfig::with_flash_crowd(40.0, 10, 12, 7);
        let a = ChurnWorkload::generate(&cfg, 96, 900.0);
        let b = ChurnWorkload::generate(&cfg, 96, 900.0);
        assert_eq!(a, b);
        let c = ChurnWorkload::generate(&ChurnConfig { seed: 8, ..cfg }, 96, 900.0);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_sorted_and_departures_follow_arrivals() {
        let cfg = ChurnConfig::with_flash_crowd(60.0, 5, 20, 3);
        let w = ChurnWorkload::generate(&cfg, 192, 900.0);
        assert!(w
            .events()
            .windows(2)
            .all(|p| p[0].at_sample <= p[1].at_sample));
        // Every departure's VM arrived strictly earlier.
        let mut arrive_at = std::collections::BTreeMap::new();
        for e in w.events() {
            match e.kind {
                EventKind::Arrive(k) => {
                    assert!(
                        arrive_at.insert(k, e.at_sample).is_none(),
                        "vm {k} arrived twice"
                    );
                }
                EventKind::Depart(k) => {
                    let at = arrive_at.get(&k).expect("departure before arrival");
                    assert!(e.at_sample > *at, "vm {k} departs at its arrival sample");
                }
            }
        }
        assert_eq!(w.total_arrivals(), w.trace.n_vms());
        assert!(w.total_departures() <= w.total_arrivals());
    }

    #[test]
    fn flash_crowd_lands_as_a_batch() {
        let base = ChurnWorkload::generate(&ChurnConfig::steady(20.0, 5), 96, 900.0);
        let burst =
            ChurnWorkload::generate(&ChurnConfig::with_flash_crowd(20.0, 48, 25, 5), 96, 900.0);
        let arrivals_at = |w: &ChurnWorkload, t: usize| {
            w.events()
                .iter()
                .filter(|e| e.at_sample == t && matches!(e.kind, EventKind::Arrive(_)))
                .count()
        };
        assert_eq!(arrivals_at(&burst, 48), arrivals_at(&base, 48) + 25);
        assert_eq!(burst.trace.n_vms(), base.trace.n_vms() + 25);
    }

    #[test]
    fn diurnal_modulation_shifts_arrival_mass_toward_the_peak() {
        // One simulated week, strong modulation: the peak-hour half of the
        // day must collect clearly more arrivals than the trough half.
        let cfg = ChurnConfig {
            diurnal_amplitude: 1.0,
            ..ChurnConfig::steady(200.0, 11)
        };
        let w = ChurnWorkload::generate(&cfg, 672, 900.0);
        let (mut near, mut far) = (0usize, 0usize);
        for e in w.events() {
            if let EventKind::Arrive(_) = e.kind {
                let hour = (e.at_sample as f64 * 0.25).rem_euclid(24.0);
                let dist = (hour - cfg.peak_hour)
                    .abs()
                    .min(24.0 - (hour - cfg.peak_hour).abs());
                if dist < 6.0 {
                    near += 1;
                } else {
                    far += 1;
                }
            }
        }
        assert!(
            near > 2 * far,
            "peak half-day should dominate: {near} near vs {far} far"
        );
    }

    #[test]
    fn empty_workload_has_no_events() {
        let w = ChurnWorkload::empty(48, 900.0);
        assert!(w.events().is_empty());
        assert_eq!(w.trace.n_vms(), 0);
        assert_eq!(w.total_arrivals(), 0);
        assert_eq!(w.total_departures(), 0);
    }

    #[test]
    fn demand_rows_cover_every_churn_vm() {
        let w = ChurnWorkload::generate(&ChurnConfig::steady(50.0, 13), 96, 900.0);
        assert!(w.trace.n_vms() > 0, "50/day over a day should arrive");
        for k in 0..w.trace.n_vms() {
            assert!(w.memory_mib(k) >= 512.0);
            for t in 0..w.n_samples() {
                let d = w.demand_ghz(k, t);
                assert!(d.is_finite() && d >= 0.0);
            }
        }
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 1.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "poisson mean {mean} vs 1.5");
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }
}
