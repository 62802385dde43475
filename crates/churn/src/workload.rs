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
//! top. Per-VM demand curves and memory footprints come from the sector
//! trace generator, so churn VMs look statistically like the base
//! population. The run reads churn VM `k` only from its arrival sample
//! through its departure sample, so [`vdc_trace::generate_windows`]
//! evaluates and stores each row only over that window, with the same
//! draws and values [`vdc_trace::generate_trace`] would give: memory
//! grows with the sum of the lifetimes, not with arrivals × horizon.

use crate::events::{EventKind, VmEvent};
use std::ops::Range;
use vdc_apptier::rng::{seed_stream, SimRng};
use vdc_trace::{generate_windows, TraceConfig, VmTraceMeta};

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
/// one demand row per churn VM, stored only over the samples the run
/// reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnWorkload {
    events: Vec<VmEvent>,
    /// Utilization of every churn VM over its window, concatenated in
    /// index order.
    utilization: Vec<f64>,
    /// Per churn VM index `k`: where its values start in `utilization`,
    /// and its window of samples — arrival through departure, or through
    /// the horizon's last sample if it never departs.
    rows: Vec<(usize, Range<usize>)>,
    /// Metadata (nominal capacity, memory) per churn VM index `k`.
    meta: Vec<VmTraceMeta>,
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
        assert!(
            cfg.arrivals_per_day.is_finite(),
            "arrival rate {} is not finite",
            cfg.arrivals_per_day
        );
        let mut rng = SimRng::seed_from_u64(seed_stream(cfg.seed, STREAM_EVENTS));
        let mut events = Vec::new();
        // Per churn VM, the samples the run reads its demand at: arrival
        // through departure inclusive, since the run writes a sample's
        // demands before it applies that sample's departures.
        let mut windows: Vec<Range<usize>> = Vec::new();
        let mut spawn =
            |events: &mut Vec<VmEvent>, rng: &mut SimRng, t: usize, mean_lifetime_s: f64| {
                let k = windows.len();
                events.push(VmEvent::arrive(t, k));
                let lifetime_samples =
                    ((rng.exponential(mean_lifetime_s) / interval_s).ceil() as usize).max(1);
                let mut end = n_samples;
                if let Some(depart) = t.checked_add(lifetime_samples) {
                    if depart < n_samples {
                        events.push(VmEvent::depart(depart, k));
                        end = depart + 1;
                    }
                }
                windows.push(t..end);
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
        // capacity), statistically matched to the base population, stored
        // over its window only.
        let (utilization, meta) = generate_windows(
            &TraceConfig {
                n_vms: windows.len(),
                n_samples,
                interval_s,
                seed: seed_stream(cfg.seed, STREAM_DEMAND),
            },
            &windows,
        );
        let mut offset = 0;
        let rows = windows
            .into_iter()
            .map(|w| {
                let row = (offset, w);
                offset += row.1.len();
                row
            })
            .collect();
        ChurnWorkload {
            events,
            utilization,
            rows,
            meta,
            n_samples,
        }
    }

    /// A workload with zero lifecycle events (the fixed-population case:
    /// replaying it must be bit-identical to not replaying churn at all).
    pub fn empty(n_samples: usize) -> ChurnWorkload {
        ChurnWorkload {
            events: Vec::new(),
            utilization: Vec::new(),
            rows: Vec::new(),
            meta: Vec::new(),
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
    ///
    /// # Panics
    /// Panics if `t` is outside `k`'s window (arrival through departure,
    /// or through the horizon's last sample): no value is stored there,
    /// and the run never reads one.
    pub fn demand_ghz(&self, k: usize, t: usize) -> f64 {
        let (offset, window) = &self.rows[k];
        assert!(
            window.contains(&t),
            "churn VM {k} read at sample {t}, outside its window {window:?}"
        );
        self.utilization[offset + t - window.start] * self.meta[k].nominal_ghz
    }

    /// Memory footprint (MiB) of churn VM `k`.
    pub fn memory_mib(&self, k: usize) -> f64 {
        self.meta[k].memory_mib
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

/// The largest rate [`poisson`] draws in one pass of Knuth's sampler.
/// `exp(-rate)` underflows past about 745, so a larger rate is split; this
/// sits well above every rate the scenarios use (tens per sample), so
/// their draws take the single pass.
const POISSON_MAX_PASS_RATE: f64 = 500.0;

/// Knuth's Poisson sampler — exact and branch-deterministic. Its cost
/// grows with the rate. A rate above [`POISSON_MAX_PASS_RATE`] is drawn as
/// the sum of `n = ceil(rate / POISSON_MAX_PASS_RATE)` independent passes
/// at `rate / n` each, which is exact in distribution; a rate at or below
/// it takes one pass at `rate / 1`, the draws it always took.
fn poisson(rng: &mut SimRng, rate: f64) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let passes = (rate / POISSON_MAX_PASS_RATE).ceil();
    let limit = (-rate / passes).exp();
    (0..passes as usize)
        .map(|_| {
            let mut k = 0usize;
            let mut p = 1.0;
            loop {
                p *= rng.uniform();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        })
        .sum()
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
        assert_eq!(w.total_arrivals(), w.meta.len());
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
        assert_eq!(burst.meta.len(), base.meta.len() + 25);
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
        let w = ChurnWorkload::empty(48);
        assert!(w.events().is_empty());
        assert_eq!(w.meta.len(), 0);
        assert_eq!(w.total_arrivals(), 0);
        assert_eq!(w.total_departures(), 0);
    }

    #[test]
    fn demand_rows_cover_every_churn_vm() {
        let cfg = ChurnConfig::steady(50.0, 13);
        let w = ChurnWorkload::generate(&cfg, 96, 900.0);
        assert!(!w.meta.is_empty(), "50/day over a day should arrive");
        // Each window runs from the arrival through the departure, or
        // through the last sample for a VM that never departs.
        let mut windows = vec![None; w.meta.len()];
        for e in w.events() {
            match e.kind {
                EventKind::Arrive(k) => windows[k] = Some(e.at_sample..w.n_samples()),
                EventKind::Depart(k) => {
                    windows[k].as_mut().expect("arrived before departing").end = e.at_sample + 1
                }
            }
        }
        // Every stored value is the full sector trace's, bit for bit.
        let full = vdc_trace::generate_trace(&TraceConfig {
            n_vms: w.meta.len(),
            n_samples: w.n_samples(),
            interval_s: 900.0,
            seed: seed_stream(cfg.seed, STREAM_DEMAND),
        });
        for (k, (_, window)) in w.rows.iter().enumerate() {
            assert_eq!(Some(window), windows[k].as_ref(), "vm {k}");
            assert_eq!(&w.meta[k], full.meta(k));
            assert!(w.memory_mib(k) >= 512.0);
            for t in window.clone() {
                let d = w.demand_ghz(k, t);
                assert!(d.is_finite() && d >= 0.0);
                assert_eq!(d.to_bits(), full.demand_ghz(k, t).to_bits(), "vm {k} t {t}");
            }
        }
    }

    /// One VM arriving at sample 10 that departs at sample 11.
    fn one_short_lived_vm() -> ChurnWorkload {
        let cfg = ChurnConfig {
            flash_crowds: vec![FlashCrowd {
                at_sample: 10,
                arrivals: 1,
                mean_lifetime_s: 1e-9,
            }],
            ..ChurnConfig::steady(0.0, 3)
        };
        ChurnWorkload::generate(&cfg, 48, 900.0)
    }

    #[test]
    #[should_panic(expected = "churn VM 0 read at sample 9, outside its window 10..12")]
    fn a_read_before_arrival_panics() {
        let w = one_short_lived_vm();
        w.demand_ghz(0, 10);
        w.demand_ghz(0, 9);
    }

    #[test]
    #[should_panic(expected = "churn VM 0 read at sample 12, outside its window 10..12")]
    fn a_read_after_departure_panics() {
        let w = one_short_lived_vm();
        // The departure sample is still read: the run writes a sample's
        // demands before it applies that sample's departures.
        w.demand_ghz(0, 11);
        w.demand_ghz(0, 12);
    }

    #[test]
    fn storage_grows_with_lifetimes_not_the_horizon() {
        // A churn-storm-sized workload: 4800 arrivals/day with 3-hour
        // lifetimes plus a burst of 200, over three days.
        let cfg = ChurnConfig {
            mean_lifetime_s: 3.0 * 3600.0,
            ..ChurnConfig::with_flash_crowd(4800.0, 144, 200, 0xC4B2)
        };
        let n_samples = 288;
        let w = ChurnWorkload::generate(&cfg, n_samples, 900.0);
        let mut offset = 0;
        for (start, window) in &w.rows {
            assert_eq!(*start, offset, "rows are stored back to back");
            offset += window.len();
        }
        assert_eq!(w.utilization.len(), offset);
        assert!(
            w.utilization.len() * 10 < w.meta.len() * n_samples,
            "{} stored samples for {} VMs over {n_samples} samples",
            w.utilization.len(),
            w.meta.len()
        );
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 1.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "poisson mean {mean} vs 1.5");
        // Past ~745, exp(-rate) underflows, which capped a single Knuth
        // pass there.
        for rate in [1000.0, 2000.0] {
            let total: usize = (0..1_000).map(|_| poisson(&mut rng, rate)).sum();
            let mean = total as f64 / 1_000.0;
            assert!(
                (mean / rate - 1.0).abs() < 0.02,
                "poisson mean {mean} vs {rate}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }
}
