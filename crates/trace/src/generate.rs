//! Synthetic trace generation.
//!
//! Reproduces the statistical structure of the SHIP trace the paper replays
//! (§VI-B): per-sector diurnal shapes with weekday/weekend contrast,
//! heterogeneous per-VM scale and phase, AR(1) noise (real utilization is
//! strongly autocorrelated at 15-minute granularity), and occasional flash
//! crowds. The trace "starts" on a Monday at 00:00, matching the paper's
//! July 14th 2008 anchor.

use crate::sector::Sector;
use crate::store::{UtilizationTrace, VmTraceMeta};
use std::ops::Range;
use vdc_apptier::rng::SimRng;

/// Configuration of the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Number of VMs (source servers).
    pub n_vms: usize,
    /// Number of samples per VM.
    pub n_samples: usize,
    /// Sampling interval (seconds).
    pub interval_s: f64,
    /// RNG seed (fully deterministic given the seed).
    pub seed: u64,
}

impl TraceConfig {
    /// The paper's scale: 5,415 VMs × 672 samples (7 days × 96 per day) at
    /// 15-minute spacing.
    pub fn paper_scale(seed: u64) -> TraceConfig {
        TraceConfig {
            n_vms: 5415,
            n_samples: 672,
            interval_s: 900.0,
            seed,
        }
    }

    /// A small configuration for quick tests.
    pub fn small(n_vms: usize, seed: u64) -> TraceConfig {
        TraceConfig {
            n_vms,
            n_samples: 672,
            interval_s: 900.0,
            seed,
        }
    }
}

/// Per-VM randomized parameters (shared with the streaming generator in
/// [`crate::stream`], which must reproduce the per-VM draw order exactly).
pub(crate) struct VmParams {
    pub(crate) sector: Sector,
    pub(crate) scale: f64,
    pub(crate) phase_h: f64,
    pub(crate) ar_state: f64,
}

/// Draw one VM's randomized parameters and metadata: sector, scale, phase,
/// nominal capacity, memory — in that exact RNG order.
pub(crate) fn draw_vm(rng: &mut SimRng) -> (VmParams, VmTraceMeta) {
    // Sector mix: weighted toward telecom/financial like enterprise
    // fleets; each VM perturbs its sector's canonical shape.
    let sector = match rng.index(10) {
        0..=2 => Sector::Manufacturing,
        3..=5 => Sector::Telecom,
        6..=7 => Sector::Financial,
        _ => Sector::Retail,
    };
    let p = VmParams {
        sector,
        scale: 0.6 + 0.8 * rng.uniform(),
        phase_h: rng.uniform() * 3.0 - 1.5,
        ar_state: 0.0,
    };
    // Nominal source-server capacity: 1–4 GHz-class machines.
    let nominal_ghz = *rng.pick(&[1.0, 1.5, 2.0, 3.0, 4.0]);
    // Memory: 512 MiB – 4 GiB, correlated with capacity.
    let memory_mib = 512.0 * (1.0 + rng.index((nominal_ghz * 2.0) as usize + 1) as f64);
    (
        p,
        VmTraceMeta {
            sector,
            nominal_ghz,
            memory_mib,
        },
    )
}

/// Generate a synthetic utilization trace.
///
/// # Examples
///
/// ```
/// use vdc_trace::{generate_trace, TraceConfig};
///
/// let trace = generate_trace(&TraceConfig::small(10, 42));
/// assert_eq!(trace.n_vms(), 10);
/// assert_eq!(trace.n_samples(), 672); // 7 days at 15-minute spacing
/// assert!(trace.utilization(0, 0) <= 1.0);
/// ```
pub fn generate_trace(cfg: &TraceConfig) -> UtilizationTrace {
    let (data, meta) = generate_windows(cfg, &vec![0..cfg.n_samples; cfg.n_vms]);
    UtilizationTrace::from_parts(cfg.n_samples, cfg.interval_s, data, meta)
}

/// [`generate_trace`]'s draws, with VM `vm`'s utilization evaluated and
/// stored only over the samples in `windows[vm]`.
///
/// Every sample still takes its random draws, so the serial RNG stays in
/// step and each stored value is bit-identical to [`generate_trace`]'s at
/// the same `(vm, t)`. Returns the windows' values concatenated in VM
/// order (`Σ windows[vm].len()` of them) and every VM's metadata.
///
/// # Panics
/// Panics if `windows.len() != cfg.n_vms` or a window ends past
/// `cfg.n_samples`.
pub fn generate_windows(
    cfg: &TraceConfig,
    windows: &[Range<usize>],
) -> (Vec<f64>, Vec<VmTraceMeta>) {
    assert_eq!(windows.len(), cfg.n_vms, "one window per VM");
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut data = Vec::with_capacity(windows.iter().map(|w| w.len()).sum());
    let mut meta = Vec::with_capacity(cfg.n_vms);
    for window in windows {
        assert!(
            window.end <= cfg.n_samples,
            "window {window:?} ends past {} samples",
            cfg.n_samples
        );
        let (mut p, m) = draw_vm(&mut rng);
        for t in 0..cfg.n_samples {
            let spike = draw_noise(&mut p, &mut rng);
            if window.contains(&t) {
                data.push(utilization(&p, t, cfg.interval_s, spike));
            }
        }
        meta.push(m);
    }
    (data, meta)
}

/// One utilization sample for one VM.
pub(crate) fn sample_utilization(
    p: &mut VmParams,
    t: usize,
    interval_s: f64,
    rng: &mut SimRng,
) -> f64 {
    let spike = draw_noise(p, rng);
    utilization(p, t, interval_s, spike)
}

/// The random part of a sample, in draw order: the AR(1) update of
/// `p.ar_state`, then the flash-crowd spike, which is returned.
fn draw_noise(p: &mut VmParams, rng: &mut SimRng) -> f64 {
    let shape = p.sector.shape();
    // AR(1) noise keeps consecutive samples correlated.
    let white: f64 = rng.uniform() * 2.0 - 1.0;
    p.ar_state = 0.85 * p.ar_state + shape.noise_sd * white;

    // Flash crowd.
    if rng.uniform() < shape.spike_prob {
        shape.spike_amp * (0.5 + rng.uniform())
    } else {
        0.0
    }
}

/// The utilization at sample `t` given the sample's noise draws.
fn utilization(p: &VmParams, t: usize, interval_s: f64, spike: f64) -> f64 {
    let shape = p.sector.shape();
    let hours = t as f64 * interval_s / 3600.0;
    let hour_of_day = (hours + p.phase_h).rem_euclid(24.0);
    let day = (hours / 24.0).floor() as usize % 7;
    let weekend = day >= 5; // trace starts Monday
    let day_factor = if weekend { shape.weekend_factor } else { 1.0 };

    // Diurnal: raised cosine centred on the peak hour.
    let angle = (hour_of_day - shape.peak_hour) / 24.0 * 2.0 * std::f64::consts::PI;
    let diurnal = shape.diurnal_amp * 0.5 * (1.0 + angle.cos());

    ((shape.base + diurnal * day_factor) * p.scale + p.ar_state + spike).clamp(0.01, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_and_range() {
        let cfg = TraceConfig::small(20, 1);
        let t = generate_trace(&cfg);
        assert_eq!(t.n_vms(), 20);
        assert_eq!(t.n_samples(), 672);
        for vm in 0..20 {
            for &u in t.series(vm) {
                assert!((0.01..=1.0).contains(&u), "utilization {u} out of range");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_trace(&TraceConfig::small(5, 42));
        let b = generate_trace(&TraceConfig::small(5, 42));
        assert_eq!(a, b);
        let c = generate_trace(&TraceConfig::small(5, 43));
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_structure_present() {
        // Averaged over many financial-sector VMs, business hours must be
        // hotter than the small hours on weekdays.
        let cfg = TraceConfig::small(300, 7);
        let t = generate_trace(&cfg);
        let mut peak = 0.0;
        let mut trough = 0.0;
        let mut n = 0;
        for vm in 0..t.n_vms() {
            if t.meta(vm).sector != Sector::Financial {
                continue;
            }
            n += 1;
            // Tuesday 13:00 (t = 96 + 52) vs Tuesday 03:00 (t = 96 + 12).
            peak += t.utilization(vm, 96 + 52);
            trough += t.utilization(vm, 96 + 12);
        }
        assert!(n > 10, "need financial VMs in the mix");
        assert!(
            peak / n as f64 > trough / n as f64 + 0.1,
            "business hours should dominate: {} vs {}",
            peak / n as f64,
            trough / n as f64
        );
    }

    #[test]
    fn weekend_contrast_for_financial() {
        let cfg = TraceConfig::small(400, 9);
        let t = generate_trace(&cfg);
        let mut weekday = 0.0;
        let mut weekend = 0.0;
        let mut n = 0;
        for vm in 0..t.n_vms() {
            if t.meta(vm).sector != Sector::Financial {
                continue;
            }
            n += 1;
            // Wednesday 13:00 vs Saturday 13:00.
            weekday += t.utilization(vm, 2 * 96 + 52);
            weekend += t.utilization(vm, 5 * 96 + 52);
        }
        assert!(n > 10);
        assert!(weekday / n as f64 > weekend / n as f64 + 0.05);
    }

    #[test]
    fn autocorrelation_is_high() {
        // Adjacent 15-minute samples must be strongly correlated, like the
        // real trace (lag-1 autocorrelation > 0.5 on average).
        let cfg = TraceConfig::small(50, 11);
        let t = generate_trace(&cfg);
        let mut acc = 0.0;
        for vm in 0..t.n_vms() {
            let s = t.series(vm);
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            let var: f64 = s.iter().map(|u| (u - mean).powi(2)).sum();
            let cov: f64 = s.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
            if var > 1e-12 {
                acc += cov / var;
            }
        }
        let mean_rho = acc / t.n_vms() as f64;
        assert!(mean_rho > 0.5, "lag-1 autocorrelation {mean_rho} too low");
    }

    #[test]
    fn paper_scale_shape() {
        let cfg = TraceConfig::paper_scale(1);
        assert_eq!(cfg.n_vms, 5415);
        assert_eq!(cfg.n_samples, 672);
        assert_eq!(cfg.interval_s, 900.0);
        // 7 days.
        assert_eq!(cfg.n_samples as f64 * cfg.interval_s, 7.0 * 86400.0);
    }

    #[test]
    fn overall_mean_utilization_plausible() {
        // Enterprise servers idle a lot: mean utilization should be well
        // below saturation but nonzero.
        let t = generate_trace(&TraceConfig::small(200, 3));
        let m = t.mean_utilization();
        assert!((0.1..0.7).contains(&m), "mean utilization {m}");
    }

    #[test]
    fn memory_and_capacity_assigned() {
        let t = generate_trace(&TraceConfig::small(100, 5));
        for vm in 0..t.n_vms() {
            let m = t.meta(vm);
            assert!(m.nominal_ghz >= 1.0 && m.nominal_ghz <= 4.0);
            assert!(m.memory_mib >= 512.0);
        }
    }
}
