//! Host hardware profiles: the per-model power/capacity catalog behind
//! heterogeneous fleets.
//!
//! A [`HostProfile`] is one server model — core count, peak and idle power,
//! DVFS ladder, memory — and a [`HostCatalog`] is an ordered set of them
//! addressed by copyable [`ProfileId`] handles. Two catalogs ship in-tree:
//!
//! * [`HostCatalog::paper`] — the three CPU types of the paper's §VI-B,
//!   identical (field for field) to [`ServerSpec::catalog`];
//! * [`HostCatalog::specpower`] — nine SPECpower-style machines with idle
//!   fractions from 12.5 % to 57.6 % of peak, the spread that makes
//!   PAC/IPAC's power-efficiency ordering consequential on mixed fleets.
//!
//! The profile's linear power view `P(u) = idle + (peak − idle)·u` is
//! exactly the workspace [`PowerModel`] evaluated at maximum frequency
//! (`static_watts = idle`, `max_watts = peak`); the DVFS ladder adds the
//! frequency-cubed dynamic scaling on top, per profile.

use crate::power::PowerModel;
use crate::server::ServerSpec;
use crate::{DcError, Result};

/// Copyable handle addressing one profile of a [`HostCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileId(usize);

impl ProfileId {
    /// Handle for a catalog position (insertion order, never reshuffled).
    pub fn from_index(slot: usize) -> ProfileId {
        ProfileId(slot)
    }

    /// The catalog position this handle addresses.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProfileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile#{}", self.0)
    }
}

/// One server model of the catalog: capacity, power curve, and DVFS ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Human-readable model name (e.g. `ASUSTeK-RS720-E9`).
    pub name: String,
    /// Number of cores.
    pub(crate) cores: u32,
    /// Total power at maximum frequency and 100 % utilization (watts).
    pub(crate) peak_power_w: f64,
    /// Idle (static) power when active at maximum frequency (watts).
    pub(crate) idle_power_w: f64,
    /// Power when sleeping (suspend-to-RAM), watts.
    pub(crate) sleep_watts: f64,
    /// Maximum per-core frequency (GHz).
    pub max_freq_ghz: f64,
    /// Discrete DVFS ladder (GHz, ascending, last == max).
    pub freq_levels_ghz: Vec<f64>,
    /// Installed memory (MiB).
    pub(crate) memory_mib: f64,
    /// Seconds to wake from sleep.
    pub(crate) wake_latency_s: f64,
}

impl HostProfile {
    /// A SPECpower-style profile: idle power given as a percentage of peak,
    /// 4 GiB of memory per core, sleep at 5 % of peak, 30 s wake latency,
    /// and a four-step DVFS ladder at 40/60/80/100 % of the maximum
    /// frequency.
    pub(crate) fn specpower(
        name: &str,
        cores: u32,
        peak_power_w: f64,
        idle_percent: f64,
        max_freq_ghz: f64,
    ) -> HostProfile {
        HostProfile {
            name: name.to_string(),
            cores,
            peak_power_w,
            idle_power_w: peak_power_w * idle_percent / 100.0,
            sleep_watts: peak_power_w * 0.05,
            max_freq_ghz,
            freq_levels_ghz: [0.4, 0.6, 0.8, 1.0]
                .iter()
                .map(|r| r * max_freq_ghz)
                .collect(),
            memory_mib: cores as f64 * 4096.0,
            wake_latency_s: 30.0,
        }
    }

    /// Lossless conversion from a legacy catalog entry; `server_spec`
    /// reproduces the input field for field.
    pub(crate) fn from_spec(spec: &ServerSpec) -> HostProfile {
        HostProfile {
            name: spec.name.clone(),
            cores: spec.cores,
            peak_power_w: spec.power.max_watts,
            idle_power_w: spec.power.static_watts,
            sleep_watts: spec.power.sleep_watts,
            max_freq_ghz: spec.max_freq_ghz,
            freq_levels_ghz: spec.freq_levels_ghz.clone(),
            memory_mib: spec.memory_mib,
            wake_latency_s: spec.wake_latency_s,
        }
    }

    /// Idle power as a fraction of peak (the SPECpower "idle %").
    pub fn idle_fraction(&self) -> f64 {
        if self.peak_power_w > 0.0 {
            self.idle_power_w / self.peak_power_w
        } else {
            0.0
        }
    }

    /// Total CPU capacity at maximum frequency (GHz·cores).
    pub(crate) fn max_capacity_ghz(&self) -> f64 {
        self.max_freq_ghz * self.cores as f64
    }

    /// Power efficiency (GHz per watt, §V ordering key); higher is better.
    pub fn power_efficiency(&self) -> f64 {
        self.max_capacity_ghz() / self.peak_power_w
    }

    /// The linear idle+dynamic power at utilization `u ∈ [0, 1]` and
    /// maximum frequency: `idle + (peak − idle)·u`.
    pub fn power_at_util(&self, u: f64) -> f64 {
        self.idle_power_w + (self.peak_power_w - self.idle_power_w) * u.clamp(0.0, 1.0)
    }

    /// The validated workspace power model for this profile
    /// (`static_watts = idle`, `max_watts = peak`).
    pub fn power_model(&self) -> Result<PowerModel> {
        PowerModel::new(self.sleep_watts, self.idle_power_w, self.peak_power_w).ok_or_else(|| {
            DcError::Invalid(format!(
                "profile {:?}: power curve must satisfy 0 <= sleep <= idle <= peak",
                self.name
            ))
        })
    }

    /// Materialize the catalog entry as a [`ServerSpec`].
    pub(crate) fn server_spec(&self) -> Result<ServerSpec> {
        Ok(ServerSpec {
            name: self.name.clone(),
            cores: self.cores,
            max_freq_ghz: self.max_freq_ghz,
            freq_levels_ghz: self.freq_levels_ghz.clone(),
            memory_mib: self.memory_mib,
            power: self.power_model()?,
            wake_latency_s: self.wake_latency_s,
        })
    }
}

/// An ordered, validated set of [`HostProfile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCatalog {
    profiles: Vec<HostProfile>,
}

impl HostCatalog {
    /// Build a catalog, validating every profile's power curve and ladder.
    pub(crate) fn new(profiles: Vec<HostProfile>) -> Result<HostCatalog> {
        if profiles.is_empty() {
            return Err(DcError::Invalid("catalog must not be empty".into()));
        }
        for p in &profiles {
            p.power_model()?;
            if p.cores == 0 || !p.max_freq_ghz.is_finite() || p.max_freq_ghz <= 0.0 {
                return Err(DcError::Invalid(format!(
                    "profile {:?}: cores and max frequency must be positive",
                    p.name
                )));
            }
            let ladder_ok = !p.freq_levels_ghz.is_empty()
                && p.freq_levels_ghz.windows(2).all(|w| w[0] < w[1])
                && *p.freq_levels_ghz.last().unwrap() == p.max_freq_ghz;
            if !ladder_ok {
                return Err(DcError::Invalid(format!(
                    "profile {:?}: DVFS ladder must ascend to the maximum frequency",
                    p.name
                )));
            }
        }
        Ok(HostCatalog { profiles })
    }

    /// The three CPU types of the paper's §VI-B, in the order
    /// [`ServerSpec::catalog`] declares them (quad-3 GHz, dual-2 GHz,
    /// dual-1.5 GHz).
    pub fn paper() -> HostCatalog {
        HostCatalog::new(
            ServerSpec::catalog()
                .iter()
                .map(HostProfile::from_spec)
                .collect(),
        )
        .expect("static catalog validates")
    }

    /// Nine SPECpower-style profiles, idle fractions 12.5 %–57.6 % of peak.
    pub fn specpower() -> HostCatalog {
        HostCatalog::new(vec![
            HostProfile::specpower("HP-DL360-G7-LowPower", 8, 208.0, 27.9, 2.4),
            HostProfile::specpower("Dell-R720-Medium", 16, 345.0, 28.4, 2.2),
            HostProfile::specpower("Cisco-UCS-C240-HighPerf", 24, 476.0, 29.8, 2.6),
            HostProfile::specpower("HPE-DL380-Gen10-Ultra", 32, 634.0, 30.6, 2.8),
            HostProfile::specpower("Acer-Altos-R520", 8, 269.0, 57.6, 2.5),
            HostProfile::specpower("Acer-AR360-F2", 16, 315.0, 22.0, 2.6),
            HostProfile::specpower("ASUSTeK-RS720-E9", 56, 385.0, 12.5, 2.7),
            HostProfile::specpower("ASUSTeK-RS500A", 64, 214.0, 24.0, 2.2),
            HostProfile::specpower("ASUSTeK-RS700A", 128, 430.0, 24.7, 2.25),
        ])
        .expect("static catalog validates")
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the catalog is empty (never true for a validated catalog).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All profiles, in handle order.
    pub(crate) fn profiles(&self) -> &[HostProfile] {
        &self.profiles
    }

    /// Borrow one profile.
    pub fn get(&self, id: ProfileId) -> Result<&HostProfile> {
        self.profiles
            .get(id.index())
            .ok_or(DcError::Invalid(format!("unknown {id}")))
    }

    /// Find a profile by model name.
    pub(crate) fn by_name(&self, name: &str) -> Option<ProfileId> {
        self.profiles
            .iter()
            .position(|p| p.name == name)
            .map(ProfileId::from_index)
    }

    /// Materialize one profile as a [`ServerSpec`].
    pub fn spec(&self, id: ProfileId) -> Result<ServerSpec> {
        self.get(id)?.server_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specpower_catalog_matches_published_numbers() {
        let cat = HostCatalog::specpower();
        assert_eq!(cat.len(), 9);
        let low = cat.get(cat.by_name("ASUSTeK-RS720-E9").unwrap()).unwrap();
        assert!((low.idle_fraction() - 0.125).abs() < 1e-12);
        let high = cat.get(cat.by_name("Acer-Altos-R520").unwrap()).unwrap();
        assert!((high.idle_fraction() - 0.576).abs() < 1e-12);
        for p in cat.profiles() {
            assert!(p.idle_power_w < p.peak_power_w);
            assert!(p.sleep_watts < p.idle_power_w);
            assert_eq!(*p.freq_levels_ghz.last().unwrap(), p.max_freq_ghz);
        }
    }

    #[test]
    fn linear_view_agrees_with_power_model_at_max_frequency() {
        for p in HostCatalog::specpower().profiles() {
            let model = p.power_model().unwrap();
            for u in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(
                    p.power_at_util(u).to_bits(),
                    model.active_power(1.0, u).to_bits(),
                    "{} at u={u}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn paper_catalog_round_trips_the_legacy_specs() {
        let cat = HostCatalog::paper();
        let legacy = ServerSpec::catalog();
        assert_eq!(cat.len(), legacy.len());
        for (i, want) in legacy.iter().enumerate() {
            let id = ProfileId::from_index(i);
            let got = cat.spec(id).unwrap();
            assert_eq!(got.name, want.name);
            assert_eq!(got.power, want.power, "{}", want.name);
            assert_eq!(got.freq_levels_ghz, want.freq_levels_ghz);
            assert_eq!(got.memory_mib, want.memory_mib);
            assert_eq!(got.wake_latency_s, want.wake_latency_s);
        }
    }

    #[test]
    fn validation_rejects_bad_curves_and_ladders() {
        let mut inverted = HostProfile::specpower("x", 4, 100.0, 50.0, 2.0);
        inverted.idle_power_w = 200.0; // idle above peak
        assert!(HostCatalog::new(vec![inverted]).is_err());
        let mut flat = HostProfile::specpower("y", 4, 100.0, 50.0, 2.0);
        flat.freq_levels_ghz = vec![2.0, 1.0]; // not ascending
        assert!(HostCatalog::new(vec![flat]).is_err());
        let mut short = HostProfile::specpower("z", 4, 100.0, 50.0, 2.0);
        short.freq_levels_ghz = vec![1.0]; // ladder must end at max
        assert!(HostCatalog::new(vec![short]).is_err());
        assert!(HostCatalog::new(vec![]).is_err());
    }

    #[test]
    fn efficiency_separates_the_asus_and_acer_extremes() {
        let cat = HostCatalog::specpower();
        let best = cat.get(cat.by_name("ASUSTeK-RS700A").unwrap()).unwrap();
        let worst = cat.get(cat.by_name("Acer-Altos-R520").unwrap()).unwrap();
        assert!(best.power_efficiency() > 4.0 * worst.power_efficiency());
    }
}
