//! Host hardware catalogs: the per-model power/capacity rows behind
//! heterogeneous fleets.
//!
//! A [`HostCatalog`] is an ordered, validated list of [`ServerSpec`]s, one
//! per server model, addressed by copyable [`ProfileId`] handles. Two
//! catalogs ship in-tree:
//!
//! * [`HostCatalog::paper`] — the three CPU types of the paper's §VI-B,
//!   [`ServerSpec::catalog`] validated;
//! * [`HostCatalog::specpower`] — nine SPECpower-style machines with idle
//!   fractions from 12.5 % to 57.6 % of peak, the spread that makes
//!   PAC/IPAC's power-efficiency ordering consequential on mixed fleets.

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

/// An ordered, validated list of server models.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCatalog {
    profiles: Vec<ServerSpec>,
}

impl HostCatalog {
    /// Build a catalog, validating every model's core count and ladder.
    /// Power curves need no check here: a [`crate::PowerModel`] is
    /// validated when it is built.
    pub(crate) fn new(profiles: Vec<ServerSpec>) -> Result<HostCatalog> {
        if profiles.is_empty() {
            return Err(DcError::Invalid("catalog must not be empty".into()));
        }
        for p in &profiles {
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
        HostCatalog::new(ServerSpec::catalog()).expect("static catalog validates")
    }

    /// Nine SPECpower-style profiles, idle fractions 12.5 %–57.6 % of peak.
    pub fn specpower() -> HostCatalog {
        HostCatalog::new(vec![
            ServerSpec::specpower("HP-DL360-G7-LowPower", 8, 208.0, 27.9, 2.4),
            ServerSpec::specpower("Dell-R720-Medium", 16, 345.0, 28.4, 2.2),
            ServerSpec::specpower("Cisco-UCS-C240-HighPerf", 24, 476.0, 29.8, 2.6),
            ServerSpec::specpower("HPE-DL380-Gen10-Ultra", 32, 634.0, 30.6, 2.8),
            ServerSpec::specpower("Acer-Altos-R520", 8, 269.0, 57.6, 2.5),
            ServerSpec::specpower("Acer-AR360-F2", 16, 315.0, 22.0, 2.6),
            ServerSpec::specpower("ASUSTeK-RS720-E9", 56, 385.0, 12.5, 2.7),
            ServerSpec::specpower("ASUSTeK-RS500A", 64, 214.0, 24.0, 2.2),
            ServerSpec::specpower("ASUSTeK-RS700A", 128, 430.0, 24.7, 2.25),
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
    pub(crate) fn profiles(&self) -> &[ServerSpec] {
        &self.profiles
    }

    /// Borrow one profile.
    pub fn get(&self, id: ProfileId) -> Result<&ServerSpec> {
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

    /// A copy of one profile, to stamp a server from.
    pub fn spec(&self, id: ProfileId) -> Result<ServerSpec> {
        self.get(id).cloned()
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
            assert!(p.power.static_watts < p.power.max_watts);
            assert!(p.power.sleep_watts < p.power.static_watts);
            assert_eq!(*p.freq_levels_ghz.last().unwrap(), p.max_freq_ghz);
        }
    }

    #[test]
    fn validation_rejects_bad_ladders() {
        let mut flat = ServerSpec::specpower("y", 4, 100.0, 50.0, 2.0);
        flat.freq_levels_ghz = vec![2.0, 1.0]; // not ascending
        assert!(HostCatalog::new(vec![flat]).is_err());
        let mut short = ServerSpec::specpower("z", 4, 100.0, 50.0, 2.0);
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
