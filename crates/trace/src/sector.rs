//! Industry sectors and their load shapes.
//!
//! The real trace spans "manufacturing, telecommunications, financial, and
//! retail sectors" (§VI-B). Each sector gets a characteristic diurnal
//! profile; the generator perturbs these per VM.

/// Industry sector of a traced VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sector {
    /// Manufacturing: flat-ish shift-based load, mild diurnal swing.
    Manufacturing,
    /// Telecommunications: high evening peak, substantial night load.
    Telecom,
    /// Financial: sharp business-hours peak, quiet weekends.
    Financial,
    /// Retail: daytime/evening peak, strong weekend activity.
    Retail,
}

/// Shape parameters of one sector's load profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectorShape {
    /// Baseline utilization in `\[0, 1\]`.
    pub(crate) base: f64,
    /// Amplitude of the diurnal component.
    pub(crate) diurnal_amp: f64,
    /// Hour of day (0–24) at which load peaks.
    pub(crate) peak_hour: f64,
    /// Multiplier applied to the diurnal component on weekends.
    pub(crate) weekend_factor: f64,
    /// Standard deviation of the AR(1) noise component.
    pub(crate) noise_sd: f64,
    /// Per-sample probability of a flash-crowd spike.
    pub(crate) spike_prob: f64,
    /// Mean amplitude of a spike.
    pub(crate) spike_amp: f64,
}

impl Sector {
    /// All sectors, in a fixed order.
    pub const ALL: [Sector; 4] = [
        Sector::Manufacturing,
        Sector::Telecom,
        Sector::Financial,
        Sector::Retail,
    ];

    /// The sector's load shape.
    pub(crate) fn shape(&self) -> SectorShape {
        match self {
            Sector::Manufacturing => SectorShape {
                base: 0.32,
                diurnal_amp: 0.12,
                peak_hour: 11.0,
                weekend_factor: 0.75,
                noise_sd: 0.05,
                spike_prob: 0.002,
                spike_amp: 0.2,
            },
            Sector::Telecom => SectorShape {
                base: 0.30,
                diurnal_amp: 0.25,
                peak_hour: 20.0,
                weekend_factor: 0.95,
                noise_sd: 0.06,
                spike_prob: 0.004,
                spike_amp: 0.25,
            },
            Sector::Financial => SectorShape {
                base: 0.18,
                diurnal_amp: 0.35,
                peak_hour: 13.0,
                weekend_factor: 0.25,
                noise_sd: 0.05,
                spike_prob: 0.005,
                spike_amp: 0.3,
            },
            Sector::Retail => SectorShape {
                base: 0.22,
                diurnal_amp: 0.28,
                peak_hour: 17.0,
                weekend_factor: 1.25,
                noise_sd: 0.06,
                spike_prob: 0.006,
                spike_amp: 0.35,
            },
        }
    }

    /// Short stable name for CSV serialization.
    pub fn name(&self) -> &'static str {
        match self {
            Sector::Manufacturing => "manufacturing",
            Sector::Telecom => "telecom",
            Sector::Financial => "financial",
            Sector::Retail => "retail",
        }
    }

    /// Parse a [`Sector::name`] back.
    pub(crate) fn from_name(name: &str) -> Option<Sector> {
        Sector::ALL.iter().copied().find(|s| s.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_sane() {
        for s in Sector::ALL {
            let sh = s.shape();
            assert!(sh.base >= 0.0 && sh.base <= 1.0);
            assert!(sh.diurnal_amp >= 0.0 && sh.base + sh.diurnal_amp <= 1.0);
            assert!((0.0..24.0).contains(&sh.peak_hour));
            assert!(sh.weekend_factor >= 0.0);
            assert!(sh.noise_sd > 0.0);
            assert!((0.0..1.0).contains(&sh.spike_prob));
        }
    }

    #[test]
    fn name_roundtrip() {
        for s in Sector::ALL {
            assert_eq!(Sector::from_name(s.name()), Some(s));
        }
        assert_eq!(Sector::from_name("nonsense"), None);
    }

    #[test]
    fn financial_is_quiet_on_weekends() {
        assert!(Sector::Financial.shape().weekend_factor < 0.5);
        assert!(Sector::Retail.shape().weekend_factor > 1.0);
    }
}
