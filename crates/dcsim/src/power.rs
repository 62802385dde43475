//! Server power models.
//!
//! Active power follows the standard decomposition into a static (leakage +
//! platform) part and a dynamic part that scales with utilization and with
//! the cube of the DVFS frequency (dynamic CMOS power ≈ C·V²·f with V
//! roughly proportional to f):
//!
//! ```text
//! P(f, u) = P_static · (0.65 + 0.35 · (f/f_max)³)
//!         + (P_max − P_static) · u · (f / f_max)³
//! ```
//!
//! where `u` is the utilization *at the current frequency*. The static
//! (leakage + platform) part shrinks mildly with frequency because DVFS
//! lowers the supply voltage; the dynamic CMOS part scales with `u·f³`
//! (≈ C·V²·f with V ∝ f). Lowering `f` for a fixed absolute demand raises
//! `u` proportionally, so the net dynamic power scales as `(f/f_max)²` —
//! DVFS saves real power, but far less than sleeping a whole server, which
//! is exactly the trade-off the paper's two-level design exploits (§III).

/// Parametric power model of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power when the server sleeps (suspend-to-RAM), watts.
    pub(crate) sleep_watts: f64,
    /// Static (leakage + platform) power when active at maximum frequency,
    /// watts; DVFS trims it mildly (see the module formula). This is the
    /// idle floor the paper's consolidation eliminates by putting servers
    /// to sleep.
    pub static_watts: f64,
    /// Total power at maximum frequency and 100 % utilization, watts.
    pub max_watts: f64,
}

impl PowerModel {
    /// Construct a validated model (`0 ≤ sleep ≤ static ≤ max`).
    pub(crate) fn new(sleep_watts: f64, static_watts: f64, max_watts: f64) -> Option<PowerModel> {
        let ok = sleep_watts >= 0.0
            && static_watts >= sleep_watts
            && max_watts >= static_watts
            && max_watts.is_finite();
        ok.then_some(PowerModel {
            sleep_watts,
            static_watts,
            max_watts,
        })
    }

    /// Fraction of the static power that remains at the lowest voltage.
    const STATIC_FLOOR: f64 = 0.65;

    /// Active power at relative frequency `f_ratio = f/f_max ∈ (0, 1]` and
    /// utilization `u ∈ \[0, 1\]` (both clamped).
    pub fn active_power(&self, f_ratio: f64, u: f64) -> f64 {
        let f = f_ratio.clamp(0.0, 1.0);
        let u = u.clamp(0.0, 1.0);
        let f3 = f * f * f;
        self.static_watts * (Self::STATIC_FLOOR + (1.0 - Self::STATIC_FLOOR) * f3)
            + (self.max_watts - self.static_watts) * u * f3
    }

    /// Sleep power.
    pub(crate) fn sleep_power(&self) -> f64 {
        self.sleep_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(PowerModel::new(10.0, 100.0, 300.0).is_some());
        assert!(PowerModel::new(-1.0, 100.0, 300.0).is_none());
        assert!(PowerModel::new(50.0, 40.0, 300.0).is_none());
        assert!(PowerModel::new(10.0, 100.0, 90.0).is_none());
        assert!(PowerModel::new(10.0, 100.0, f64::INFINITY).is_none());
    }

    #[test]
    fn endpoints() {
        let p = PowerModel::new(10.0, 100.0, 300.0).unwrap();
        assert_eq!(p.sleep_power(), 10.0);
        assert_eq!(p.active_power(1.0, 0.0), 100.0);
        assert_eq!(p.active_power(1.0, 1.0), 300.0);
    }

    #[test]
    fn dvfs_saves_power_for_fixed_absolute_demand() {
        let p = PowerModel::new(10.0, 100.0, 300.0).unwrap();
        // Fixed demand = 50 % of max capacity. At full frequency u = 0.5;
        // at half frequency u = 1.0.
        let full = p.active_power(1.0, 0.5);
        let half = p.active_power(0.5, 1.0);
        assert!(half < full, "DVFS should save power: {half} vs {full}");
        // But both dominate sleeping.
        assert!(p.sleep_power() < half);
    }

    #[test]
    fn clamping() {
        let p = PowerModel::new(10.0, 100.0, 300.0).unwrap();
        assert_eq!(p.active_power(2.0, 2.0), 300.0);
        // Negative frequency clamps to 0: only the static floor remains.
        assert_eq!(p.active_power(-1.0, 0.5), 65.0);
    }

    #[test]
    fn static_power_shrinks_with_frequency() {
        let p = PowerModel::new(10.0, 100.0, 300.0).unwrap();
        let idle_max = p.active_power(1.0, 0.0);
        let idle_min = p.active_power(0.3, 0.0);
        assert_eq!(idle_max, 100.0);
        assert!(idle_min < idle_max);
        assert!(idle_min >= 65.0, "static floor holds: {idle_min}");
    }

    #[test]
    fn monotone_in_utilization_and_frequency() {
        let p = PowerModel::new(10.0, 120.0, 250.0).unwrap();
        let mut prev = 0.0;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let w = p.active_power(1.0, u);
            assert!(w >= prev);
            prev = w;
        }
        prev = 0.0;
        for i in 1..=10 {
            let f = i as f64 / 10.0;
            let w = p.active_power(f, 1.0);
            assert!(w >= prev);
            prev = w;
        }
    }
}
