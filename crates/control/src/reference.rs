//! Exponential reference trajectory (eq. (3) of the paper).
//!
//! ```text
//! ref(k+i|k) = Ts − e^{−(T/Tref)·i} · (Ts − t(k))
//! ```
//!
//! The trajectory defines the ideal path along which the response time
//! should move from its current value `t(k)` to the set point `Ts`; tracking
//! it makes the closed loop behave like a first-order linear system with
//! time constant `Tref`.

use crate::{ControlError, Result};

/// Exponential reference trajectory generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceTrajectory {
    /// Control period `T` (seconds).
    pub(crate) period: f64,
    /// Time constant `Tref` (seconds). Smaller = faster convergence but
    /// larger overshoot risk (§IV-B).
    pub(crate) time_constant: f64,
}

impl ReferenceTrajectory {
    /// Create a trajectory generator; both times must be positive.
    pub fn new(period: f64, time_constant: f64) -> Result<Self> {
        if period <= 0.0 || !period.is_finite() {
            return Err(ControlError::BadConfig(format!(
                "control period {period} must be positive"
            )));
        }
        if time_constant <= 0.0 || !time_constant.is_finite() {
            return Err(ControlError::BadConfig(format!(
                "reference time constant {time_constant} must be positive"
            )));
        }
        Ok(ReferenceTrajectory {
            period,
            time_constant,
        })
    }

    /// Decay factor per control period, `e^{−T/Tref}` ∈ (0, 1).
    pub fn decay(&self) -> f64 {
        (-self.period / self.time_constant).exp()
    }

    /// `ref(k+i|k)` for the current measurement `t_now` and set point `ts`.
    pub fn at(&self, ts: f64, t_now: f64, i: usize) -> f64 {
        ts - self.decay().powi(i as i32) * (ts - t_now)
    }

    /// The whole trajectory for `i = 1..=horizon`.
    pub(crate) fn horizon(&self, ts: f64, t_now: f64, horizon: usize) -> Vec<f64> {
        (1..=horizon).map(|i| self.at(ts, t_now, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ReferenceTrajectory::new(0.0, 1.0).is_err());
        assert!(ReferenceTrajectory::new(1.0, 0.0).is_err());
        assert!(ReferenceTrajectory::new(-1.0, 1.0).is_err());
        assert!(ReferenceTrajectory::new(1.0, f64::NAN).is_err());
        assert!(ReferenceTrajectory::new(4.0, 12.0).is_ok());
    }

    #[test]
    fn starts_at_measurement_and_converges_to_setpoint() {
        let r = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        let (ts, t0) = (1000.0, 2000.0);
        // i = 0 is the current measurement.
        assert!((r.at(ts, t0, 0) - t0).abs() < 1e-12);
        // Monotone approach to the set point from above.
        let traj = r.horizon(ts, t0, 50);
        for w in traj.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!((traj[49] - ts).abs() < 1.0);
    }

    #[test]
    fn approach_from_below() {
        let r = ReferenceTrajectory::new(1.0, 5.0).unwrap();
        let traj = r.horizon(1000.0, 400.0, 30);
        for w in traj.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(traj[0] > 400.0 && traj[0] < 1000.0);
    }

    #[test]
    fn smaller_time_constant_converges_faster() {
        let fast = ReferenceTrajectory::new(1.0, 2.0).unwrap();
        let slow = ReferenceTrajectory::new(1.0, 20.0).unwrap();
        let e_fast = (fast.at(1000.0, 2000.0, 3) - 1000.0).abs();
        let e_slow = (slow.at(1000.0, 2000.0, 3) - 1000.0).abs();
        assert!(e_fast < e_slow);
    }

    #[test]
    fn at_setpoint_stays_at_setpoint() {
        let r = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        for i in 0..10 {
            assert_eq!(r.at(1000.0, 1000.0, i), 1000.0);
        }
    }

    #[test]
    fn decay_in_unit_interval() {
        let r = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        let d = r.decay();
        assert!(d > 0.0 && d < 1.0);
        assert!((d - (-1.0_f64 / 3.0).exp()).abs() < 1e-15);
    }
}
