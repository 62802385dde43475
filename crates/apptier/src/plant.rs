//! The plant abstraction: anything a response-time controller can drive.
//!
//! The controller's contract with the world is small: set per-tier CPU
//! allocations, let simulated time pass, and measure the SLA metric over
//! the requests that completed. [`Plant`] captures exactly that, so the
//! same controller runs against the exact discrete-event simulator
//! ([`crate::AppSim`]) or the instant analytic approximation
//! ([`crate::analytic::AnalyticPlant`]) — or, in a real deployment, an
//! adapter around Xen credit-scheduler caps and an Apache log tailer.
//!
//! [`Plant::measure`] is how a controller reads its metric. Its default
//! drains the completions and hands them to [`SlaMetric::measure`]; the
//! analytic plant overrides it to read a p90 from the tail of its pending
//! draws, with the same bits and the same stream afterwards.

use crate::monitor::SlaMetric;
use crate::Result;

/// A controllable multi-tier application.
pub trait Plant {
    /// Number of tiers (== allocation vector length).
    fn n_tiers(&self) -> usize;

    /// Apply per-tier CPU allocations (GHz).
    fn set_allocations(&mut self, ghz: &[f64]) -> Result<()>;

    /// Advance the plant by `dt` seconds.
    fn run_for(&mut self, dt: f64);

    /// Drain the response times (seconds) of requests completed since the
    /// last drain.
    fn take_completed(&mut self) -> Vec<f64>;

    /// Drain the completions since the last drain and measure `metric`
    /// over them (seconds; `None` when no finite sample completed). An
    /// override must return the bits of the default and leave the plant
    /// as the default would.
    fn measure(&mut self, metric: SlaMetric) -> Option<f64> {
        metric.measure(self.take_completed())
    }

    /// Change the closed-loop client population (workload intensity knob).
    fn set_concurrency(&mut self, concurrency: usize);
}

impl Plant for crate::sim::AppSim {
    fn n_tiers(&self) -> usize {
        crate::sim::AppSim::n_tiers(self)
    }

    fn set_allocations(&mut self, ghz: &[f64]) -> Result<()> {
        crate::sim::AppSim::set_allocations(self, ghz)
    }

    fn run_for(&mut self, dt: f64) {
        crate::sim::AppSim::run_for(self, dt)
    }

    fn take_completed(&mut self) -> Vec<f64> {
        crate::sim::AppSim::take_completed(self)
    }

    fn set_concurrency(&mut self, concurrency: usize) {
        crate::sim::AppSim::set_concurrency(self, concurrency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;
    use crate::sim::AppSim;

    #[test]
    fn appsim_implements_plant() {
        // Exercise the trait object path (how generic drivers hold plants).
        let sim = AppSim::new(WorkloadProfile::rubbos(), 10, &[1.0, 1.0], 3).unwrap();
        let mut plant: Box<dyn Plant> = Box::new(sim);
        assert_eq!(plant.n_tiers(), 2);
        plant.set_allocations(&[1.2, 0.8]).unwrap();
        plant.run_for(5.0);
        assert!(!plant.take_completed().is_empty());
        plant.set_concurrency(20);
        plant.run_for(5.0);
        assert!(!plant.take_completed().is_empty());
    }
}
