//! Cross-cutting options shared by every runner entry point.
//!
//! Every runner is `run_xxx(input, &config, &RunOptions)`. The config says
//! *what* is simulated; [`RunOptions`] holds the axes around it: the
//! telemetry sink, the shard-worker count (`shards: None` means one
//! worker), series capture, the fault plan, the pod size, the tier
//! controller and the site PUE series.

use crate::tier::ControllerSpec;
use vdc_dcsim::PueSeries;
use vdc_faults::FaultPlan;
use vdc_telemetry::Telemetry;

/// Options orthogonal to *what* is simulated: where metrics go, how many
/// shard workers run the fan-out stages, and whether the per-sample ledger
/// is kept. None of these change simulation results — runs are bit-identical
/// for every combination (`tests/sharding.rs` and the determinism suite
/// enforce this).
///
/// `RunOptions::default()` is the quiet single-purpose run: no telemetry,
/// one worker, no series capture.
///
/// # Examples
///
/// ```
/// use vdc_core::RunOptions;
/// use vdc_telemetry::Telemetry;
///
/// let telemetry = Telemetry::enabled();
/// let opts = RunOptions::default()
///     .with_telemetry(&telemetry)
///     .with_shards(8)
///     .with_series();
/// assert_eq!(opts.shards, Some(8));
/// assert!(opts.capture_series);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Metrics/span/SLO sink. `None` runs unobserved (zero overhead);
    /// telemetry only observes, never perturbs results.
    pub(crate) telemetry: Option<&'a Telemetry>,
    /// Shard workers for the fan-out stages: `Some(0)` = host
    /// parallelism, `Some(n)` = exactly `n`, `None` = one worker.
    pub shards: Option<usize>,
    /// Capture the per-sample time series in the result (the large-scale
    /// replay's `WeekSample` ledger). Off by default: a week at 15-minute
    /// samples is small, but figure sweeps run many replays and only the
    /// profile plots read it. The co-simulation's trajectories are part of
    /// its result proper and are always captured.
    pub capture_series: bool,
    /// Deterministic fault plan injected into the run (host crashes,
    /// migration/wake failures, sensor dropout). `None` — or a plan for
    /// which [`FaultPlan::is_empty`] holds — runs fault-free, byte-identical
    /// to a plain run (the zero-fault contract `tests/determinism.rs`
    /// enforces). Faulted runs stay bit-identical at every shard count.
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Hierarchical pod size for the optimizer: `Some(n)` partitions the
    /// fleet into site-aligned pods of at most `n` servers and plans each
    /// pod independently (see [`crate::optimizer::pod_partition`]). `None`
    /// (default) plans the whole fleet flat. Unlike the other axes this
    /// *does* change placement decisions — the regret harness
    /// (`tests/regret.rs`) bounds the power cost — but a given pod size is
    /// still bit-identical across shard counts.
    pub(crate) pods: Option<usize>,
    /// Which tier controller the co-simulation builds per application (the
    /// [`crate::tier`] seam). `None` builds the paper MPC. Runners without
    /// application-level controllers — the large-scale trace replay and
    /// churn, whose VM demands come straight from the trace — ignore this
    /// axis entirely. Like `pods`, a non-default controller *does* change
    /// results; any given spec is still deterministic and bit-identical
    /// across shard counts.
    pub(crate) controller: Option<ControllerSpec>,
    /// Site PUE series of the co-simulation. Each sample, every
    /// application's controller sees the current PUE via
    /// [`crate::tier::TierController::observe_pue`] (only cooling-coupled
    /// controllers react; for the rest the feed is a no-op by contract),
    /// and the sample's active-server power is charged at the facility,
    /// IT × PUE. `None` feeds nothing and charges IT power, byte-identical
    /// to the pre-seam loop.
    pub(crate) pue: Option<&'a PueSeries>,
}

impl<'a> RunOptions<'a> {
    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Set the shard count (`0` = host parallelism).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Capture the per-sample time series.
    pub fn with_series(mut self) -> Self {
        self.capture_series = true;
        self
    }

    /// Inject a fault plan.
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Plan hierarchically with pods of at most `pod_size` servers.
    pub fn with_pods(mut self, pod_size: usize) -> Self {
        self.pods = Some(pod_size);
        self
    }

    /// Select the tier controller.
    pub fn with_controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = Some(spec);
        self
    }

    /// Attach the site PUE series: fed forward to the controllers and
    /// charged on the co-simulation's power each sample.
    pub fn with_pue(mut self, pue: &'a PueSeries) -> Self {
        self.pue = Some(pue);
        self
    }

    /// The effective fault plan: `None` when no plan was attached *or* the
    /// attached plan injects nothing, so every run loop's fault machinery
    /// is gated on one check and an empty plan cannot perturb anything.
    pub(crate) fn faults(&self) -> Option<&'a FaultPlan> {
        self.faults.filter(|p| !p.is_empty())
    }

    /// The effective telemetry sink (disabled when none was attached).
    pub(crate) fn telemetry(&self) -> Telemetry {
        self.telemetry.cloned().unwrap_or_else(Telemetry::disabled)
    }

    /// The resolved worker count of the fan-out stages (`None` = one
    /// worker, `Some(0)` = host parallelism).
    pub(crate) fn shards(&self) -> usize {
        crate::shard::resolve(self.shards.unwrap_or(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_and_single_worker() {
        let opts = RunOptions::default();
        assert!(opts.telemetry.is_none());
        assert!(!opts.capture_series);
        assert!(opts.faults.is_none());
        assert_eq!(opts.shards(), 1);
        assert!(!opts.telemetry().is_enabled());
    }

    #[test]
    fn empty_fault_plan_is_normalized_away() {
        let empty = FaultPlan::empty();
        let opts = RunOptions::default().with_faults(&empty);
        assert!(opts.faults.is_some(), "attached as given...");
        assert!(opts.faults().is_none(), "...but effectively fault-free");
    }

    #[test]
    fn builders_set_each_axis() {
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_shards(0)
            .with_series()
            .with_pods(256);
        assert_eq!(opts.shards, Some(0), "explicit 0 (auto)");
        assert!(opts.capture_series);
        assert!(opts.telemetry().is_enabled());
        assert_eq!(opts.pods, Some(256));
    }

    #[test]
    fn pods_default_to_flat() {
        assert!(RunOptions::default().pods.is_none());
    }

    #[test]
    fn controller_and_pue_axes() {
        let opts = RunOptions::default();
        assert!(opts.controller.is_none());
        assert!(opts.pue.is_none());
        let opts = opts.with_controller(ControllerSpec::cooling());
        assert_eq!(opts.controller, Some(ControllerSpec::cooling()));
        let pue = PueSeries::constant(1.4).unwrap();
        let opts = opts.with_pue(&pue);
        assert!(opts.pue.is_some());
    }
}
