//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; the smoke test holds the two
//! in step.

/// An end-to-end metric: measured with tracing off, reported per workload
/// as the mean over the draws of each draw's median repetition (see
/// `bench::DRAWS`). Times are at reference host speed (see
/// `workload::run_rep`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric; lower is better for all of them. Simulated
/// outputs (energy, SLA, migrations) are not among them: they vary with
/// the seed far more than any bound, and the digest checks them exactly.
pub const END_TO_END: [EndToEnd; 3] = [
    // Seconds inside one runner call at one shard.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    // Seconds generating the runner's inputs: trace, churn workload,
    // fault plan.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    // Peak resident set of the child process that ran one repetition.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.10,
    },
];

/// Every per-layer metric with its unit, from the traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.gen_s", "s"),
    ("trace.step_s", "s"),
    ("dcsim.dvfs_pass_ms", "ms"),
    ("dcsim.power_pass_ms", "ms"),
    ("dcsim.dvfs_transitions", "count"),
    ("dcsim.wake_transitions", "count"),
    ("dcsim.sleep_transitions", "count"),
    ("consolidate.search_s", "s"),
    ("relief.migrations", "count"),
    ("optimizer.invocations", "count"),
    ("optimizer.busy_s", "s"),
    ("optimizer.snapshot_s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.initial_plan_s", "s"),
    ("optimizer.initial_apply_s", "s"),
    ("optimizer.migrations_proposed", "count"),
    ("optimizer.migrations_applied", "count"),
    ("optimizer.apply_ratio", "ratio"),
    ("loop.sample_p50_ms", "ms"),
    ("loop.sample_p90_ms", "ms"),
    ("loop.demand_s", "s"),
    ("run.outside_loop_s", "s"),
    ("run.unattributed_s", "s"),
    ("control.mpc_steps", "count"),
    ("control.qp_fallback_ratio", "ratio"),
    ("apptier.period_us", "us"),
    ("apptier.samples_per_period", "count"),
    ("churn.arrivals", "count"),
    ("churn.admitted", "count"),
    ("churn.rejections", "count"),
    ("churn.wake_retries", "count"),
    ("churn.admit_ratio", "ratio"),
    ("faults.crashes", "count"),
    ("faults.evacuated_vms", "count"),
    ("faults.stranded_vms", "count"),
    ("faults.watchdog_reliefs", "count"),
    ("shard.speedup", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("host.speed", "ratio"),
];

/// Unit of a per-layer metric.
///
/// # Panics
/// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}
