//! Fault-plan generation and the per-run consumption cursor.

use vdc_apptier::rng::{seed_stream, SimRng};

/// RNG stream tags: one per fault class, so the crash schedule, dropout
/// windows, migration outcomes, and wake outcomes never share draws even
/// though all four derive from one plan seed.
const STREAM_HOSTS: u64 = 0x5646_4C54; // "VFLT"
const STREAM_DROPOUT: u64 = 0x5644_524F; // "VDRO"
const STREAM_MIGRATION: u64 = 0x564D_4947; // "VMIG"
const STREAM_WAKE: u64 = 0x5657_414B; // "VWAK"

/// Configuration of the fault generator. Every knob defaults to "off";
/// a config that injects nothing generates a plan for which
/// [`FaultPlan::is_empty`] is true, and run loops treat such a plan
/// exactly like no plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Mean time to failure per host (seconds, exponential inter-failure
    /// times); `0` disables host crashes.
    pub host_mttf_s: f64,
    /// Mean time to repair a crashed host (seconds, exponential).
    pub host_mttr_s: f64,
    /// Probability that one migration *attempt* in an optimizer plan
    /// fails; `0` disables migration faults.
    pub migration_failure_prob: f64,
    /// Total deterministic backoff budget (in abstract backoff units) a
    /// migration may spend on retries. Retry `i` costs `2^i` units, so a
    /// budget of 7 buys retries at costs 1 + 2 + 4 (four attempts total);
    /// a budget of 0 means one attempt, no retries. No wall clock is
    /// involved — the schedule only bounds the retry count.
    pub migration_backoff_budget: u32,
    /// Probability that one wake attempt in the `WakeAndRetry` admission
    /// path fails; `0` disables wake faults.
    pub wake_failure_prob: f64,
    /// Mean sensor-dropout windows per application per day; `0` disables
    /// sensor faults.
    pub dropouts_per_day: f64,
    /// Mean length of one dropout window (seconds, exponential; floored
    /// at one sample interval so every window masks something).
    pub dropout_mean_s: f64,
    /// Plan seed (fully deterministic given the seed).
    pub seed: u64,
}

impl FaultConfig {
    /// A config that injects nothing (the generated plan is empty).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            host_mttf_s: 0.0,
            host_mttr_s: 1_800.0,
            migration_failure_prob: 0.0,
            migration_backoff_budget: 7,
            wake_failure_prob: 0.0,
            dropouts_per_day: 0.0,
            dropout_mean_s: 1_800.0,
            seed,
        }
    }

    /// Host crashes only: exponential failures at the given MTTF, repairs
    /// at the given MTTR.
    pub fn crash_storm(host_mttf_s: f64, host_mttr_s: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            host_mttf_s,
            host_mttr_s,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Flaky migrations only: each attempt fails with probability `p`
    /// under the default backoff budget.
    pub fn flaky_migrations(p: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            migration_failure_prob: p,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Wake failures only: each `WakeAndRetry` wake attempt fails with
    /// probability `p`.
    pub fn flaky_wakes(p: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            wake_failure_prob: p,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Sensor dropout only: per-app masking windows at the given daily
    /// rate and mean length.
    pub fn sensor_dropout(per_day: f64, mean_s: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            dropouts_per_day: per_day,
            dropout_mean_s: mean_s,
            ..FaultConfig::quiet(seed)
        }
    }
}

/// What happens to a host at its fault event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The host crashes: its VMs must be evacuated and it refuses wake
    /// and placement until recovery.
    Crash,
    /// The host is repaired and rejoins the sleeping pool.
    Recover,
}

/// One timestamped host fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFault {
    /// Sample index the event fires at.
    pub(crate) at_sample: usize,
    /// Server slot index the event targets. Run loops skip events whose
    /// index is out of range for their fleet (plans may be generated for
    /// a nominal host count).
    pub host: usize,
    /// Crash or recovery.
    pub kind: HostFaultKind,
}

/// One sensor-dropout window: application `app`'s response-time
/// measurement is masked for samples in `[from_sample, until_sample)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropoutWindow {
    /// Application index the window applies to.
    pub(crate) app: usize,
    /// First masked sample.
    pub(crate) from_sample: usize,
    /// First sample past the window (exclusive).
    pub(crate) until_sample: usize,
}

/// A generated, replayable fault plan: sorted host events, per-app
/// dropout windows, and the seeds + probabilities from which per-attempt
/// migration/wake outcomes are computed as pure functions of the attempt
/// ordinal.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    host_events: Vec<HostFault>,
    dropouts: Vec<DropoutWindow>,
    migration_failure_prob: f64,
    migration_backoff_budget: u32,
    wake_failure_prob: f64,
    migration_seed: u64,
    wake_seed: u64,
}

impl FaultPlan {
    /// Generate the plan for a horizon of `n_samples` samples spaced
    /// `interval_s` seconds apart, a fleet of `n_hosts` servers (every host
    /// fails at the config's MTTF), and `n_apps` applications.
    pub fn generate(
        cfg: &FaultConfig,
        n_samples: usize,
        interval_s: f64,
        n_hosts: usize,
        n_apps: usize,
    ) -> FaultPlan {
        assert!(n_samples > 0, "fault plan needs a non-empty horizon");
        assert!(interval_s > 0.0, "fault plan needs a positive interval");
        assert!(
            (0.0..=1.0).contains(&cfg.migration_failure_prob),
            "migration failure probability {} outside [0, 1]",
            cfg.migration_failure_prob
        );
        assert!(
            (0.0..=1.0).contains(&cfg.wake_failure_prob),
            "wake failure probability {} outside [0, 1]",
            cfg.wake_failure_prob
        );
        let horizon_s = n_samples as f64 * interval_s;

        // Host crash/recover schedule: each host walks its own seed
        // stream, alternating exponential up-time (MTTF) and repair time
        // (MTTR), so adding hosts never perturbs earlier hosts' draws.
        // An MTTF <= 0 disables host crashes.
        let mut host_events = Vec::new();
        let hosts_seed = seed_stream(cfg.seed, STREAM_HOSTS);
        let mttf = cfg.host_mttf_s;
        let crashing_hosts = if mttf <= 0.0 { 0 } else { n_hosts };
        for h in 0..crashing_hosts {
            let mut rng = SimRng::seed_from_u64(seed_stream(hosts_seed, h as u64));
            let mut t_s = rng.exponential(mttf);
            // The repair sample is rounded up, so the next crash draw can
            // land inside the rounding gap; clamp it past the recovery.
            let mut up_since = 0usize;
            while t_s < horizon_s {
                let crash = ((t_s / interval_s) as usize).max(up_since);
                if crash >= n_samples {
                    break;
                }
                host_events.push(HostFault {
                    at_sample: crash,
                    host: h,
                    kind: HostFaultKind::Crash,
                });
                let repair_s = t_s + rng.exponential(cfg.host_mttr_s.max(interval_s));
                let recover = ((repair_s / interval_s).ceil() as usize).max(crash + 1);
                if recover >= n_samples {
                    break; // stays down through the end of the horizon
                }
                host_events.push(HostFault {
                    at_sample: recover,
                    host: h,
                    kind: HostFaultKind::Recover,
                });
                up_since = recover;
                t_s = repair_s + rng.exponential(mttf);
            }
        }
        // Stable sort: same-sample events keep host order (and per-host
        // crash-before-recover order), so replay application order is
        // fixed by the plan alone.
        host_events.sort_by_key(|e| e.at_sample);

        // Sensor dropout: per-app windows, again one stream per app.
        let mut dropouts = Vec::new();
        if cfg.dropouts_per_day > 0.0 {
            let gap_mean_s = 86_400.0 / cfg.dropouts_per_day;
            let drop_seed = seed_stream(cfg.seed, STREAM_DROPOUT);
            for app in 0..n_apps {
                let mut rng = SimRng::seed_from_u64(seed_stream(drop_seed, app as u64));
                let mut t_s = rng.exponential(gap_mean_s);
                while t_s < horizon_s {
                    let len_s = rng.exponential(cfg.dropout_mean_s).max(interval_s);
                    let from = (t_s / interval_s) as usize;
                    let until =
                        (((t_s + len_s) / interval_s).ceil() as usize).clamp(from + 1, n_samples);
                    dropouts.push(DropoutWindow {
                        app,
                        from_sample: from,
                        until_sample: until,
                    });
                    t_s = t_s + len_s + rng.exponential(gap_mean_s);
                }
            }
        }

        FaultPlan {
            host_events,
            dropouts,
            migration_failure_prob: cfg.migration_failure_prob,
            migration_backoff_budget: cfg.migration_backoff_budget,
            wake_failure_prob: cfg.wake_failure_prob,
            migration_seed: seed_stream(cfg.seed, STREAM_MIGRATION),
            wake_seed: seed_stream(cfg.seed, STREAM_WAKE),
        }
    }

    /// A plan that injects nothing. Run loops must produce byte-identical
    /// output under this plan and under no plan at all — the zero-fault
    /// contract `tests/determinism.rs` enforces.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            host_events: Vec::new(),
            dropouts: Vec::new(),
            migration_failure_prob: 0.0,
            migration_backoff_budget: 0,
            wake_failure_prob: 0.0,
            migration_seed: 0,
            wake_seed: 0,
        }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.host_events.is_empty()
            && self.dropouts.is_empty()
            && self.migration_failure_prob <= 0.0
            && self.wake_failure_prob <= 0.0
    }

    /// The sorted host crash/recover event stream.
    pub fn host_events(&self) -> &[HostFault] {
        &self.host_events
    }

    /// All sensor-dropout windows.
    pub fn dropout_windows(&self) -> &[DropoutWindow] {
        &self.dropouts
    }

    /// Whether application `app`'s response-time sensor is masked at
    /// sample `t`.
    pub fn sensor_dropped(&self, app: usize, t: usize) -> bool {
        self.dropouts
            .iter()
            .any(|w| w.app == app && (w.from_sample..w.until_sample).contains(&t))
    }

    /// Whether migration attempt number `attempt` (a global ordinal in
    /// deterministic apply order) fails. Pure function of the plan, so
    /// replays agree regardless of shard count.
    pub(crate) fn migration_attempt_fails(&self, attempt: u64) -> bool {
        if self.migration_failure_prob <= 0.0 {
            return false;
        }
        SimRng::seed_from_u64(seed_stream(self.migration_seed, attempt)).uniform()
            < self.migration_failure_prob
    }

    /// Whether wake attempt number `attempt` fails.
    pub(crate) fn wake_attempt_fails(&self, attempt: u64) -> bool {
        if self.wake_failure_prob <= 0.0 {
            return false;
        }
        SimRng::seed_from_u64(seed_stream(self.wake_seed, attempt)).uniform()
            < self.wake_failure_prob
    }

    /// Maximum attempts per migration under the deterministic
    /// exponential-backoff budget: attempt 0 is free, retry `i` costs
    /// `2^i` budget units, retries stop once the cumulative cost would
    /// exceed the budget.
    pub fn max_migration_attempts(&self) -> u32 {
        let mut attempts = 1u32;
        let mut spent = 0u64;
        let mut cost = 1u64;
        while spent + cost <= self.migration_backoff_budget as u64 {
            spent += cost;
            cost = cost.saturating_mul(2);
            attempts += 1;
        }
        attempts
    }
}

/// Per-run consumption state over a [`FaultPlan`]: the host-event cursor,
/// the migration/wake attempt ordinals, and the degradation counters the
/// run loop rolls up into telemetry at the end.
///
/// All consumption is strictly sequential (the run loops apply host
/// events, optimizer plans, and admission passes in deterministic index
/// order), so a session's trajectory is a pure function of the plan.
#[derive(Debug, Clone)]
pub struct FaultSession<'p> {
    plan: &'p FaultPlan,
    cursor: usize,
    migration_attempts: u64,
    wake_attempts: u64,
    /// Evacuated VMs that could not be re-placed anywhere (capacity
    /// exhausted) — the `fault.stranded_vms` counter.
    pub stranded_vms: u64,
    /// Optimizer plans that committed only a prefix of their moves.
    pub plan_partials: u64,
    /// Migration retries spent (attempts beyond the first, successful or
    /// not).
    pub migration_retries: u64,
    /// Migrations abandoned after exhausting their retry budget.
    pub migrations_dropped: u64,
    /// Wake attempts that failed in the admission path.
    pub wake_failures: u64,
    /// Host crash events applied.
    pub crashes: u64,
    /// Host recovery events applied.
    pub recoveries: u64,
    /// Samples the controller spent in hold-last-good safe mode.
    pub safe_mode_samples: u64,
    /// Out-of-cadence emergency relief passes the SLO watchdog triggered.
    pub watchdog_reliefs: u64,
}

impl<'p> FaultSession<'p> {
    /// A fresh session over a plan.
    pub fn new(plan: &'p FaultPlan) -> FaultSession<'p> {
        FaultSession {
            plan,
            cursor: 0,
            migration_attempts: 0,
            wake_attempts: 0,
            stranded_vms: 0,
            plan_partials: 0,
            migration_retries: 0,
            migrations_dropped: 0,
            wake_failures: 0,
            crashes: 0,
            recoveries: 0,
            safe_mode_samples: 0,
            watchdog_reliefs: 0,
        }
    }

    /// The plan this session consumes.
    pub fn plan(&self) -> &'p FaultPlan {
        self.plan
    }

    /// The host events due at sample `t`, advancing the cursor past them.
    /// Must be called with non-decreasing `t` (the run-loop sample order);
    /// events for skipped samples are consumed and dropped.
    pub fn host_events_at(&mut self, t: usize) -> &'p [HostFault] {
        let events = &self.plan.host_events;
        while self.cursor < events.len() && events[self.cursor].at_sample < t {
            self.cursor += 1;
        }
        let start = self.cursor;
        while self.cursor < events.len() && events[self.cursor].at_sample == t {
            self.cursor += 1;
        }
        &events[start..self.cursor]
    }

    /// Draw the outcome of the next migration attempt (true = fails).
    pub fn draw_migration_failure(&mut self) -> bool {
        let i = self.migration_attempts;
        self.migration_attempts += 1;
        self.plan.migration_attempt_fails(i)
    }

    /// Draw the outcome of the next wake attempt (true = fails).
    pub fn draw_wake_failure(&mut self) -> bool {
        let i = self.wake_attempts;
        self.wake_attempts += 1;
        let failed = self.plan.wake_attempt_fails(i);
        if failed {
            self.wake_failures += 1;
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            migration_failure_prob: 0.2,
            dropouts_per_day: 4.0,
            ..FaultConfig::crash_storm(6.0 * 3_600.0, 1_800.0, 7)
        };
        let a = FaultPlan::generate(&cfg, 96, 900.0, 20, 6);
        let b = FaultPlan::generate(&cfg, 96, 900.0, 20, 6);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&FaultConfig { seed: 8, ..cfg }, 96, 900.0, 20, 6);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn quiet_config_and_empty_plan_inject_nothing() {
        let quiet = FaultPlan::generate(&FaultConfig::quiet(3), 48, 900.0, 10, 4);
        assert!(quiet.is_empty());
        assert!(quiet.host_events().is_empty());
        assert!(quiet.dropout_windows().is_empty());
        let empty = FaultPlan::empty();
        assert!(empty.is_empty());
        assert!(!empty.migration_attempt_fails(0));
        assert!(!empty.wake_attempt_fails(0));
        let mut s = FaultSession::new(&empty);
        assert!(s.host_events_at(0).is_empty());
        assert!(!empty.sensor_dropped(0, 0));
    }

    #[test]
    fn crash_events_are_sorted_and_alternate_per_host() {
        let cfg = FaultConfig::crash_storm(4.0 * 3_600.0, 1_800.0, 11);
        let plan = FaultPlan::generate(&cfg, 192, 900.0, 30, 0);
        assert!(
            !plan.host_events().is_empty(),
            "storm MTTF must crash something"
        );
        assert!(plan
            .host_events()
            .windows(2)
            .all(|p| p[0].at_sample <= p[1].at_sample));
        // Per host, kinds strictly alternate starting with a crash, and a
        // recovery never precedes its crash.
        let mut last: std::collections::BTreeMap<usize, (HostFaultKind, usize)> =
            std::collections::BTreeMap::new();
        for e in plan.host_events() {
            match last.get(&e.host) {
                None => assert_eq!(e.kind, HostFaultKind::Crash, "host {} starts up", e.host),
                Some(&(kind, at)) => {
                    assert_ne!(kind, e.kind, "host {} repeats {kind:?}", e.host);
                    assert!(at < e.at_sample || kind == HostFaultKind::Recover);
                }
            }
            last.insert(e.host, (e.kind, e.at_sample));
        }
    }

    #[test]
    fn dropout_windows_mask_the_right_app_samples() {
        let cfg = FaultConfig::sensor_dropout(6.0, 2_700.0, 13);
        let plan = FaultPlan::generate(&cfg, 96, 900.0, 0, 3);
        assert!(!plan.dropout_windows().is_empty());
        for w in plan.dropout_windows() {
            assert!(w.app < 3);
            assert!(w.from_sample < w.until_sample);
            assert!(w.until_sample <= 96);
            assert!(plan.sensor_dropped(w.app, w.from_sample));
            assert!(
                !plan.sensor_dropped(w.app + 3, w.from_sample),
                "other apps clean"
            );
        }
        // Masked fraction is positive but the sensor is not dead.
        let masked = (0..96).filter(|&t| plan.sensor_dropped(0, t)).count();
        assert!(masked < 96);
    }

    #[test]
    fn migration_outcomes_are_pure_and_track_the_probability() {
        let cfg = FaultConfig::flaky_migrations(0.3, 17);
        let plan = FaultPlan::generate(&cfg, 48, 900.0, 0, 0);
        let n = 20_000u64;
        let fails = (0..n).filter(|&i| plan.migration_attempt_fails(i)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "failure rate {rate}");
        // Pure function: same ordinal, same answer; session draws agree.
        let mut s = FaultSession::new(&plan);
        for i in 0..100 {
            assert_eq!(s.draw_migration_failure(), plan.migration_attempt_fails(i));
        }
    }

    #[test]
    fn backoff_budget_bounds_attempts() {
        let attempts = |budget: u32| {
            FaultPlan {
                migration_backoff_budget: budget,
                ..FaultPlan::empty()
            }
            .max_migration_attempts()
        };
        assert_eq!(attempts(0), 1, "no budget, single attempt");
        assert_eq!(attempts(1), 2);
        assert_eq!(attempts(2), 2, "second retry costs 2, budget exhausted");
        assert_eq!(attempts(3), 3);
        assert_eq!(attempts(7), 4, "1 + 2 + 4 fits exactly");
        assert_eq!(attempts(8), 4);
    }

    #[test]
    fn session_cursor_walks_the_event_stream_once() {
        let cfg = FaultConfig::crash_storm(3.0 * 3_600.0, 1_800.0, 23);
        let plan = FaultPlan::generate(&cfg, 96, 900.0, 12, 0);
        let mut s = FaultSession::new(&plan);
        let mut seen = 0usize;
        for t in 0..96 {
            let events = s.host_events_at(t);
            assert!(events.iter().all(|e| e.at_sample == t));
            seen += events.len();
        }
        assert_eq!(seen, plan.host_events().len(), "every event delivered once");
        assert!(s.host_events_at(96).is_empty());
    }

    #[test]
    fn wake_outcomes_count_failures() {
        let cfg = FaultConfig::flaky_wakes(1.0, 9);
        let plan = FaultPlan::generate(&cfg, 48, 900.0, 0, 0);
        let mut s = FaultSession::new(&plan);
        for _ in 0..5 {
            assert!(s.draw_wake_failure(), "p = 1 always fails");
        }
        assert_eq!(s.wake_failures, 5);
    }
}
