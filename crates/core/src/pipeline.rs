//! One sample pipeline: the data-center stages every runner shares.
//!
//! The trace replay ([`crate::largescale`], and through it streaming and
//! [`crate::churn`]) and the co-simulation ([`crate::cosim`]) each run
//! their own demand stage first, then drive one [`SimState`] through the
//! same stages, in this order, once per sample:
//!
//! 1. [`SimState::host_events`]: host crashes (with evacuation) and
//!    recoveries from the fault plan;
//! 2. [`SimState::consolidate_or_relieve`]: the optimizer on its long
//!    period, the overload-relief pass between invocations;
//! 3. [`SimState::dvfs`]: the server arbitrator;
//! 4. [`SimState::account`]: the one power charge;
//! 5. [`SimState::watchdog`]: the SLO watchdog of faulted runs.
//!
//! [`SimState::finish`] rolls the run up after the last sample. The shared
//! stages' own telemetry keys carry the runner's prefix (`largescale.*` or
//! `cosim.*`); the layer families they feed (`dcsim.*`, `fault.*`,
//! `optimizer.*`) do not.

use crate::optimizer::{OptimizerConfig, PowerOptimizer};
use crate::run::RunOptions;
use crate::Result;
use vdc_apptier::rng::SimRng;
use vdc_consolidate::constraint::AndConstraint;
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::MinSlackConfig;
use vdc_consolidate::pac::pac_pack;
use vdc_consolidate::relief::{relieve_overloads, ReliefConfig};
use vdc_consolidate::view::{apply_plan, apply_plan_fallible, snapshot};
use vdc_dcsim::{DataCenter, FleetSpec, ServerHandle, VmHandle, VmId};
use vdc_faults::{FaultSession, HostFaultKind};
use vdc_telemetry::{SpanTimer, Telemetry};

/// Mean capacity (GHz) of one server of the paper fleet's 15/35/50 type
/// mix; both runners size that fleet from it.
pub(crate) const PAPER_MEAN_CAPACITY_GHZ: f64 = 0.15 * 12.0 + 0.35 * 4.0 + 0.5 * 3.0;

/// Consecutive SLO-violation samples that trip the fault watchdog's
/// emergency relief pass.
const WATCHDOG_STREAK: usize = 3;

/// How a runner drives the shared stages.
pub(crate) struct Stages {
    /// Prefix of the runner's telemetry keys: `largescale` or `cosim`.
    pub(crate) prefix: &'static str,
    /// Optimizer invocation period, in samples.
    pub(crate) optimizer_period: usize,
    /// Run the overload-relief pass on the samples between invocations.
    pub(crate) relief: bool,
    /// Run the DVFS arbitrator; `false` pins active servers at max frequency.
    pub(crate) dvfs: bool,
    /// Length of one sample (seconds).
    pub(crate) interval_s: f64,
    /// Resolved worker count of the coarse fan-outs: the Minimum Slack
    /// roots and pod plans of the optimizer, evacuation and admission. The
    /// stages themselves run on the calling thread.
    pub(crate) shards: usize,
}

/// What one sample's power charge measured over the active servers.
pub(crate) struct Charge {
    /// Facility power (watts): IT power × site PUE × the runner's factor.
    pub(crate) watts: f64,
    /// Active servers.
    pub(crate) active: usize,
    /// CPU demand on the active servers (GHz).
    pub(crate) demand_ghz: f64,
    /// Demand beyond its host's maximum capacity (GHz), left unserved.
    pub(crate) unmet_ghz: f64,
}

/// Run-level totals, rolled up by [`SimState::finish`].
pub(crate) struct Totals {
    /// Facility energy (Wh), plus wake energy.
    pub(crate) energy_wh: f64,
    /// The same before PUE (Wh).
    pub(crate) it_energy_wh: f64,
    /// Energy of wake transitions (Wh).
    pub(crate) wake_energy_wh: f64,
    /// Facility energy per site (Wh), without wake energy.
    pub(crate) site_energy_wh: Vec<f64>,
    /// Mean active servers per sample.
    pub(crate) mean_active_servers: f64,
    /// Peak active servers.
    pub(crate) peak_active_servers: usize,
    /// Optimizer plus relief migrations.
    pub(crate) migrations: u64,
    /// Relief migrations (periodic and watchdog passes).
    pub(crate) relief_migrations: u64,
    /// Optimizer invocations, the initial placement included.
    pub(crate) optimizer_invocations: u64,
    /// Unserved share of all CPU demand.
    pub(crate) sla_violation_fraction: f64,
    /// Final placement `(vm id, server index)`, sorted by VM id.
    pub(crate) final_placements: Vec<(u64, usize)>,
}

/// The data center, its optimizer, the fault session and the run
/// accumulators that the shared stages act on.
pub(crate) struct SimState<'a> {
    /// The simulated data center; the runners' demand stages write it.
    pub(crate) dc: DataCenter,
    /// The fault session. Everything fault-related is behind this one
    /// `Option`: `RunOptions::faults()` normalizes empty plans to `None`,
    /// so a fault-free run executes the exact pre-fault instruction stream.
    pub(crate) faults: Option<FaultSession<'a>>,
    /// The run's telemetry sink.
    pub(crate) telemetry: Telemetry,
    /// How the runner drives the stages.
    pub(crate) stages: Stages,
    optimizer: PowerOptimizer,
    violation_streak: usize,
    samples: usize,
    active_sum: usize,
    peak_active: usize,
    relief_migrations: u64,
    energy_wh: f64,
    it_energy_wh: f64,
    site_energy_wh: Vec<f64>,
    demand_ghz: f64,
    unmet_ghz: f64,
}

impl<'a> SimState<'a> {
    /// Stamp `fleet` into a new data center, drawing each server's type
    /// from `rng`, and set up the optimizer and the fault session.
    pub(crate) fn new(
        stages: Stages,
        fleet: &FleetSpec,
        rng: &mut SimRng,
        optimizer: OptimizerConfig,
        opts: &RunOptions<'a>,
    ) -> Result<SimState<'a>> {
        let telemetry = opts.telemetry();
        let mut dc = DataCenter::new();
        fleet.build_with(&mut dc, &mut |n| rng.index(n))?;
        let mut optimizer = PowerOptimizer::new(optimizer);
        optimizer.set_telemetry(telemetry.clone());
        optimizer.set_shards(stages.shards);
        optimizer.set_pods(opts.pods);
        let faults = opts.faults().map(|plan| {
            register_fault_keys(&telemetry);
            FaultSession::new(plan)
        });
        Ok(SimState {
            dc,
            faults,
            optimizer,
            telemetry,
            stages,
            violation_streak: 0,
            samples: 0,
            active_sum: 0,
            peak_active: 0,
            relief_migrations: 0,
            energy_wh: 0.0,
            it_energy_wh: 0.0,
            site_energy_wh: vec![0.0; fleet.sites.len()],
            demand_ghz: 0.0,
            unmet_ghz: 0.0,
        })
    }

    /// The runner-prefixed telemetry key of `stat`.
    fn key(&self, stat: &str) -> String {
        format!("{}.{stat}", self.stages.prefix)
    }

    /// A span timing into the runner-prefixed histogram `stat`.
    pub(crate) fn timer(&self, stat: &str) -> SpanTimer {
        self.telemetry.timer(&self.key(stat))
    }

    /// Migrations so far, optimizer and relief.
    pub(crate) fn migrations(&self) -> u64 {
        self.optimizer.total_migrations() + self.relief_migrations
    }

    /// One optimizer invocation over the fleet plus `items`, registered VMs
    /// not yet placed: the initial placement, and stage 2's long period.
    pub(crate) fn optimize(&mut self, items: &[PackItem]) -> Result<()> {
        match self.faults.as_mut() {
            Some(f) => self.optimizer.optimize_faulted(&mut self.dc, items, f)?,
            None => self.optimizer.optimize(&mut self.dc, items)?,
        };
        Ok(())
    }

    /// Stage 1: replay every host crash/recover event due at sample `t`.
    /// A crash evacuates the host's VMs (see [`evacuate`]). Out-of-range
    /// host indices (a plan drawn for a larger fleet) are skipped.
    pub(crate) fn host_events(&mut self, t: usize) -> Result<()> {
        let Some(f) = self.faults.as_mut() else {
            return Ok(());
        };
        // Timed after the session check, so a fault-free run exports no
        // `host_events_ns` key. `self.timer` would borrow all of `self`
        // while `f` holds the session.
        let span = self
            .telemetry
            .timer(&format!("{}.host_events_ns", self.stages.prefix));
        let shards = self.stages.shards;
        for ev in f.host_events_at(t) {
            if ev.host >= self.dc.n_servers() {
                continue;
            }
            let server = ServerHandle::from_index(ev.host);
            match ev.kind {
                HostFaultKind::Crash => {
                    let evacuees = self.dc.fail_server(server)?;
                    f.crashes += 1;
                    self.telemetry.incr("fault.crashes", 1);
                    evacuate(&mut self.dc, &evacuees, shards, f, &self.telemetry)?;
                }
                HostFaultKind::Recover => {
                    self.dc.recover_server(server)?;
                    f.recoveries += 1;
                    self.telemetry.incr("fault.recoveries", 1);
                }
            }
        }
        span.finish();
        Ok(())
    }

    /// Stage 2: invoke the optimizer on its long period; between
    /// invocations, run the on-demand overload-relief pass (§III) when the
    /// runner enables it.
    pub(crate) fn consolidate_or_relieve(&mut self, t: usize) -> Result<()> {
        if t > 0 && t.is_multiple_of(self.stages.optimizer_period) {
            self.optimize(&[])
        } else if self.stages.relief {
            let span = self.timer("relief_snapshot_ns");
            let snap = snapshot(&self.dc);
            span.finish();
            self.relieve(snap)
        } else {
            Ok(())
        }
    }

    /// Plan and apply one overload-relief pass over `snap`, which the
    /// planner takes as its working state, drawing per-attempt migration
    /// failures from the fault session when one is active.
    fn relieve(&mut self, snap: Vec<PackServer>) -> Result<()> {
        let constraint = AndConstraint::cpu_and_memory();
        let span = self.timer("relief_plan_ns");
        let plan = relieve_overloads(snap, &constraint, &ReliefConfig::default());
        span.finish();
        if plan.is_empty() {
            return Ok(());
        }
        let migrations = match self.faults.as_mut() {
            Some(f) => {
                let max_attempts = f.plan().max_migration_attempts();
                let partial = apply_plan_fallible(&mut self.dc, &plan, max_attempts, || {
                    f.draw_migration_failure()
                })?;
                f.migration_retries += partial.retries;
                f.migrations_dropped += partial.dropped as u64;
                f.stranded_vms += partial.stranded.len() as u64;
                if partial.is_partial() {
                    f.plan_partials += 1;
                    self.telemetry.incr("optimizer.plan_partial", 1);
                }
                partial.stats.migrations
            }
            None => apply_plan(&mut self.dc, &plan)?.migrations,
        };
        self.relief_migrations += migrations as u64;
        self.telemetry
            .incr(&self.key("relief_migrations"), migrations as u64);
        Ok(())
    }

    /// Stage 3: the server-level arbitrator, one index-order pass over the
    /// servers. Without DVFS, active servers run at maximum frequency and
    /// idle ones still sleep (both schemes consolidate).
    pub(crate) fn dvfs(&mut self) -> Result<()> {
        if !self.stages.dvfs {
            for i in 0..self.dc.n_servers() {
                let s = ServerHandle::from_index(i);
                if self.dc.server(s)?.is_active() {
                    if self.dc.hosted_vms(s)?.is_empty() {
                        self.dc.sleep_server(s)?;
                    } else {
                        self.dc.wake_server(s)?; // ensures Active at max frequency
                    }
                }
            }
            return Ok(());
        }
        let span = self.timer("dvfs_ns");
        self.dc.apply_dvfs(true)?;
        span.finish();
        Ok(())
    }

    /// Stage 4, the one power charge: each active server draws
    /// `power_watts(demand) × server_pue × factor`, where `demand` is its
    /// hosted demand, summed once per server for both the price and the
    /// charge, and `factor` is the co-simulation's `RunOptions::pue`
    /// sample and 1.0 in the replay.
    /// The IT sum, the facility sum and the per-site sums all come out of
    /// this one fold. Only active servers are charged: the paper's
    /// inactive pool is powered off, not suspended. Demand beyond a host's
    /// maximum capacity goes unserved (the SLA proxy). Every sum is a fold
    /// in active-list order.
    pub(crate) fn account(&mut self, factor: f64) -> Result<Charge> {
        let active = self.dc.active_servers();
        let span = self.timer("power_map_ns");
        let mut charge = Charge {
            watts: 0.0,
            active: active.len(),
            demand_ghz: 0.0,
            unmet_ghz: 0.0,
        };
        let mut it_watts = 0.0_f64;
        let mut site_watts = vec![0.0_f64; self.site_energy_wh.len()];
        for &s in &active {
            let server = self.dc.server(s)?;
            let demand = self.dc.server_demand_ghz(s)?;
            let it = server.power_watts(demand);
            let cap = server.spec.max_capacity_ghz();
            let w = it * self.dc.server_pue(s) * factor;
            let unmet = (demand - cap).max(0.0);
            self.telemetry.record("dcsim.server_power_w", w);
            it_watts += it;
            charge.watts += w;
            site_watts[self.dc.server_site(s)] += w;
            self.demand_ghz += demand;
            self.unmet_ghz += unmet;
            charge.demand_ghz += demand;
            charge.unmet_ghz += unmet;
        }
        span.finish();
        let interval_s = self.stages.interval_s;
        self.energy_wh += charge.watts * interval_s / 3600.0;
        self.it_energy_wh += it_watts * interval_s / 3600.0;
        for (e, w) in self.site_energy_wh.iter_mut().zip(&site_watts) {
            *e += w * interval_s / 3600.0;
        }
        self.samples += 1;
        self.active_sum += charge.active;
        self.peak_active = self.peak_active.max(charge.active);
        self.telemetry.incr(&self.key("samples"), 1);
        Ok(charge)
    }

    /// Stage 5, the SLO watchdog of faulted runs: `violated` samples in a
    /// row trip an out-of-cadence emergency relief pass. A crash can dump
    /// VMs onto busy hosts faster than the periodic cadence fixes them, and
    /// on optimizer samples the regular relief does not run.
    pub(crate) fn watchdog(&mut self, violated: bool) -> Result<()> {
        let Some(f) = self.faults.as_mut() else {
            return Ok(());
        };
        self.violation_streak = if violated {
            self.violation_streak + 1
        } else {
            0
        };
        if self.violation_streak < WATCHDOG_STREAK {
            return Ok(());
        }
        self.violation_streak = 0;
        f.watchdog_reliefs += 1;
        self.telemetry.incr("fault.watchdog_reliefs", 1);
        let snap = snapshot(&self.dc);
        self.relieve(snap)
    }

    /// Roll the run up: wake energy, the fault session's apply-path
    /// aggregates, the arbitrator's transition counts, the energy gauge,
    /// the migration total and the final placement.
    pub(crate) fn finish(self) -> Totals {
        // Wake-transition energy is added unscaled (IT level) to both totals.
        let wake_energy_wh = self.dc.wake_energy_wh();
        let energy_wh = self.energy_wh + wake_energy_wh;
        let it_energy_wh = self.it_energy_wh + wake_energy_wh;
        let telemetry = &self.telemetry;
        if let Some(f) = &self.faults {
            telemetry.incr("fault.migration_retries", f.migration_retries);
            telemetry.incr("fault.migrations_dropped", f.migrations_dropped);
            telemetry.incr("fault.plan_partials", f.plan_partials);
            telemetry.incr("fault.wake_failures", f.wake_failures);
            telemetry.incr("fault.stranded_vms", f.stranded_vms);
        }
        telemetry.incr("dcsim.dvfs_transitions", self.dc.dvfs_transitions());
        telemetry.incr("dcsim.wake_transitions", self.dc.wake_count());
        telemetry.incr("dcsim.sleep_transitions", self.dc.sleep_count());
        telemetry.gauge_set("dcsim.wake_energy_wh", wake_energy_wh);
        telemetry.gauge_set(&self.key("total_energy_wh"), energy_wh);
        let migrations = self.migrations();
        telemetry.incr(&self.key("migrations"), migrations);
        // Label-ordered (VmId-sorted) iteration.
        let final_placements = self
            .dc
            .vm_handles()
            .filter_map(|(id, h)| Some((id.0, self.dc.placement_of(h)?.index())))
            .collect();
        Totals {
            energy_wh,
            it_energy_wh,
            wake_energy_wh,
            site_energy_wh: self.site_energy_wh,
            mean_active_servers: self.active_sum as f64 / self.samples as f64,
            peak_active_servers: self.peak_active,
            migrations,
            relief_migrations: self.relief_migrations,
            optimizer_invocations: self.optimizer.invocations(),
            sla_violation_fraction: if self.demand_ghz > 0.0 {
                self.unmet_ghz / self.demand_ghz
            } else {
                0.0
            },
            final_placements,
        }
    }
}

/// Fault counters pre-registered at session creation, so every faulted
/// run exports the same key set whichever paths fire.
fn register_fault_keys(telemetry: &Telemetry) {
    for key in [
        "fault.crashes",
        "fault.recoveries",
        "fault.evacuated_vms",
        "fault.stranded_vms",
        "fault.watchdog_reliefs",
        "fault.migration_retries",
        "fault.migrations_dropped",
        "fault.plan_partials",
        "fault.wake_failures",
        "optimizer.plan_partial",
    ] {
        telemetry.incr(key, 0);
    }
}

/// Where [`pack_onto_fleet`] put each VM.
pub(crate) struct Packed {
    /// Placements onto active servers.
    pub(crate) active: Vec<(VmId, ServerHandle)>,
    /// Placements onto sleeping servers; placing a VM there wakes its host.
    pub(crate) woken: Vec<(VmId, ServerHandle)>,
    /// VMs that fit nowhere.
    pub(crate) unplaced: Vec<VmId>,
}

/// Pack registered, unplaced VMs the way evacuation and admission both
/// do: Minimum Slack onto the active servers, then, with `spill`, what fit
/// nowhere active onto the sleeping pool. Both passes pack one
/// index-ordered snapshot; `shards` fans out only their Minimum Slack
/// roots (bit-identical at every shard count), and `dc` itself is not
/// touched. Failed hosts land in the inactive partition advertising zero
/// capacity; they are dropped from the pool, so the spill pass cannot
/// select one (a zero-demand item would otherwise "fit").
pub(crate) fn pack_onto_fleet(
    dc: &DataCenter,
    items: &[PackItem],
    shards: usize,
    spill: bool,
) -> Packed {
    let (mut active, mut sleeping): (Vec<PackServer>, Vec<PackServer>) =
        snapshot(dc).into_iter().partition(|s| s.active);
    sleeping.retain(|s| s.cpu_capacity_ghz > 0.0);
    let constraint = AndConstraint::cpu_and_memory();
    let minslack = MinSlackConfig {
        shards,
        ..MinSlackConfig::default()
    };
    let on = |view: &[PackServer], assignments: Vec<(VmId, usize)>| {
        let server = |si: usize| ServerHandle::from_index(view[si].index);
        assignments
            .into_iter()
            .map(|(id, si)| (id, server(si)))
            .collect()
    };
    let first = pac_pack(&mut active, items, &constraint, &minslack);
    let mut packed = Packed {
        active: on(&active, first.assignments),
        woken: Vec::new(),
        unplaced: first.unplaced,
    };
    if spill && !packed.unplaced.is_empty() {
        let rest: Vec<PackItem> = items
            .iter()
            .filter(|i| packed.unplaced.contains(&i.vm))
            .cloned()
            .collect();
        let second = pac_pack(&mut sleeping, &rest, &constraint, &minslack);
        packed.woken = on(&sleeping, second.assignments);
        packed.unplaced = second.unplaced;
    }
    packed
}

/// Re-place the VMs evacuated from a crashed host: onto the active fleet
/// first, spilling onto the sleeping pool (waking hosts), and count
/// whatever fits nowhere as stranded. Stranding only happens when capacity
/// is genuinely exhausted (not even waking every sleeping host fits the
/// VM). A stranded VM stays registered but unplaced — removing it would
/// recycle its arena slot and corrupt any external owner bookkeeping keyed
/// by slot — and simply runs no work for the rest of the horizon.
fn evacuate(
    dc: &mut DataCenter,
    evacuees: &[VmHandle],
    shards: usize,
    faults: &mut FaultSession<'_>,
    telemetry: &Telemetry,
) -> Result<()> {
    if evacuees.is_empty() {
        return Ok(());
    }
    let mut items = Vec::with_capacity(evacuees.len());
    for &h in evacuees {
        let spec = dc.vm(h)?;
        items.push(PackItem::new(spec.id, dc.vm_demand(h)?, spec.memory_mib));
    }
    let packed = pack_onto_fleet(dc, &items, shards, true);
    for &(id, server) in packed.active.iter().chain(&packed.woken) {
        let vm = dc.lookup(id).expect("an evacuee stays registered");
        dc.place_vm(vm, server)?;
    }
    let evacuated = packed.active.len() + packed.woken.len();
    telemetry.incr("fault.evacuated_vms", evacuated as u64);
    faults.stranded_vms += packed.unplaced.len() as u64;
    Ok(())
}
