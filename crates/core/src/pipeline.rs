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
//! The testbed ([`crate::testbed`]) runs only stages 3 and 4 after its
//! demand stage, and throttles oversubscribed servers between them.
//!
//! [`SimState::finish`] rolls the run up after the last sample. The shared
//! stages' own telemetry keys carry the runner's prefix (`largescale.*`,
//! `cosim.*` or `testbed.*`); the layer families they feed (`dcsim.*`,
//! `fault.*`, `optimizer.*`) do not.

use crate::optimizer::{apply_with_faults, OptimizerConfig, PowerOptimizer};
use crate::run::RunOptions;
use crate::Result;
use vdc_consolidate::constraint::AndConstraint;
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::MinSlackConfig;
use vdc_consolidate::pac::pac_pack;
use vdc_consolidate::relief::{relieve_overloads, ReliefConfig};
use vdc_consolidate::view::{candidates, snapshot, ApplyStats};
use vdc_dcsim::{DataCenter, ServerHandle, VmHandle, VmId};
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
    /// Prefix of the runner's telemetry keys: `largescale`, `cosim` or `testbed`.
    pub(crate) prefix: &'static str,
    /// Optimizer invocation period, in samples.
    pub(crate) optimizer_period: usize,
    /// Run the overload-relief pass on the samples between invocations.
    pub(crate) relief: bool,
    /// Run the DVFS arbitrator; `false` pins active servers at max frequency.
    pub(crate) dvfs: bool,
    /// Length of one sample (seconds).
    pub(crate) interval_s: f64,
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
    /// Take over the data center the runner built, and set up the
    /// optimizer, the fault session and one energy sum per site.
    pub(crate) fn new(
        stages: Stages,
        dc: DataCenter,
        optimizer: OptimizerConfig,
        opts: &RunOptions<'a>,
    ) -> SimState<'a> {
        let telemetry = opts.telemetry();
        let mut optimizer = PowerOptimizer::new(optimizer);
        optimizer.set_telemetry(telemetry.clone());
        optimizer.set_shards(opts.shards());
        optimizer.set_pods(opts.pods);
        let faults = opts.faults().map(|plan| {
            register_fault_keys(&telemetry);
            FaultSession::new(plan)
        });
        SimState {
            site_energy_wh: vec![0.0; dc.n_sites()],
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
            demand_ghz: 0.0,
            unmet_ghz: 0.0,
        }
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
    /// not yet placed: the initial placement, stage 2 and
    /// `Testbed::run_optimizer`.
    pub(crate) fn optimize(&mut self, items: &[PackItem]) -> Result<ApplyStats> {
        self.optimizer
            .invoke(&mut self.dc, items, self.faults.as_mut())
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
                    evacuate(&mut self.dc, &evacuees, f, &self.telemetry)?;
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
            self.optimize(&[])?;
        } else if self.stages.relief {
            let span = self.timer("relief_snapshot_ns");
            let snap = snapshot(&self.dc);
            span.finish();
            self.relieve(snap)?;
        }
        Ok(())
    }

    /// Plan and apply one overload-relief pass over `snap`, which the
    /// planner takes as its working state, drawing per-attempt migration
    /// failures from the fault session when one is active
    /// ([`apply_with_faults`]).
    fn relieve(&mut self, snap: Vec<PackServer>) -> Result<()> {
        let constraint = AndConstraint::cpu_and_memory();
        let span = self.timer("relief_plan_ns");
        let plan = relieve_overloads(snap, &constraint, &ReliefConfig::default());
        span.finish();
        if plan.is_empty() {
            return Ok(());
        }
        let migrations =
            apply_with_faults(&mut self.dc, &plan, self.faults.as_mut(), &self.telemetry)?
                .migrations;
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
        self.dc.apply_dvfs()?;
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
/// do: PAC with Minimum Slack onto the active servers, then, with `spill`,
/// what fit nowhere active onto the sleeping pool. Each pass packs only
/// its side's [`candidates`], the servers that can take at least one of
/// its VMs alone, so a small batch does not walk the whole fleet; the
/// placements are the ones packing the whole side would make. The spill
/// pass builds its side only when it runs, and never offers a failed
/// host. `dc` itself is not touched.
pub(crate) fn pack_onto_fleet(dc: &DataCenter, items: &[PackItem], spill: bool) -> Packed {
    let constraint = AndConstraint::cpu_and_memory();
    let pack = |active: bool, items: &[PackItem]| {
        let mut servers = candidates(dc, active, items, &constraint);
        let result = pac_pack(&mut servers, items, &constraint, &MinSlackConfig::default());
        let placed = result
            .assignments
            .into_iter()
            .map(|(id, si)| (id, ServerHandle::from_index(servers[si].index)))
            .collect();
        (placed, result.unplaced)
    };
    let (active, mut unplaced) = pack(true, items);
    let mut woken = Vec::new();
    if spill && !unplaced.is_empty() {
        let rest: Vec<PackItem> = items
            .iter()
            .filter(|i| unplaced.contains(&i.vm))
            .cloned()
            .collect();
        (woken, unplaced) = pack(false, &rest);
    }
    Packed {
        active,
        woken,
        unplaced,
    }
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
    let packed = pack_onto_fleet(dc, &items, true);
    for &(id, server) in packed.active.iter().chain(&packed.woken) {
        let vm = dc.lookup(id).expect("an evacuee stays registered");
        dc.place_vm(vm, server)?;
    }
    let evacuated = packed.active.len() + packed.woken.len();
    telemetry.incr("fault.evacuated_vms", evacuated as u64);
    faults.stranded_vms += packed.unplaced.len() as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use vdc_check::{check, from_fn, prop_assert_eq, TestRng};
    use vdc_consolidate::constraint::Constraint;
    use vdc_dcsim::{Server, ServerSpec, VmSpec};

    /// [`pack_onto_fleet`] as it packed before candidates: a snapshot of
    /// the whole fleet, partitioned into its active and its sleeping
    /// servers, the sleeping side without zero-capacity (failed) hosts,
    /// and PAC over each side.
    fn pack_onto_snapshot(dc: &DataCenter, items: &[PackItem], spill: bool) -> Packed {
        let (mut active, mut sleeping): (Vec<PackServer>, Vec<PackServer>) =
            snapshot(dc).into_iter().partition(|s| s.active);
        sleeping.retain(|s| s.cpu_capacity_ghz > 0.0);
        let constraint = AndConstraint::cpu_and_memory();
        let minslack = MinSlackConfig::default();
        let on = |view: &[PackServer], assignments: Vec<(VmId, usize)>| {
            assignments
                .into_iter()
                .map(|(id, si)| (id, ServerHandle::from_index(view[si].index)))
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

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum HostState {
        Active,
        Asleep,
        /// Hosts its VMs, then crashes, which unplaces them.
        Failed,
    }

    /// One generated host: its model (an index into
    /// [`ServerSpec::catalog`]), its site, its state, and the VMs placed on
    /// it as `(CPU GHz, memory MiB)`.
    #[derive(Debug, Clone)]
    struct Host {
        model: usize,
        site: usize,
        state: HostState,
        vms: Vec<(f64, f64)>,
    }

    /// A small data center and a batch of `(CPU GHz, memory MiB)` items.
    #[derive(Debug, Clone)]
    struct Case {
        hosts: Vec<Host>,
        batch: Vec<(f64, f64)>,
    }

    /// A demand against `cap` GHz: zero, large or small.
    fn cpu(rng: &mut TestRng, cap: f64) -> f64 {
        match rng.usize_in(0, 6) {
            0 => 0.0,
            1 => rng.f64_in(0.5 * cap, 1.1 * cap),
            _ => rng.f64_in(0.0, 0.25 * cap),
        }
    }

    /// A footprint against `mem` MiB: none (with zero CPU, such an item
    /// passes even a failed host's zero ceilings), memory-heavy or
    /// ordinary.
    fn memory(rng: &mut TestRng, mem: f64) -> f64 {
        match rng.usize_in(0, 8) {
            0 => 0.0,
            1 | 2 => rng.f64_in(0.5 * mem, 1.05 * mem),
            _ => rng.f64_in(64.0, 2048.0),
        }
    }

    fn case(rng: &mut TestRng) -> Case {
        let catalog = ServerSpec::catalog();
        let hosts = (0..rng.usize_in(1, 13))
            .map(|_| {
                let model = rng.usize_in(0, catalog.len());
                let (cap, mem) = (catalog[model].max_capacity_ghz(), catalog[model].memory_mib);
                let state = match rng.usize_in(0, 10) {
                    0..=4 => HostState::Active,
                    5..=7 => HostState::Asleep,
                    _ => HostState::Failed,
                };
                let vms = if state == HostState::Asleep {
                    Vec::new()
                } else if rng.bool() {
                    // Near full: CPU filled to within a hair of capacity,
                    // sometimes just past it.
                    let mut left = cap * rng.f64_in(0.97, 1.02);
                    let mut vms = Vec::new();
                    while left > 1e-3 {
                        let d = rng.f64_in(0.1, 0.5 * cap).min(left);
                        vms.push((d, rng.f64_in(64.0, mem / 6.0)));
                        left -= d;
                    }
                    vms
                } else {
                    (0..rng.usize_in(0, 5))
                        .map(|_| (cpu(rng, cap), memory(rng, mem)))
                        .collect()
                };
                Host {
                    model,
                    site: rng.usize_in(0, 2),
                    state,
                    vms,
                }
            })
            .collect();
        let batch = (0..rng.usize_in(1, 61))
            .map(|_| (cpu(rng, 6.0), memory(rng, 8192.0)))
            .collect();
        Case { hosts, batch }
    }

    /// The data center of `case`: site 1 runs at PUE 1.25, and a VM whose
    /// memory does not fit its host is not registered.
    fn build(case: &Case) -> DataCenter {
        let catalog = ServerSpec::catalog();
        let mut dc = DataCenter::new();
        for host in &case.hosts {
            let spec = catalog[host.model].clone();
            let server = match host.state {
                HostState::Asleep => Server::asleep(spec),
                HostState::Active | HostState::Failed => Server::active(spec),
            };
            dc.add_server_in_site(server, host.site).unwrap();
        }
        if dc.n_sites() > 1 {
            dc.set_site_pue(1, 1.25).unwrap();
        }
        let mut id = 0;
        for (i, host) in case.hosts.iter().enumerate() {
            let server = ServerHandle::from_index(i);
            for &(cpu, mem) in &host.vms {
                let vm = dc.add_vm(VmSpec::new(id, cpu, mem)).unwrap();
                id += 1;
                if dc.place_vm(vm, server).is_err() {
                    dc.remove_vm(vm).unwrap();
                }
            }
            if host.state == HostState::Failed {
                dc.fail_server(server).unwrap();
            }
        }
        dc
    }

    #[test]
    fn packing_onto_candidates_matches_packing_the_whole_fleet() {
        let constraint = AndConstraint::cpu_and_memory();
        let dropped_visited = Cell::new(0u32);
        let spilled = Cell::new(0u32);
        let fit_later = Cell::new(0u32);
        check(256, &from_fn(case), |case| {
            let dc = build(case);
            let items: Vec<PackItem> = (0..)
                .zip(&case.batch)
                .map(|(j, &(cpu, mem))| PackItem::new(VmId(10_000 + j), cpu, mem))
                .collect();
            for spill in [false, true] {
                let got = pack_onto_fleet(&dc, &items, spill);
                let want = pack_onto_snapshot(&dc, &items, spill);
                prop_assert_eq!(&got.active, &want.active, "active, spill {spill}");
                prop_assert_eq!(&got.woken, &want.woken, "woken, spill {spill}");
                prop_assert_eq!(&got.unplaced, &want.unplaced, "unplaced, spill {spill}");
                if spill && !want.woken.is_empty() {
                    spilled.set(spilled.get() + 1);
                }
            }

            // Coverage, read off the reference's pass over the active side:
            // the servers it visited in efficiency order, and where each
            // item landed.
            let snap = snapshot(&dc);
            let mut order: Vec<&PackServer> = snap.iter().filter(|s| s.active).collect();
            order.sort_by(|a, b| {
                b.power_efficiency()
                    .total_cmp(&a.power_efficiency())
                    .then(a.index.cmp(&b.index))
            });
            let rank = |s: ServerHandle| order.iter().position(|o| o.index == s.index());
            let first = pack_onto_snapshot(&dc, &items, false);
            // PAC stops visiting once every item has landed.
            let visited = if first.unplaced.is_empty() {
                first
                    .active
                    .iter()
                    .filter_map(|&(_, s)| rank(s))
                    .max()
                    .map_or(0, |r| r + 1)
            } else {
                order.len()
            };
            let kept: Vec<usize> = candidates(&dc, true, &items, &constraint)
                .iter()
                .map(|s| s.index)
                .collect();
            if order[..visited].iter().any(|s| !kept.contains(&s.index)) {
                dropped_visited.set(dropped_visited.get() + 1);
            }
            let refused_earlier = |&(id, s): &(VmId, ServerHandle)| {
                let item = items.iter().find(|i| i.vm == id).expect("a batch item");
                let r = rank(s).expect("placed on an active server");
                order[..r]
                    .iter()
                    .any(|o| !constraint.admits(o, std::slice::from_ref(item)))
            };
            if first.active.iter().any(refused_earlier) {
                fit_later.set(fit_later.get() + 1);
            }
            Ok(())
        });
        for (name, count) in [
            ("a visited server was not a candidate", &dropped_visited),
            ("the spill pass woke a server", &spilled),
            (
                "an item fit only a server later in efficiency order",
                &fit_later,
            ),
        ] {
            assert!(count.get() > 0, "no case covered: {name}");
        }
    }
}
