//! VM lifecycle churn replay: `run_churn` and the admission-control seam.
//!
//! [`run_churn`] is [`crate::run_large_scale`] plus a lifecycle dimension:
//! a pre-generated [`ChurnWorkload`] (arrivals, departures, flash crowds)
//! is interleaved with the existing control/optimizer cadence, so IPAC
//! re-plans incrementally against a placement that drifts between
//! invocations instead of a frozen population. Departed VMs free their
//! arena slots for recycling (`vdc-dcsim`'s generation-tagged free list),
//! so long churn runs never grow the arena past the high-water live
//! population.
//!
//! # Admission
//!
//! Each arrival batch (queued VMs retrying first, then new arrivals in
//! event order) is packed onto the *active* servers with the same Minimum
//! Slack search the optimizer uses. Arrivals that fit nowhere hit the
//! configured [`AdmissionPolicy`]:
//!
//! * **Reject** — deregister immediately (`churn.rejections`);
//! * **Queue** — stay registered but unplaced and retry every sample
//!   (`churn.queue_depth` gauges the backlog);
//! * **WakeAndRetry** — pack onto the *sleeping* servers; a hit wakes the
//!   host, models its [`vdc_dcsim::ServerSpec::wake_latency_s`] as an
//!   admission delay — the VM's demand starts one sample late and the wait
//!   lands in the `churn.wake_wait_ns` histogram — and a miss falls back
//!   to rejection.
//!
//! Every decision is sequential, and each packing pass reads, straight
//! from the live data center and in index order, the servers of its side
//! that can take at least one VM of the batch on its own. So churn runs
//! stay bit-identical at every shard count; a workload with zero events
//! leaves the run loop byte-identical to [`crate::run_large_scale`].

use crate::largescale::{run_large_scale_impl, LargeScaleConfig, LargeScaleResult};
use crate::pipeline::{pack_onto_fleet, SimState};
use crate::run::RunOptions;
use crate::{CoreError, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vdc_churn::{AdmissionPolicy, ChurnWorkload, EventKind};
use vdc_consolidate::item::PackItem;
use vdc_dcsim::{DataCenter, ServerHandle, VmHandle, VmId, VmSpec};
use vdc_trace::UtilizationTrace;

/// Result of one churn run: the large-scale rollup plus lifecycle
/// accounting. `base.n_vms` and `base.energy_per_vm_wh` keep counting the
/// fixed base population only; churn VMs show up in `base.migrations`,
/// the power/energy figures, and `base.final_placements` (live churn VMs
/// carry external labels `>= base.n_vms`).
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// The underlying large-scale rollup.
    pub base: LargeScaleResult,
    /// Arrival events replayed.
    pub arrivals: u64,
    /// Departure events that removed a live VM.
    pub departures: u64,
    /// Arrivals (or queue retries) that found a server.
    pub admitted: u64,
    /// Arrivals turned away (policy `Reject`, or `WakeAndRetry` with no
    /// feasible sleeping server either).
    pub rejections: u64,
    /// Admissions that had to wake a sleeping server.
    pub wake_retries: u64,
    /// Deepest admission queue over the run (policy `Queue`).
    pub peak_queue_depth: usize,
    /// Arrivals that landed in a recycled arena slot (handle generation
    /// > 0) — nonzero whenever departures preceded arrivals.
    pub recycled_slots: u64,
    /// Churn VMs still live (placed or queued) at the end of the horizon.
    pub live_churn_vms: usize,
}

/// Run the large-scale simulation with a lifecycle-churn workload.
///
/// The workload's horizon must match the trace (`n_samples`); churn VM
/// external labels are `cfg.n_vms + k` so they never collide with the
/// base population. See [`RunOptions`] for the telemetry/shards/series
/// axes — churn adds the `churn.*` counter family on top of the
/// large-scale metrics.
pub fn run_churn(
    trace: &UtilizationTrace,
    cfg: &LargeScaleConfig,
    workload: &ChurnWorkload,
    policy: AdmissionPolicy,
    opts: &RunOptions<'_>,
) -> Result<ChurnResult> {
    if workload.n_samples() != trace.n_samples() {
        return Err(CoreError::BadConfig(format!(
            "churn workload horizon {} != trace horizon {}",
            workload.n_samples(),
            trace.n_samples()
        )));
    }
    let telemetry = opts.telemetry();
    // Pre-register the churn counter family so every scenario exports the
    // same key set regardless of which paths fire.
    for key in [
        "churn.arrivals",
        "churn.departures",
        "churn.admitted",
        "churn.rejections",
        "churn.wake_retries",
    ] {
        telemetry.incr(key, 0);
    }
    telemetry.gauge_set("churn.queue_depth", 0.0);
    let mut ctx = ChurnCtx::new(workload, policy, cfg.n_vms);
    let mut source = trace;
    let base = run_large_scale_impl(&mut source, cfg, opts, Some(&mut ctx))?;
    telemetry.gauge_set("churn.live_vms", ctx.live.len() as f64);
    Ok(ChurnResult {
        base,
        arrivals: ctx.arrivals,
        departures: ctx.departures,
        admitted: ctx.admitted,
        rejections: ctx.rejections,
        wake_retries: ctx.wake_retries,
        peak_queue_depth: ctx.peak_queue_depth,
        recycled_slots: ctx.recycled_slots,
        live_churn_vms: ctx.live.len(),
    })
}

/// Mutable churn state threaded through the run loop. One instance per
/// run; `run_large_scale_impl` calls [`ChurnCtx::apply_events`] once per
/// sample (after the demand update, before consolidation) and
/// [`ChurnCtx::write_demands`] for the churn region of the demand table.
pub(crate) struct ChurnCtx<'a> {
    workload: &'a ChurnWorkload,
    policy: AdmissionPolicy,
    /// Size of the fixed base population: churn slots start at this index
    /// and external churn labels at this id.
    base_vms: usize,
    /// Cursor into the sorted event stream.
    cursor: usize,
    /// Per churn slot (arena slot − `base_vms`): the live occupant's
    /// workload index `k` and the sample its demand becomes visible
    /// (wake-and-retry admissions start one sample late).
    owner: Vec<Option<(usize, usize)>>,
    /// Live churn VMs by workload index (placed or queued).
    live: BTreeMap<usize, VmHandle>,
    /// Workload indices awaiting placement, FIFO (policy `Queue`), each
    /// tagged with the sample it first joined the queue so admission can
    /// report how long it aged (`churn.queue_wait`, in samples).
    queue: VecDeque<(usize, usize)>,
    arrivals: u64,
    departures: u64,
    admitted: u64,
    rejections: u64,
    wake_retries: u64,
    peak_queue_depth: usize,
    recycled_slots: u64,
}

impl<'a> ChurnCtx<'a> {
    fn new(workload: &'a ChurnWorkload, policy: AdmissionPolicy, base_vms: usize) -> ChurnCtx<'a> {
        ChurnCtx {
            workload,
            policy,
            base_vms,
            cursor: 0,
            owner: Vec::new(),
            live: BTreeMap::new(),
            queue: VecDeque::new(),
            arrivals: 0,
            departures: 0,
            admitted: 0,
            rejections: 0,
            wake_retries: 0,
            peak_queue_depth: 0,
            recycled_slots: 0,
        }
    }

    /// External label of churn VM `k` (disjoint from the base ids
    /// `0..base_vms`).
    fn ext_id(&self, k: usize) -> u64 {
        (self.base_vms + k) as u64
    }

    /// The packing item for churn VM `k` at sample `t`.
    fn item(&self, k: usize, t: usize) -> PackItem {
        PackItem::new(
            VmId(self.ext_id(k)),
            self.workload.demand_ghz(k, t).max(0.0),
            self.workload.memory_mib(k),
        )
    }

    /// Write the churn region of the demand table (slots `base_vms..`),
    /// one write per slot like the base region: live owners whose
    /// activation sample has passed read their workload demand, everything
    /// else (vacant, queued, still waking) reads 0.
    pub(crate) fn write_demands(&self, dc: &mut DataCenter, t: usize) {
        debug_assert_eq!(self.owner.len(), dc.vm_slots() - self.base_vms);
        let region = &mut dc.demands_mut()[self.base_vms..];
        for (d, owner) in region.iter_mut().zip(&self.owner) {
            *d = match *owner {
                Some((k, active_from)) if t >= active_from => {
                    self.workload.demand_ghz(k, t).max(0.0)
                }
                _ => 0.0,
            };
        }
    }

    /// Replay every lifecycle event due at sample `t`: departures first,
    /// then the admission queue retries, then new arrivals in event order.
    pub(crate) fn apply_events(&mut self, sim: &mut SimState<'_>, t: usize) -> Result<()> {
        let events = self.workload.events();
        let (mut departs, mut arrives) = (Vec::new(), Vec::new());
        while self.cursor < events.len() && events[self.cursor].at_sample == t {
            match events[self.cursor].kind {
                EventKind::Arrive(k) => arrives.push(k),
                EventKind::Depart(k) => departs.push(k),
            }
            self.cursor += 1;
        }

        for k in departs {
            // Rejected (or already-departed) VMs have no live handle; their
            // departure is a no-op.
            if let Some(h) = self.live.remove(&k) {
                self.queue.retain(|&(q, _)| q != k);
                let slot = h.index();
                debug_assert!(slot >= self.base_vms, "churn never removes base VMs");
                sim.dc.remove_vm(h)?;
                self.owner[slot - self.base_vms] = None;
                self.departures += 1;
                sim.telemetry.incr("churn.departures", 1);
            }
        }

        self.arrivals += arrives.len() as u64;
        sim.telemetry.incr("churn.arrivals", arrives.len() as u64);
        // Register the new arrivals so the batch below owns handles for
        // queued retries and fresh VMs alike. Registration pops the free
        // list, so post-departure arrivals land in recycled slots.
        for &k in &arrives {
            let spec = VmSpec::new(
                self.ext_id(k),
                self.workload.demand_ghz(k, t),
                self.workload.memory_mib(k),
            );
            let h = sim.dc.add_vm(spec)?;
            debug_assert!(h.index() >= self.base_vms);
            if h.generation() > 0 {
                self.recycled_slots += 1;
            }
            let churn_slot = h.index() - self.base_vms;
            if churn_slot >= self.owner.len() {
                self.owner.resize(churn_slot + 1, None);
            }
            self.live.insert(k, h);
        }

        // Admission batch: queued VMs retry first (FIFO, keeping their
        // original enqueue sample so their age survives retries), then the
        // new arrivals in event order (age zero).
        let batch: Vec<(usize, usize)> = self
            .queue
            .drain(..)
            .chain(arrives.into_iter().map(|k| (k, t)))
            .collect();
        if !batch.is_empty() {
            self.admit(sim, batch, t)?;
        }
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
        sim.telemetry
            .gauge_set("churn.queue_depth", self.queue.len() as f64);
        Ok(())
    }

    /// Pack a batch of registered-but-unplaced churn VMs onto the fleet
    /// and apply the admission policy to the leftovers. Each batch entry
    /// carries the sample the VM first asked for placement, so `Queue`
    /// admissions can report their age.
    fn admit(
        &mut self,
        sim: &mut SimState<'_>,
        batch: Vec<(usize, usize)>,
        t: usize,
    ) -> Result<()> {
        let (dc, telemetry) = (&mut sim.dc, &sim.telemetry);
        let placement_span = telemetry.timer("churn.placement_ns");
        let items: Vec<PackItem> = batch.iter().map(|&(k, _)| self.item(k, t)).collect();
        // The active fleet takes the Minimum Slack first pass; the sleeping
        // pool is what the wake-and-retry fallback taps.
        let wake = self.policy == AdmissionPolicy::WakeAndRetry;
        let mut packed = pack_onto_fleet(dc, &items, wake);
        self.place_assignments(dc, &packed.active, t, t)?;
        self.admitted += packed.active.len() as u64;
        telemetry.incr("churn.admitted", packed.active.len() as u64);
        if self.policy == AdmissionPolicy::Queue {
            // Queue aging: samples waited between first asking and being
            // admitted (zero for arrivals placed the same sample).
            let since: BTreeMap<u64, usize> = batch
                .iter()
                .map(|&(k, enqueued_at)| (self.ext_id(k), enqueued_at))
                .collect();
            for &(id, _) in &packed.active {
                telemetry.record("churn.queue_wait", (t - since[&id.0]) as f64);
            }
        }

        if !packed.woken.is_empty() {
            // Model the host's wake latency as an admission delay: the VM
            // occupies its slot now but its demand starts next sample, and
            // the wait is recorded against the churn.wake_wait_ns histogram.
            // Under fault injection the wake itself may fail — the chosen
            // host never comes up and every VM packed onto it falls through
            // to the leftover walk below, so `churn.wake_retries` only ever
            // counts wakes that actually happened. One outcome is drawn per
            // host, in the order the hosts first appear.
            let mut wake_failed = BTreeMap::new();
            let mut committed = Vec::with_capacity(packed.woken.len());
            for &(id, server) in &packed.woken {
                if *wake_failed
                    .entry(server)
                    .or_insert_with(|| sim.faults.as_mut().is_some_and(|f| f.draw_wake_failure()))
                {
                    packed.unplaced.push(id);
                    continue;
                }
                let wake_latency_s = dc.server(server)?.spec.wake_latency_s;
                telemetry.record("churn.wake_wait_ns", wake_latency_s * 1e9);
                committed.push((id, server));
            }
            self.place_assignments(dc, &committed, t, t + 1)?;
            self.wake_retries += committed.len() as u64;
            telemetry.incr("churn.wake_retries", committed.len() as u64);
            self.admitted += committed.len() as u64;
            telemetry.incr("churn.admitted", committed.len() as u64);
        }

        // Walk the original batch order so the queue keeps FIFO fairness
        // (pac_pack's unplaced list comes back in swap-perturbed order).
        let leftovers: BTreeSet<VmId> = packed.unplaced.into_iter().collect();
        for (k, enqueued_at) in batch {
            if !leftovers.contains(&VmId(self.ext_id(k))) {
                continue;
            }
            match self.policy {
                AdmissionPolicy::Queue => self.queue.push_back((k, enqueued_at)),
                AdmissionPolicy::Reject | AdmissionPolicy::WakeAndRetry => {
                    let h = self.live.remove(&k).expect("unplaced VM is live");
                    dc.remove_vm(h)?;
                    self.rejections += 1;
                    telemetry.incr("churn.rejections", 1);
                }
            }
        }
        placement_span.finish();
        Ok(())
    }

    /// Place each packed VM on its chosen server (waking it if asleep)
    /// with its demand visible from `active_from` on.
    fn place_assignments(
        &mut self,
        dc: &mut DataCenter,
        placements: &[(VmId, ServerHandle)],
        t: usize,
        active_from: usize,
    ) -> Result<()> {
        for &(id, server) in placements {
            let k = id.0 as usize - self.base_vms;
            let h = *self.live.get(&k).expect("assigned VM is live");
            dc.place_vm(h, server)?;
            let demand = if t >= active_from {
                self.workload.demand_ghz(k, t)
            } else {
                0.0
            };
            dc.set_vm_demand(h, demand)?;
            self.owner[h.index() - self.base_vms] = Some((k, active_from));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::largescale::OptimizerKind;
    use vdc_churn::ChurnConfig;
    use vdc_telemetry::Telemetry;
    use vdc_trace::{generate_trace, TraceConfig};

    fn small_trace() -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms: 40,
            n_samples: 96, // one day
            interval_s: 900.0,
            seed: 99,
        })
    }

    fn churn_workload(trace: &UtilizationTrace, cfg: &ChurnConfig) -> ChurnWorkload {
        ChurnWorkload::generate(cfg, trace.n_samples(), trace.interval_s())
    }

    /// Bitwise comparison of the large-scale rollup (the fields the
    /// sharding suites pin).
    fn assert_base_bit_identical(a: &LargeScaleResult, b: &LargeScaleResult, ctx: &str) {
        assert_eq!(a.n_vms, b.n_vms, "{ctx}");
        assert_eq!(
            a.total_energy_wh.to_bits(),
            b.total_energy_wh.to_bits(),
            "{ctx}: total energy"
        );
        assert_eq!(a.migrations, b.migrations, "{ctx}: migrations");
        assert_eq!(
            a.mean_active_servers.to_bits(),
            b.mean_active_servers.to_bits(),
            "{ctx}: mean active"
        );
        assert_eq!(a.peak_active_servers, b.peak_active_servers, "{ctx}");
        assert_eq!(a.optimizer_invocations, b.optimizer_invocations, "{ctx}");
        assert_eq!(a.relief_migrations, b.relief_migrations, "{ctx}");
        assert_eq!(
            a.sla_violation_fraction.to_bits(),
            b.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction"
        );
        assert_eq!(
            a.wake_energy_wh.to_bits(),
            b.wake_energy_wh.to_bits(),
            "{ctx}: wake energy"
        );
        assert_eq!(a.final_placements, b.final_placements, "{ctx}: placements");
    }

    #[test]
    fn zero_event_run_is_bit_identical_to_run_large_scale() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        let empty = ChurnWorkload::empty(t.n_samples());
        let opts = RunOptions::default().with_series();
        let plain = crate::run_large_scale(&t, &cfg, &opts).unwrap();
        let churned = run_churn(&t, &cfg, &empty, AdmissionPolicy::WakeAndRetry, &opts).unwrap();
        assert_base_bit_identical(&plain, &churned.base, "zero-event churn");
        assert_eq!(plain.series.len(), churned.base.series.len());
        for (a, b) in plain.series.iter().zip(&churned.base.series) {
            assert_eq!(a.power_w.to_bits(), b.power_w.to_bits());
            assert_eq!(a.active_servers, b.active_servers);
        }
        assert_eq!(churned.arrivals, 0);
        assert_eq!(churned.departures, 0);
        assert_eq!(churned.rejections, 0);
        assert_eq!(churned.live_churn_vms, 0);
    }

    #[test]
    fn steady_churn_admits_departs_and_recycles() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        // Short lifetimes: plenty of departures inside one day, so later
        // arrivals must land in recycled slots.
        let wl_cfg = ChurnConfig {
            mean_lifetime_s: 3.0 * 3600.0,
            ..ChurnConfig::steady(60.0, 0xC0FF)
        };
        let wl = churn_workload(&t, &wl_cfg);
        assert!(wl.total_arrivals() > 10, "workload should churn");
        let r = run_churn(
            &t,
            &cfg,
            &wl,
            AdmissionPolicy::WakeAndRetry,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.arrivals, wl.total_arrivals() as u64);
        assert!(r.departures > 0, "short lifetimes must depart in-horizon");
        assert!(r.admitted > 0);
        assert_eq!(r.admitted + r.rejections, r.arrivals);
        assert!(
            r.recycled_slots > 0,
            "arrivals after departures must reuse freed slots"
        );
        // Live churn VMs appear in the final placements under their
        // offset external labels.
        let churn_placed = r
            .base
            .final_placements
            .iter()
            .filter(|(id, _)| *id >= 40)
            .count();
        assert!(churn_placed <= r.live_churn_vms);
        assert!(r.base.total_energy_wh > 0.0);
    }

    #[test]
    fn reject_policy_counts_rejections_on_a_tight_fleet() {
        let t = small_trace();
        // A deliberately small fleet: active capacity runs out, and under
        // Reject there is no wake fallback.
        let cfg = LargeScaleConfig {
            n_servers: Some(10),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let wl = churn_workload(&t, &ChurnConfig::with_flash_crowd(40.0, 8, 30, 0xBEEF));
        let r = run_churn(
            &t,
            &cfg,
            &wl,
            AdmissionPolicy::Reject,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(r.rejections > 0, "tight fleet must reject some arrivals");
        assert_eq!(r.wake_retries, 0, "Reject never wakes servers");
        assert_eq!(r.peak_queue_depth, 0, "Reject never queues");
        assert_eq!(r.admitted + r.rejections, r.arrivals);
    }

    #[test]
    fn queue_policy_holds_arrivals_instead_of_rejecting() {
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(10),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let wl = churn_workload(&t, &ChurnConfig::with_flash_crowd(40.0, 8, 30, 0xBEEF));
        let r = run_churn(
            &t,
            &cfg,
            &wl,
            AdmissionPolicy::Queue,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.rejections, 0, "Queue never rejects");
        assert!(r.peak_queue_depth > 0, "the flash crowd must back up");
        assert!(r.admitted <= r.arrivals);
    }

    #[test]
    fn wake_and_retry_uses_the_sleeping_pool() {
        let t = small_trace();
        // Enough total servers, but most are asleep after consolidation,
        // so a flash crowd overflows the active set and must wake hosts.
        let cfg = LargeScaleConfig {
            n_servers: Some(40),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let wl = churn_workload(&t, &ChurnConfig::with_flash_crowd(20.0, 12, 40, 0xD00D));
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default().with_telemetry(&telemetry);
        let r = run_churn(&t, &cfg, &wl, AdmissionPolicy::WakeAndRetry, &opts).unwrap();
        assert!(r.wake_retries > 0, "the burst must overflow active hosts");
        let hists = telemetry.histogram_summaries();
        let wake = hists
            .iter()
            .find(|h| h.name == "churn.wake_wait_ns")
            .expect("wake wait histogram recorded");
        assert_eq!(wake.count, r.wake_retries);
        // All catalog wake latencies are 25–30 s.
        assert!(
            wake.min >= 25e9 && wake.max <= 30e9,
            "modeled, not wall-clock"
        );
        let counters = telemetry.counter_values();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("counter registered")
        };
        assert_eq!(counter("churn.arrivals"), r.arrivals);
        assert_eq!(counter("churn.wake_retries"), r.wake_retries);
    }

    #[test]
    fn wake_failures_reject_instead_of_counting_retries() {
        use vdc_faults::{FaultConfig, FaultPlan};
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(40),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let wl = churn_workload(
            &t,
            &vdc_churn::ChurnConfig::with_flash_crowd(20.0, 12, 40, 0xD00D),
        );
        // Baseline: the burst overflows active hosts and wakes sleepers.
        let clean = run_churn(
            &t,
            &cfg,
            &wl,
            AdmissionPolicy::WakeAndRetry,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(clean.wake_retries > 0);
        // Every wake fails: the same VMs fall through to rejection and the
        // retry counter must stay exactly zero — no overcounting a wake
        // that never happened.
        let plan = FaultPlan::generate(
            &FaultConfig::flaky_wakes(1.0, 0xD00D),
            t.n_samples(),
            t.interval_s(),
            0,
            0,
        );
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_faults(&plan);
        let faulted = run_churn(&t, &cfg, &wl, AdmissionPolicy::WakeAndRetry, &opts).unwrap();
        assert_eq!(faulted.wake_retries, 0, "no wake ever succeeded");
        assert!(
            faulted.rejections >= clean.rejections,
            "failed wakes become rejections"
        );
        let counters = telemetry.counter_values();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("counter registered")
        };
        assert_eq!(counter("churn.wake_retries"), 0);
        assert!(counter("fault.wake_failures") > 0);
        assert_eq!(faulted.admitted + faulted.rejections, faulted.arrivals);
    }

    #[test]
    fn a_woken_host_draws_one_wake_outcome_for_all_its_vms() {
        use crate::optimizer::OptimizerConfig;
        use crate::pipeline::Stages;
        use vdc_dcsim::{Server, ServerSpec};
        use vdc_faults::{FaultConfig, FaultPlan, FaultSession};
        // Two arrivals at sample 1 and nothing else, for a fleet of one
        // sleeping host that takes both.
        let wl = ChurnWorkload::generate(&ChurnConfig::with_flash_crowd(0.0, 1, 2, 7), 4, 900.0);
        let mut dc = DataCenter::new();
        dc.add_server(Server::asleep(ServerSpec::type_quad_3ghz()));
        // A plan whose first wake draw fails and whose second succeeds: a
        // draw per VM would reject one VM and place the other on the host
        // that never came up.
        let plan = (0..)
            .map(|seed| FaultPlan::generate(&FaultConfig::flaky_wakes(0.5, seed), 4, 900.0, 1, 0))
            .find(|plan| {
                let mut session = FaultSession::new(plan);
                session.draw_wake_failure() && !session.draw_wake_failure()
            })
            .expect("some seed fails the first wake and not the second");
        let stages = Stages {
            prefix: "largescale",
            optimizer_period: 4,
            relief: false,
            dvfs: true,
            interval_s: 900.0,
        };
        let opts = RunOptions::default().with_faults(&plan);
        let mut sim = SimState::new(stages, dc, OptimizerConfig::ipac_default(), &opts);
        let mut ctx = ChurnCtx::new(&wl, AdmissionPolicy::WakeAndRetry, 0);
        ctx.apply_events(&mut sim, 1).unwrap();
        assert_eq!(ctx.arrivals, 2);
        assert_eq!((ctx.admitted, ctx.wake_retries, ctx.rejections), (0, 0, 2));
        assert_eq!(sim.faults.as_ref().map(|f| f.wake_failures), Some(1));
        assert!(!sim
            .dc
            .server(ServerHandle::from_index(0))
            .unwrap()
            .is_active());
    }

    #[test]
    fn queue_policy_records_wait_ages() {
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(10),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let wl = churn_workload(
            &t,
            &vdc_churn::ChurnConfig::with_flash_crowd(40.0, 8, 30, 0xBEEF),
        );
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default().with_telemetry(&telemetry);
        let r = run_churn(&t, &cfg, &wl, AdmissionPolicy::Queue, &opts).unwrap();
        assert!(r.peak_queue_depth > 0, "the flash crowd must back up");
        let hists = telemetry.histogram_summaries();
        let wait = hists
            .iter()
            .find(|h| h.name == "churn.queue_wait")
            .expect("queue wait histogram recorded under Queue policy");
        assert_eq!(
            wait.count, r.admitted,
            "every admitted VM records its age (including zero waits)"
        );
        assert!(wait.min >= 0.0);
        assert!(
            wait.max >= 1.0,
            "a backed-up queue must admit some VM at least one sample late"
        );
    }

    #[test]
    fn horizon_mismatch_is_rejected() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        let wl = ChurnWorkload::empty(48);
        assert!(matches!(
            run_churn(
                &t,
                &cfg,
                &wl,
                AdmissionPolicy::Queue,
                &RunOptions::default()
            ),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn churn_run_is_shard_invariant() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        let wl = churn_workload(&t, &ChurnConfig::with_flash_crowd(40.0, 12, 25, 0xACE));
        // Pods of 4, so the shard count fans out real work.
        let opts = RunOptions::default().with_pods(4);
        let single = run_churn(&t, &cfg, &wl, AdmissionPolicy::WakeAndRetry, &opts).unwrap();
        for shards in [2usize, 8] {
            let sharded = run_churn(
                &t,
                &cfg,
                &wl,
                AdmissionPolicy::WakeAndRetry,
                &opts.with_shards(shards),
            )
            .unwrap();
            assert_base_bit_identical(&single.base, &sharded.base, &format!("shards={shards}"));
            assert_eq!(single.arrivals, sharded.arrivals);
            assert_eq!(single.departures, sharded.departures);
            assert_eq!(single.admitted, sharded.admitted);
            assert_eq!(single.rejections, sharded.rejections);
            assert_eq!(single.wake_retries, sharded.wake_retries);
            assert_eq!(single.peak_queue_depth, sharded.peak_queue_depth);
            assert_eq!(single.recycled_slots, sharded.recycled_slots);
        }
    }
}
