//! Bridging between [`vdc_dcsim::DataCenter`] state and the packing layer.
//!
//! The consolidation algorithms work on [`PackServer`] snapshots; this
//! module builds those snapshots from live data-center state (or from a
//! copy-on-write [`vdc_dcsim::Snapshot`], which shard workers can walk
//! without borrowing the live simulation) and executes the resulting
//! [`ConsolidationPlan`] (wake → migrate/place → sleep, in dependency
//! order). Plans speak the external vocabulary — [`vdc_dcsim::VmId`]
//! labels and server indices — so this module is also where labels are
//! translated to arena handles.

use crate::item::{PackItem, PackServer};
use crate::plan::ConsolidationPlan;
use vdc_dcsim::{DataCenter, DcError, ServerHandle, ServerState, Snapshot, VmId};

/// Snapshot every server of the data center as a [`PackServer`], with its
/// currently hosted VMs as residents.
pub fn snapshot(dc: &DataCenter) -> Vec<PackServer> {
    snapshot_view(&dc.snapshot())
}

/// Build the packing view from a copy-on-write state snapshot. Identical
/// output to [`snapshot`]; this form lets shard workers build disjoint
/// server ranges of the view concurrently while the caller keeps the
/// `Snapshot` alive.
pub(crate) fn snapshot_view(view: &Snapshot) -> Vec<PackServer> {
    (0..view.n_servers())
        .map(|i| pack_server(view, ServerHandle::from_index(i)))
        .collect()
}

/// Build the [`PackServer`] for one server of a snapshot — the per-element
/// unit of work when the view construction is sharded.
pub fn pack_server(view: &Snapshot, server: ServerHandle) -> PackServer {
    let srv = view.server(server).expect("index in range");
    let resident = view
        .hosted_vms(server)
        .expect("index in range")
        .iter()
        .map(|&vm| {
            let spec = view.vm(vm).expect("hosted VM is registered");
            let demand = view.vm_demand(vm).expect("hosted VM is registered");
            PackItem::new(spec.id, demand, spec.memory_mib)
        })
        .collect();
    // A failed host is advertised with zero capacity, so no packer can
    // select it as a destination (it would reject wake and placement
    // anyway); healthy servers are byte-identical to the pre-fault view.
    let failed = matches!(srv.state, ServerState::Failed);
    PackServer {
        index: server.index(),
        cpu_capacity_ghz: if failed {
            0.0
        } else {
            srv.spec.max_capacity_ghz()
        },
        mem_capacity_mib: if failed { 0.0 } else { srv.spec.memory_mib },
        max_watts: srv.spec.power.max_watts,
        idle_watts: srv.spec.power.static_watts,
        active: srv.is_active(),
        pue: view.server_pue(server),
        resident,
    }
}

/// Statistics of one plan application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyStats {
    /// Live migrations executed.
    pub migrations: usize,
    /// Initial placements executed.
    pub placements: usize,
    /// Servers put to sleep.
    pub slept: usize,
    /// Servers woken (explicitly or implicitly by placement).
    pub woken: usize,
    /// Total memory copied by migrations (MiB).
    pub migrated_mib: f64,
}

/// Execute a consolidation plan on the data center.
///
/// Ordering: wakes first (targets must be active), then moves, then sleeps
/// (sources must be empty). Moves are executed detach-all-then-attach: the
/// plan is only guaranteed consistent in its *final* state, so executing
/// migrations one-by-one could transiently overflow a destination that a
/// later move drains. A sleep target that turns out non-empty is skipped
/// rather than failing the whole plan.
pub fn apply_plan(dc: &mut DataCenter, plan: &ConsolidationPlan) -> Result<ApplyStats, DcError> {
    let mut stats = ApplyStats::default();
    let resolve =
        |dc: &DataCenter, id: vdc_dcsim::VmId| dc.lookup(id).ok_or(DcError::UnknownVm(id.0));
    for &s in &plan.servers_to_wake {
        dc.wake_server(ServerHandle::from_index(s))?;
        stats.woken += 1;
    }
    // Detach every migrating VM first.
    for mv in &plan.moves {
        if mv.from.is_some() {
            let h = resolve(dc, mv.vm)?;
            dc.unplace_vm(h)?;
        }
    }
    // Attach everything at its destination.
    for mv in &plan.moves {
        let h = resolve(dc, mv.vm)?;
        let to = ServerHandle::from_index(mv.to);
        dc.place_vm(h, to)?;
        match mv.from {
            Some(from) => {
                let rec = dc.note_migration(h, ServerHandle::from_index(from), to)?;
                stats.migrations += 1;
                stats.migrated_mib += rec.memory_mib;
            }
            None => stats.placements += 1,
        }
    }
    for &s in &plan.servers_to_sleep {
        let h = ServerHandle::from_index(s);
        if dc.hosted_vms(h)?.is_empty() {
            dc.sleep_server(h)?;
            stats.slept += 1;
        }
    }
    Ok(stats)
}

/// Outcome of one [`apply_plan_fallible`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialApply {
    /// What was actually committed (same semantics as [`apply_plan`]).
    pub stats: ApplyStats,
    /// Retry attempts spent beyond each migration's first attempt.
    pub retries: u64,
    /// Migrations left uncommitted: the first to exhaust its attempt
    /// budget plus the truncated suffix behind it.
    pub dropped: usize,
    /// VMs that could not even be rolled back to their source server
    /// (earlier committed moves consumed its capacity); they are left
    /// unplaced for the caller to count as stranded.
    pub stranded: Vec<VmId>,
}

impl PartialApply {
    /// Whether the plan committed only a prefix of its migrations.
    pub fn is_partial(&self) -> bool {
        self.dropped > 0
    }
}

/// Execute a plan whose migrations may fail: migration attempt outcomes
/// come from `attempt_fails` (drawn once per attempt, in move order — the
/// caller supplies a deterministic stream), and each migration gets up to
/// `max_attempts` tries. The first migration that exhausts its budget
/// truncates the migration suffix: the plan commits its successful prefix
/// and every uncommitted mover is rolled back to its source. Initial
/// placements (`from == None`) are not live migrations and always apply;
/// wake and sleep phases match [`apply_plan`].
///
/// With `attempt_fails` never returning true, the result is identical to
/// [`apply_plan`] — the fault-free contract the run loops rely on.
pub fn apply_plan_fallible(
    dc: &mut DataCenter,
    plan: &ConsolidationPlan,
    max_attempts: u32,
    mut attempt_fails: impl FnMut() -> bool,
) -> Result<PartialApply, DcError> {
    let mut out = PartialApply::default();
    let resolve =
        |dc: &DataCenter, id: vdc_dcsim::VmId| dc.lookup(id).ok_or(DcError::UnknownVm(id.0));
    for &s in &plan.servers_to_wake {
        dc.wake_server(ServerHandle::from_index(s))?;
        out.stats.woken += 1;
    }
    // Detach every migrating VM first (plans are only consistent in their
    // final state; see apply_plan).
    for mv in &plan.moves {
        if mv.from.is_some() {
            let h = resolve(dc, mv.vm)?;
            dc.unplace_vm(h)?;
        }
    }
    // Attach in move order, drawing per-attempt outcomes for migrations.
    let mut truncated = false;
    for mv in &plan.moves {
        let h = resolve(dc, mv.vm)?;
        let to = ServerHandle::from_index(mv.to);
        let from = match mv.from {
            None => {
                // Initial placement: not a live migration, always applies.
                dc.place_vm(h, to)?;
                out.stats.placements += 1;
                continue;
            }
            Some(from) => ServerHandle::from_index(from),
        };
        let mut committed = false;
        if !truncated {
            for attempt in 0..max_attempts.max(1) {
                if attempt > 0 {
                    out.retries += 1;
                }
                if !attempt_fails() {
                    committed = true;
                    break;
                }
            }
        }
        if committed {
            dc.place_vm(h, to)?;
            let rec = dc.note_migration(h, from, to)?;
            out.stats.migrations += 1;
            out.stats.migrated_mib += rec.memory_mib;
        } else {
            out.dropped += 1;
            truncated = true; // commit only the successful prefix
                              // Roll the mover back to its source; if capacity is gone
                              // (an earlier committed move filled it), the VM stays
                              // unplaced and is reported stranded.
            if dc.place_vm(h, from).is_err() {
                out.stranded.push(mv.vm);
            }
        }
    }
    for &s in &plan.servers_to_sleep {
        let h = ServerHandle::from_index(s);
        if dc.hosted_vms(h)?.is_empty() {
            dc.sleep_server(h)?;
            out.stats.slept += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AndConstraint;
    use crate::ipac::{ipac_plan, IpacConfig};
    use crate::policy::AlwaysAllow;
    use vdc_dcsim::{Server, ServerSpec, VmId, VmSpec};

    fn testbed() -> DataCenter {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        dc.add_server(Server::active(ServerSpec::type_dual_2ghz()));
        dc.add_server(Server::asleep(ServerSpec::type_dual_1_5ghz()));
        dc
    }

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.5, 1024.0)).unwrap();
        dc.place_vm(h, srv(1)).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].cpu_capacity_ghz, 12.0);
        assert!(snap[0].resident.is_empty());
        assert_eq!(snap[1].resident.len(), 1);
        assert_eq!(snap[1].resident[0].cpu_ghz, 1.5);
        assert!(!snap[2].active);
        assert!(snap[0].power_efficiency() > snap[1].power_efficiency());
    }

    #[test]
    fn snapshot_reads_live_demand_not_registration_demand() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.5, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        dc.set_vm_demand(h, 2.25).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap[0].resident[0].cpu_ghz, 2.25);
    }

    #[test]
    fn ipac_plan_applies_cleanly_end_to_end() {
        let mut dc = testbed();
        // Spread VMs over the two active servers, inefficiently.
        let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(1)).unwrap();
        let before_power = {
            dc.apply_dvfs(false).unwrap();
            dc.total_power_watts()
        };
        let plan = ipac_plan(
            &snapshot(&dc),
            &[],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.slept, 1);
        dc.apply_dvfs(true).unwrap();
        let after_power = dc.total_power_watts();
        assert!(
            after_power < before_power,
            "consolidation must cut power: {after_power} vs {before_power}"
        );
        // Both VMs now live on server 0.
        assert_eq!(dc.placement_of(a), Some(srv(0)));
        assert_eq!(dc.placement_of(b), Some(srv(0)));
    }

    #[test]
    fn plan_with_initial_placements() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 2.0, 1024.0)).unwrap();
        let plan = ipac_plan(
            &snapshot(&dc),
            &[PackItem::new(VmId(1), 2.0, 1024.0)],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.placements, 1);
        assert_eq!(dc.placement_of(h), Some(srv(0)));
    }

    #[test]
    fn failed_server_advertises_zero_capacity() {
        let mut dc = testbed();
        dc.fail_server(srv(1)).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap[1].cpu_capacity_ghz, 0.0);
        assert_eq!(snap[1].mem_capacity_mib, 0.0);
        assert!(!snap[1].active);
        assert!(snap[1].resident.is_empty());
        // Healthy neighbours are untouched.
        assert_eq!(snap[0].cpu_capacity_ghz, 12.0);
        // A plan over this view never targets the failed host: pack a VM
        // and check it lands elsewhere.
        let plan = ipac_plan(
            &snap,
            &[PackItem::new(VmId(9), 1.0, 1024.0)],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        assert!(plan.moves.iter().all(|m| m.to != 1));
    }

    #[test]
    fn fallible_apply_with_no_failures_matches_apply_plan() {
        let build = || {
            let mut dc = testbed();
            let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
            let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
            dc.place_vm(a, srv(0)).unwrap();
            dc.place_vm(b, srv(1)).unwrap();
            dc
        };
        let mut plain = build();
        let mut fallible = build();
        let plan = ipac_plan(
            &snapshot(&plain),
            &[],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        let stats = apply_plan(&mut plain, &plan).unwrap();
        let partial = apply_plan_fallible(&mut fallible, &plan, 3, || false).unwrap();
        assert_eq!(partial.stats, stats);
        assert!(!partial.is_partial());
        assert_eq!(partial.retries, 0);
        assert!(partial.stranded.is_empty());
        for id in [1u64, 2] {
            let p = |dc: &DataCenter| dc.lookup(VmId(id)).and_then(|h| dc.placement_of(h));
            assert_eq!(p(&plain), p(&fallible));
        }
    }

    #[test]
    fn exhausted_migration_commits_the_prefix_and_rolls_back_the_rest() {
        let mut dc = testbed();
        let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(1)).unwrap();
        let plan = ConsolidationPlan {
            moves: vec![
                crate::plan::Move {
                    vm: VmId(1),
                    from: Some(0),
                    to: 1,
                    cpu_ghz: 1.0,
                    mem_mib: 1024.0,
                },
                crate::plan::Move {
                    vm: VmId(2),
                    from: Some(1),
                    to: 0,
                    cpu_ghz: 1.0,
                    mem_mib: 1024.0,
                },
            ],
            servers_to_sleep: vec![],
            servers_to_wake: vec![],
        };
        // First migration succeeds; the second fails all three attempts.
        let mut draws = [false, true, true, true].into_iter();
        let partial = apply_plan_fallible(&mut dc, &plan, 3, || draws.next().unwrap()).unwrap();
        assert_eq!(partial.stats.migrations, 1, "prefix committed");
        assert_eq!(partial.dropped, 1);
        assert_eq!(partial.retries, 2);
        assert!(partial.is_partial());
        assert!(partial.stranded.is_empty());
        assert_eq!(dc.placement_of(a), Some(srv(1)), "committed move stands");
        assert_eq!(dc.placement_of(b), Some(srv(1)), "dropped move rolled back");
    }

    #[test]
    fn sleep_skipped_if_server_not_empty() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        let plan = ConsolidationPlan {
            moves: vec![],
            servers_to_sleep: vec![0],
            servers_to_wake: vec![],
        };
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.slept, 0);
        assert!(dc.server(srv(0)).unwrap().is_active());
    }
}
