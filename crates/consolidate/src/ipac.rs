//! Incremental Power-Aware Consolidation (IPAC, §V).
//!
//! "The PAC algorithm … is invoked incrementally such that only a small
//! number of VMs in a migration list are considered for consolidation each
//! time. In each invocation period, some servers may be unable to host
//! their VMs due to the possible workload increase. The algorithm first
//! selects some VMs from these overloaded servers and adds them to the
//! migration list to resolve the overload problem. Then, the VMs on the
//! least power efficient server are added to the migration list. PAC … is
//! invoked to consolidate the VMs in the migration list to the servers.
//! After the consolidation, if the number of active servers is reduced,
//! PAC … is invoked again … on the next least power efficient server until
//! the number of active servers no longer decreases."

use crate::constraint::Constraint;
use crate::item::{PackItem, PackServer};
use crate::minslack::MinSlackConfig;
use crate::pac::{efficiency_order, pac_pack, SearchWork};
use crate::plan::{ConsolidationPlan, Move};
use crate::policy::MigrationPolicy;
use std::collections::BTreeMap;
use vdc_dcsim::VmId;

/// Safety cap on drain rounds per invocation.
const MAX_DRAIN_ROUNDS: usize = 64;

/// One IPAC invocation.
///
/// * `servers` — snapshot of the data center: every server with its current
///   residents (active or not) — **not** mutated;
/// * `new_items` — newly arrived VMs with no current placement;
/// * `constraint` — the packing feasibility rule;
/// * `policy` — the cost-aware migration admission policy applied to each
///   drain round (overload-resolution moves bypass it).
///
/// Every pack runs Minimum Slack at [`MinSlackConfig::default`]. Returns
/// the consolidation plan relative to the input snapshot.
pub fn ipac_plan(
    servers: &[PackServer],
    new_items: &[PackItem],
    constraint: &dyn Constraint,
    policy: &dyn MigrationPolicy,
) -> ConsolidationPlan {
    ipac_plan_stats(servers, new_items, constraint, policy).0
}

/// [`ipac_plan`] plus the Minimum Slack work of every pack it ran.
pub fn ipac_plan_stats(
    servers: &[PackServer],
    new_items: &[PackItem],
    constraint: &dyn Constraint,
    policy: &dyn MigrationPolicy,
) -> (ConsolidationPlan, SearchWork) {
    let minslack = MinSlackConfig::default();
    let mut state: Vec<PackServer> = servers.to_vec();
    // Remember where every VM started for the final diff.
    let mut origin: BTreeMap<VmId, Option<usize>> = BTreeMap::new();
    for s in &state {
        for it in &s.resident {
            origin.insert(it.vm, Some(s.index));
        }
    }
    for it in new_items {
        origin.insert(it.vm, None);
    }

    // --- Step 1: overload resolution --------------------------------------
    // Evict the smallest VMs from servers whose residents alone violate the
    // constraint (the "possible workload increase" case).
    let mut migration_list: Vec<PackItem> = Vec::new();
    for s in state.iter_mut() {
        while !s.resident.is_empty() && !constraint.admits(s, &[]) {
            let (idx, _) = s
                .resident
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.cpu_ghz.partial_cmp(&b.cpu_ghz).expect("finite demands"))
                .expect("non-empty resident list");
            migration_list.push(s.resident.swap_remove(idx));
        }
    }
    migration_list.extend_from_slice(new_items);

    // Place the overload/new list (no policy: feasibility restoration).
    let first = pac_pack(&mut state, &migration_list, constraint, &minslack);
    let mut work = first.work;

    // Anything unplaceable returns home (accepting temporary CPU overload)
    // so the data center stays consistent. Care: PAC may have just packed
    // *new* arrivals onto an evictee's origin, so a naive return could
    // violate the hard memory constraint. The work queue below may displace
    // this round's newcomers (never original residents), which terminates
    // because a VM settled on its own origin is never displaced again.
    let mut newly_placed: std::collections::BTreeSet<VmId> =
        first.assignments.iter().map(|&(vm, _)| vm).collect();
    let mut queue: Vec<PackItem> = migration_list
        .iter()
        .filter(|it| first.unplaced.contains(&it.vm))
        .copied()
        .collect();
    let order = efficiency_order(&state);
    let mut guard = 0usize;
    while let Some(item) = queue.pop() {
        guard += 1;
        if guard > 4 * (migration_list.len() + state.len()) + 16 {
            break; // anti-cycling safety net; leaves the item unmoved
        }
        // 1. Any server that admits it under the full constraint.
        let slot_pos = order
            .iter()
            .copied()
            .find(|&p| constraint.admits(&state[p], std::slice::from_ref(&item)));
        if let Some(p) = slot_pos {
            state[p].resident.push(item);
            newly_placed.insert(item.vm);
            continue;
        }
        // 2. Force-return to its origin, displacing newcomers if the hard
        //    memory constraint demands it (CPU overload is tolerated; the
        //    next invocation retries).
        if let Some(Some(home)) = origin.get(&item.vm) {
            let slot = state
                .iter_mut()
                .find(|s| s.index == *home)
                .expect("origin index exists in snapshot");
            while slot.resident_mem() + item.mem_mib > slot.mem_capacity_mib + 1e-9 {
                let kick = slot
                    .resident
                    .iter()
                    .position(|r| newly_placed.contains(&r.vm));
                match kick {
                    Some(pos) => {
                        let displaced = slot.resident.swap_remove(pos);
                        newly_placed.remove(&displaced.vm);
                        queue.push(displaced);
                    }
                    // No newcomers left: the original state held this VM,
                    // so this cannot happen; bail defensively.
                    None => break,
                }
            }
            if slot.resident_mem() + item.mem_mib <= slot.mem_capacity_mib + 1e-9 {
                slot.resident.push(item);
            }
        }
        // New items with no home stay unplaced; the caller sees no move.
    }

    // --- Step 2: drain loop ------------------------------------------------
    // Repeatedly empty the least power-efficient non-empty server while the
    // active-server count keeps dropping.
    for _ in 0..MAX_DRAIN_ROUNDS {
        let before_active = state.iter().filter(|s| !s.resident.is_empty()).count();
        // Least efficient server that hosts anything.
        let donor_pos = match state
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.resident.is_empty())
            .min_by(|(_, a), (_, b)| {
                a.power_efficiency()
                    .partial_cmp(&b.power_efficiency())
                    .expect("finite efficiency")
            }) {
            Some((pos, _)) => pos,
            None => break,
        };
        let drained: Vec<PackItem> = std::mem::take(&mut state[donor_pos].resident);
        let donor_index = state[donor_pos].index;
        let donor_idle_watts = state[donor_pos].idle_watts;

        // Pack onto every *other* server.
        let mut others = state.clone();
        others.remove(donor_pos);
        let res = pac_pack(&mut others, &drained, constraint, &minslack);
        work.add(res.work);

        let mut revert = !res.is_complete();
        let mut round_moves: Vec<Move> = Vec::new();
        if !revert {
            for &(vm, others_pos) in &res.assignments {
                let item = drained
                    .iter()
                    .find(|it| it.vm == vm)
                    .expect("assignment refers to a drained item");
                round_moves.push(Move {
                    vm,
                    from: Some(donor_index),
                    to: others[others_pos].index,
                    cpu_ghz: item.cpu_ghz,
                    mem_mib: item.mem_mib,
                });
            }
            // The round only pays off if it frees a server: the donor is now
            // empty, so the new active count is the occupied `others`.
            let after_active = others.iter().filter(|s| !s.resident.is_empty()).count();
            if after_active >= before_active {
                revert = true;
            }
            // Cost-aware admission (§V): benefit = the donor goes to sleep.
            if !revert && !policy.allow(&round_moves, donor_idle_watts) {
                revert = true;
            }
        }

        if revert {
            state[donor_pos].resident = drained;
            break;
        }

        // Commit: the packed `others`, with the emptied donor back at its
        // position, become the new state.
        others.insert(donor_pos, state[donor_pos].clone());
        state = others;
    }

    // --- Step 3: diff into a plan -------------------------------------------
    (build_plan(servers, &state, &origin), work)
}

/// Diff the packed state against the input snapshot.
fn build_plan(
    before: &[PackServer],
    after: &[PackServer],
    origin: &BTreeMap<VmId, Option<usize>>,
) -> ConsolidationPlan {
    let mut plan = ConsolidationPlan::default();
    let mut final_pos: BTreeMap<VmId, (usize, PackItem)> = BTreeMap::new();
    for s in after {
        for it in &s.resident {
            final_pos.insert(it.vm, (s.index, *it));
        }
    }
    for (&vm, &(to, item)) in &final_pos {
        let from = origin.get(&vm).copied().flatten();
        if from != Some(to) {
            plan.moves.push(Move {
                vm,
                from,
                to,
                cpu_ghz: item.cpu_ghz,
                mem_mib: item.mem_mib,
            });
        }
    }
    // Sleep/wake sets from occupancy transitions.
    for (b, a) in before.iter().zip(after) {
        debug_assert_eq!(b.index, a.index, "snapshots must align");
        let was_occupied = !b.resident.is_empty();
        let now_occupied = !a.resident.is_empty();
        if b.active && was_occupied && !now_occupied {
            plan.servers_to_sleep.push(a.index);
        }
        if !b.active && now_occupied {
            plan.servers_to_wake.push(a.index);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CpuConstraint;
    use crate::policy::{AlwaysAllow, BandwidthBudget};

    fn server(index: usize, cpu: f64, watts: f64, residents: &[(u64, f64)]) -> PackServer {
        PackServer {
            index,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: 1e9,
            max_watts: watts,
            idle_watts: watts * 0.6,
            active: !residents.is_empty(),
            pue: 1.0,
            resident: residents
                .iter()
                .map(|&(id, c)| PackItem::new(VmId(id), c, 512.0))
                .collect(),
        }
    }

    #[test]
    fn noop_when_already_optimal() {
        // One efficient server holding everything; nothing to improve.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 3.0), (2, 3.0)]),
            server(1, 4.0, 180.0, &[]),
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        assert!(plan.moves.is_empty());
        assert!(plan.servers_to_sleep.is_empty());
    }

    #[test]
    fn drains_least_efficient_server() {
        // Efficient big server has room for the small server's VMs.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 4.0)]),          // eff 0.0375
            server(1, 3.0, 150.0, &[(2, 1.0), (3, 1.0)]), // eff 0.02
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        assert_eq!(plan.n_migrations(), 2);
        assert!(plan.moves.iter().all(|m| m.from == Some(1) && m.to == 0));
        assert_eq!(plan.servers_to_sleep, vec![1]);
    }

    #[test]
    fn drain_cascades_until_no_decrease() {
        // Three half-empty servers; everything fits on the most efficient.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 2.0)]),
            server(1, 4.0, 180.0, &[(2, 2.0)]),
            server(2, 3.0, 150.0, &[(3, 1.0)]),
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        assert_eq!(plan.n_migrations(), 2);
        let mut sleepers = plan.servers_to_sleep.clone();
        sleepers.sort_unstable();
        assert_eq!(sleepers, vec![1, 2]);
    }

    #[test]
    fn resolves_overload_by_eviction() {
        // Server 1 (4 GHz) holds 5 GHz of demand: overloaded. The smallest
        // VM must move off it.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 11.0)]),
            server(1, 4.0, 180.0, &[(2, 3.0), (3, 2.0)]),
            server(2, 3.0, 150.0, &[]),
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        // VM 3 (2.0 GHz, the smaller) must leave server 1.
        let moved: Vec<_> = plan.moves.iter().filter(|m| m.from == Some(1)).collect();
        assert!(!moved.is_empty());
        assert!(moved.iter().any(|m| m.vm == VmId(3)));
        // Wherever it lands, server 1 is no longer overloaded: 3.0 <= 4.0.
    }

    #[test]
    fn new_items_are_placed() {
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 2.0)]),
            server(1, 4.0, 180.0, &[]),
        ];
        let new = vec![PackItem::new(VmId(10), 3.0, 512.0)];
        let plan = ipac_plan(&servers, &new, &CpuConstraint::default(), &AlwaysAllow);
        let placement = plan.moves.iter().find(|m| m.vm == VmId(10)).unwrap();
        assert_eq!(placement.from, None);
        assert_eq!(placement.to, 0, "most efficient server takes the new VM");
    }

    #[test]
    fn wake_recorded_when_sleeping_server_needed() {
        // Active server is overloaded; only a sleeping server can absorb.
        let mut sleeping = server(1, 12.0, 320.0, &[]);
        sleeping.active = false;
        let servers = vec![server(0, 3.0, 150.0, &[(1, 2.0), (2, 2.0)]), sleeping];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        assert!(plan.servers_to_wake.contains(&1));
    }

    #[test]
    fn policy_vetoes_drain() {
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 4.0)]),
            server(1, 3.0, 150.0, &[(2, 1.0), (3, 1.0)]),
        ];
        // Each VM is 512 MiB; a 100 MiB budget blocks the 1024 MiB drain.
        let plan = ipac_plan(
            &servers,
            &[],
            &CpuConstraint::default(),
            &BandwidthBudget {
                max_batch_mib: 100.0,
            },
        );
        assert!(plan.moves.is_empty(), "policy should veto the drain");
        assert!(plan.servers_to_sleep.is_empty());
    }

    #[test]
    fn infeasible_drain_reverts() {
        // Nothing can absorb the donor's VMs: plan must be a no-op.
        let servers = vec![
            server(0, 4.0, 100.0, &[(1, 3.5)]),
            server(1, 4.0, 300.0, &[(2, 3.5)]), // least efficient
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        assert!(plan.moves.is_empty());
        assert!(plan.servers_to_sleep.is_empty());
    }

    #[test]
    fn incremental_touches_few_vms() {
        // Many resident VMs on efficient servers must not be repacked: only
        // the donor's VMs appear in the plan.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 2.0), (2, 2.0), (3, 2.0), (4, 2.0)]),
            server(1, 4.0, 180.0, &[(5, 1.0), (6, 1.0)]),
            server(2, 3.0, 150.0, &[(7, 0.5)]),
        ];
        let plan = ipac_plan(&servers, &[], &CpuConstraint::default(), &AlwaysAllow);
        // VMs 1–4 stay; only 5, 6, 7 may move.
        for m in &plan.moves {
            assert!(m.vm.0 >= 5, "VM {} should not move", m.vm.0);
        }
    }
}
