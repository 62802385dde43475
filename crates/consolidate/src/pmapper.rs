//! The pMapper baseline (Verma et al., Middleware'08), as described in
//! §VII of the paper:
//!
//! "PMapper is an incremental algorithm with two phases. In the first
//! phase, it sorts the servers based on their power efficiency, then
//! consolidates the VMs to the servers using a first-fit algorithm,
//! beginning with the most power efficient server. Note that in this phase,
//! the VMs are not actually migrated. In the second phase, pMapper computes
//! the list of servers that require a higher utilization in the new
//! allocation, and labels them as receivers. For each donor (servers with a
//! target utilization lower than the current utilization), it selects the
//! smallest-sized applications and adds them to a VM migration list. It
//! then runs first-fit decreasing (FFD) to migrate the VMs in the migration
//! list to the receivers."

use crate::constraint::Constraint;
use crate::ffd::first_fit_decreasing;
use crate::item::{PackItem, PackServer};
use crate::pac::efficiency_order;
use crate::plan::{ConsolidationPlan, Move};
use std::collections::BTreeMap;
use vdc_dcsim::VmId;

/// One pMapper invocation over the current placement snapshot.
///
/// `new_items` are unplaced VMs that join the virtual phase-1 packing and
/// are placed wherever FFD sends them.
pub fn pmapper_plan(
    servers: &[PackServer],
    new_items: &[PackItem],
    constraint: &dyn Constraint,
) -> ConsolidationPlan {
    // Origins for the final diff.
    let mut origin: BTreeMap<VmId, Option<usize>> = BTreeMap::new();
    let mut current_items: BTreeMap<VmId, PackItem> = BTreeMap::new();
    for s in servers {
        for it in &s.resident {
            origin.insert(it.vm, Some(s.index));
            current_items.insert(it.vm, *it);
        }
    }
    for it in new_items {
        origin.insert(it.vm, None);
        current_items.insert(it.vm, *it);
    }

    // ---- Phase 1: virtual placement of ALL VMs, FFD over
    // efficiency-sorted servers (no actual migration yet).
    let mut virtual_servers: Vec<PackServer> = efficiency_order(servers)
        .into_iter()
        .map(|i| PackServer {
            resident: Vec::new(),
            ..servers[i].clone()
        })
        .collect();
    let all_items: Vec<PackItem> = current_items.values().copied().collect();
    let (virtual_assign, _unplaced) =
        first_fit_decreasing(&mut virtual_servers, &all_items, constraint);
    let mut target: BTreeMap<VmId, usize> = BTreeMap::new();
    for (vm, pos) in virtual_assign {
        target.insert(vm, virtual_servers[pos].index);
    }

    // ---- Phase 2: donors and receivers by utilization delta.
    let mut current_util: BTreeMap<usize, f64> = BTreeMap::new();
    let mut target_util: BTreeMap<usize, f64> = BTreeMap::new();
    for s in servers {
        current_util.insert(s.index, s.resident_cpu());
        target_util.insert(s.index, 0.0);
    }
    for (vm, &srv) in &target {
        *target_util.entry(srv).or_insert(0.0) += current_items[vm].cpu_ghz;
    }
    let receivers: Vec<usize> = servers
        .iter()
        .map(|s| s.index)
        .filter(|i| target_util[i] > current_util[i] + 1e-9)
        .collect();

    // Build the migration list: smallest VMs first from each donor, until
    // the donor is down to its target utilization. New (unplaced) items are
    // always in the list.
    let mut migration_list: Vec<PackItem> = new_items.to_vec();
    let mut donor_state: Vec<PackServer> = servers.to_vec();
    for s in donor_state.iter_mut() {
        let cur = current_util[&s.index];
        let tgt = target_util[&s.index];
        if cur <= tgt + 1e-9 {
            continue;
        }
        // Smallest first (pMapper "selects the smallest-sized applications").
        s.resident.sort_by(|a, b| {
            a.cpu_ghz
                .partial_cmp(&b.cpu_ghz)
                .expect("finite demands")
                .then(a.vm.cmp(&b.vm))
        });
        let mut removed = 0.0;
        while cur - removed > tgt + 1e-9 && !s.resident.is_empty() {
            let item = s.resident.remove(0);
            removed += item.cpu_ghz;
            migration_list.push(item);
        }
    }

    // FFD the migration list onto the receivers (real capacity check with
    // their current residents).
    let mut receiver_servers: Vec<PackServer> = donor_state
        .iter()
        .filter(|s| receivers.contains(&s.index))
        .cloned()
        .collect();
    // Receivers in efficiency order, like phase 1.
    receiver_servers.sort_by(|a, b| {
        b.power_efficiency()
            .partial_cmp(&a.power_efficiency())
            .expect("finite efficiency")
            .then(a.index.cmp(&b.index))
    });
    let (placed, unplaced) =
        first_fit_decreasing(&mut receiver_servers, &migration_list, constraint);

    // Anything that could not reach a receiver returns to its origin.
    let mut final_pos: BTreeMap<VmId, usize> = BTreeMap::new();
    for (vm, pos) in placed {
        final_pos.insert(vm, receiver_servers[pos].index);
    }
    for vm in unplaced {
        if let Some(Some(home)) = origin.get(&vm) {
            final_pos.insert(vm, *home);
        }
    }
    // VMs never put on the migration list stay where they were.
    for s in &donor_state {
        for it in &s.resident {
            final_pos.entry(it.vm).or_insert(s.index);
        }
    }

    // ---- Diff into a plan.
    let mut plan = ConsolidationPlan::default();
    for (&vm, &to) in &final_pos {
        let from = origin.get(&vm).copied().flatten();
        if from != Some(to) {
            let item = current_items[&vm];
            plan.moves.push(Move {
                vm,
                from,
                to,
                cpu_ghz: item.cpu_ghz,
                mem_mib: item.mem_mib,
            });
        }
    }
    // Occupancy transitions.
    let mut occupied_after: BTreeMap<usize, usize> = BTreeMap::new();
    for &srv in final_pos.values() {
        *occupied_after.entry(srv).or_insert(0) += 1;
    }
    for s in servers {
        let was = !s.resident.is_empty();
        let now = occupied_after.get(&s.index).copied().unwrap_or(0) > 0;
        if s.active && was && !now {
            plan.servers_to_sleep.push(s.index);
        }
        if !s.active && now {
            plan.servers_to_wake.push(s.index);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CpuConstraint;

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
    fn consolidates_toward_efficient_server() {
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 2.0)]),          // efficient
            server(1, 4.0, 180.0, &[(2, 1.0), (3, 1.0)]), // donor
        ];
        let plan = pmapper_plan(&servers, &[], &CpuConstraint::default());
        assert!(plan.n_migrations() >= 2);
        assert!(
            plan.moves.iter().all(|m| m.to == 0,),
            "all moves should target the efficient server: {plan:?}"
        );
        assert_eq!(plan.servers_to_sleep, vec![1]);
    }

    #[test]
    fn noop_when_placement_matches_ffd_target() {
        // Everything already on the most efficient server.
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 3.0), (2, 3.0)]),
            server(1, 4.0, 180.0, &[]),
        ];
        let plan = pmapper_plan(&servers, &[], &CpuConstraint::default());
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn new_items_placed_via_target() {
        let servers = vec![
            server(0, 12.0, 320.0, &[(1, 2.0)]),
            server(1, 4.0, 180.0, &[]),
        ];
        let new = vec![PackItem::new(VmId(10), 3.0, 256.0)];
        let plan = pmapper_plan(&servers, &new, &CpuConstraint::default());
        let mv = plan.moves.iter().find(|m| m.vm == VmId(10)).unwrap();
        assert_eq!(mv.from, None);
        assert_eq!(mv.to, 0);
    }

    #[test]
    fn donor_moves_smallest_first() {
        // Donor holds a big and a small VM; the efficient server has room
        // for everything, so phase 1 targets both there — but if only part
        // of the capacity is available, the smallest should be preferred on
        // the migration list. Construct: receiver can absorb only 1 GHz.
        let servers = vec![
            server(0, 4.0, 100.0, &[(1, 3.0)]), // efficient, 1 GHz headroom
            server(1, 4.0, 180.0, &[(2, 3.0), (3, 1.0)]),
        ];
        let plan = pmapper_plan(&servers, &[], &CpuConstraint::default());
        // VM 3 (1.0 GHz) can move to server 0; VM 2 (3.0) cannot.
        let moved: Vec<u64> = plan.moves.iter().map(|m| m.vm.0).collect();
        assert!(moved.contains(&3), "small VM should migrate: {moved:?}");
        assert!(!moved.contains(&2), "big VM cannot fit: {moved:?}");
    }

    #[test]
    fn wake_recorded_for_sleeping_receiver() {
        // Phase-1 target sends VMs to a sleeping efficient server.
        let mut sleeping = server(0, 12.0, 320.0, &[]);
        sleeping.active = false;
        let servers = vec![sleeping, server(1, 3.0, 150.0, &[(1, 1.0), (2, 1.0)])];
        let plan = pmapper_plan(&servers, &[], &CpuConstraint::default());
        if !plan.moves.is_empty() {
            assert!(plan.servers_to_wake.contains(&0));
        }
    }

    #[test]
    fn respects_capacity_constraint() {
        // Donor VMs that cannot fit any receiver stay home.
        let servers = vec![
            server(0, 4.0, 320.0, &[(1, 3.8)]),
            server(1, 4.0, 180.0, &[(2, 3.8)]),
        ];
        let plan = pmapper_plan(&servers, &[], &CpuConstraint::default());
        assert!(plan.moves.is_empty(), "{plan:?}");
        assert!(plan.servers_to_sleep.is_empty());
    }
}
