//! First-fit and first-fit-decreasing primitives.
//!
//! These are the building blocks of the pMapper baseline (§VII): phase 1
//! first-fits all VMs onto efficiency-sorted servers; phase 2 runs FFD over
//! the migration list. They are also useful as a cheap alternative to
//! Minimum Slack in ablation benchmarks.

use crate::constraint::Constraint;
use crate::item::{PackItem, PackServer};
use vdc_dcsim::VmId;

/// First-fit: place each item (input order) on the first server (given
/// order) that admits it. Mutates `servers[*].resident`. Returns
/// assignments `(vm, position-in-servers-slice)` and the unplaced VMs.
pub(crate) fn first_fit(
    servers: &mut [PackServer],
    items: &[PackItem],
    constraint: &dyn Constraint,
) -> (Vec<(VmId, usize)>, Vec<VmId>) {
    let mut assignments = Vec::with_capacity(items.len());
    let mut unplaced = Vec::new();
    for item in items {
        let mut placed = false;
        for (pos, server) in servers.iter_mut().enumerate() {
            if constraint.admits(server, std::slice::from_ref(item)) {
                server.resident.push(*item);
                assignments.push((item.vm, pos));
                placed = true;
                break;
            }
        }
        if !placed {
            unplaced.push(item.vm);
        }
    }
    (assignments, unplaced)
}

/// First-fit decreasing: sort items by descending CPU demand, then
/// first-fit. Ties broken by VM id for determinism.
pub fn first_fit_decreasing(
    servers: &mut [PackServer],
    items: &[PackItem],
    constraint: &dyn Constraint,
) -> (Vec<(VmId, usize)>, Vec<VmId>) {
    let mut sorted: Vec<PackItem> = items.to_vec();
    sorted.sort_by(|a, b| {
        b.cpu_ghz
            .partial_cmp(&a.cpu_ghz)
            .expect("finite demands")
            .then(a.vm.cmp(&b.vm))
    });
    first_fit(servers, &sorted, constraint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CpuConstraint;

    fn server(index: usize, cpu: f64) -> PackServer {
        PackServer {
            index,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: 1e9,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: true,
            pue: 1.0,
            resident: Vec::new(),
        }
    }

    fn items(cpus: &[f64]) -> Vec<PackItem> {
        cpus.iter()
            .enumerate()
            .map(|(i, &c)| PackItem::new(VmId(i as u64), c, 100.0))
            .collect()
    }

    #[test]
    fn first_fit_takes_first_feasible() {
        let mut servers = vec![server(0, 2.0), server(1, 4.0)];
        let q = items(&[3.0, 1.0]);
        let c = CpuConstraint::default();
        let (assign, unplaced) = first_fit(&mut servers, &q, &c);
        assert!(unplaced.is_empty());
        // 3.0 skips server 0 (cap 2.0); 1.0 lands on server 0.
        assert_eq!(assign, vec![(VmId(0), 1), (VmId(1), 0)]);
    }

    #[test]
    fn ffd_sorts_decreasing() {
        // FFD avoids the classic first-fit fragmentation: items 1,5,4 on
        // bins of 5 and 5. Plain FF puts 1 then 5 on bin 0 — 4 fits on bin 1.
        // FFD: 5 -> bin0, 4 -> bin1, 1 -> bin1 (5 total). Both succeed, but
        // the decreasing order must be observable in assignment order.
        let mut servers = vec![server(0, 5.0), server(1, 5.0)];
        let q = items(&[1.0, 5.0, 4.0]);
        let c = CpuConstraint::default();
        let (assign, unplaced) = first_fit_decreasing(&mut servers, &q, &c);
        assert!(unplaced.is_empty());
        assert_eq!(assign[0].0, VmId(1), "largest item first");
        assert_eq!(assign[0].1, 0);
        assert_eq!(assign[1], (VmId(2), 1));
        assert_eq!(assign[2], (VmId(0), 1));
    }

    #[test]
    fn ffd_beats_ff_on_adversarial_input() {
        // Items [2,2,2,3,3] into bins of 6: FF (input order) wastes space
        // (2+2+2=6, 3+3=6: fine) — use a sharper case:
        // items [4,1,1,4] bins of 6: FF -> bin0={4,1,1}=6, bin1={4}. Both fit.
        // Classic separation: [3,3,2,2,2] bins of 6: FF -> {3,3}, {2,2,2} ok.
        // Use unplaced comparison: [5,3,3,5] bins of 8:
        //   FF: {5,3}, {3,5} -> all placed.
        //   FF on order [3,3,5,5]: {3,3}, {5}, 5 unplaced with 2 bins!
        let c = CpuConstraint::default();
        let q = items(&[3.0, 3.0, 5.0, 5.0]);
        let mut ff_servers = vec![server(0, 8.0), server(1, 8.0)];
        let (_, ff_unplaced) = first_fit(&mut ff_servers, &q, &c);
        assert_eq!(ff_unplaced.len(), 1, "plain FF strands one item");
        let mut ffd_servers = vec![server(0, 8.0), server(1, 8.0)];
        let (_, ffd_unplaced) = first_fit_decreasing(&mut ffd_servers, &q, &c);
        assert!(ffd_unplaced.is_empty(), "FFD packs everything");
    }

    #[test]
    fn unplaced_reported() {
        let mut servers = vec![server(0, 1.0)];
        let q = items(&[2.0, 0.5]);
        let c = CpuConstraint::default();
        let (assign, unplaced) = first_fit(&mut servers, &q, &c);
        assert_eq!(assign.len(), 1);
        assert_eq!(unplaced, vec![VmId(0)]);
    }

    #[test]
    fn empty_inputs() {
        let c = CpuConstraint::default();
        let mut servers = vec![server(0, 1.0)];
        let (a, u) = first_fit(&mut servers, &[], &c);
        assert!(a.is_empty() && u.is_empty());
        let mut none: Vec<PackServer> = vec![];
        let (a2, u2) = first_fit_decreasing(&mut none, &items(&[1.0]), &c);
        assert!(a2.is_empty());
        assert_eq!(u2.len(), 1);
    }
}
