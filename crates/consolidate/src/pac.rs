//! Power-Aware Consolidation (PAC): pack a list of VMs onto a list of
//! servers, most power-efficient servers first, filling each with
//! Algorithm 1 (Minimum Slack).
//!
//! From §V: "the servers are sorted by power efficiency, i.e., the ratio
//! between the maximum CPU frequency and maximum power consumption …
//! Beginning from the most power-efficient server, we use Algorithm 1 to
//! select several VMs … such that the unused CPU resource in this server is
//! minimized. We repeat this process with the next most power-efficient
//! server until every VM in the list is allocated to a server."

use crate::constraint::Constraint;
use crate::item::{PackItem, PackServer};
use crate::minslack::{minimum_slack, MinSlackConfig};
use vdc_dcsim::VmId;

/// The Minimum Slack work of one or more searches: the optimizer's
/// deterministic work counters and the search clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchWork {
    /// Minimum Slack steps (constraint evaluations).
    pub steps: u64,
    /// Minimum Slack ε relaxations.
    pub relaxations: u64,
    /// Wall time spent inside the searches (ns), without the work between
    /// them. Timing only — never feeds back into decisions.
    pub search_ns: u64,
}

impl SearchWork {
    /// Add `other`'s work to this record.
    pub fn add(&mut self, other: SearchWork) {
        self.steps += other.steps;
        self.relaxations += other.relaxations;
        self.search_ns += other.search_ns;
    }
}

/// Result of a PAC run.
#[derive(Debug, Clone, PartialEq)]
pub struct PacResult {
    /// Chosen destination for each input VM, in input order where placed.
    pub assignments: Vec<(VmId, usize)>,
    /// VMs that could not be placed anywhere (feasibility failure).
    pub unplaced: Vec<VmId>,
    /// The Minimum Slack work of every search the run made.
    pub work: SearchWork,
}

impl PacResult {
    /// Whether every VM found a home.
    pub(crate) fn is_complete(&self) -> bool {
        self.unplaced.is_empty()
    }
}

/// Positions of `servers`, most power-efficient first, ties to the lower
/// position: the order PAC fills servers in (§V). Each efficiency is
/// computed once, and the comparator is total, so the unstable sort yields
/// the one order a stable sort would.
///
/// # Panics
/// Panics if an efficiency is NaN.
pub fn efficiency_order(servers: &[PackServer]) -> Vec<usize> {
    let efficiency: Vec<f64> = servers.iter().map(PackServer::power_efficiency).collect();
    let mut order: Vec<usize> = (0..servers.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        efficiency[b]
            .partial_cmp(&efficiency[a])
            .expect("finite efficiency")
            .then(a.cmp(&b))
    });
    order
}

/// Run PAC: place `items` onto `servers`, mutating each chosen server's
/// `resident` list in place (so subsequent packing rounds see the result).
///
/// Servers are visited in [`efficiency_order`]. Items that fit nowhere are
/// reported in `unplaced`.
pub fn pac_pack(
    servers: &mut [PackServer],
    items: &[PackItem],
    constraint: &dyn Constraint,
    cfg: &MinSlackConfig,
) -> PacResult {
    let mut remaining: Vec<PackItem> = items.to_vec();
    let mut assignments = Vec::with_capacity(items.len());
    let mut work = SearchWork::default();

    for si in efficiency_order(servers) {
        if remaining.is_empty() {
            break;
        }
        let t = std::time::Instant::now();
        let result = minimum_slack(&servers[si], &remaining, constraint, cfg);
        work.search_ns += t.elapsed().as_nanos() as u64;
        work.steps += result.steps;
        work.relaxations += u64::from(result.relaxations);
        if result.chosen.is_empty() {
            continue;
        }
        // Move the chosen items onto this server.
        let mut chosen_sorted = result.chosen.clone();
        chosen_sorted.sort_unstable();
        for &idx in chosen_sorted.iter().rev() {
            let item = remaining.swap_remove(idx);
            assignments.push((item.vm, si));
            servers[si].resident.push(item);
        }
    }

    PacResult {
        assignments,
        unplaced: remaining.iter().map(|i| i.vm).collect(),
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{AndConstraint, CpuConstraint};

    fn server(index: usize, cpu: f64, watts: f64) -> PackServer {
        PackServer {
            index,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: 1e9,
            max_watts: watts,
            idle_watts: watts * 0.6,
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
    fn efficiency_order_ranks_capacity_per_facility_watt() {
        let costly_site = PackServer {
            pue: 1.25,
            ..server(4, 12.0, 200.0)
        };
        let servers = vec![
            server(9, 4.0, 100.0),  // 0.04 GHz/W
            server(8, 12.0, 200.0), // 0.06
            server(5, 4.0, 100.0),  // 0.04: ties with position 0
            server(7, 12.0, 0.0),   // no watts: efficiency 0
            costly_site,            // 12 / (200 × 1.25) = 0.048
        ];
        // Equal efficiencies keep position order, whatever their `index`;
        // a higher PUE ranks the same model lower; a zero-watt server
        // ranks last.
        assert_eq!(efficiency_order(&servers), [1, 4, 0, 2, 3]);
        assert!(efficiency_order(&[]).is_empty());
    }

    #[test]
    fn fills_most_efficient_server_first() {
        // Server 0: 12 GHz / 320 W (eff 0.0375); server 1: 4/180 (0.0222).
        let mut servers = vec![server(0, 12.0, 320.0), server(1, 4.0, 180.0)];
        let q = items(&[3.0, 3.0, 3.0]);
        let c = CpuConstraint::default();
        let r = pac_pack(&mut servers, &q, &c, &MinSlackConfig::default());
        assert!(r.is_complete());
        assert!(r.assignments.iter().all(|&(_, s)| s == 0));
        assert_eq!(servers[0].resident.len(), 3);
        assert!(servers[1].resident.is_empty());
    }

    #[test]
    fn overflows_to_next_server() {
        let mut servers = vec![server(0, 4.0, 100.0), server(1, 4.0, 200.0)];
        let q = items(&[3.0, 3.0]);
        let c = CpuConstraint::default();
        let r = pac_pack(&mut servers, &q, &c, &MinSlackConfig::default());
        assert!(r.is_complete());
        // One VM on each (3+3 > 4).
        assert_eq!(servers[0].resident.len(), 1);
        assert_eq!(servers[1].resident.len(), 1);
    }

    #[test]
    fn reports_unplaced() {
        let mut servers = vec![server(0, 2.0, 100.0)];
        let q = items(&[1.5, 1.5, 1.5]);
        let c = CpuConstraint::default();
        let r = pac_pack(&mut servers, &q, &c, &MinSlackConfig::default());
        assert_eq!(r.assignments.len(), 1);
        assert_eq!(r.unplaced.len(), 2);
        assert!(!r.is_complete());
    }

    #[test]
    fn respects_existing_residents() {
        let mut s0 = server(0, 4.0, 100.0);
        s0.resident.push(PackItem::new(VmId(100), 3.0, 100.0));
        let mut servers = vec![s0, server(1, 4.0, 200.0)];
        let q = items(&[2.0]);
        let c = CpuConstraint::default();
        let r = pac_pack(&mut servers, &q, &c, &MinSlackConfig::default());
        assert_eq!(r.assignments, vec![(VmId(0), 1)]);
    }

    #[test]
    fn memory_constraint_diverts_placement() {
        let mut small_mem = server(0, 12.0, 100.0);
        small_mem.mem_capacity_mib = 150.0; // fits one 100 MiB item
        let mut servers = vec![small_mem, server(1, 12.0, 400.0)];
        let q = items(&[1.0, 1.0, 1.0]);
        let c = AndConstraint::cpu_and_memory();
        let r = pac_pack(&mut servers, &q, &c, &MinSlackConfig::default());
        assert!(r.is_complete());
        assert_eq!(servers[0].resident.len(), 1);
        assert_eq!(servers[1].resident.len(), 2);
    }

    #[test]
    fn empty_inputs() {
        let mut servers = vec![server(0, 4.0, 100.0)];
        let c = CpuConstraint::default();
        let r = pac_pack(&mut servers, &[], &c, &MinSlackConfig::default());
        assert!(r.is_complete());
        assert!(r.assignments.is_empty());
        let mut none: Vec<PackServer> = vec![];
        let r2 = pac_pack(&mut none, &items(&[1.0]), &c, &MinSlackConfig::default());
        assert_eq!(r2.unplaced.len(), 1);
    }

    #[test]
    fn packs_tightly_to_use_fewer_servers() {
        // 6 items of sizes that perfectly fill 2 servers of 6.0 GHz; a
        // greedy first-fit over 3 servers could spill to a third.
        let mut servers = vec![
            server(0, 6.0, 100.0),
            server(1, 6.0, 110.0),
            server(2, 6.0, 120.0),
        ];
        let q = items(&[4.0, 3.0, 2.0, 1.0, 1.0, 1.0]);
        let c = CpuConstraint::default();
        let r = pac_pack(
            &mut servers,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                ..Default::default()
            },
        );
        assert!(r.is_complete());
        let used = servers.iter().filter(|s| !s.resident.is_empty()).count();
        assert_eq!(used, 2, "perfect packing should use exactly 2 servers");
    }
}
