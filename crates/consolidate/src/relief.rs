//! On-demand overload relief (§III of the paper).
//!
//! "Between two consecutive invocations of the data center-level optimizer,
//! it is possible that an unexpected increase of the workload can cause a
//! severe overload on a server. To deal with this problem, the solution in
//! this paper can be integrated with algorithms to move VMs from the
//! overloaded servers to idle servers in an on-demand manner. An example of
//! such algorithms can be found in our previous work \[25\]."
//!
//! This module implements that integration: a fast, minimal-movement
//! reaction that runs every monitoring interval (not every optimizer
//! period). Unlike IPAC it does **not** try to minimize power — it evicts
//! the fewest/smallest VMs needed to clear each overload and parks them on
//! the emptiest feasible server (waking one only as a last resort), leaving
//! global re-optimization to the next IPAC invocation.

use crate::constraint::{Ceilings, Constraint};
use crate::item::{PackItem, PackServer};
use crate::plan::{ConsolidationPlan, Move};

/// Tuning for the relief pass.
#[derive(Debug, Clone, Copy)]
pub struct ReliefConfig {
    /// Hysteresis: a server is overloaded when residents violate the
    /// constraint; after eviction it must satisfy the constraint with this
    /// much spare CPU (GHz) to avoid immediate re-trigger.
    pub(crate) headroom_ghz: f64,
    /// Hard cap on evictions per invocation (bounds migration bursts).
    pub(crate) max_moves: usize,
}

impl Default for ReliefConfig {
    fn default() -> Self {
        ReliefConfig {
            headroom_ghz: 0.2,
            max_moves: 32,
        }
    }
}

/// Plan overload relief for the given snapshot, which the pass consumes
/// as its working state.
///
/// Returns a (possibly empty) plan containing only the moves needed to
/// clear constraint violations. Servers that cannot be relieved (no
/// feasible destination anywhere) are left overloaded.
pub fn relieve_overloads(
    state: Vec<PackServer>,
    constraint: &dyn Constraint,
    cfg: &ReliefConfig,
) -> ConsolidationPlan {
    let mut fleet = Fleet::new(state, constraint);
    let mut plan = ConsolidationPlan::default();
    let mut moves_left = cfg.max_moves;

    // Process most-overloaded first (largest CPU excess).
    let mut order: Vec<usize> = (0..fleet.servers.len())
        .filter(|&i| !fleet.admits(i, &[]))
        .collect();
    let excess = |i: usize| fleet.sums[i].cpu - fleet.servers[i].cpu_capacity_ghz;
    order.sort_by(|&a, &b| excess(b).partial_cmp(&excess(a)).expect("finite demands"));

    for src in order {
        let mut cleared = fleet.admits(src, &[]);
        while !cleared && moves_left > 0 {
            // Evict the smallest resident that clears the most pressure:
            // choose the smallest VM whose removal leaves the server
            // admissible, else the largest VM (fastest pressure drop).
            let victim_idx = {
                let residents = &fleet.servers[src].resident;
                if residents.is_empty() {
                    break;
                }
                // Smallest sufficient victim.
                let mut candidates: Vec<usize> = (0..residents.len()).collect();
                candidates.sort_by(|&a, &b| {
                    residents[a]
                        .cpu_ghz
                        .partial_cmp(&residents[b].cpu_ghz)
                        .expect("finite demands")
                });
                candidates
                    .iter()
                    .copied()
                    .find(|&i| fleet.admits_without(src, i))
                    .unwrap_or_else(|| *candidates.last().expect("non-empty residents"))
            };
            let victim = fleet.servers[src].resident.swap_remove(victim_idx);

            // Destination: feasible server with the most spare CPU; prefer
            // already-active servers, wake a sleeping one only if needed.
            match fleet.best_destination(src, &victim, cfg.headroom_ghz) {
                Some(d) => {
                    let was_active = fleet.servers[d].active;
                    fleet.servers[d].resident.push(victim);
                    fleet.servers[d].active = true;
                    fleet.refresh(d);
                    plan.moves.push(Move {
                        vm: victim.vm,
                        from: Some(fleet.servers[src].index),
                        to: fleet.servers[d].index,
                        cpu_ghz: victim.cpu_ghz,
                        mem_mib: victim.mem_mib,
                    });
                    if !was_active {
                        plan.servers_to_wake.push(fleet.servers[d].index);
                    }
                    moves_left -= 1;
                }
                None => {
                    // Nowhere to go: put it back and give up on this server.
                    fleet.servers[src].resident.push(victim);
                    fleet.refresh(src);
                    break;
                }
            }
            fleet.refresh(src);
            cleared = fleet.admits(src, &[]);
        }
    }

    plan
}

/// The pass's working state: the servers, and per server its [`Sums`].
struct Fleet<'a> {
    servers: Vec<PackServer>,
    sums: Vec<Sums>,
    constraint: &'a dyn Constraint,
}

/// A server's resident CPU and memory, each exactly the left fold that
/// [`PackServer::resident_cpu`] and [`PackServer::resident_mem`] return,
/// and the rule's [`Ceilings`] on it when the rule is additive.
#[derive(Clone, Copy)]
struct Sums {
    cpu: f64,
    mem: f64,
    ceilings: Option<Ceilings>,
}

impl Sums {
    fn of(server: &PackServer, constraint: &dyn Constraint) -> Sums {
        Sums {
            cpu: server.resident_cpu(),
            mem: server.resident_mem(),
            ceilings: constraint.ceilings(server),
        }
    }
}

impl<'a> Fleet<'a> {
    fn new(servers: Vec<PackServer>, constraint: &'a dyn Constraint) -> Fleet<'a> {
        let sums = servers.iter().map(|s| Sums::of(s, constraint)).collect();
        Fleet {
            servers,
            sums,
            constraint,
        }
    }

    /// Re-derive server `i`'s [`Sums`] after a move touched it. The sums
    /// are re-summed, not adjusted: `swap_remove` reorders the residents,
    /// and subtracting a victim is not the fold of what is left.
    fn refresh(&mut self, i: usize) {
        self.sums[i] = Sums::of(&self.servers[i], self.constraint);
    }

    /// Whether the rule admits `extra` on server `i`: under ceilings the
    /// two comparisons of the [`Constraint::ceilings`] contract, otherwise
    /// `admits` itself.
    fn admits(&self, i: usize, extra: &[PackItem]) -> bool {
        let sums = self.sums[i];
        match sums.ceilings {
            Some(c) => {
                sums.cpu + extra.iter().map(|x| x.cpu_ghz).sum::<f64>() <= c.cpu_ghz
                    && sums.mem + extra.iter().map(|x| x.mem_mib).sum::<f64>() <= c.mem_mib
            }
            None => self.constraint.admits(&self.servers[i], extra),
        }
    }

    /// Whether server `i` is admissible once `swap_remove(r)` takes its
    /// resident `r`. Under ceilings the sums run over the order
    /// `swap_remove` leaves (`..r`, then the last, then `r + 1..last`), so
    /// they are the trial server's folds without building it.
    fn admits_without(&self, i: usize, r: usize) -> bool {
        let residents = &self.servers[i].resident;
        match self.sums[i].ceilings {
            Some(c) => {
                let (moved, middle) = match residents[r + 1..].split_last() {
                    Some((last, middle)) => (Some(last), middle),
                    None => (None, &[][..]),
                };
                let left = || residents[..r].iter().chain(moved).chain(middle);
                left().map(|x| x.cpu_ghz).sum::<f64>() <= c.cpu_ghz
                    && left().map(|x| x.mem_mib).sum::<f64>() <= c.mem_mib
            }
            None => {
                let mut trial = self.servers[i].clone();
                trial.resident.swap_remove(r);
                self.constraint.admits(&trial, &[])
            }
        }
    }

    /// Pick the destination for `victim`: feasible (with headroom),
    /// preferring active servers, then most spare CPU, then the lowest
    /// index; sleeping servers considered last. A server that could not
    /// beat the best so far is passed over before its feasibility is
    /// tested, which picks the same server with one comparison for most.
    fn best_destination(&self, src: usize, victim: &PackItem, headroom: f64) -> Option<usize> {
        let mut best: Option<(bool, f64, usize)> = None; // (active, spare, idx)
        for (i, s) in self.servers.iter().enumerate() {
            let spare = s.cpu_capacity_ghz - self.sums[i].cpu - victim.cpu_ghz;
            // Active beats sleeping; then more spare CPU.
            if matches!(best, Some((ba, bs, _)) if (ba, bs) >= (s.active, spare)) {
                continue;
            }
            if i == src || spare < headroom || !self.admits(i, std::slice::from_ref(victim)) {
                continue;
            }
            best = Some((s.active, spare, i));
        }
        best.map(|(_, _, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CpuConstraint, FnConstraint};
    use vdc_dcsim::VmId;

    fn server(index: usize, cpu: f64, residents: &[(u64, f64)], active: bool) -> PackServer {
        PackServer {
            index,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: 1e9,
            max_watts: 200.0,
            idle_watts: 120.0,
            active,
            pue: 1.0,
            resident: residents
                .iter()
                .map(|&(id, c)| PackItem::new(VmId(id), c, 512.0))
                .collect(),
        }
    }

    #[test]
    fn no_overload_no_moves() {
        let servers = vec![
            server(0, 4.0, &[(1, 2.0)], true),
            server(1, 4.0, &[(2, 3.0)], true),
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn single_eviction_clears_overload() {
        // Server 0 has 5 GHz on 4: evicting the 1 GHz VM clears it.
        let servers = vec![
            server(0, 4.0, &[(1, 4.0), (2, 1.0)], true),
            server(1, 4.0, &[], true),
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert_eq!(out.moves.len(), 1);
        assert_eq!(out.moves[0].vm, VmId(2));
        assert_eq!(out.moves[0].to, 1);
    }

    #[test]
    fn prefers_smallest_sufficient_victim() {
        // 3.9 capacity holding 0.5 + 2.0 + 2.0: removing the 0.5 VM still
        // leaves 4.0 > 3.9, so the smallest *sufficient* victim is a 2.0.
        let servers = vec![
            server(0, 3.9, &[(1, 0.5), (2, 2.0), (3, 2.0)], true),
            server(1, 8.0, &[], true),
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert_eq!(out.moves.len(), 1);
        assert!(out.moves[0].cpu_ghz == 2.0, "{:?}", out.moves);
    }

    #[test]
    fn wakes_sleeping_server_as_last_resort() {
        let servers = vec![
            server(0, 2.0, &[(1, 1.5), (2, 1.5)], true),
            server(1, 2.0, &[(3, 1.8)], true), // active but too full
            server(2, 4.0, &[], false),        // sleeping
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert_eq!(out.moves.len(), 1);
        assert_eq!(out.moves[0].to, 2);
        assert_eq!(out.servers_to_wake, vec![2]);
    }

    #[test]
    fn prefers_active_over_sleeping() {
        let servers = vec![
            server(0, 2.0, &[(1, 1.5), (2, 1.5)], true),
            server(1, 4.0, &[(3, 0.5)], true), // active with room
            server(2, 12.0, &[], false),       // sleeping with more room
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert_eq!(out.moves[0].to, 1, "active server must win");
        assert!(out.servers_to_wake.is_empty());
    }

    #[test]
    fn plans_nothing_when_no_destination() {
        let servers = vec![
            server(0, 2.0, &[(1, 3.0)], true), // one huge VM, can't fit anywhere
            server(1, 2.0, &[(2, 1.9)], true),
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert!(out.moves.is_empty());
    }

    #[test]
    fn respects_move_budget() {
        // Three overloaded servers but budget 1: only one move planned.
        let servers = vec![
            server(0, 2.0, &[(1, 1.5), (2, 1.0)], true),
            server(1, 2.0, &[(3, 1.5), (4, 1.0)], true),
            server(2, 2.0, &[(5, 1.5), (6, 1.0)], true),
            server(3, 12.0, &[], true),
        ];
        let cfg = ReliefConfig {
            max_moves: 1,
            ..Default::default()
        };
        let out = relieve_overloads(servers, &CpuConstraint::default(), &cfg);
        assert_eq!(out.moves.len(), 1);
    }

    #[test]
    fn multiple_evictions_from_one_server() {
        // 6 GHz of demand on 2 GHz capacity: needs several evictions.
        let servers = vec![
            server(0, 2.0, &[(1, 1.5), (2, 1.5), (3, 1.5), (4, 1.5)], true),
            server(1, 12.0, &[], true),
        ];
        let out = relieve_overloads(servers, &CpuConstraint::default(), &ReliefConfig::default());
        assert!(out.moves.len() >= 3, "{:?}", out.moves.len());
    }

    #[test]
    fn headroom_hysteresis_respected() {
        // Destination with exactly zero spare after the move is rejected
        // under a positive headroom requirement.
        let servers = vec![
            server(0, 2.0, &[(1, 1.0), (2, 1.5)], true),
            server(1, 2.0, &[(3, 1.0)], true), // spare after +1.0 = 0.0
            server(2, 4.0, &[], true),
        ];
        let cfg = ReliefConfig {
            headroom_ghz: 0.5,
            ..Default::default()
        };
        let out = relieve_overloads(servers, &CpuConstraint::default(), &cfg);
        assert_eq!(out.moves[0].to, 2, "must skip the headroom-less server");
    }

    /// An additive rule whose CPU ceiling is exactly the capacity, with no
    /// slack, so a sum one ulp over it rejects.
    struct ExactCpu;

    impl Constraint for ExactCpu {
        fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
            let extra: f64 = candidates.iter().map(|i| i.cpu_ghz).sum();
            server.resident_cpu() + extra <= server.cpu_capacity_ghz
        }

        fn ceilings(&self, server: &PackServer) -> Option<Ceilings> {
            Some(Ceilings {
                cpu_ghz: server.cpu_capacity_ghz,
                mem_mib: f64::INFINITY,
            })
        }
    }

    #[test]
    fn a_source_is_re_summed_in_the_order_swap_remove_leaves() {
        // 0.1 + 0.4 + 0.2 on 0.3. No single eviction fits, so the largest
        // goes first. [0.1, 0.2] then sums to 0.30000000000000004, still
        // over, while subtracting 0.4 from the total would claim
        // 0.29999999999999993 and stop after one move.
        let servers = vec![
            server(0, 0.3, &[(1, 0.1), (2, 0.4), (3, 0.2)], true),
            server(1, 12.0, &[], true),
        ];
        let cfg = ReliefConfig::default();
        let fast = relieve_overloads(servers.clone(), &ExactCpu, &cfg);
        let moved: Vec<f64> = fast.moves.iter().map(|m| m.cpu_ghz).collect();
        assert_eq!(moved, vec![0.4, 0.1]);
        let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| ExactCpu.admits(s, q));
        assert_eq!(fast, relieve_overloads(servers, &reference, &cfg));
    }
}
