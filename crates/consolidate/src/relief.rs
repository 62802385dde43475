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

use crate::constraint::Constraint;
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

/// Plan overload relief for the given snapshot.
///
/// Returns a (possibly empty) plan containing only the moves needed to
/// clear constraint violations. Servers that cannot be relieved (no
/// feasible destination anywhere) are left overloaded.
pub fn relieve_overloads(
    servers: &[PackServer],
    constraint: &dyn Constraint,
    cfg: &ReliefConfig,
) -> ConsolidationPlan {
    let mut state: Vec<PackServer> = servers.to_vec();
    let mut plan = ConsolidationPlan::default();
    let mut moves_left = cfg.max_moves;

    // Process most-overloaded first (largest CPU excess).
    let mut order: Vec<usize> = (0..state.len())
        .filter(|&i| !constraint.admits(&state[i], &[]))
        .collect();
    order.sort_by(|&a, &b| {
        let ex = |s: &PackServer| s.resident_cpu() - s.cpu_capacity_ghz;
        ex(&state[b])
            .partial_cmp(&ex(&state[a]))
            .expect("finite demands")
    });

    for src in order {
        let mut cleared = constraint.admits(&state[src], &[]);
        while !cleared && moves_left > 0 {
            // Evict the smallest resident that clears the most pressure:
            // choose the smallest VM whose removal leaves the server
            // admissible, else the largest VM (fastest pressure drop).
            let victim_idx = {
                let residents = &state[src].resident;
                if residents.is_empty() {
                    break;
                }
                let mut best: Option<usize> = None;
                // Smallest sufficient victim.
                let mut candidates: Vec<usize> = (0..residents.len()).collect();
                candidates.sort_by(|&a, &b| {
                    residents[a]
                        .cpu_ghz
                        .partial_cmp(&residents[b].cpu_ghz)
                        .expect("finite demands")
                });
                for &i in &candidates {
                    let mut trial = state[src].clone();
                    trial.resident.swap_remove(i);
                    if constraint.admits(&trial, &[]) {
                        best = Some(i);
                        break;
                    }
                }
                best.unwrap_or_else(|| *candidates.last().expect("non-empty residents"))
            };
            let victim = state[src].resident.swap_remove(victim_idx);

            // Destination: feasible server with the most spare CPU; prefer
            // already-active servers, wake a sleeping one only if needed.
            let dest = best_destination(&state, src, &victim, constraint, cfg.headroom_ghz);
            match dest {
                Some(d) => {
                    let was_active = state[d].active;
                    state[d].resident.push(victim);
                    state[d].active = true;
                    plan.moves.push(Move {
                        vm: victim.vm,
                        from: Some(state[src].index),
                        to: state[d].index,
                        cpu_ghz: victim.cpu_ghz,
                        mem_mib: victim.mem_mib,
                    });
                    if !was_active {
                        plan.servers_to_wake.push(state[d].index);
                    }
                    moves_left -= 1;
                }
                None => {
                    // Nowhere to go: put it back and give up on this server.
                    state[src].resident.push(victim);
                    break;
                }
            }
            cleared = constraint.admits(&state[src], &[]);
        }
    }

    plan
}

/// Pick the destination for `victim`: feasible (with headroom), preferring
/// active servers, then most spare CPU; sleeping servers considered last.
fn best_destination(
    state: &[PackServer],
    src: usize,
    victim: &PackItem,
    constraint: &dyn Constraint,
    headroom: f64,
) -> Option<usize> {
    let mut best: Option<(bool, f64, usize)> = None; // (active, spare, idx)
    for (i, s) in state.iter().enumerate() {
        if i == src {
            continue;
        }
        if !constraint.admits(s, std::slice::from_ref(victim)) {
            continue;
        }
        let spare = s.cpu_capacity_ghz - s.resident_cpu() - victim.cpu_ghz;
        if spare < headroom {
            continue;
        }
        let key = (s.active, spare, i);
        match best {
            // Active beats sleeping; then more spare CPU.
            Some((ba, bs, _)) if (ba, bs) >= (key.0, key.1) => {}
            _ => best = Some(key),
        }
    }
    best.map(|(_, _, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CpuConstraint;
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
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn single_eviction_clears_overload() {
        // Server 0 has 5 GHz on 4: evicting the 1 GHz VM clears it.
        let servers = vec![
            server(0, 4.0, &[(1, 4.0), (2, 1.0)], true),
            server(1, 4.0, &[], true),
        ];
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
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
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
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
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
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
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
        assert_eq!(out.moves[0].to, 1, "active server must win");
        assert!(out.servers_to_wake.is_empty());
    }

    #[test]
    fn plans_nothing_when_no_destination() {
        let servers = vec![
            server(0, 2.0, &[(1, 3.0)], true), // one huge VM, can't fit anywhere
            server(1, 2.0, &[(2, 1.9)], true),
        ];
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
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
        let out = relieve_overloads(&servers, &CpuConstraint::default(), &cfg);
        assert_eq!(out.moves.len(), 1);
    }

    #[test]
    fn multiple_evictions_from_one_server() {
        // 6 GHz of demand on 2 GHz capacity: needs several evictions.
        let servers = vec![
            server(0, 2.0, &[(1, 1.5), (2, 1.5), (3, 1.5), (4, 1.5)], true),
            server(1, 12.0, &[], true),
        ];
        let out = relieve_overloads(
            &servers,
            &CpuConstraint::default(),
            &ReliefConfig::default(),
        );
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
        let out = relieve_overloads(&servers, &CpuConstraint::default(), &cfg);
        assert_eq!(out.moves[0].to, 2, "must skip the headroom-less server");
    }
}
