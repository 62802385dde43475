//! Exact (exponential-time) reference packer for quality evaluation.
//!
//! Vector packing is NP-hard (§V cites \[10\]), which is why the paper uses
//! heuristics. For *tiny* instances, though, exhaustive search is
//! tractable — and gives the ground truth against which PAC/IPAC (and
//! pMapper) can be judged in tests and ablations: how close do the
//! heuristics get to the true minimum idle-power placement?
//!
//! The objective mirrors PAC's: minimize the total idle power of occupied
//! servers (a server's dynamic power depends on demand, which is placement
//! invariant; what placement controls is which static floors are paid).

use crate::constraint::Constraint;
use crate::item::{PackItem, PackServer};

/// Result of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactPacking {
    /// Chosen server (position in the input slice) per item, in item order.
    pub(crate) assignment: Vec<usize>,
    /// Total idle watts of occupied servers — the minimized objective.
    pub(crate) idle_watts: f64,
    /// Assignments explored (cost guard for callers).
    pub(crate) nodes: u64,
}

/// Exhaustively find the minimum-idle-power feasible assignment of `items`
/// onto `servers` (treating any current residents as fixed).
///
/// Complexity is `O(n_servers^n_items)` with pruning; callers should keep
/// `items.len() ≤ ~10`. Returns `None` if no feasible complete assignment
/// exists or the node budget is exhausted.
pub fn exact_pack(
    servers: &[PackServer],
    items: &[PackItem],
    constraint: &dyn Constraint,
    node_budget: u64,
) -> Option<ExactPacking> {
    struct Search<'a> {
        servers: Vec<PackServer>,
        items: &'a [PackItem],
        constraint: &'a dyn Constraint,
        assignment: Vec<usize>,
        best: Option<(f64, Vec<usize>)>,
        nodes: u64,
        budget: u64,
    }

    impl Search<'_> {
        fn occupied_idle(&self) -> f64 {
            self.servers
                .iter()
                .filter(|s| !s.resident.is_empty())
                .map(|s| s.idle_watts)
                .sum()
        }

        fn dfs(&mut self, item_idx: usize) {
            if self.nodes >= self.budget {
                return;
            }
            if item_idx == self.items.len() {
                let cost = self.occupied_idle();
                if self.best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                    self.best = Some((cost, self.assignment.clone()));
                }
                return;
            }
            // Branch-and-bound: current occupied idle power only grows.
            if let Some((best_cost, _)) = &self.best {
                if self.occupied_idle() >= *best_cost {
                    return;
                }
            }
            let item = self.items[item_idx];
            for s in 0..self.servers.len() {
                self.nodes += 1;
                if self.nodes >= self.budget {
                    return;
                }
                if !self
                    .constraint
                    .admits(&self.servers[s], std::slice::from_ref(&item))
                {
                    continue;
                }
                self.servers[s].resident.push(item);
                self.assignment.push(s);
                self.dfs(item_idx + 1);
                self.assignment.pop();
                self.servers[s].resident.pop();
            }
        }
    }

    let mut search = Search {
        servers: servers.to_vec(),
        items,
        constraint,
        assignment: Vec::with_capacity(items.len()),
        best: None,
        nodes: 0,
        budget: node_budget,
    };
    search.dfs(0);
    let nodes = search.nodes;
    search.best.map(|(idle_watts, assignment)| ExactPacking {
        assignment,
        idle_watts,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{AndConstraint, CpuConstraint};
    use crate::minslack::MinSlackConfig;
    use crate::pac::pac_pack;
    use vdc_dcsim::VmId;

    fn server(index: usize, cpu: f64, idle: f64) -> PackServer {
        PackServer {
            index,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: 1e9,
            max_watts: idle / 0.6,
            idle_watts: idle,
            active: false,
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
    fn finds_single_server_optimum() {
        let servers = vec![server(0, 4.0, 100.0), server(1, 4.0, 50.0)];
        let q = items(&[1.0, 1.0, 1.0]);
        let c = CpuConstraint::default();
        let best = exact_pack(&servers, &q, &c, 1_000_000).unwrap();
        // Everything fits on the cheaper server 1.
        assert_eq!(best.assignment, vec![1, 1, 1]);
        assert_eq!(best.idle_watts, 50.0);
    }

    #[test]
    fn splits_when_forced() {
        let servers = vec![server(0, 2.0, 100.0), server(1, 2.0, 60.0)];
        let q = items(&[1.5, 1.5]);
        let c = CpuConstraint::default();
        let best = exact_pack(&servers, &q, &c, 1_000_000).unwrap();
        assert_ne!(best.assignment[0], best.assignment[1]);
        assert_eq!(best.idle_watts, 160.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let servers = vec![server(0, 1.0, 100.0)];
        let q = items(&[2.0]);
        let c = CpuConstraint::default();
        assert!(exact_pack(&servers, &q, &c, 1_000_000).is_none());
    }

    #[test]
    fn budget_exhaustion_is_signalled() {
        let servers: Vec<PackServer> = (0..6).map(|i| server(i, 10.0, 50.0)).collect();
        let q = items(&[0.1; 8]);
        let c = CpuConstraint::default();
        // Budget of 3 nodes cannot complete a single assignment of 8 items.
        assert!(exact_pack(&servers, &q, &c, 3).is_none());
    }

    #[test]
    fn pac_is_near_optimal_on_small_instances() {
        // Deterministic pseudo-random instances; PAC's idle power must be
        // within 35 % of the exhaustive optimum (it is usually equal).
        let mut state: u64 = 0xBEEF;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let constraint = AndConstraint::cpu_and_memory();
        let mut ratio_sum = 0.0;
        let mut judged = 0usize;
        for _ in 0..25 {
            let servers: Vec<PackServer> = (0..4)
                .map(|i| server(i, 2.0 + next() * 8.0, 40.0 + next() * 200.0))
                .collect();
            let q: Vec<PackItem> = (0..6)
                .map(|i| PackItem::new(VmId(i as u64), 0.2 + next() * 2.0, 100.0))
                .collect();
            let Some(best) = exact_pack(&servers, &q, &constraint, 10_000_000) else {
                continue; // infeasible instance
            };
            let mut pac_servers = servers.clone();
            let res = pac_pack(
                &mut pac_servers,
                &q,
                &constraint,
                &MinSlackConfig::default(),
            );
            if !res.is_complete() {
                continue; // PAC failed where exhaustive search succeeded: count as worse
            }
            let pac_idle: f64 = pac_servers
                .iter()
                .filter(|s| !s.resident.is_empty())
                .map(|s| s.idle_watts)
                .sum();
            // Per-instance: a greedy efficiency-ordered heuristic can lose
            // to the exhaustive optimum, but never catastrophically.
            assert!(
                pac_idle <= best.idle_watts * 2.0 + 1e-9,
                "PAC idle {pac_idle} vs optimal {}",
                best.idle_watts
            );
            ratio_sum += pac_idle / best.idle_watts;
            judged += 1;
        }
        // In aggregate PAC must be close to optimal (mean ratio ≤ 1.15).
        assert!(judged >= 10, "too few feasible instances ({judged})");
        let mean_ratio = ratio_sum / judged as f64;
        assert!(
            mean_ratio <= 1.15,
            "PAC averages {mean_ratio:.3}x the optimal idle power"
        );
    }
}
