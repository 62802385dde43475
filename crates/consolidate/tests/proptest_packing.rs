//! Property-based tests for the packing layer: every algorithm's output
//! must be *feasible* (no CPU/memory violation on any server) and
//! *conservative* (no VM lost or duplicated) for arbitrary inputs.

use std::collections::BTreeMap;
use vdc_check::{check, from_fn, prop_assert, prop_assert_eq, prop_assume, Gen, TestRng};
use vdc_consolidate::constraint::{AndConstraint, Constraint};
use vdc_consolidate::ffd::first_fit_decreasing;
use vdc_consolidate::ipac::{ipac_plan, IpacConfig};
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::{minimum_slack, MinSlackConfig};
use vdc_consolidate::pac::pac_pack;
use vdc_consolidate::plan::ConsolidationPlan;
use vdc_consolidate::pmapper::pmapper_plan;
use vdc_consolidate::policy::AlwaysAllow;
use vdc_dcsim::VmId;

const CASES: u32 = 64;

/// A fleet of 2–8 servers with assorted capacities.
fn gen_servers(rng: &mut TestRng) -> Vec<PackServer> {
    let n = rng.usize_in(2, 8);
    (0..n)
        .map(|i| {
            let watts = rng.f64_in(100.0, 400.0);
            PackServer {
                index: i,
                cpu_capacity_ghz: rng.f64_in(2.0, 12.0),
                mem_capacity_mib: rng.f64_in(2048.0, 16384.0),
                max_watts: watts,
                idle_watts: watts * 0.6,
                active: false,
                pue: 1.0,
                resident: Vec::new(),
            }
        })
        .collect()
}

/// 1–25 VMs with assorted demands.
fn gen_items(rng: &mut TestRng) -> Vec<PackItem> {
    let n = rng.usize_in(1, 25);
    (0..n)
        .map(|i| {
            PackItem::new(
                VmId(i as u64),
                rng.f64_in(0.1, 3.0),
                rng.f64_in(64.0, 2048.0),
            )
        })
        .collect()
}

/// `(servers, items)` — the instance every packing property consumes.
fn instance() -> impl Gen<Value = (Vec<PackServer>, Vec<PackItem>)> {
    from_fn(|rng: &mut TestRng| (gen_servers(rng), gen_items(rng)))
}

/// A populated snapshot: items distributed round-robin, skipping servers
/// that cannot take an item (so the starting state is always feasible).
fn populate(mut servers: Vec<PackServer>, items: &[PackItem]) -> Vec<PackServer> {
    let constraint = AndConstraint::cpu_and_memory();
    let n = servers.len();
    for (k, item) in items.iter().enumerate() {
        for off in 0..n {
            let s = (k + off) % n;
            if constraint.admits(&servers[s], std::slice::from_ref(item)) {
                servers[s].resident.push(*item);
                servers[s].active = true;
                break;
            }
        }
        // Items that fit nowhere are dropped: the starting state stays valid.
    }
    servers
}

/// Check a final state: every server satisfies CPU and memory.
fn state_feasible(servers: &[PackServer]) -> bool {
    servers.iter().all(|s| {
        s.resident_cpu() <= s.cpu_capacity_ghz + 1e-6
            && s.resident_mem() <= s.mem_capacity_mib + 1e-6
    })
}

/// Apply a plan to a snapshot (pure data transformation for checking).
fn apply(servers: &[PackServer], plan: &ConsolidationPlan) -> Vec<PackServer> {
    let mut state = servers.to_vec();
    for mv in &plan.moves {
        let item = PackItem::new(mv.vm, mv.cpu_ghz, mv.mem_mib);
        if let Some(from) = mv.from {
            let src = state.iter_mut().find(|s| s.index == from).unwrap();
            src.resident.retain(|it| it.vm != mv.vm);
        }
        let dst = state.iter_mut().find(|s| s.index == mv.to).unwrap();
        dst.resident.push(item);
        dst.active = true;
    }
    state
}

fn vm_multiset(servers: &[PackServer]) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for s in servers {
        for it in &s.resident {
            *m.entry(it.vm.0).or_insert(0) += 1;
        }
    }
    m
}

#[test]
fn minslack_selection_is_feasible() {
    check(CASES, &instance(), |(servers, items)| {
        let constraint = AndConstraint::cpu_and_memory();
        let server = &servers[0];
        let res = minimum_slack(server, items, &constraint, &MinSlackConfig::default());
        // Chosen indices are unique and in range.
        let mut seen = std::collections::BTreeSet::new();
        for &i in &res.chosen {
            prop_assert!(i < items.len());
            prop_assert!(seen.insert(i), "duplicate index {i}");
        }
        // Selection satisfies the constraint.
        let chosen: Vec<PackItem> = res.chosen.iter().map(|&i| items[i]).collect();
        prop_assert!(constraint.admits(server, &chosen));
        // Slack consistency.
        let used: f64 = chosen.iter().map(|i| i.cpu_ghz).sum();
        let slack = server.cpu_capacity_ghz - server.resident_cpu() - used;
        prop_assert!((slack - res.slack_ghz).abs() < 1e-9);
        Ok(())
    });
}

#[test]
fn pac_assignments_feasible_and_conservative() {
    check(CASES, &instance(), |(servers, items)| {
        let constraint = AndConstraint::cpu_and_memory();
        let mut state = servers.clone();
        let res = pac_pack(&mut state, items, &constraint, &MinSlackConfig::default());
        prop_assert!(state_feasible(&state), "PAC produced an infeasible state");
        // Every input VM is either assigned exactly once or unplaced.
        let assigned: std::collections::BTreeSet<u64> =
            res.assignments.iter().map(|&(vm, _)| vm.0).collect();
        let unplaced: std::collections::BTreeSet<u64> =
            res.unplaced.iter().map(|vm| vm.0).collect();
        prop_assert_eq!(assigned.len(), res.assignments.len(), "double assignment");
        prop_assert!(assigned.is_disjoint(&unplaced));
        prop_assert_eq!(assigned.len() + unplaced.len(), items.len());
        Ok(())
    });
}

#[test]
fn ffd_respects_constraints() {
    check(CASES, &instance(), |(servers, items)| {
        let constraint = AndConstraint::cpu_and_memory();
        let mut state = servers.clone();
        let _ = first_fit_decreasing(&mut state, items, &constraint);
        prop_assert!(state_feasible(&state));
        Ok(())
    });
}

#[test]
fn ipac_plan_preserves_vms_and_feasibility() {
    check(CASES, &instance(), |(servers, items)| {
        let constraint = AndConstraint::cpu_and_memory();
        let start = populate(servers.clone(), items);
        let before = vm_multiset(&start);
        let plan = ipac_plan(
            &start,
            &[],
            &constraint,
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        let after_state = apply(&start, &plan);
        let after = vm_multiset(&after_state);
        prop_assert_eq!(&before, &after, "IPAC lost or duplicated VMs");
        prop_assert!(state_feasible(&after_state), "IPAC plan violates capacity");
        // Never more active servers than before (IPAC only consolidates;
        // wakes happen only to resolve overload, and `populate` starts
        // feasible).
        let occ_before = start.iter().filter(|s| !s.resident.is_empty()).count();
        let occ_after = after_state
            .iter()
            .filter(|s| !s.resident.is_empty())
            .count();
        prop_assert!(occ_after <= occ_before);
        Ok(())
    });
}

#[test]
fn pmapper_plan_preserves_vms_and_feasibility() {
    check(CASES, &instance(), |(servers, items)| {
        let constraint = AndConstraint::cpu_and_memory();
        let start = populate(servers.clone(), items);
        let before = vm_multiset(&start);
        let plan = pmapper_plan(&start, &[], &constraint);
        let after_state = apply(&start, &plan);
        let after = vm_multiset(&after_state);
        prop_assert_eq!(&before, &after, "pMapper lost or duplicated VMs");
        prop_assert!(
            state_feasible(&after_state),
            "pMapper plan violates capacity"
        );
        Ok(())
    });
}

#[test]
fn ipac_never_does_worse_than_start_power_proxy() {
    check(CASES, &instance(), |(servers, items)| {
        // Idle-power proxy: sum of idle watts of occupied servers must not
        // increase after an IPAC plan (it can only empty servers).
        let constraint = AndConstraint::cpu_and_memory();
        let start = populate(servers.clone(), items);
        let plan = ipac_plan(
            &start,
            &[],
            &constraint,
            &AlwaysAllow,
            &IpacConfig::default(),
        );
        let after_state = apply(&start, &plan);
        let idle = |state: &[PackServer]| -> f64 {
            state
                .iter()
                .filter(|s| !s.resident.is_empty())
                .map(|s| s.idle_watts)
                .sum()
        };
        prop_assert!(idle(&after_state) <= idle(&start) + 1e-9);
        Ok(())
    });
}

/// Regression (found by the large-scale simulation): when a tight fleet
/// cannot absorb overload evictions, IPAC force-returns them home — which
/// must never violate the *hard* memory constraint, even if PAC already
/// packed newcomers onto the origin server.
mod overloaded_starts {
    use super::*;
    use vdc_check::f64_range;

    fn mem_feasible(servers: &[PackServer]) -> bool {
        servers
            .iter()
            .all(|s| s.resident_mem() <= s.mem_capacity_mib + 1e-6)
    }

    #[test]
    fn ipac_on_overloaded_tight_fleet_keeps_memory_feasible() {
        let gen = (instance(), f64_range(1.0, 6.0));
        check(CASES, &gen, |((servers, items), inflate)| {
            let constraint = AndConstraint::cpu_and_memory();
            // Start from a feasible packing, then inflate CPU demands so
            // several servers are overloaded (memory stays as placed).
            let mut start = populate(servers.clone(), items);
            for s in start.iter_mut() {
                for it in s.resident.iter_mut() {
                    it.cpu_ghz *= inflate;
                }
            }
            prop_assume!(mem_feasible(&start));
            let before = vm_multiset(&start);
            let plan = ipac_plan(
                &start,
                &[],
                &constraint,
                &AlwaysAllow,
                &IpacConfig::default(),
            );
            let after = apply(&start, &plan);
            prop_assert_eq!(before, vm_multiset(&after), "VMs lost or duplicated");
            prop_assert!(
                mem_feasible(&after),
                "hard memory constraint violated under overload pressure"
            );
            Ok(())
        });
    }

    #[test]
    fn relief_then_ipac_composition_is_consistent() {
        let gen = (instance(), f64_range(1.0, 4.0));
        check(CASES, &gen, |((servers, items), inflate)| {
            use vdc_consolidate::relief::{relieve_overloads, ReliefConfig};
            let constraint = AndConstraint::cpu_and_memory();
            let mut start = populate(servers.clone(), items);
            for s in start.iter_mut() {
                for it in s.resident.iter_mut() {
                    it.cpu_ghz *= inflate;
                }
            }
            prop_assume!(mem_feasible(&start));
            let before = vm_multiset(&start);
            // Relief first (the between-invocations pass)…
            let relief = relieve_overloads(&start, &constraint, &ReliefConfig::default());
            let mid = apply(&start, &relief);
            prop_assert!(mem_feasible(&mid));
            // …then a full IPAC invocation.
            let plan = ipac_plan(&mid, &[], &constraint, &AlwaysAllow, &IpacConfig::default());
            let after = apply(&mid, &plan);
            prop_assert_eq!(before, vm_multiset(&after));
            prop_assert!(mem_feasible(&after));
            Ok(())
        });
    }
}

/// Convergence: repeatedly planning and applying IPAC must reach a fixed
/// point (an empty plan) quickly — the paper's invoke-until-no-decrease
/// loop must not oscillate across invocations.
mod convergence {
    use super::*;

    #[test]
    fn ipac_reaches_a_fixed_point() {
        check(32, &instance(), |(servers, items)| {
            let constraint = AndConstraint::cpu_and_memory();
            let mut state = populate(servers.clone(), items);
            let mut rounds = 0;
            loop {
                let plan = ipac_plan(
                    &state,
                    &[],
                    &constraint,
                    &AlwaysAllow,
                    &IpacConfig::default(),
                );
                if plan.moves.is_empty() {
                    break;
                }
                state = apply(&state, &plan);
                rounds += 1;
                prop_assert!(
                    rounds <= 8,
                    "IPAC keeps planning moves after {rounds} rounds"
                );
            }
            // The fixed point is feasible.
            prop_assert!(state_feasible(&state));
            Ok(())
        });
    }
}

/// Additive admission is invisible: a rule with ceilings makes Minimum
/// Slack keep running sums instead of calling `admits`, and the result must
/// be bit-identical to the reference path. The reference is the same rule
/// behind an `FnConstraint`, which reports no ceilings.
mod additive_admission {
    use super::*;
    use vdc_consolidate::constraint::{CpuConstraint, FnConstraint, MemoryConstraint};

    /// The additive rule a case packs under (CPU rules with their cap).
    #[derive(Debug, Clone, Copy)]
    enum Rule {
        Cpu(f64),
        Memory,
        Both(f64),
    }

    impl Rule {
        fn build(self) -> Box<dyn Constraint + Send + Sync> {
            let cpu = |cap| CpuConstraint {
                utilization_cap: cap,
            };
            match self {
                Rule::Cpu(cap) => Box::new(cpu(cap)),
                Rule::Memory => Box::new(MemoryConstraint),
                Rule::Both(cap) => Box::new(AndConstraint::new(vec![
                    Box::new(cpu(cap)),
                    Box::new(MemoryConstraint),
                ])),
            }
        }
    }

    #[derive(Debug, Clone)]
    struct Case {
        /// Servers with residents; some may already be over their cap.
        servers: Vec<PackServer>,
        pool: Vec<PackItem>,
        rule: Rule,
        cfg: MinSlackConfig,
    }

    fn case() -> impl Gen<Value = Case> {
        from_fn(|rng: &mut TestRng| {
            // One item in six needs no CPU, only memory.
            let item = |rng: &mut TestRng, id: u64| {
                let cpu = if rng.below(6) == 0 {
                    0.0
                } else {
                    rng.f64_in(0.05, 3.0)
                };
                PackItem::new(VmId(id), cpu, rng.f64_in(64.0, 4096.0))
            };
            let mut servers = gen_servers(rng);
            servers.truncate(3);
            let mut id = 1000;
            for s in &mut servers {
                for _ in 0..rng.usize_in(0, 4) {
                    s.resident.push(item(rng, id));
                    id += 1;
                }
            }
            // Up to 90 candidates, so some sweeps clear the 64-root fan-out
            // threshold and the shard counts below really split the roots.
            let pool = (0..rng.usize_in(1, 90))
                .map(|i| item(rng, i as u64))
                .collect();
            let cap = rng.f64_in(0.5, 1.0);
            let rule = match rng.below(3) {
                0 => Rule::Cpu(cap),
                1 => Rule::Memory,
                _ => Rule::Both(cap),
            };
            // Small budgets and ε steps walk the relaxation countdown.
            let cfg = MinSlackConfig {
                epsilon_ghz: if rng.bool() { 0.0 } else { 0.05 },
                epsilon_step_ghz: if rng.bool() { 0.01 } else { 0.1 },
                step_budget: if rng.bool() { 64 } else { 2_000 },
                max_relaxations: if rng.bool() { 2 } else { 8 },
                shards: 1,
            };
            Case {
                servers,
                pool,
                rule,
                cfg,
            }
        })
    }

    #[test]
    fn minimum_slack_matches_the_reference_path() {
        // Searches that relaxed ε, those of them under a memory ceiling
        // (where memory-infeasible tails are counted in one step), and
        // root sweeps wide enough to fan out.
        let (relaxed, fanned) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let relaxed_on_memory = std::cell::Cell::new(0);
        check(CASES, &case(), |c| {
            let rule = c.rule.build();
            let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| rule.admits(s, q));
            for server in &c.servers {
                prop_assert!(rule.ceilings(server).is_some());
                prop_assert!(reference.ceilings(server).is_none());
                for shards in [1, 2, 3] {
                    let cfg = MinSlackConfig { shards, ..c.cfg };
                    let fast = minimum_slack(server, &c.pool, rule.as_ref(), &cfg);
                    let slow = minimum_slack(server, &c.pool, &reference, &cfg);
                    relaxed.set(relaxed.get() + usize::from(fast.relaxations > 0));
                    let on_memory = matches!(c.rule, Rule::Memory | Rule::Both(_));
                    relaxed_on_memory.set(
                        relaxed_on_memory.get() + usize::from(on_memory && fast.relaxations > 0),
                    );
                    // More steps than the greedy fill can take: the sweep ran.
                    let swept = fast.steps > c.pool.len() as u64;
                    fanned.set(fanned.get() + usize::from(swept && c.pool.len() >= 64));
                    prop_assert_eq!(fast.chosen, slow.chosen, "shards={}", shards);
                    prop_assert_eq!(fast.slack_ghz.to_bits(), slow.slack_ghz.to_bits());
                    prop_assert_eq!(fast.steps, slow.steps);
                    prop_assert_eq!(fast.relaxations, slow.relaxations);
                }
            }
            Ok(())
        });
        assert!(relaxed.get() > 0, "no search relaxed ε");
        assert!(
            relaxed_on_memory.get() > 0,
            "no search under a memory ceiling relaxed ε"
        );
        assert!(fanned.get() > 0, "no root sweep was wide enough to fan out");
    }

    #[test]
    fn pac_pack_matches_the_reference_path() {
        check(CASES, &case(), |c| {
            let rule = c.rule.build();
            let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| rule.admits(s, q));
            for shards in [1, 2, 3] {
                let cfg = MinSlackConfig { shards, ..c.cfg };
                let (mut fast_servers, mut slow_servers) = (c.servers.clone(), c.servers.clone());
                let fast = pac_pack(&mut fast_servers, &c.pool, rule.as_ref(), &cfg);
                let slow = pac_pack(&mut slow_servers, &c.pool, &reference, &cfg);
                prop_assert_eq!(fast.assignments, slow.assignments, "shards={}", shards);
                prop_assert_eq!(fast.unplaced, slow.unplaced);
                prop_assert_eq!(fast.total_steps, slow.total_steps);
                prop_assert_eq!(fast.total_relaxations, slow.total_relaxations);
            }
            Ok(())
        });
    }
}
