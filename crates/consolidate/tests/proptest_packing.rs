//! Property-based tests for the packing layer: every algorithm's output
//! must be *feasible* (no CPU/memory violation on any server) and
//! *conservative* (no VM lost or duplicated) for arbitrary inputs.

use std::collections::BTreeMap;
use vdc_check::{check, from_fn, prop_assert, prop_assert_eq, prop_assume, Gen, TestRng};
use vdc_consolidate::constraint::{AndConstraint, Constraint};
use vdc_consolidate::ffd::first_fit_decreasing;
use vdc_consolidate::ipac::ipac_plan;
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
        let plan = ipac_plan(&start, &[], &constraint, &AlwaysAllow);
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
        let plan = ipac_plan(&start, &[], &constraint, &AlwaysAllow);
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
            let plan = ipac_plan(&start, &[], &constraint, &AlwaysAllow);
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
            let relief = relieve_overloads(start.clone(), &constraint, &ReliefConfig::default());
            let mid = apply(&start, &relief);
            prop_assert!(mem_feasible(&mid));
            // …then a full IPAC invocation.
            let plan = ipac_plan(&mid, &[], &constraint, &AlwaysAllow);
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
                let plan = ipac_plan(&state, &[], &constraint, &AlwaysAllow);
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
    use vdc_consolidate::relief::{relieve_overloads, ReliefConfig};

    /// The additive rule a case packs under (CPU rules with their cap).
    #[derive(Debug, Clone, Copy)]
    enum Rule {
        Cpu(f64),
        Memory,
        Both(f64),
    }

    impl Rule {
        fn build(self) -> Box<dyn Constraint> {
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
            // Up to 90 candidates, so some sweeps run over many roots.
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
        // Searches that relaxed ε, and those of them under a memory ceiling
        // (where memory-infeasible tails are counted in one step).
        let (relaxed, relaxed_on_memory) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        check(CASES, &case(), |c| {
            let rule = c.rule.build();
            let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| rule.admits(s, q));
            for server in &c.servers {
                prop_assert!(rule.ceilings(server).is_some());
                prop_assert!(reference.ceilings(server).is_none());
                let fast = minimum_slack(server, &c.pool, rule.as_ref(), &c.cfg);
                let slow = minimum_slack(server, &c.pool, &reference, &c.cfg);
                relaxed.set(relaxed.get() + usize::from(fast.relaxations > 0));
                let on_memory = matches!(c.rule, Rule::Memory | Rule::Both(_));
                relaxed_on_memory
                    .set(relaxed_on_memory.get() + usize::from(on_memory && fast.relaxations > 0));
                prop_assert_eq!(fast.chosen, slow.chosen);
                prop_assert_eq!(fast.slack_ghz.to_bits(), slow.slack_ghz.to_bits());
                prop_assert_eq!(fast.steps, slow.steps);
                prop_assert_eq!(fast.relaxations, slow.relaxations);
            }
            Ok(())
        });
        assert!(relaxed.get() > 0, "no search relaxed ε");
        assert!(
            relaxed_on_memory.get() > 0,
            "no search under a memory ceiling relaxed ε"
        );
    }

    #[test]
    fn pac_pack_matches_the_reference_path() {
        check(CASES, &case(), |c| {
            let rule = c.rule.build();
            let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| rule.admits(s, q));
            let (mut fast_servers, mut slow_servers) = (c.servers.clone(), c.servers.clone());
            let fast = pac_pack(&mut fast_servers, &c.pool, rule.as_ref(), &c.cfg);
            let slow = pac_pack(&mut slow_servers, &c.pool, &reference, &c.cfg);
            prop_assert_eq!(fast.assignments, slow.assignments);
            prop_assert_eq!(fast.unplaced, slow.unplaced);
            prop_assert_eq!(fast.work.steps, slow.work.steps);
            prop_assert_eq!(fast.work.relaxations, slow.work.relaxations);
            Ok(())
        });
    }

    #[test]
    fn relieve_overloads_matches_the_reference_path() {
        // Passes that planned a move, and those that evicted twice from
        // one source (where the source's sums were re-derived mid-pass).
        // A case has at most three servers and is cheap, and at `CASES`
        // a double eviction is rare, so this runs four times as many.
        let (moved, evicted_twice) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        check(4 * CASES, &case(), |c| {
            let rule = c.rule.build();
            let reference = FnConstraint(|s: &PackServer, q: &[PackItem]| rule.admits(s, q));
            let cfg = ReliefConfig::default();
            let fast = relieve_overloads(c.servers.clone(), rule.as_ref(), &cfg);
            let slow = relieve_overloads(c.servers.clone(), &reference, &cfg);
            moved.set(moved.get() + usize::from(!fast.moves.is_empty()));
            let twice = fast
                .moves
                .iter()
                .enumerate()
                .any(|(k, m)| fast.moves[..k].iter().any(|p| p.from == m.from));
            evicted_twice.set(evicted_twice.get() + usize::from(twice));
            prop_assert_eq!(fast, slow);
            Ok(())
        });
        assert!(moved.get() > 0, "no pass planned a move");
        assert!(
            evicted_twice.get() > 0,
            "no pass evicted twice from one source"
        );
    }
}

/// Every Minimum Slack outcome over a fixed corpus, folded into one
/// constant. The reference-path properties above compare two admission
/// paths that share the greedy fill and every exit, so a step charged
/// wrongly on a path both take shows only here.
mod minimum_slack_pin {
    use super::*;
    use vdc_consolidate::constraint::FnConstraint;

    /// SplitMix64, so the corpus is fixed by this file alone and not by
    /// `VDC_CHECK_SEED`.
    struct Corpus(u64);

    impl Corpus {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// FNV-1a (64-bit) over the little-endian bytes of each word.
    struct Fnv(u64);

    impl Fnv {
        fn u64(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// A server of 2–12 GHz, half of them with one to four residents.
    fn server(rng: &mut Corpus) -> PackServer {
        let mem = [4096.0, 8192.0, 16384.0][rng.below(3) as usize];
        let n_resident = if rng.below(2) == 0 {
            0
        } else {
            1 + rng.below(4)
        };
        let resident = (0..n_resident)
            .map(|i| {
                let cpu = rng.f64_in(0.1, 1.5);
                PackItem::new(VmId(1000 + i), cpu, rng.f64_in(128.0, mem / 5.0))
            })
            .collect();
        let any_cpu = rng.f64_in(2.0, 12.0);
        PackServer {
            index: 0,
            cpu_capacity_ghz: [3.0, 4.0, 12.0, any_cpu][rng.below(4) as usize],
            mem_capacity_mib: mem,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: rng.below(2) == 0,
            pue: 1.0,
            resident,
        }
    }

    /// 0–24 items: ordinary ones (one in eight with no CPU), a mix with
    /// memory-heavy ones, or ones that each overflow the free memory
    /// alone, so that the greedy fill chooses nothing.
    fn pool(rng: &mut Corpus, server: &PackServer) -> Vec<PackItem> {
        let free_mem = server.mem_capacity_mib - server.resident_mem();
        let mode = rng.below(3);
        (0..rng.below(25))
            .map(|i| {
                let (cpu, mem) = match (mode, rng.below(2)) {
                    (0, _) | (1, 0) => {
                        let cpu = if rng.below(8) == 0 {
                            0.0
                        } else {
                            rng.f64_in(0.05, 3.0)
                        };
                        (cpu, rng.f64_in(64.0, 2048.0))
                    }
                    (1, _) => (
                        rng.f64_in(0.05, 3.0),
                        rng.f64_in(0.4, 1.2) * server.mem_capacity_mib,
                    ),
                    _ => (rng.f64_in(0.2, 3.0), free_mem + rng.f64_in(1.0, 4096.0)),
                };
                PackItem::new(VmId(i), cpu, mem)
            })
            .collect()
    }

    #[test]
    fn minimum_slack_outcomes_on_a_fixed_corpus_are_pinned() {
        let additive = AndConstraint::cpu_and_memory();
        // At most five VMs on a server, on top of CPU and memory: a rule
        // evaluated on the whole stack, with no ceilings.
        let stack_rule = FnConstraint(|s: &PackServer, c: &[PackItem]| {
            s.resident.len() + c.len() <= 5 && additive.admits(s, c)
        });
        let rules: [&dyn Constraint; 2] = [&additive, &stack_rule];
        let mut rng = Corpus(0x6d69_6e73_6c61_636b);
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        let (mut empty_greedy_sweeps, mut relaxed, mut capped) = (0, 0, 0);
        for _ in 0..320 {
            let server = server(&mut rng);
            let pool = pool(&mut rng, &server);
            let cfg = MinSlackConfig {
                epsilon_ghz: [0.0, 0.05][rng.below(2) as usize],
                epsilon_step_ghz: [0.01, 0.1][rng.below(2) as usize],
                step_budget: [64, 2_000][rng.below(2) as usize],
                max_relaxations: [2, 8][rng.below(2) as usize],
            };
            for rule in rules {
                let r = minimum_slack(&server, &pool, rule, &cfg);
                fnv.u64(r.chosen.len() as u64);
                for &i in &r.chosen {
                    fnv.u64(i as u64);
                }
                fnv.u64(r.slack_ghz.to_bits());
                fnv.u64(r.steps);
                fnv.u64(u64::from(r.relaxations));

                // The greedy fill tests alone each item that passes the
                // CPU pre-filter; when it admits none, a sweep charges each
                // of them again at its root, and the cheap exit does not.
                let target = server.cpu_capacity_ghz - server.resident_cpu();
                let tried: Vec<&PackItem> =
                    pool.iter().filter(|x| x.cpu_ghz <= target + 1e-9).collect();
                let greedy_empty = tried
                    .iter()
                    .all(|x| !rule.admits(&server, std::slice::from_ref(*x)));
                let g = tried.len() as u64;
                if greedy_empty && g > 0 && r.steps == 2 * g {
                    empty_greedy_sweeps += 1;
                }
                relaxed += usize::from(r.relaxations > 0);
                // A search that reached the relaxation cap goes further
                // once the cap is raised.
                let raised = MinSlackConfig {
                    max_relaxations: cfg.max_relaxations + 1,
                    ..cfg
                };
                capped += usize::from(minimum_slack(&server, &pool, rule, &raised) != r);
            }
        }
        for (name, count) in [
            (
                "a sweep started from an empty greedy fill",
                empty_greedy_sweeps,
            ),
            ("a search relaxed ε", relaxed),
            ("a search hit the relaxation cap", capped),
        ] {
            assert!(count > 0, "no case covered: {name}");
        }
        assert_eq!(fnv.0, 0x3079_be05_3a63_a0f4, "{:#018x}", fnv.0);
    }
}
