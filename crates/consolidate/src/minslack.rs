//! Algorithm 1: Minimum Slack — pick the VM subset that leaves the least
//! unallocated CPU on one server.
//!
//! This is the paper's extension of the Minimum Bin Slack heuristic of
//! Fleszar & Hindi \[4\]: a depth-first branch-and-bound over subsets of the
//! unallocated list, where feasibility is an arbitrary [`Constraint`]
//! rather than a plain size check. Two pragmatic devices from Algorithm 1
//! are implemented faithfully:
//!
//! * **allowed slack `ε`** (line 4): the search stops as soon as a subset
//!   leaves less than `ε` of CPU unallocated — a perfect fill is not worth
//!   exponential time;
//! * **step budget** (lines 15–17): if the search exceeds its step budget,
//!   `ε` is increased by one step, making the early exit progressively
//!   easier until the search terminates.
//!
//! Under an additive rule ([`Constraint::ceilings`]) a descent counts a
//! *memory-infeasible tail*, the candidates left once even the smallest
//! remaining memory overflows the ceiling, as that many rejected steps at
//! once, relaxing ε exactly where the item-by-item loop would.
//!
//! # Root-partitioned search
//!
//! The search space is partitioned by **root**: root `r` covers exactly the
//! subsets whose largest chosen item is the `r`-th in the largest-first
//! order. Each root is explored by its own depth-first descent with its
//! own ε ladder and share of the step budget, one root after another on
//! the calling thread, and the winner is:
//!
//! 1. the lowest-index root whose descent hit the ε early exit, if any
//!    (later roots are never explored);
//! 2. otherwise the root with the best fill (ties to the lowest index).
//!
//! Every root's descent is seeded with the **greedy first fill** (walk the
//! largest-first order once, take whatever is admitted) as its incumbent
//! best. The seed is what makes the partitioned search affordable: a root
//! whose subtree cannot beat the greedy fill is cut by the suffix-sum
//! bound after a single constraint evaluation. If the greedy fill already
//! sits within ε the sweep never starts at all.
//!
//! The partition stays, on one thread, because the pinned outputs encode
//! it: the per-root budgets and the index-order winner decide every
//! chosen subset and step count, so the golden digests, the
//! `results_gate` baselines and the step counts pinned below all depend
//! on it.

use crate::constraint::{Ceilings, Constraint};
use crate::item::{PackItem, PackServer};

/// Tuning knobs for the Minimum Slack search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinSlackConfig {
    /// Initial allowed slack ε (GHz).
    pub epsilon_ghz: f64,
    /// Increment applied to ε each time the step budget is exhausted
    /// (line 16 of Algorithm 1).
    pub epsilon_step_ghz: f64,
    /// Constraint evaluations allowed between ε relaxations for the whole
    /// search. The budget is divided evenly across the roots (with a small
    /// floor per root), so a sweep over many roots relaxes on the same
    /// overall schedule as a single undivided search would.
    pub step_budget: u64,
    /// Hard cap on relaxations per root branch; a root past this cap
    /// abandons its descent and reports the best subset it saw.
    pub max_relaxations: u32,
}

impl Default for MinSlackConfig {
    fn default() -> Self {
        MinSlackConfig {
            epsilon_ghz: 0.05,
            epsilon_step_ghz: 0.1,
            step_budget: 20_000,
            max_relaxations: 16,
        }
    }
}

/// Every root keeps at least this many steps per ε rung, however many
/// roots share [`MinSlackConfig::step_budget`]: a descent needs a little
/// room to reach an improving leaf before the ladder moves.
const ROOT_BUDGET_FLOOR: u64 = 32;

/// Outcome of one Minimum Slack search.
#[derive(Debug, Clone, PartialEq)]
pub struct MinSlackResult {
    /// Indices into the *input* list `q` of the chosen VMs.
    pub chosen: Vec<usize>,
    /// Remaining unallocated CPU on the server with the chosen set (GHz).
    pub slack_ghz: f64,
    /// Constraint evaluations performed (roots up to the winner).
    pub steps: u64,
    /// Number of ε relaxations taken (roots up to the winner).
    pub relaxations: u32,
}

/// What one root's descent reported.
struct RootOutcome {
    /// Best subset seen in this root's subtree (indices into `q`).
    chosen: Vec<usize>,
    /// CPU of `chosen` (GHz), summed along the descent path.
    chosen_cpu: f64,
    steps: u64,
    relaxations: u32,
    /// Whether the descent ended via the ε early exit.
    qualified: bool,
}

/// How the search decides whether the candidate stack is admitted.
#[derive(Clone, Copy)]
enum Admission<'a> {
    /// An additive rule ([`Constraint::ceilings`]): the resident sums plus
    /// the stack's running sums against fixed ceilings, two comparisons a
    /// step.
    Sums {
        resident_cpu: f64,
        resident_mem: f64,
        ceilings: Ceilings,
    },
    /// Any other rule, evaluated on the whole stack every step.
    Rule(&'a PackServer, &'a dyn Constraint),
}

impl<'a> Admission<'a> {
    fn new(server: &'a PackServer, constraint: &'a dyn Constraint) -> Admission<'a> {
        match constraint.ceilings(server) {
            Some(ceilings) => Admission::Sums {
                resident_cpu: server.resident_cpu(),
                resident_mem: server.resident_mem(),
                ceilings,
            },
            None => Admission::Rule(server, constraint),
        }
    }

    /// Whether the rule admits `stack`, whose CPU and memory sums, folded
    /// left to right, are `cpu` and `mem`. Both arms compare the same
    /// floats: `Iterator::sum` is the same left fold.
    fn admits(self, stack: &[PackItem], cpu: f64, mem: f64) -> bool {
        match self {
            Admission::Sums {
                resident_cpu,
                resident_mem,
                ceilings,
            } => resident_cpu + cpu <= ceilings.cpu_ghz && resident_mem + mem <= ceilings.mem_mib,
            Admission::Rule(server, constraint) => constraint.admits(server, stack),
        }
    }
}

/// One root's depth-first descent: subsets containing `pool[root]` as
/// their largest item, explored largest-first with suffix-sum pruning.
struct RootSearch<'a> {
    admission: Admission<'a>,
    /// The candidates in largest-first order, and their indices into `q`.
    pool: &'a [PackItem],
    sorted: &'a [usize],
    /// Suffix sums of CPU over `pool` for bound pruning.
    suffix_cpu: &'a [f64],
    /// Suffix minima of memory over `pool`; [`Admission::Sums`] only.
    suffix_min_mem: &'a [f64],
    target: f64,
    /// The items of the current subset, kept for [`Admission::Rule`] only.
    stack: Vec<PackItem>,
    /// The current subset as indices into `q`.
    stack_idx: Vec<usize>,
    /// Best subset seen so far — seeded with the greedy first fill.
    best: Vec<usize>,
    best_cpu: f64,
    steps: u64,
    /// Steps left before the next ε relaxation: the countdown form of
    /// `steps % budget == 0`.
    until_relax: u64,
    epsilon: f64,
    relaxations: u32,
    /// This root's share of [`MinSlackConfig::step_budget`].
    budget: u64,
    cfg: MinSlackConfig,
    done: bool,
    qualified: bool,
}

impl RootSearch<'_> {
    /// Count `n` more steps. Each time the countdown runs out the search
    /// is taking too long and ε is relaxed (lines 15–17), one `+=` a rung;
    /// past the relaxation cap the descent is done, and it takes no step
    /// after the one that crossed the cap.
    fn count_steps(&mut self, mut n: u64) {
        while n >= self.until_relax {
            n -= self.until_relax;
            self.steps += self.until_relax;
            self.until_relax = self.budget;
            self.relaxations += 1;
            if self.relaxations > self.cfg.max_relaxations {
                self.done = true;
                return;
            }
            self.epsilon += self.cfg.epsilon_step_ghz;
        }
        self.steps += n;
        self.until_relax -= n;
    }

    fn dfs(&mut self, pos: usize, chosen_cpu: f64, chosen_mem: f64) {
        if self.done {
            return;
        }
        if chosen_cpu > self.best_cpu {
            self.best_cpu = chosen_cpu;
            self.best = self.stack_idx.clone();
        }
        // Early exit: slack below ε (line 4/5 of Algorithm 1).
        if self.target - self.best_cpu <= self.epsilon {
            self.done = true;
            self.qualified = true;
            return;
        }
        // Bound: even taking every remaining item cannot beat the best.
        if pos < self.suffix_cpu.len() && chosen_cpu + self.suffix_cpu[pos] <= self.best_cpu {
            return;
        }
        for i in pos..self.pool.len() {
            let item = self.pool[i];
            // Quick reject: obviously over CPU (cheap pre-filter before the
            // general constraint).
            if chosen_cpu + item.cpu_ghz > self.target + 1e-9 {
                continue;
            }
            // Memory-infeasible tail: if even the smallest memory left in
            // the pool overflows the ceiling, every larger one does too
            // (addition is monotone), and every later item, no larger in
            // CPU, passes the pre-filter above. So each is one rejected
            // step: count them at once. `>`, not `!(<=)`: a NaN sum proves
            // nothing about the larger memories, so it takes the loop.
            if let Admission::Sums {
                resident_mem,
                ceilings,
                ..
            } = self.admission
            {
                if resident_mem + (chosen_mem + self.suffix_min_mem[i]) > ceilings.mem_mib {
                    self.count_steps((self.pool.len() - i) as u64);
                    return;
                }
            }
            // Only a rule evaluated on the stack needs the items on it.
            let keep_items = matches!(self.admission, Admission::Rule(..));
            if keep_items {
                self.stack.push(item);
            }
            self.stack_idx.push(self.sorted[i]);
            self.count_steps(1);
            let (cpu, mem) = (chosen_cpu + item.cpu_ghz, chosen_mem + item.mem_mib);
            if self.admission.admits(&self.stack, cpu, mem) {
                self.dfs(i + 1, cpu, mem);
            }
            if keep_items {
                self.stack.pop();
            }
            self.stack_idx.pop();
            if self.done {
                return;
            }
        }
    }
}

/// Read-only context of one `minimum_slack` sweep: what every root
/// descent needs.
struct SweepCtx<'a> {
    admission: Admission<'a>,
    pool: &'a [PackItem],
    sorted: &'a [usize],
    suffix_cpu: &'a [f64],
    suffix_min_mem: &'a [f64],
    target: f64,
    cfg: MinSlackConfig,
    /// Per-root share of the step budget (identical for every root).
    root_budget: u64,
    /// The greedy first fill (indices into `items`) and its CPU: the
    /// incumbent every root descent starts from.
    seed: &'a [usize],
    seed_cpu: f64,
}

impl SweepCtx<'_> {
    /// Explore one root subtree to completion (early exit, exhaustion, or
    /// relaxation cap). Pure: depends only on the context and `root`.
    fn search_root(&self, root: usize) -> RootOutcome {
        let empty = |steps: u64| RootOutcome {
            chosen: Vec::new(),
            chosen_cpu: 0.0,
            steps,
            relaxations: 0,
            qualified: false,
        };
        let item = self.pool[root];
        if item.cpu_ghz > self.target + 1e-9 {
            // Quick reject at the root: nothing in this subtree fits.
            return empty(0);
        }
        let mut st = RootSearch {
            admission: self.admission,
            pool: self.pool,
            sorted: self.sorted,
            suffix_cpu: self.suffix_cpu,
            suffix_min_mem: self.suffix_min_mem,
            target: self.target,
            stack: vec![item],
            stack_idx: vec![self.sorted[root]],
            best: self.seed.to_vec(),
            best_cpu: self.seed_cpu,
            steps: 1,
            // The root was step 1, so the first relaxation (at step
            // `budget`) is `budget − 1` steps away; the budget floor keeps
            // that positive.
            until_relax: self.root_budget - 1,
            epsilon: self.cfg.epsilon_ghz.max(0.0),
            relaxations: 0,
            budget: self.root_budget,
            cfg: self.cfg,
            done: false,
            qualified: false,
        };
        if !self.admission.admits(&st.stack, item.cpu_ghz, item.mem_mib) {
            return empty(1);
        }
        st.dfs(root + 1, item.cpu_ghz, item.mem_mib);
        RootOutcome {
            chosen: st.best,
            chosen_cpu: st.best_cpu,
            steps: st.steps,
            relaxations: st.relaxations,
            qualified: st.qualified,
        }
    }
}

/// Run Algorithm 1: select from `q` the subset that best fills `server`
/// under `constraint`.
///
/// Items in `q` with zero CPU demand still participate (they may consume
/// other resources); an empty `q` or an already-full server returns an
/// empty selection. A rule that reports [`Constraint::ceilings`] is
/// checked with running sums instead of `admits`, with the same result.
///
/// # Examples
///
/// ```
/// use vdc_consolidate::{minimum_slack, CpuConstraint, MinSlackConfig, PackItem, PackServer};
/// use vdc_dcsim::VmId;
///
/// let server = PackServer {
///     index: 0, cpu_capacity_ghz: 4.0, mem_capacity_mib: 8192.0,
///     max_watts: 200.0, idle_watts: 120.0, active: true, pue: 1.0,
///     resident: vec![],
/// };
/// // Greedy-decreasing would take 3.0 then be stuck; {2.5, 1.5} is exact.
/// let q = vec![
///     PackItem::new(VmId(0), 3.0, 100.0),
///     PackItem::new(VmId(1), 2.5, 100.0),
///     PackItem::new(VmId(2), 1.5, 100.0),
/// ];
/// let res = minimum_slack(&server, &q, &CpuConstraint::default(),
///                         &MinSlackConfig { epsilon_ghz: 0.0, ..Default::default() });
/// assert!(res.slack_ghz.abs() < 1e-9);
/// ```
pub fn minimum_slack(
    server: &PackServer,
    q: &[PackItem],
    constraint: &dyn Constraint,
    cfg: &MinSlackConfig,
) -> MinSlackResult {
    let target = server.cpu_capacity_ghz - server.resident_cpu();
    let epsilon0 = cfg.epsilon_ghz.max(0.0);
    if q.is_empty() || target <= epsilon0 {
        // Nothing to choose from, or the server is already within ε of
        // full: the empty selection wins immediately.
        return MinSlackResult {
            chosen: Vec::new(),
            slack_ghz: target,
            steps: 0,
            relaxations: 0,
        };
    }

    // Largest-first ordering makes the greedy first descent strong and the
    // suffix bound tight (the MBS paper sorts decreasing as well).
    // The comparator is total (ties break on index), so the unstable sort
    // yields the one order a stable sort would.
    let mut sorted: Vec<usize> = (0..q.len()).collect();
    sorted.sort_unstable_by(|&a, &b| {
        q[b].cpu_ghz
            .partial_cmp(&q[a].cpu_ghz)
            .expect("finite demands")
            .then(a.cmp(&b))
    });
    // The pool, gathered contiguous in that order, and its CPU suffix sums.
    let pool: Vec<PackItem> = sorted.iter().map(|&qi| q[qi]).collect();
    let mut suffix_cpu = vec![0.0; pool.len() + 1];
    for i in (0..pool.len()).rev() {
        suffix_cpu[i] = suffix_cpu[i + 1] + pool[i].cpu_ghz;
    }
    let admission = Admission::new(server, constraint);

    // Greedy first fill: one largest-first pass taking whatever the
    // constraint admits. This is the incumbent seeded into every root
    // descent, and with ε > 0 it very often already qualifies.
    let mut greedy_idx: Vec<usize> = Vec::new();
    let mut greedy_stack: Vec<PackItem> = Vec::new();
    let (mut greedy_cpu, mut greedy_mem) = (0.0, 0.0);
    let mut greedy_steps = 0u64;
    for (&item, &qi) in pool.iter().zip(&sorted) {
        if greedy_cpu + item.cpu_ghz > target + 1e-9 {
            continue;
        }
        greedy_stack.push(item);
        greedy_steps += 1;
        let (cpu, mem) = (greedy_cpu + item.cpu_ghz, greedy_mem + item.mem_mib);
        if admission.admits(&greedy_stack, cpu, mem) {
            greedy_idx.push(qi);
            (greedy_cpu, greedy_mem) = (cpu, mem);
        } else {
            greedy_stack.pop();
        }
    }
    // Three cheap exits: the greedy fill already qualifies; the greedy
    // fill admitted the whole pool, so no subset can beat it; or even a
    // perfect pack of the whole pool stays outside the fully-relaxed ε, so
    // no ladder ever qualifies and the branch-and-bound would only burn
    // its budget rediscovering the greedy fill.
    let final_epsilon = epsilon0 + cfg.max_relaxations as f64 * cfg.epsilon_step_ghz.max(0.0);
    if target - greedy_cpu <= epsilon0
        || greedy_idx.len() == sorted.len()
        || target - suffix_cpu[0] > final_epsilon
    {
        return MinSlackResult {
            chosen: greedy_idx,
            slack_ghz: target - greedy_cpu,
            steps: greedy_steps,
            relaxations: 0,
        };
    }

    // Memory suffix minima for the tail count in `RootSearch::dfs`, built
    // only once a sweep is certain, and only for the additive path.
    let suffix_min_mem = match admission {
        Admission::Sums { .. } => {
            let mut min = vec![f64::INFINITY; pool.len() + 1];
            for i in (0..pool.len()).rev() {
                min[i] = pool[i].mem_mib.min(min[i + 1]);
            }
            min
        }
        Admission::Rule(..) => Vec::new(),
    };

    let roots = sorted.len();
    let ctx = SweepCtx {
        admission,
        pool: &pool,
        sorted: &sorted,
        suffix_cpu: &suffix_cpu,
        suffix_min_mem: &suffix_min_mem,
        target,
        cfg: *cfg,
        root_budget: (cfg.step_budget / roots as u64).max(ROOT_BUDGET_FLOOR),
        seed: &greedy_idx,
        seed_cpu: greedy_cpu,
    };

    // Roots in index order: the first that qualifies wins and ends the
    // sweep; without one, the best fill wins (ties to the lowest index).
    // Every root up to the winner is counted. A quick-rejected root
    // reports an empty fill.
    let mut steps = greedy_steps;
    let mut relaxations = 0;
    let mut winner: Option<RootOutcome> = None;
    for root in 0..roots {
        let o = ctx.search_root(root);
        steps += o.steps;
        relaxations += o.relaxations;
        let qualified = o.qualified;
        if qualified || winner.as_ref().is_none_or(|w| o.chosen_cpu > w.chosen_cpu) {
            winner = Some(o);
        }
        if qualified {
            break;
        }
    }
    let winner = winner.expect("a non-empty pool has a root");
    MinSlackResult {
        chosen: winner.chosen,
        slack_ghz: target - winner.chosen_cpu,
        steps,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{AndConstraint, CpuConstraint, FnConstraint};
    use vdc_dcsim::VmId;

    fn server(cpu: f64, mem: f64) -> PackServer {
        PackServer {
            index: 0,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: mem,
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

    fn chosen_cpu(q: &[PackItem], r: &MinSlackResult) -> f64 {
        r.chosen.iter().map(|&i| q[i].cpu_ghz).sum()
    }

    #[test]
    fn empty_list_and_full_server() {
        let s = server(4.0, 8192.0);
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &[], &c, &MinSlackConfig::default());
        assert!(r.chosen.is_empty());
        assert_eq!(r.slack_ghz, 4.0);

        let mut full = server(4.0, 8192.0);
        full.resident = items(&[4.0]);
        let q = items(&[1.0]);
        let r = minimum_slack(&full, &q, &c, &MinSlackConfig::default());
        assert!(r.chosen.is_empty());
        assert!(r.slack_ghz.abs() < 1e-9);
    }

    #[test]
    fn perfect_fill_found() {
        // Capacity 4.0; items 2.5, 1.5, 1.0, 3.0 — best = {2.5, 1.5} or {3.0, 1.0}.
        let s = server(4.0, 8192.0);
        let q = items(&[2.5, 1.5, 1.0, 3.0]);
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert!(r.slack_ghz.abs() < 1e-9, "slack {}", r.slack_ghz);
        assert!((chosen_cpu(&q, &r) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn beats_greedy_first_fit() {
        // Capacity 10; decreasing greedy takes 6 then 3 (slack 1), but
        // {6, 4} is exact.
        let s = server(10.0, 8192.0);
        let q = items(&[6.0, 3.0, 4.0]);
        let c = CpuConstraint::default();
        let r = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                ..Default::default()
            },
        );
        assert!(r.slack_ghz.abs() < 1e-9);
        let mut ids: Vec<u64> = r.chosen.iter().map(|&i| q[i].vm.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn respects_residents() {
        let mut s = server(4.0, 8192.0);
        s.resident = items(&[2.0]);
        let q = vec![
            PackItem::new(VmId(10), 1.5, 100.0),
            PackItem::new(VmId(11), 2.5, 100.0),
        ];
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        // Only 2.0 GHz of headroom: 1.5 fits, 2.5 does not.
        assert_eq!(r.chosen, vec![0]);
        assert!((r.slack_ghz - 0.5).abs() < 1e-9);
    }

    /// ABL2's instance: 200 VMs of 0.2–2.0 GHz and 256–2,293 MiB for one
    /// 12 GHz, 16 GiB server.
    fn abl2_instance() -> (PackServer, Vec<PackItem>) {
        let q = (0..200u64)
            .map(|i| {
                let cpu = 0.2 + 0.018 * ((i * 37 % 101) as f64);
                PackItem::new(VmId(i), cpu, 256.0 + 21.0 * ((i * 53 % 98) as f64))
            })
            .collect();
        (server(12.0, 16384.0), q)
    }

    #[test]
    fn epsilon_early_exit_reduces_steps() {
        // ABL2: the allowed slack ε (line 4 of Algorithm 1) trades search
        // work for packing quality. Along the ladder a larger ε stops the
        // search no later and leaves no less slack, on many combinable
        // CPU-only items and on ABL2's CPU-and-memory instance.
        let ladder = [0.0, 0.05, 0.25, 1.0];
        let climb = |s: &PackServer, q: &[PackItem], c: &dyn Constraint| {
            let runs: Vec<MinSlackResult> = ladder
                .iter()
                .map(|&eps| {
                    let cfg = MinSlackConfig {
                        epsilon_ghz: eps,
                        ..Default::default()
                    };
                    minimum_slack(s, q, c, &cfg)
                })
                .collect();
            for pair in runs.windows(2) {
                assert!(pair[1].steps <= pair[0].steps, "{runs:?}");
                assert!(pair[1].slack_ghz >= pair[0].slack_ghz, "{runs:?}");
            }
            assert!(runs[3].slack_ghz <= 1.0 + 1e-9, "{runs:?}");
            runs
        };
        let s = server(10.0, 1e9);
        let q = items(&[3.3, 3.3, 3.3, 1.1, 1.1, 1.1, 2.2, 2.2, 0.9, 0.8]);
        climb(&s, &q, &CpuConstraint::default());
        let (s, q) = abl2_instance();
        let runs = climb(&s, &q, &AndConstraint::cpu_and_memory());
        let work: Vec<(u64, u32)> = runs.iter().map(|r| (r.steps, r.relaxations)).collect();
        assert_eq!(work, [(106, 1), (24, 0), (6, 0), (6, 0)]);
    }

    #[test]
    fn step_budget_relaxes_epsilon_and_terminates() {
        // 24 equal awkward items force a big search space; a tiny budget
        // must still terminate via relaxations.
        let s = server(10.0, 1e9);
        let q = items(&[0.7; 24]);
        let c = CpuConstraint::default();
        let r = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                epsilon_step_ghz: 0.05,
                step_budget: 50,
                max_relaxations: 8,
            },
        );
        assert!(r.relaxations >= 1);
        // 14 items of 0.7 = 9.8 is the best possible; the relaxed search
        // must still produce something decent.
        assert!(r.slack_ghz < 10.0);
        assert!(!r.chosen.is_empty());

        // ABL2: the step cap (lines 15–17) relaxes ε sooner, so a smaller
        // budget takes no more steps.
        let (s, q) = abl2_instance();
        let c = AndConstraint::cpu_and_memory();
        let [small, large] = [500, 20_000].map(|step_budget| {
            let cfg = MinSlackConfig {
                epsilon_ghz: 0.0,
                step_budget,
                ..Default::default()
            };
            minimum_slack(&s, &q, &c, &cfg)
        });
        assert!(small.steps <= large.steps, "{small:?} {large:?}");
        assert_eq!((small.steps, large.steps), (38, 106));
    }

    #[test]
    fn search_work_matches_the_division_schedule() {
        // Exact outcomes of the search that relaxed when `steps % budget`
        // hit 0; the countdown that replaced the division must reproduce
        // them, on a CPU-only and on a memory-bound instance.
        let s = server(10.0, 1e9);
        let q = items(&[0.7; 24]);
        let cfg = MinSlackConfig {
            epsilon_ghz: 0.0,
            epsilon_step_ghz: 0.05,
            step_budget: 50,
            max_relaxations: 8,
        };
        let r = minimum_slack(&s, &q, &CpuConstraint::default(), &cfg);
        assert_eq!(r.chosen, (0..14).collect::<Vec<_>>());
        assert_eq!(r.slack_ghz.to_bits(), 0x3fc9_9999_9999_99c0);
        assert_eq!((r.steps, r.relaxations), (174, 5));

        let mut s = server(12.0, 6000.0);
        s.resident = vec![
            PackItem::new(VmId(900), 1.0, 512.0),
            PackItem::new(VmId(901), 0.5, 1024.0),
        ];
        let q: Vec<PackItem> = (0..80u64)
            .map(|i| {
                let cpu = if i % 9 == 0 {
                    0.0
                } else {
                    0.37 + 0.11 * ((i * 7 % 13) as f64)
                };
                PackItem::new(VmId(i), cpu, 300.0 + 97.0 * ((i * 5 % 11) as f64))
            })
            .collect();
        let c = AndConstraint::cpu_and_memory();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert_eq!(r.chosen, vec![11, 24, 37, 50, 22, 33]);
        assert_eq!(r.slack_ghz.to_bits(), 0x3fe6_147a_e147_ae10);
        assert_eq!((r.steps, r.relaxations), (1795, 7));
    }

    #[test]
    fn memory_infeasible_tails_count_like_the_loop() {
        // 70 equal items, any two of which overflow the 1000 MiB server:
        // every candidate after a root is a memory-infeasible tail, so all
        // the search's steps past the roots are counted in one step per
        // tail. With 70 roots the per-root budget is the 32-step floor and
        // the cap is 1: a tail of 31 or more steps after its root crosses
        // the relaxation at step 32, and one of 63 or more fires the cap at
        // step 64, all inside the batch.
        let s = server(10.0, 1000.0);
        let q: Vec<PackItem> = (0..70u64)
            .map(|i| PackItem::new(VmId(i), 0.2, 600.0))
            .collect();
        assert!(2.0 * 600.0 > s.mem_capacity_mib && 600.0 <= s.mem_capacity_mib);
        let cfg = MinSlackConfig {
            step_budget: 64,
            max_relaxations: 1,
            ..Default::default()
        };
        let rule = AndConstraint::cpu_and_memory();
        let reference = FnConstraint(|s: &PackServer, c: &[PackItem]| rule.admits(s, c));
        let fast = minimum_slack(&s, &q, &rule, &cfg);
        let slow = minimum_slack(&s, &q, &reference, &cfg);
        assert_eq!(fast.chosen, slow.chosen);
        assert_eq!(fast.slack_ghz.to_bits(), slow.slack_ghz.to_bits());
        assert_eq!(
            (fast.steps, fast.relaxations),
            (slow.steps, slow.relaxations)
        );
        // Root r takes min(70 − r, 64) steps and relaxes once per 32 of
        // them; the greedy fill adds 70. No root qualifies, so the result
        // is the greedy fill: the largest item alone.
        let per_root = |r: u64| (70 - r).min(64);
        let steps: u64 = 70 + (0..70).map(per_root).sum::<u64>();
        let relaxations: u64 = (0..70).map(|r| per_root(r) / 32).sum();
        assert_eq!(
            (fast.steps, u64::from(fast.relaxations)),
            (steps, relaxations)
        );
        assert_eq!((steps, relaxations), (2534, 46));
        assert_eq!(fast.chosen, vec![0]);
    }

    #[test]
    fn general_constraint_limits_count() {
        // Administrator constraint: at most 2 VMs per server.
        let s = server(10.0, 1e9);
        let q = items(&[1.0, 1.0, 1.0, 1.0]);
        let c = AndConstraint::new(vec![
            Box::new(CpuConstraint::default()),
            Box::new(FnConstraint(|s: &PackServer, cand: &[PackItem]| {
                s.resident.len() + cand.len() <= 2
            })),
        ]);
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert_eq!(r.chosen.len(), 2);
    }

    #[test]
    fn zero_cpu_items_admitted() {
        let s = server(4.0, 8192.0);
        let q = vec![
            PackItem::new(VmId(0), 0.0, 10.0),
            PackItem::new(VmId(1), 4.0, 10.0),
        ];
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        // The 4.0 item gives slack 0 and triggers early exit; the zero-CPU
        // item contributes nothing to slack so either way slack == 0.
        assert!(r.slack_ghz.abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_equal_inputs() {
        let s = server(7.0, 1e9);
        let q = items(&[2.0, 2.0, 3.0, 3.0, 1.0]);
        let c = CpuConstraint::default();
        let a = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        let b = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert_eq!(a, b);
    }
}
