//! The data-center-level power optimizer of Fig. 1.
//!
//! Wraps the consolidation algorithms (`vdc-consolidate`) behind one
//! interface that snapshots a [`DataCenter`], plans, applies, and throttles
//! (DVFS + sleep) — one "invocation" of the optimizer in the paper's
//! terminology, to be scheduled on a long time scale (hours to days).

use crate::Result;
use std::collections::BTreeSet;
use vdc_consolidate::constraint::AndConstraint;
use vdc_consolidate::ipac::{ipac_plan_stats, IpacStats};
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::MinSlackConfig;
use vdc_consolidate::pac::pac_pack;
use vdc_consolidate::plan::{ConsolidationPlan, Move};
use vdc_consolidate::pmapper::pmapper_plan;
use vdc_consolidate::policy::AlwaysAllow;
use vdc_consolidate::view::{apply_plan, apply_plan_fallible, snapshot, ApplyStats};
use vdc_dcsim::{DataCenter, ServerHandle, VmId};
use vdc_faults::FaultSession;
use vdc_telemetry::Telemetry;

/// Partition a fleet into contiguous, site-aligned pods.
///
/// `sites[i]` is the site index of server `i`. Pods are contiguous runs of
/// at most `pod_size` servers that never straddle a site boundary: the
/// partition cuts whenever the site changes *or* the pod is full. Every
/// server lands in exactly one pod, and for a fleet whose servers are
/// grouped by site (the only layout [`vdc_dcsim::FleetSpec`] produces) the
/// pod count is `Σ_site ceil(site_len / pod_size)` —
/// `ceil(n / pod_size)` for a single-site fleet.
///
/// # Panics
/// Panics if `pod_size` is zero.
pub fn pod_partition(sites: &[usize], pod_size: usize) -> Vec<std::ops::Range<usize>> {
    assert!(pod_size > 0, "pod_size must be positive");
    let mut pods = Vec::new();
    let mut start = 0;
    while start < sites.len() {
        let mut end = start + 1;
        while end < sites.len() && end - start < pod_size && sites[end] == sites[start] {
            end += 1;
        }
        pods.push(start..end);
        start = end;
    }
    pods
}

/// Remaining routing capacity of one pod during the arrival distribution
/// (see `plan_hierarchical`), used only for the overflow fallback once no
/// individual server fits an arrival. The scarcest remaining resource as
/// a fraction of pod capacity decides ties: memory is the binding
/// constraint for much of the paper's VM mix, so CPU slack alone would
/// keep routing arrivals at memory-full pods.
struct PodRoute {
    cpu_slack: f64,
    mem_slack: f64,
    cpu_cap: f64,
    mem_cap: f64,
}

impl PodRoute {
    fn frac(&self) -> f64 {
        let cpu = if self.cpu_cap > 0.0 {
            self.cpu_slack / self.cpu_cap
        } else {
            0.0
        };
        let mem = if self.mem_cap > 0.0 {
            self.mem_slack / self.mem_cap
        } else {
            0.0
        };
        cpu.min(mem)
    }
}

/// One server's remaining routing slack during the arrival distribution.
struct RouteSlot {
    server: usize,
    cpu: f64,
    mem: f64,
    closed: bool,
}

/// Replay a plan onto a fleet view whose position equals the global server
/// index (the shape [`snapshot`] produces), so the hierarchical
/// spill and rebalance passes can reason about the post-plan placement
/// without touching the data center.
fn apply_plan_to_view(view: &mut [PackServer], plan: &ConsolidationPlan) {
    for m in &plan.moves {
        if let Some(from) = m.from {
            if let Some(pos) = view[from].resident.iter().position(|it| it.vm == m.vm) {
                view[from].resident.swap_remove(pos);
            }
        }
        view[m.to]
            .resident
            .push(PackItem::new(m.vm, m.cpu_ghz, m.mem_mib));
        view[m.to].active = true;
    }
    for &w in &plan.servers_to_wake {
        view[w].active = true;
    }
    for &s in &plan.servers_to_sleep {
        // Mirror `apply_plan`: a sleep target that ended up non-empty is
        // skipped, not forced.
        if view[s].resident.is_empty() {
            view[s].active = false;
        }
    }
}

/// Which consolidation algorithm the optimizer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's Incremental Power-Aware Consolidation.
    Ipac,
    /// The pMapper baseline.
    Pmapper,
}

/// Optimizer configuration.
pub struct OptimizerConfig {
    /// Consolidation algorithm.
    pub(crate) algorithm: Algorithm,
    /// Packing feasibility rule (defaults to CPU + memory, the §VII-B
    /// administrator constraint).
    pub(crate) constraint: AndConstraint,
}

impl OptimizerConfig {
    /// Default IPAC configuration with the standard constraint set.
    pub fn ipac_default() -> OptimizerConfig {
        OptimizerConfig {
            algorithm: Algorithm::Ipac,
            constraint: AndConstraint::cpu_and_memory(),
        }
    }

    /// Default pMapper configuration with the standard constraint set.
    pub(crate) fn pmapper_default() -> OptimizerConfig {
        OptimizerConfig {
            algorithm: Algorithm::Pmapper,
            constraint: AndConstraint::cpu_and_memory(),
        }
    }
}

/// The data-center-level power optimizer.
pub struct PowerOptimizer {
    cfg: OptimizerConfig,
    invocations: u64,
    total_migrations: u64,
    telemetry: Telemetry,
    shards: usize,
    pods: Option<usize>,
}

impl PowerOptimizer {
    /// Create an optimizer.
    pub fn new(cfg: OptimizerConfig) -> PowerOptimizer {
        PowerOptimizer {
            cfg,
            invocations: 0,
            total_migrations: 0,
            telemetry: Telemetry::disabled(),
            shards: 1,
            pods: None,
        }
    }

    /// Switch to hierarchical planning with pods of at most `pod_size`
    /// servers (`None` or a size that yields a single pod restores the flat
    /// planner bit-for-bit). Pods are contiguous and site-aligned
    /// ([`pod_partition`]); each pod is packed independently — fanned out
    /// over the shard workers — then a cross-pod rebalance pass moves VMs
    /// from the worst-filled pod's overloaded servers into the best-slack
    /// pod. Call after the telemetry sink is attached so the `pod_*` keys
    /// are pre-registered on the right sink.
    pub fn set_pods(&mut self, pod_size: Option<usize>) {
        self.pods = pod_size.filter(|&p| p > 0);
        if self.pods.is_some() {
            self.telemetry.incr("optimizer.pod_invocations", 0);
            self.telemetry.incr("optimizer.pod_rebalance_moves", 0);
            self.telemetry.incr("optimizer.pod_drain_moves", 0);
            self.telemetry.incr("optimizer.pod_spill_placed", 0);
            self.telemetry.gauge_set("optimizer.pod_count", 0.0);
        }
    }

    /// Fan the per-pod plans of a hierarchical invocation out over
    /// `shards` workers (`0` = host parallelism). Everything else,
    /// flat planning included, runs on the calling thread, and the
    /// consolidation decisions are bit-identical at every shard count.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = crate::shard::resolve(shards);
    }

    /// Attach a telemetry sink. Each invocation then records its planning
    /// cost (`optimizer.invocation_ns`), its Minimum Slack work
    /// (`optimizer.pack_steps`, `optimizer.pack_relaxations`), migrations
    /// proposed vs applied, sleep/wake decisions, and the
    /// post-consolidation capacity slack (`optimizer.slack_ghz`).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of invocations so far.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Total migrations executed across invocations.
    pub(crate) fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Plan without applying (inspection / dry runs).
    pub fn plan(&self, dc: &DataCenter, new_items: &[PackItem]) -> ConsolidationPlan {
        let span = self.telemetry.timer("optimizer.snapshot_ns");
        let snap = snapshot(dc);
        span.finish();
        if let Some(pod_size) = self.pods {
            let sites: Vec<usize> = (0..snap.len())
                .map(|i| dc.server_site(ServerHandle::from_index(i)))
                .collect();
            let pods = pod_partition(&sites, pod_size);
            if pods.len() > 1 {
                return self.plan_hierarchical(&snap, new_items, &pods);
            }
            // A single pod is the whole fleet: fall through to the flat
            // planner so `pod_size >= n_servers` degenerates bitwise.
        }
        self.plan_flat(&snap, new_items)
    }

    /// Flat (whole-fleet) planning: the paper's global PAC/IPAC or pMapper.
    fn plan_flat(&self, snap: &[PackServer], new_items: &[PackItem]) -> ConsolidationPlan {
        match self.cfg.algorithm {
            Algorithm::Ipac => {
                let (plan, stats) =
                    ipac_plan_stats(snap, new_items, &self.cfg.constraint, &AlwaysAllow);
                self.telemetry
                    .record("optimizer.pack_search_ns", stats.search_ns as f64);
                self.count_search_work(stats.steps, stats.relaxations);
                plan
            }
            Algorithm::Pmapper => pmapper_plan(snap, new_items, &self.cfg.constraint),
        }
    }

    /// Count Minimum Slack work: the steps and ε relaxations of every pack
    /// an invocation runs. Unlike the clocks these are deterministic, so
    /// `results_gate` pins the search cost exactly.
    fn count_search_work(&self, steps: u64, relaxations: u64) {
        self.telemetry.incr("optimizer.pack_steps", steps);
        self.telemetry
            .incr("optimizer.pack_relaxations", relaxations);
    }

    /// Hierarchical planning: pack each pod independently (fanned out over
    /// the shard workers), merge in pod order, place arrivals no pod could
    /// absorb with a fleet-wide spill pass, then run one cross-pod
    /// rebalance moving VMs from the worst-filled pod's overloaded servers
    /// into the best-slack pod.
    ///
    /// The result is deterministic and independent of the shard count:
    /// pods are packed from the same immutable snapshot, merged in pod
    /// index order, and both the spill and rebalance passes run
    /// sequentially on the merged view.
    fn plan_hierarchical(
        &self,
        snap: &[PackServer],
        new_items: &[PackItem],
        pods: &[std::ops::Range<usize>],
    ) -> ConsolidationPlan {
        self.telemetry
            .gauge_set("optimizer.pod_count", pods.len() as f64);
        self.telemetry
            .incr("optimizer.pod_invocations", pods.len() as u64);

        // Route each arrival at *server* granularity: first-fit over the
        // fleet's per-server remaining slack, walking servers in exactly
        // the order flat PAC fills them (power efficiency descending, then
        // index) — the item joins the pod owning the server it lands on.
        // This keeps hierarchical initial placement faithful to the global
        // greedy: efficient hardware and low-PUE sites fill first, and no
        // pod is stuffed past what its servers can actually bin-pack. A
        // server whose slack drops below the smallest arrival footprint is
        // closed; closed entries are compacted away periodically so the
        // scan stays near-linear at megafleet scale. Arrivals no server
        // fits fall back to the pod with the largest scarce-resource
        // fraction — its packer will leave them unplaced and the
        // fleet-wide spill pass picks them up.
        let mut pod_items: Vec<Vec<PackItem>> = vec![Vec::new(); pods.len()];
        if !new_items.is_empty() {
            let mut pod_of = vec![0usize; snap.len()];
            let mut routes = Vec::with_capacity(pods.len());
            for (p, range) in pods.iter().enumerate() {
                let mut route = PodRoute {
                    cpu_slack: 0.0,
                    mem_slack: 0.0,
                    cpu_cap: 0.0,
                    mem_cap: 0.0,
                };
                for s in range.clone() {
                    pod_of[s] = p;
                    route.cpu_cap += snap[s].cpu_capacity_ghz;
                    route.cpu_slack += snap[s].cpu_capacity_ghz;
                    route.mem_cap += snap[s].mem_capacity_mib;
                    route.mem_slack += snap[s].mem_capacity_mib;
                    for it in &snap[s].resident {
                        route.cpu_slack -= it.cpu_ghz;
                        route.mem_slack -= it.mem_mib;
                    }
                }
                routes.push(route);
            }
            let mut order: Vec<usize> = (0..snap.len()).collect();
            order.sort_by(|&a, &b| {
                snap[b]
                    .power_efficiency()
                    .total_cmp(&snap[a].power_efficiency())
                    .then(a.cmp(&b))
            });
            let mut open: Vec<RouteSlot> = order
                .into_iter()
                .map(|si| {
                    let s = &snap[si];
                    let mut slot = RouteSlot {
                        server: si,
                        cpu: s.cpu_capacity_ghz,
                        mem: s.mem_capacity_mib,
                        closed: false,
                    };
                    for it in &s.resident {
                        slot.cpu -= it.cpu_ghz;
                        slot.mem -= it.mem_mib;
                    }
                    slot
                })
                .collect();
            let min_cpu = new_items
                .iter()
                .map(|i| i.cpu_ghz)
                .fold(f64::INFINITY, f64::min);
            let min_mem = new_items
                .iter()
                .map(|i| i.mem_mib)
                .fold(f64::INFINITY, f64::min);
            let mut n_closed = 0usize;
            for item in new_items {
                let mut dest = None;
                for slot in open.iter_mut() {
                    if slot.closed {
                        continue;
                    }
                    if slot.cpu < min_cpu || slot.mem < min_mem {
                        slot.closed = true;
                        n_closed += 1;
                        continue;
                    }
                    if slot.cpu >= item.cpu_ghz && slot.mem >= item.mem_mib {
                        slot.cpu -= item.cpu_ghz;
                        slot.mem -= item.mem_mib;
                        dest = Some(pod_of[slot.server]);
                        break;
                    }
                }
                let p = dest.unwrap_or_else(|| {
                    let mut fallback = 0;
                    for (p, route) in routes.iter().enumerate().skip(1) {
                        if route.frac() > routes[fallback].frac() {
                            fallback = p;
                        }
                    }
                    fallback
                });
                pod_items[p].push(*item);
                routes[p].cpu_slack -= item.cpu_ghz;
                routes[p].mem_slack -= item.mem_mib;
                if n_closed * 2 > open.len() {
                    open.retain(|s| !s.closed);
                    n_closed = 0;
                }
            }
        }

        // Pack each pod independently, fanned out over the shard workers.
        let algorithm = self.cfg.algorithm;
        let constraint = &self.cfg.constraint;
        let pod_items = &pod_items;
        let pod_plans = crate::shard::map_indices(pods.len(), self.shards, |p| {
            let view = &snap[pods[p].clone()];
            match algorithm {
                Algorithm::Ipac => ipac_plan_stats(view, &pod_items[p], constraint, &AlwaysAllow),
                Algorithm::Pmapper => (
                    pmapper_plan(view, &pod_items[p], constraint),
                    IpacStats::default(),
                ),
            }
        });

        // Merge in pod order — deterministic regardless of shard count.
        // Pod plans already speak global server indices (PackServer::index
        // survives slicing).
        let mut plan = ConsolidationPlan::default();
        let mut pods_work = IpacStats::default();
        for (pod_plan, stats) in pod_plans {
            plan.moves.extend(pod_plan.moves);
            plan.servers_to_sleep.extend(pod_plan.servers_to_sleep);
            plan.servers_to_wake.extend(pod_plan.servers_to_wake);
            pods_work.search_ns += stats.search_ns;
            pods_work.steps += stats.steps;
            pods_work.relaxations += stats.relaxations;
        }
        if algorithm == Algorithm::Ipac {
            self.telemetry
                .record("optimizer.pack_search_ns", pods_work.search_ns as f64);
        }
        self.count_search_work(pods_work.steps, pods_work.relaxations);

        // Post-plan fleet view (position == global index) for the global
        // passes below.
        let mut post = snap.to_vec();
        apply_plan_to_view(&mut post, &plan);
        let mut woken: BTreeSet<usize> = plan.servers_to_wake.iter().copied().collect();

        // Spill pass: arrivals their assigned pod could not absorb retry
        // against the whole fleet (cross-pod initial placement is cheap —
        // no memory copy).
        let placed: BTreeSet<VmId> = plan
            .moves
            .iter()
            .filter(|m| m.from.is_none())
            .map(|m| m.vm)
            .collect();
        let spill: Vec<PackItem> = new_items
            .iter()
            .filter(|it| !placed.contains(&it.vm))
            .copied()
            .collect();
        if !spill.is_empty() {
            let was_active: Vec<bool> = post.iter().map(|s| s.active).collect();
            let res = pac_pack(&mut post, &spill, constraint, &MinSlackConfig::default());
            self.count_search_work(res.total_steps, res.total_relaxations);
            let mut spill_placed = 0u64;
            for &(vm, si) in &res.assignments {
                let item = spill.iter().find(|it| it.vm == vm).expect("spill item");
                plan.moves.push(Move {
                    vm,
                    from: None,
                    to: post[si].index,
                    cpu_ghz: item.cpu_ghz,
                    mem_mib: item.mem_mib,
                });
                spill_placed += 1;
                post[si].active = true;
                if !was_active[si] && woken.insert(post[si].index) {
                    plan.servers_to_wake.push(post[si].index);
                }
            }
            self.telemetry
                .incr("optimizer.pod_spill_placed", spill_placed);
        }

        // Cross-pod rebalance: one pass from the worst-filled pod to the
        // best-slack pod, moving only the smallest VMs off overloaded
        // servers — the cheap escape hatch for load the pod boundary
        // trapped. Only VMs untouched by the pod plans are candidates, so
        // each VM appears in at most one move (apply_plan detaches every
        // mover before re-attaching; two moves of one VM would corrupt it).
        let mut worst = 0usize;
        let mut best = 0usize;
        let (mut worst_fill, mut best_slack) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (p, range) in pods.iter().enumerate() {
            let mut cap = 0.0;
            let mut dem = 0.0;
            for s in &post[range.clone()] {
                cap += s.cpu_capacity_ghz;
                for it in &s.resident {
                    dem += it.cpu_ghz;
                }
            }
            let fill = if cap > 0.0 { dem / cap } else { 0.0 };
            let slack = cap - dem;
            if fill > worst_fill {
                worst_fill = fill;
                worst = p;
            }
            if slack > best_slack {
                best_slack = slack;
                best = p;
            }
        }
        if worst != best {
            let moved: BTreeSet<VmId> = plan.moves.iter().map(|m| m.vm).collect();
            // Smallest residents of overloaded servers, until each server
            // fits again.
            let mut candidates: Vec<(PackItem, usize)> = Vec::new();
            for s in &post[pods[worst].clone()] {
                let mut dem: f64 = s.resident.iter().map(|it| it.cpu_ghz).sum();
                if dem <= s.cpu_capacity_ghz {
                    continue;
                }
                let mut movable: Vec<&PackItem> = s
                    .resident
                    .iter()
                    .filter(|it| !moved.contains(&it.vm))
                    .collect();
                movable.sort_by(|a, b| {
                    a.cpu_ghz
                        .partial_cmp(&b.cpu_ghz)
                        .expect("finite demands")
                        .then_with(|| a.vm.cmp(&b.vm))
                });
                for it in movable {
                    if dem <= s.cpu_capacity_ghz {
                        break;
                    }
                    candidates.push((*it, s.index));
                    dem -= it.cpu_ghz;
                }
            }
            if !candidates.is_empty() {
                let mut target: Vec<PackServer> = post[pods[best].clone()].to_vec();
                let items: Vec<PackItem> = candidates.iter().map(|(it, _)| *it).collect();
                let was_active: Vec<bool> = target.iter().map(|s| s.active).collect();
                let res = pac_pack(&mut target, &items, constraint, &MinSlackConfig::default());
                self.count_search_work(res.total_steps, res.total_relaxations);
                let mut rebalance_moves = 0u64;
                for &(vm, si) in &res.assignments {
                    let (item, origin) = candidates
                        .iter()
                        .find(|(it, _)| it.vm == vm)
                        .expect("candidate item");
                    let to = target[si].index;
                    plan.moves.push(Move {
                        vm,
                        from: Some(*origin),
                        to,
                        cpu_ghz: item.cpu_ghz,
                        mem_mib: item.mem_mib,
                    });
                    rebalance_moves += 1;
                    // Keep `post` current for the drain pass below.
                    if let Some(pos) = post[*origin].resident.iter().position(|it| it.vm == vm) {
                        post[*origin].resident.swap_remove(pos);
                    }
                    post[to].resident.push(*item);
                    post[to].active = true;
                    if !was_active[si] && woken.insert(to) {
                        plan.servers_to_wake.push(to);
                    }
                }
                self.telemetry
                    .incr("optimizer.pod_rebalance_moves", rebalance_moves);
            }
        }

        self.drain_pass(&mut post, &mut plan, pods);
        plan
    }

    /// Fragmentation drain: per-pod packing strands partially-filled
    /// servers that a global packer would have merged, and that waste is
    /// exactly the hierarchical power regret the regret harness
    /// (`tests/regret.rs`) bounds. One cheap pass recovers most of it:
    /// evacuate servers from the *emptiest* pod into the best-slack other
    /// pod's **active** headroom (never waking anything). A server that
    /// drains completely is put to sleep — the idle-power win — and a
    /// server that only drains partially keeps just the moves whose target
    /// is strictly more power-efficient than the source, so every
    /// committed move lowers power on its own. A resident that is itself
    /// a fresh placement (`from: None`) is *re-routed* — its existing
    /// move's target is rewritten — while residents already migrated by a
    /// pod plan block their server (one move per VM: `apply_plan` detaches
    /// all movers before re-attaching, so a second move would corrupt the
    /// VM).
    fn drain_pass(
        &self,
        post: &mut [PackServer],
        plan: &mut ConsolidationPlan,
        pods: &[std::ops::Range<usize>],
    ) {
        let pod_load = |view: &[PackServer]| {
            let mut cap = 0.0;
            let mut dem = 0.0;
            for s in view {
                cap += s.cpu_capacity_ghz;
                for it in &s.resident {
                    dem += it.cpu_ghz;
                }
            }
            (cap, dem)
        };
        // Emptiest pod with any demand (ties break toward the lower pod).
        let mut lo: Option<usize> = None;
        let mut lo_fill = f64::INFINITY;
        for (p, range) in pods.iter().enumerate() {
            let (cap, dem) = pod_load(&post[range.clone()]);
            if dem > 0.0 && dem / cap < lo_fill {
                lo_fill = dem / cap;
                lo = Some(p);
            }
        }
        let Some(lo) = lo else { return };
        // Best active-headroom pod other than the source.
        let mut hi: Option<usize> = None;
        let mut hi_slack = f64::NEG_INFINITY;
        for (p, range) in pods.iter().enumerate() {
            if p == lo {
                continue;
            }
            let slack: f64 = post[range.clone()]
                .iter()
                .filter(|s| s.active)
                .map(|s| {
                    let dem: f64 = s.resident.iter().map(|it| it.cpu_ghz).sum();
                    (s.cpu_capacity_ghz - dem).max(0.0)
                })
                .sum();
            if slack > hi_slack {
                hi_slack = slack;
                hi = Some(p);
            }
        }
        let Some(hi) = hi else { return };

        // Residents already *migrated* (from: Some) pin their server;
        // fresh placements (from: None) can be re-routed in place.
        let mut migrated: BTreeSet<VmId> = BTreeSet::new();
        let mut placement_move: std::collections::BTreeMap<VmId, usize> =
            std::collections::BTreeMap::new();
        for (mi, m) in plan.moves.iter().enumerate() {
            match m.from {
                Some(_) => {
                    migrated.insert(m.vm);
                }
                None => {
                    placement_move.insert(m.vm, mi);
                }
            }
        }
        let mut target: Vec<PackServer> = post[pods[hi].clone()]
            .iter()
            .filter(|s| s.active)
            .cloned()
            .collect();
        // Least-loaded source servers first: the cheapest wins, and the
        // remaining headroom shrinks with every committed drain.
        let mut sources: Vec<usize> = pods[lo]
            .clone()
            .filter(|&i| post[i].active && !post[i].resident.is_empty())
            .collect();
        let server_demand = |s: &PackServer| s.resident.iter().map(|it| it.cpu_ghz).sum::<f64>();
        sources.sort_by(|&a, &b| {
            server_demand(&post[a])
                .total_cmp(&server_demand(&post[b]))
                .then_with(|| a.cmp(&b))
        });
        let mut drain_moves = 0u64;
        for si in sources {
            if post[si].resident.iter().any(|it| migrated.contains(&it.vm)) {
                continue;
            }
            let items = post[si].resident.clone();
            let mut trial = target.clone();
            let res = pac_pack(
                &mut trial,
                &items,
                &self.cfg.constraint,
                &MinSlackConfig::default(),
            );
            self.count_search_work(res.total_steps, res.total_relaxations);
            // Two wins, two commit rules. A *full* drain empties the
            // server and sleeps it — the idle-power saving justifies any
            // active target. A *partial* drain keeps the source awake, so
            // a moved VM only pays off when its new host turns demand into
            // power strictly better than the old one did.
            let full = res.unplaced.is_empty();
            let src_eff = post[si].power_efficiency();
            for &(vm, ti) in &res.assignments {
                if !full && target[ti].power_efficiency() <= src_eff {
                    continue;
                }
                let item = *items.iter().find(|it| it.vm == vm).expect("drain item");
                let to = target[ti].index;
                match placement_move.get(&vm) {
                    // A fresh placement: send it straight to the drain
                    // target instead of emitting a second move.
                    Some(&mi) => plan.moves[mi].to = to,
                    None => plan.moves.push(Move {
                        vm,
                        from: Some(si),
                        to,
                        cpu_ghz: item.cpu_ghz,
                        mem_mib: item.mem_mib,
                    }),
                }
                // Dropping an assignment only sheds load, so committing
                // this subset onto the real target view stays feasible.
                target[ti].resident.push(item);
                post[to].resident.push(item);
                if let Some(pos) = post[si].resident.iter().position(|it| it.vm == vm) {
                    post[si].resident.remove(pos);
                }
                drain_moves += 1;
            }
            if full {
                post[si].active = false;
                // A wake the pod plan scheduled purely for re-routed
                // placements is now pointless (and would burn wake
                // energy): cancel it, and make the emptied server sleep.
                if let Some(pos) = plan.servers_to_wake.iter().position(|&w| w == si) {
                    plan.servers_to_wake.remove(pos);
                }
                if !plan.servers_to_sleep.contains(&si) {
                    plan.servers_to_sleep.push(si);
                }
            }
        }
        self.telemetry
            .incr("optimizer.pod_drain_moves", drain_moves);
    }

    /// One optimizer invocation: snapshot → plan → apply. `new_items` are
    /// VMs registered in the data center but not yet placed.
    pub fn optimize(&mut self, dc: &mut DataCenter, new_items: &[PackItem]) -> Result<ApplyStats> {
        self.invoke(dc, new_items, None)
    }

    /// [`PowerOptimizer::optimize`], applying the plan through
    /// [`apply_with_faults`] with the run's fault session, if any.
    pub(crate) fn invoke(
        &mut self,
        dc: &mut DataCenter,
        new_items: &[PackItem],
        faults: Option<&mut FaultSession<'_>>,
    ) -> Result<ApplyStats> {
        let span = self.telemetry.timer("optimizer.invocation_ns");
        let plan = self.plan(dc, new_items);
        let stats = apply_with_faults(dc, &plan, faults, &self.telemetry)?;
        span.finish();
        self.finish_invocation(dc, plan.moves.len(), &stats);
        Ok(stats)
    }

    /// Shared invocation bookkeeping: counters, telemetry rollups, and the
    /// post-consolidation slack gauge.
    fn finish_invocation(&mut self, dc: &DataCenter, proposed: usize, stats: &ApplyStats) {
        self.invocations += 1;
        self.total_migrations += stats.migrations as u64;
        self.telemetry.incr("optimizer.invocations", 1);
        self.telemetry
            .incr("optimizer.migrations_proposed", proposed as u64);
        self.telemetry
            .incr("optimizer.migrations_applied", stats.migrations as u64);
        self.telemetry
            .incr("optimizer.servers_slept", stats.slept as u64);
        self.telemetry
            .incr("optimizer.servers_woken", stats.woken as u64);
        self.telemetry
            .record("optimizer.migrated_mib", stats.migrated_mib);
        self.telemetry
            .gauge_set("optimizer.slack_ghz", active_slack_ghz(dc));
    }
}

/// Apply `plan` to `dc`, the one plan-application path of the optimizer
/// and the relief pass. Without a fault session every migration commits
/// ([`apply_plan`]). With one, each migration draws its attempts from the
/// session within the plan's retry-with-backoff budget; the first to
/// exhaust it truncates the migration suffix, so the plan commits its
/// successful prefix. The retries, dropped migrations, stranded VMs and
/// partial plans are tallied into the session (`optimizer.plan_partial`
/// counts the partial plans).
pub(crate) fn apply_with_faults(
    dc: &mut DataCenter,
    plan: &ConsolidationPlan,
    faults: Option<&mut FaultSession<'_>>,
    telemetry: &Telemetry,
) -> Result<ApplyStats> {
    let Some(f) = faults else {
        return Ok(apply_plan(dc, plan)?);
    };
    let max_attempts = f.plan().max_migration_attempts();
    let partial = apply_plan_fallible(dc, plan, max_attempts, || f.draw_migration_failure())?;
    f.migration_retries += partial.retries;
    f.migrations_dropped += partial.dropped as u64;
    f.stranded_vms += partial.stranded.len() as u64;
    if partial.is_partial() {
        f.plan_partials += 1;
        telemetry.incr("optimizer.plan_partial", 1);
    }
    Ok(partial.stats)
}

/// Spare CPU capacity across active servers (GHz): how much headroom the
/// consolidated placement leaves before the next overload.
fn active_slack_ghz(dc: &DataCenter) -> f64 {
    dc.active_servers()
        .into_iter()
        .map(|s| {
            let cap = dc.server(s).map(|sv| sv.capacity_ghz()).unwrap_or(0.0);
            let demand = dc.server_demand_ghz(s).unwrap_or(0.0);
            (cap - demand).max(0.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_dcsim::{Server, ServerSpec, VmId, VmSpec};

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    fn spread_dc() -> DataCenter {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        dc.add_server(Server::active(ServerSpec::type_dual_2ghz()));
        dc.add_server(Server::active(ServerSpec::type_dual_1_5ghz()));
        for i in 0..3 {
            let h = dc.add_vm(VmSpec::new(i, 0.8, 1024.0)).unwrap();
            dc.place_vm(h, srv(i as usize)).unwrap();
        }
        dc
    }

    fn placement_by_label(dc: &DataCenter, id: u64) -> Option<usize> {
        dc.lookup(VmId(id))
            .and_then(|h| dc.placement_of(h))
            .map(|s| s.index())
    }

    #[test]
    fn ipac_invocation_consolidates_and_counts() {
        let mut dc = spread_dc();
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let stats = opt.optimize(&mut dc, &[]).unwrap();
        assert!(stats.migrations >= 2, "{stats:?}");
        assert_eq!(opt.invocations(), 1);
        assert_eq!(opt.total_migrations(), stats.migrations as u64);
        // Everything should now sit on the efficient quad server.
        for i in 0..3 {
            assert_eq!(placement_by_label(&dc, i), Some(0));
        }
        dc.apply_dvfs().unwrap();
        assert_eq!(dc.active_servers(), vec![srv(0)]);
    }

    #[test]
    fn pmapper_invocation_also_consolidates() {
        let mut dc = spread_dc();
        let mut opt = PowerOptimizer::new(OptimizerConfig::pmapper_default());
        let stats = opt.optimize(&mut dc, &[]).unwrap();
        assert!(stats.migrations >= 2, "{stats:?}");
        for i in 0..3 {
            assert_eq!(placement_by_label(&dc, i), Some(0));
        }
    }

    #[test]
    fn new_items_placed_by_invocation() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::asleep(ServerSpec::type_quad_3ghz()));
        dc.add_vm(VmSpec::new(7, 1.0, 1024.0)).unwrap();
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let stats = opt
            .optimize(&mut dc, &[PackItem::new(VmId(7), 1.0, 1024.0)])
            .unwrap();
        assert_eq!(stats.placements, 1);
        assert_eq!(placement_by_label(&dc, 7), Some(0));
        assert!(dc.server(srv(0)).unwrap().is_active());
    }

    #[test]
    fn dry_run_plan_does_not_mutate() {
        let dc = spread_dc();
        let opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let plan = opt.plan(&dc, &[]);
        assert!(!plan.moves.is_empty());
        // dc unchanged.
        assert_eq!(placement_by_label(&dc, 1), Some(1));
    }

    #[test]
    fn empty_datacenter_invocation_is_a_safe_noop() {
        // 0 VMs, 0 servers: the optimizer/largescale boundary must not
        // panic or fabricate work.
        let mut dc = DataCenter::new();
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let stats = opt.optimize(&mut dc, &[]).unwrap();
        assert_eq!(stats, ApplyStats::default());
        assert_eq!(opt.invocations(), 1);
    }

    #[test]
    fn servers_without_vms_stay_asleep() {
        // Servers but no VMs: nothing to place, nothing woken.
        let mut dc = DataCenter::new();
        for _ in 0..3 {
            dc.add_server(Server::asleep(ServerSpec::type_dual_2ghz()));
        }
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let stats = opt.optimize(&mut dc, &[]).unwrap();
        assert_eq!(stats.woken, 0);
        assert!(dc.active_servers().is_empty());
    }

    #[test]
    fn pod_partition_respects_size_and_sites() {
        // Three sites of 5, 3, 4 servers; pod_size 2.
        let sites: Vec<usize> = [0usize; 5]
            .iter()
            .chain([1usize; 3].iter())
            .chain([2usize; 4].iter())
            .copied()
            .collect();
        let pods = pod_partition(&sites, 2);
        // ceil(5/2) + ceil(3/2) + ceil(4/2) = 3 + 2 + 2.
        assert_eq!(pods.len(), 7);
        let mut next = 0;
        for pod in &pods {
            assert_eq!(pod.start, next, "pods must tile the fleet");
            assert!(!pod.is_empty() && pod.len() <= 2);
            let site = sites[pod.start];
            assert!(pod.clone().all(|i| sites[i] == site), "pod straddles sites");
            next = pod.end;
        }
        assert_eq!(next, sites.len());
        // pod_size >= fleet: one pod per site, not one pod total.
        assert_eq!(pod_partition(&sites, 100).len(), 3);
        // Single site degenerates to ceil(n / pod_size).
        assert_eq!(pod_partition(&[0; 10], 4).len(), 3);
        assert_eq!(pod_partition(&[], 4).len(), 0);
    }

    #[test]
    #[should_panic(expected = "pod_size must be positive")]
    fn pod_partition_rejects_zero() {
        pod_partition(&[0, 0], 0);
    }

    #[test]
    fn single_pod_plan_is_bitwise_flat() {
        // pod_size >= fleet on a single-site fleet must take the flat path
        // exactly — same plan, byte for byte.
        let dc = spread_dc();
        let flat = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let mut hier = PowerOptimizer::new(OptimizerConfig::ipac_default());
        hier.set_pods(Some(64));
        let a = flat.plan(&dc, &[]);
        let b = hier.plan(&dc, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn set_pods_zero_or_none_disables_hierarchy() {
        let dc = spread_dc();
        let flat = PowerOptimizer::new(OptimizerConfig::ipac_default());
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        opt.set_pods(Some(0));
        assert_eq!(opt.plan(&dc, &[]), flat.plan(&dc, &[]));
        opt.set_pods(Some(1));
        opt.set_pods(None);
        assert_eq!(opt.plan(&dc, &[]), flat.plan(&dc, &[]));
    }

    /// Two sites × two quad servers, VMs spread one per server.
    fn two_site_dc() -> DataCenter {
        let mut dc = DataCenter::new();
        for site in 0..2 {
            for _ in 0..2 {
                dc.add_server_in_site(Server::active(ServerSpec::type_quad_3ghz()), site)
                    .unwrap();
            }
        }
        for i in 0..4 {
            let h = dc.add_vm(VmSpec::new(i, 0.8, 1024.0)).unwrap();
            dc.place_vm(h, srv(i as usize)).unwrap();
        }
        dc
    }

    #[test]
    fn hierarchical_consolidates_within_pods() {
        let mut dc = two_site_dc();
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        opt.set_pods(Some(2));
        let stats = opt.optimize(&mut dc, &[]).unwrap();
        assert!(stats.migrations >= 2, "{stats:?}");
        // Each pod consolidates onto one of its own servers; no VM crosses
        // a site boundary.
        for i in 0..4u64 {
            let placed = placement_by_label(&dc, i).unwrap();
            let expected_site = if i < 2 { 0 } else { 1 };
            assert_eq!(dc.server_site(srv(placed)), expected_site);
        }
        dc.apply_dvfs().unwrap();
        assert_eq!(dc.active_servers().len(), 2, "one active server per pod");
    }

    #[test]
    fn hierarchical_places_new_items_via_slack_routing() {
        let mut dc = two_site_dc();
        let mut items = Vec::new();
        for i in 10..14 {
            dc.add_vm(VmSpec::new(i, 1.0, 1024.0)).unwrap();
            items.push(PackItem::new(VmId(i), 1.0, 1024.0));
        }
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        opt.set_pods(Some(2));
        let stats = opt.optimize(&mut dc, &items).unwrap();
        assert_eq!(stats.placements, 4);
        for i in 10..14 {
            assert!(placement_by_label(&dc, i).is_some());
        }
    }

    #[test]
    fn hierarchical_spill_escapes_a_full_pod() {
        // Pod 0 (site 0) advertises the most CPU slack but its memory is
        // completely full, so the slack router sends every arrival there
        // and the pod packer cannot place them — the fleet-wide spill pass
        // must land them in pod 1.
        let mut dc = DataCenter::new();
        dc.add_server_in_site(Server::active(ServerSpec::type_quad_3ghz()), 0)
            .unwrap();
        dc.add_server_in_site(Server::active(ServerSpec::type_dual_2ghz()), 1)
            .unwrap();
        let big = dc.add_vm(VmSpec::new(1, 0.1, 16384.0)).unwrap();
        dc.place_vm(big, srv(0)).unwrap();
        let mut items = Vec::new();
        for i in 10..14 {
            dc.add_vm(VmSpec::new(i, 0.5, 2048.0)).unwrap();
            items.push(PackItem::new(VmId(i), 0.5, 2048.0));
        }
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        opt.set_pods(Some(1));
        let stats = opt.optimize(&mut dc, &items).unwrap();
        assert_eq!(stats.placements, 4, "every arrival must land");
        for i in 10..14 {
            assert_eq!(placement_by_label(&dc, i), Some(1), "spilled to pod 1");
        }
    }

    #[test]
    fn hierarchical_is_deterministic_across_shard_counts() {
        let build = || {
            let mut dc = two_site_dc();
            for i in 10..18 {
                dc.add_vm(VmSpec::new(i, 0.7, 512.0)).unwrap();
            }
            dc
        };
        let items: Vec<PackItem> = (10..18)
            .map(|i| PackItem::new(VmId(i), 0.7, 512.0))
            .collect();
        let reference = {
            let dc = build();
            let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
            opt.set_pods(Some(2));
            opt.plan(&dc, &items)
        };
        for shards in [1usize, 2, 3, 8] {
            let dc = build();
            let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
            opt.set_shards(shards);
            opt.set_pods(Some(2));
            assert_eq!(opt.plan(&dc, &items), reference, "shards={shards}");
        }
    }

    #[test]
    fn all_asleep_fleet_wakes_for_new_items() {
        // The wake path of the boundary: an entirely sleeping fleet must
        // wake exactly the servers the placement needs.
        let mut dc = DataCenter::new();
        for _ in 0..4 {
            dc.add_server(Server::asleep(ServerSpec::type_dual_2ghz()));
        }
        let mut items = Vec::new();
        for i in 0..3 {
            dc.add_vm(VmSpec::new(i, 1.0, 1024.0)).unwrap();
            items.push(PackItem::new(VmId(i), 1.0, 1024.0));
        }
        let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
        opt.set_shards(8);
        let stats = opt.optimize(&mut dc, &items).unwrap();
        assert_eq!(stats.placements, 3);
        let active = dc.active_servers();
        assert!(!active.is_empty(), "placement must wake servers");
        assert!(active.len() < 4, "3 GHz of demand must not wake the fleet");
        assert!(dc.wake_count() >= 1);
        for i in 0..3 {
            assert!(placement_by_label(&dc, i).is_some());
        }
    }
}
