//! Bridging between [`vdc_dcsim::DataCenter`] state and the packing layer.
//!
//! The consolidation algorithms work on [`PackServer`] snapshots; this
//! module builds those snapshots from live data-center state, keeps the
//! [`FleetView`] that churn admission and crash evacuation pack from and
//! overload relief plans over, and executes the resulting
//! [`ConsolidationPlan`] (wake → migrate/place → sleep, in dependency
//! order). Plans speak the external vocabulary — [`vdc_dcsim::VmId`]
//! labels and server indices — so this module is also where labels are
//! translated to arena handles.

use crate::constraint::{AndConstraint, Ceilings, Constraint};
use crate::item::{PackItem, PackServer};
use crate::minslack::MinSlackConfig;
use crate::pac::pac_pack;
use crate::plan::ConsolidationPlan;
use crate::relief::{plan_relief, ReliefConfig, Sums};
use vdc_dcsim::{DataCenter, DcError, ServerHandle, ServerState, VmHandle, VmId};

/// Snapshot every server of the data center as a [`PackServer`], with its
/// currently hosted VMs as residents.
pub fn snapshot(dc: &DataCenter) -> Vec<PackServer> {
    (0..dc.n_servers())
        .map(|i| server_of(dc, ServerHandle::from_index(i)))
        .collect()
}

/// One server as [`snapshot`] takes it.
fn server_of(dc: &DataCenter, server: ServerHandle) -> PackServer {
    PackServer {
        resident: hosted_items(dc, server).collect(),
        ..bare_server(dc, server)
    }
}

/// The packing view that churn admission and crash evacuation pack from,
/// and that overload relief plans over: [`snapshot`]'s servers, plus what
/// [`FleetView::candidates`] and [`FleetView::relieve`] read of each
/// instead of the data center: its resident CPU and memory sums (the
/// folds [`PackServer::resident_cpu`] and [`PackServer::resident_mem`]
/// take, extended by `+=` on each placement), and its class under the
/// class cap, with the class's ceilings under
/// [`AndConstraint::cpu_and_memory`].
///
/// The view is kept current by its owner: after each placement onto the
/// data center it calls [`FleetView::place`], and after each crash or
/// recovery [`FleetView::reread`]. [`FleetView::is_current`] checks it
/// against the data center.
pub struct FleetView {
    servers: Vec<PackServer>,
    /// Per server: its resident sums and its class.
    cache: Vec<Cache>,
    /// The classes seen so far, in order of first sight.
    classes: Vec<Class>,
    rule: AndConstraint,
}

/// What [`FleetView`] keeps per server besides its [`PackServer`]: all
/// that [`FleetView::candidates`] reads of a server it does not offer.
#[derive(Debug, Clone, Copy)]
struct Cache {
    /// Resident CPU (GHz), as [`PackServer::resident_cpu`] folds it.
    cpu: f64,
    /// Resident memory (MiB), as [`PackServer::resident_mem`] folds it.
    mem: f64,
    /// The server's class, an index into [`FleetView`]'s classes.
    class: u32,
    /// Whether the server has no residents.
    empty: bool,
}

/// Servers that agree in the bits of every [`PackServer`] field but
/// `index` and `resident`. The rule's ceilings read only those fields
/// (its capacities), so the class's members share them.
#[derive(Debug, Clone, Copy)]
struct Class {
    key: [u64; 6],
    ceilings: Ceilings,
    /// The side of the fleet that offers its members: `Some(true)` for
    /// active servers, `Some(false)` for sleeping ones with capacity, and
    /// `None` for the rest, failed hosts, which neither side offers.
    side: Option<bool>,
}

impl FleetView {
    /// The view of every server of `dc`, as [`snapshot`] takes it.
    pub fn new(dc: &DataCenter) -> FleetView {
        let mut view = FleetView {
            servers: Vec::with_capacity(dc.n_servers()),
            cache: Vec::with_capacity(dc.n_servers()),
            classes: Vec::new(),
            rule: AndConstraint::cpu_and_memory(),
        };
        view.refresh(dc);
        view
    }

    /// Re-read every server of `dc`, as [`FleetView::new`] would, into the
    /// view's own buffers: each resident list is refilled in place, so a
    /// view kept from an earlier sample allocates only for a list that
    /// outgrows its capacity.
    pub fn refresh(&mut self, dc: &DataCenter) {
        self.servers.truncate(dc.n_servers());
        self.cache.clear();
        self.classes.clear();
        for i in 0..dc.n_servers() {
            let server = ServerHandle::from_index(i);
            let bare = bare_server(dc, server);
            match self.servers.get_mut(i) {
                Some(s) => {
                    let resident = std::mem::take(&mut s.resident);
                    *s = PackServer { resident, ..bare };
                }
                None => self.servers.push(bare),
            }
            let resident = &mut self.servers[i].resident;
            resident.clear();
            resident.extend(hosted_items(dc, server));
            let cache = self.cache_of(i);
            self.cache.push(cache);
        }
    }

    /// Plan overload relief over the view's servers under
    /// [`AndConstraint::cpu_and_memory`]: the plan
    /// [`relieve_overloads`](crate::relief::relieve_overloads) makes over
    /// [`snapshot`] under that rule, with each server's resident sums and
    /// ceilings taken from the view instead of folded and asked of the
    /// rule again. The pass plans over the servers as its working state,
    /// so the view is stale afterwards, until [`FleetView::refresh`].
    pub fn relieve(&mut self, cfg: &ReliefConfig) -> ConsolidationPlan {
        let sums = self
            .cache
            .iter()
            .map(|c| Sums {
                cpu: c.cpu,
                mem: c.mem,
                ceilings: Some(self.classes[c.class as usize].ceilings),
            })
            .collect();
        plan_relief(&mut self.servers, sums, &self.rule, cfg)
    }

    /// Record a placement made on `dc`: `vm`, the last VM its server
    /// hosts, with the demand `dc` now holds for it. A placement onto a
    /// sleeping server woke it, so that server is re-read whole.
    pub fn place(&mut self, dc: &DataCenter, vm: VmHandle) {
        let server = dc.placement_of(vm).expect("a placed VM");
        debug_assert_eq!(dc.hosted_vms(server).ok().and_then(|h| h.last()), Some(&vm));
        let i = server.index();
        if !self.servers[i].active {
            self.reread(dc, server);
            return;
        }
        let item = hosted_item(dc, vm);
        self.servers[i].resident.push(item);
        let cache = &mut self.cache[i];
        cache.cpu += item.cpu_ghz;
        cache.mem += item.mem_mib;
        cache.empty = false;
    }

    /// Re-read `server` from `dc` whole, after a change other than a
    /// placement: a crash or a recovery.
    pub fn reread(&mut self, dc: &DataCenter, server: ServerHandle) {
        let i = server.index();
        self.servers[i] = server_of(dc, server);
        self.cache[i] = self.cache_of(i);
    }

    /// Whether the view equals what a fresh one of `dc` would hold: the
    /// servers equal [`snapshot`], and every cache equals its server's,
    /// the sums bit for bit. Debug builds check it at every pack and at
    /// every relief hand-off.
    pub fn is_current(&self, dc: &DataCenter) -> bool {
        self.servers == snapshot(dc)
            && self.servers.iter().zip(&self.cache).all(|(s, c)| {
                let class = self.classes[c.class as usize];
                c.cpu.to_bits() == s.resident_cpu().to_bits()
                    && c.mem.to_bits() == s.resident_mem().to_bits()
                    && c.empty == s.resident.is_empty()
                    && class.key == class_key(s)
                    && Some(class.ceilings) == self.rule.ceilings(s)
            })
    }

    /// The servers of one side of the fleet, the active ones or the
    /// sleeping ones, that [`pac_pack`] can place `items` on under
    /// [`AndConstraint::cpu_and_memory`], by index: those whose ceilings
    /// let them take at least one of the items on its own, with at most
    /// `items.len()` of each class of identical servers without residents
    /// (the class cap, below), in index order.
    ///
    /// The rule is additive ([`Constraint::ceilings`]), so a server whose
    /// ceilings refuse every item alone refuses every subset too (demands
    /// are non-negative): Minimum Slack chooses nothing there, and packing
    /// onto the candidates places every item where packing onto the whole
    /// side would.
    ///
    /// The class cap. Servers without residents that agree in the bits of
    /// every [`PackServer`] field but `index` form a class (so they agree
    /// in their ceilings too), and at most `items.len()` of each class are
    /// offered, the first in index order. PAC visits equally efficient
    /// servers in index order, and every class member that chooses
    /// something places a VM. A member with no residents chooses nothing
    /// only when its capacity is within ε or no remaining item fits it
    /// alone (Minimum Slack keeps a nonempty greedy fill, of zero CPU too),
    /// which stays true for every later member as PAC's list shrinks. So
    /// the members that take VMs are the first ones, at most one per item.
    /// Only the step counts of the searches on the members left out differ.
    ///
    /// Failed hosts are never active, and advertise zero capacity; the
    /// sleeping side leaves out every server without capacity, as packing
    /// the whole side did.
    pub fn candidates(&self, active: bool, items: &[PackItem]) -> Vec<usize> {
        // Members of each class offered so far.
        let mut offered = vec![0; self.classes.len()];
        let mut out = Vec::new();
        for (i, c) in self.cache.iter().enumerate() {
            let class = &self.classes[c.class as usize];
            if class.side != Some(active) {
                continue;
            }
            if c.empty {
                let seen = &mut offered[c.class as usize];
                if *seen == items.len() {
                    continue;
                }
                *seen += 1;
            }
            let ceilings = class.ceilings;
            let fits = |x: &PackItem| {
                c.cpu + x.cpu_ghz <= ceilings.cpu_ghz && c.mem + x.mem_mib <= ceilings.mem_mib
            };
            if items.iter().any(fits) {
                out.push(i);
            }
        }
        out
    }

    /// Pack `items` with [`pac_pack`] and Minimum Slack's defaults onto
    /// one side's [`FleetView::candidates`], under
    /// [`AndConstraint::cpu_and_memory`]: each placed VM with its server,
    /// and the VMs placed nowhere. PAC packs onto the candidates' own
    /// resident lists, lent for the pack and truncated back to their
    /// lengths afterwards; PAC only pushes residents, so that leaves the
    /// view as it was.
    pub fn pack(
        &mut self,
        active: bool,
        items: &[PackItem],
    ) -> (Vec<(VmId, ServerHandle)>, Vec<VmId>) {
        let lent = self.candidates(active, items);
        let mut servers: Vec<PackServer> = lent
            .iter()
            .map(|&i| {
                let s = &mut self.servers[i];
                PackServer {
                    resident: std::mem::take(&mut s.resident),
                    ..*s
                }
            })
            .collect();
        let lengths: Vec<usize> = servers.iter().map(|s| s.resident.len()).collect();
        let result = pac_pack(&mut servers, items, &self.rule, &MinSlackConfig::default());
        for ((&i, mut s), len) in lent.iter().zip(servers).zip(lengths) {
            s.resident.truncate(len);
            self.servers[i].resident = s.resident;
        }
        let placed = result
            .assignments
            .into_iter()
            .map(|(id, si)| (id, ServerHandle::from_index(lent[si])))
            .collect();
        (placed, result.unplaced)
    }

    /// The cache of server `i` as it stands. A class seen for the first
    /// time gets its ceilings from the rule.
    fn cache_of(&mut self, i: usize) -> Cache {
        let s = &self.servers[i];
        let key = class_key(s);
        let same = |c: &Class| c.key.iter().zip(&key).all(|(a, b)| a == b);
        let class = match self.classes.iter().position(same) {
            Some(class) => class,
            None => {
                self.classes.push(Class {
                    key,
                    ceilings: self.rule.ceilings(s).expect("an additive rule"),
                    side: (s.active || s.cpu_capacity_ghz > 0.0).then_some(s.active),
                });
                self.classes.len() - 1
            }
        };
        Cache {
            cpu: s.resident_cpu(),
            mem: s.resident_mem(),
            class: class as u32,
            empty: s.resident.is_empty(),
        }
    }
}

/// The class key of a server: the bits of every [`PackServer`] field but
/// `index` and `resident`.
fn class_key(s: &PackServer) -> [u64; 6] {
    [
        s.cpu_capacity_ghz.to_bits(),
        s.mem_capacity_mib.to_bits(),
        s.max_watts.to_bits(),
        s.idle_watts.to_bits(),
        u64::from(s.active),
        s.pue.to_bits(),
    ]
}

/// The VMs `server` hosts, as packing items in hosted order, each with
/// its live demand.
fn hosted_items(dc: &DataCenter, server: ServerHandle) -> impl Iterator<Item = PackItem> + '_ {
    dc.hosted_loads(server)
        .expect("index in range")
        .map(|(id, cpu, mem)| PackItem::new(id, cpu, mem))
}

/// A hosted VM as a packing item, with its live demand.
fn hosted_item(dc: &DataCenter, vm: VmHandle) -> PackItem {
    let spec = dc.vm(vm).expect("hosted VM is registered");
    let demand = dc.vm_demand(vm).expect("hosted VM is registered");
    PackItem::new(spec.id, demand, spec.memory_mib)
}

/// The [`PackServer`] for one server, without its residents.
fn bare_server(dc: &DataCenter, server: ServerHandle) -> PackServer {
    let srv = dc.server(server).expect("index in range");
    // A failed host is advertised with zero capacity, so no packer can
    // select it as a destination (it would reject wake and placement
    // anyway); healthy servers are byte-identical to the pre-fault view.
    let failed = matches!(srv.state, ServerState::Failed);
    PackServer {
        index: server.index(),
        cpu_capacity_ghz: if failed {
            0.0
        } else {
            srv.spec.max_capacity_ghz()
        },
        mem_capacity_mib: if failed { 0.0 } else { srv.spec.memory_mib },
        max_watts: srv.spec.power.max_watts,
        idle_watts: srv.spec.power.static_watts,
        active: srv.is_active(),
        pue: dc.server_pue(server),
        resident: Vec::new(),
    }
}

/// Statistics of one plan application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyStats {
    /// Live migrations executed.
    pub migrations: usize,
    /// Initial placements executed.
    pub placements: usize,
    /// Servers put to sleep.
    pub slept: usize,
    /// Servers woken (explicitly or implicitly by placement).
    pub woken: usize,
    /// Total memory copied by migrations (MiB).
    pub migrated_mib: f64,
}

/// Execute a consolidation plan whose migrations all succeed:
/// [`apply_plan_fallible`] with no failing attempt.
pub fn apply_plan(dc: &mut DataCenter, plan: &ConsolidationPlan) -> Result<ApplyStats, DcError> {
    apply_plan_fallible(dc, plan, 1, || false).map(|applied| applied.stats)
}

/// Outcome of one [`apply_plan_fallible`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialApply {
    /// What was actually committed.
    pub stats: ApplyStats,
    /// Retry attempts spent beyond each migration's first attempt.
    pub retries: u64,
    /// Migrations left uncommitted: the first to exhaust its attempt
    /// budget plus the truncated suffix behind it.
    pub dropped: usize,
    /// VMs that could not even be rolled back to their source server
    /// (earlier committed moves consumed its capacity); they are left
    /// unplaced for the caller to count as stranded.
    pub stranded: Vec<VmId>,
}

impl PartialApply {
    /// Whether the plan committed only a prefix of its migrations.
    pub fn is_partial(&self) -> bool {
        self.dropped > 0
    }
}

/// Execute a consolidation plan on the data center, with migrations that
/// may fail.
///
/// Ordering: wakes first (targets must be active), then moves, then sleeps
/// (sources must be empty). Moves are executed detach-all-then-attach: the
/// plan is only guaranteed consistent in its *final* state, so executing
/// migrations one-by-one could transiently overflow a destination that a
/// later move drains. A sleep target that turns out non-empty is skipped
/// rather than failing the whole plan.
///
/// Migration attempt outcomes come from `attempt_fails` (drawn once per
/// attempt, in move order — the caller supplies a deterministic stream),
/// and each migration gets up to `max_attempts` tries. The first migration
/// that exhausts its budget truncates the migration suffix: the plan
/// commits its successful prefix and every uncommitted mover is rolled back
/// to its source. Initial placements (`from == None`) are not live
/// migrations and always apply. With `attempt_fails` never returning true,
/// every move commits: that is [`apply_plan`].
pub fn apply_plan_fallible(
    dc: &mut DataCenter,
    plan: &ConsolidationPlan,
    max_attempts: u32,
    mut attempt_fails: impl FnMut() -> bool,
) -> Result<PartialApply, DcError> {
    let mut out = PartialApply::default();
    let resolve =
        |dc: &DataCenter, id: vdc_dcsim::VmId| dc.lookup(id).ok_or(DcError::UnknownVm(id.0));
    for &s in &plan.servers_to_wake {
        dc.wake_server(ServerHandle::from_index(s))?;
        out.stats.woken += 1;
    }
    // Detach every migrating VM first.
    for mv in &plan.moves {
        if mv.from.is_some() {
            let h = resolve(dc, mv.vm)?;
            dc.unplace_vm(h)?;
        }
    }
    // Attach in move order, drawing per-attempt outcomes for migrations.
    let mut truncated = false;
    for mv in &plan.moves {
        let h = resolve(dc, mv.vm)?;
        let to = ServerHandle::from_index(mv.to);
        let from = match mv.from {
            None => {
                // Initial placement: not a live migration, always applies.
                dc.place_vm(h, to)?;
                out.stats.placements += 1;
                continue;
            }
            Some(from) => ServerHandle::from_index(from),
        };
        let mut committed = false;
        if !truncated {
            for attempt in 0..max_attempts.max(1) {
                if attempt > 0 {
                    out.retries += 1;
                }
                if !attempt_fails() {
                    committed = true;
                    break;
                }
            }
        }
        if committed {
            dc.place_vm(h, to)?;
            out.stats.migrations += 1;
            out.stats.migrated_mib += dc.vm(h)?.memory_mib;
        } else {
            out.dropped += 1;
            truncated = true; // commit only the successful prefix
                              // Roll the mover back to its source; if capacity is gone
                              // (an earlier committed move filled it), the VM stays
                              // unplaced and is reported stranded.
            if dc.place_vm(h, from).is_err() {
                out.stranded.push(mv.vm);
            }
        }
    }
    for &s in &plan.servers_to_sleep {
        let h = ServerHandle::from_index(s);
        if dc.hosted_vms(h)?.is_empty() {
            dc.sleep_server(h)?;
            out.stats.slept += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AndConstraint;
    use crate::ipac::ipac_plan;
    use crate::policy::AlwaysAllow;
    use vdc_dcsim::{Server, ServerSpec, VmId, VmSpec};

    fn testbed() -> DataCenter {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        dc.add_server(Server::active(ServerSpec::type_dual_2ghz()));
        dc.add_server(Server::asleep(ServerSpec::type_dual_1_5ghz()));
        dc
    }

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.5, 1024.0)).unwrap();
        dc.place_vm(h, srv(1)).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].cpu_capacity_ghz, 12.0);
        assert!(snap[0].resident.is_empty());
        assert_eq!(snap[1].resident.len(), 1);
        assert_eq!(snap[1].resident[0].cpu_ghz, 1.5);
        assert!(!snap[2].active);
        assert!(snap[0].power_efficiency() > snap[1].power_efficiency());
    }

    #[test]
    fn snapshot_reads_live_demand_not_registration_demand() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.5, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        dc.set_vm_demand(h, 2.25).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap[0].resident[0].cpu_ghz, 2.25);
    }

    #[test]
    fn ipac_plan_applies_cleanly_end_to_end() {
        let mut dc = testbed();
        // Spread VMs over the two active servers, inefficiently.
        let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(1)).unwrap();
        let before_power = {
            dc.apply_dvfs().unwrap();
            dc.total_power_watts()
        };
        let plan = ipac_plan(
            &snapshot(&dc),
            &[],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
        );
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.slept, 1);
        dc.apply_dvfs().unwrap();
        let after_power = dc.total_power_watts();
        assert!(
            after_power < before_power,
            "consolidation must cut power: {after_power} vs {before_power}"
        );
        // Both VMs now live on server 0.
        assert_eq!(dc.placement_of(a), Some(srv(0)));
        assert_eq!(dc.placement_of(b), Some(srv(0)));
    }

    #[test]
    fn plan_with_initial_placements() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 2.0, 1024.0)).unwrap();
        let plan = ipac_plan(
            &snapshot(&dc),
            &[PackItem::new(VmId(1), 2.0, 1024.0)],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
        );
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.placements, 1);
        assert_eq!(dc.placement_of(h), Some(srv(0)));
    }

    #[test]
    fn candidates_are_the_servers_that_take_one_item_alone() {
        let mut dc = testbed();
        dc.add_server(Server::asleep(ServerSpec::type_quad_3ghz()));
        // Server 1 (4 GHz) runs full; server 0 (12 GHz) has room.
        let full = dc.add_vm(VmSpec::new(1, 4.0, 1024.0)).unwrap();
        dc.place_vm(full, srv(1)).unwrap();
        let mut view = FleetView::new(&dc);
        let small = PackItem::new(VmId(8), 1.0, 512.0);
        let idle = PackItem::new(VmId(9), 0.0, 512.0);
        assert_eq!(view.candidates(true, &[small]), [0]);
        // Any one item suffices, and candidates keep index order.
        assert_eq!(view.candidates(true, &[small, idle]), [0, 1]);
        // No active server holds 20 GiB; both sleeping servers take 1 GHz.
        let huge = PackItem::new(VmId(7), 1.0, 20_480.0);
        assert!(view.candidates(true, &[huge]).is_empty());
        assert_eq!(view.candidates(false, &[small]), [2, 3]);
        // A failed host is never offered, not even a zero-demand item.
        dc.fail_server(srv(2)).unwrap();
        view.reread(&dc, srv(2));
        assert!(view.is_current(&dc));
        let zero = PackItem::new(VmId(6), 0.0, 0.0);
        assert_eq!(view.candidates(false, &[zero]), [3]);
        // A pack lends the candidates' residents and takes them back.
        let (placed, unplaced) = view.pack(true, &[small, huge]);
        assert_eq!(placed, [(VmId(8), srv(0))]);
        assert_eq!(unplaced, [VmId(7)]);
        assert!(view.is_current(&dc), "packing leaves the view as it was");
    }

    #[test]
    fn candidates_offer_each_class_of_empty_servers_up_to_the_batch_size() {
        let quad = ServerSpec::type_quad_3ghz;
        let mut dc = DataCenter::new();
        // Servers 0–5 asleep at site 0; 6–8 asleep at site 1, which runs
        // at another PUE; 9–11 active and empty; 12 active with a VM.
        for site in [0, 0, 0, 0, 0, 0, 1, 1, 1] {
            dc.add_server_in_site(Server::asleep(quad()), site).unwrap();
        }
        dc.set_site_pue(1, 1.25).unwrap();
        for _ in 0..4 {
            dc.add_server(Server::active(quad()));
        }
        let vm = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        dc.place_vm(vm, srv(12)).unwrap();
        let mut view = FleetView::new(&dc);
        let batch = [
            PackItem::new(VmId(8), 1.0, 512.0),
            PackItem::new(VmId(9), 2.0, 512.0),
        ];
        // Six identical sleeping servers and a two-item batch offer the
        // first two; the same model at another PUE is a class of its own.
        assert_eq!(view.candidates(false, &batch), [0, 1, 6, 7]);
        // A server of that model with a resident is still offered.
        assert_eq!(view.candidates(true, &batch), [9, 10, 12]);
        assert_eq!(view.candidates(true, &batch[..1]), [9, 12]);
        // A batch with an item that needs no CPU is capped like any other.
        let idle = [batch[0], PackItem::new(VmId(7), 0.0, 512.0)];
        assert_eq!(view.candidates(false, &idle), [0, 1, 6, 7]);
        // A placement that wakes a sleeping server moves it to the active
        // side, out of its sleeping class.
        let woken = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
        dc.place_vm(woken, srv(0)).unwrap();
        view.place(&dc, woken);
        assert!(view.is_current(&dc));
        assert_eq!(view.candidates(false, &batch), [1, 2, 6, 7]);
        assert_eq!(view.candidates(true, &batch), [0, 9, 10, 12]);
    }

    #[test]
    fn failed_server_advertises_zero_capacity() {
        let mut dc = testbed();
        dc.fail_server(srv(1)).unwrap();
        let snap = snapshot(&dc);
        assert_eq!(snap[1].cpu_capacity_ghz, 0.0);
        assert_eq!(snap[1].mem_capacity_mib, 0.0);
        assert!(!snap[1].active);
        assert!(snap[1].resident.is_empty());
        // Healthy neighbours are untouched.
        assert_eq!(snap[0].cpu_capacity_ghz, 12.0);
        // A plan over this view never targets the failed host: pack a VM
        // and check it lands elsewhere.
        let plan = ipac_plan(
            &snap,
            &[PackItem::new(VmId(9), 1.0, 1024.0)],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
        );
        assert!(plan.moves.iter().all(|m| m.to != 1));
    }

    #[test]
    fn fallible_apply_with_no_failures_matches_apply_plan() {
        let build = || {
            let mut dc = testbed();
            let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
            let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
            dc.place_vm(a, srv(0)).unwrap();
            dc.place_vm(b, srv(1)).unwrap();
            dc
        };
        let mut plain = build();
        let mut fallible = build();
        let plan = ipac_plan(
            &snapshot(&plain),
            &[],
            &AndConstraint::cpu_and_memory(),
            &AlwaysAllow,
        );
        let stats = apply_plan(&mut plain, &plan).unwrap();
        let partial = apply_plan_fallible(&mut fallible, &plan, 3, || false).unwrap();
        assert_eq!(partial.stats, stats);
        assert!(!partial.is_partial());
        assert_eq!(partial.retries, 0);
        assert!(partial.stranded.is_empty());
        for id in [1u64, 2] {
            let p = |dc: &DataCenter| dc.lookup(VmId(id)).and_then(|h| dc.placement_of(h));
            assert_eq!(p(&plain), p(&fallible));
        }
    }

    #[test]
    fn exhausted_migration_commits_the_prefix_and_rolls_back_the_rest() {
        let mut dc = testbed();
        let a = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.0, 1024.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(1)).unwrap();
        let plan = ConsolidationPlan {
            moves: vec![
                crate::plan::Move {
                    vm: VmId(1),
                    from: Some(0),
                    to: 1,
                    cpu_ghz: 1.0,
                    mem_mib: 1024.0,
                },
                crate::plan::Move {
                    vm: VmId(2),
                    from: Some(1),
                    to: 0,
                    cpu_ghz: 1.0,
                    mem_mib: 1024.0,
                },
            ],
            servers_to_sleep: vec![],
            servers_to_wake: vec![],
        };
        // First migration succeeds; the second fails all three attempts.
        let mut draws = [false, true, true, true].into_iter();
        let partial = apply_plan_fallible(&mut dc, &plan, 3, || draws.next().unwrap()).unwrap();
        assert_eq!(partial.stats.migrations, 1, "prefix committed");
        assert_eq!(partial.dropped, 1);
        assert_eq!(partial.retries, 2);
        assert!(partial.is_partial());
        assert!(partial.stranded.is_empty());
        assert_eq!(dc.placement_of(a), Some(srv(1)), "committed move stands");
        assert_eq!(dc.placement_of(b), Some(srv(1)), "dropped move rolled back");
    }

    #[test]
    fn sleep_skipped_if_server_not_empty() {
        let mut dc = testbed();
        let h = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        let plan = ConsolidationPlan {
            moves: vec![],
            servers_to_sleep: vec![0],
            servers_to_wake: vec![],
        };
        let stats = apply_plan(&mut dc, &plan).unwrap();
        assert_eq!(stats.slept, 0);
        assert!(dc.server(srv(0)).unwrap().is_active());
    }
}
