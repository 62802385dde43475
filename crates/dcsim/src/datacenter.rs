//! Data-center state: servers, VM placement, migration, power.
//!
//! This is the bookkeeping substrate under both the testbed scenario (4
//! servers, 8 two-tier applications) and the large-scale simulation (3,000
//! servers hosting up to 5,415 trace-driven VMs). The consolidation
//! algorithms in `vdc-consolidate` compute *plans*; this module executes
//! them (migrations, sleep/wake) and prices each server's power. The
//! runners' one power charge integrates that price into energy.
//!
//! # Arena layout
//!
//! All mutable simulation state lives in dense, index-addressed vectors
//! owned by [`DataCenter`]: VM specs, current CPU demands, placements, and
//! per-server hosted lists are `Vec`s addressed by copyable [`VmHandle`] /
//! [`ServerHandle`] slot indices. [`VmId`] remains only as the external
//! label ([`DataCenter::lookup`] translates). The per-sample passes walk
//! these vectors in index order:
//!
//! * [`DataCenter::demands_mut`] exposes the demand table as one `&mut
//!   [f64]`, so a trace replay writes slot `i` from trace row `i`;
//! * [`DataCenter::apply_dvfs`] is the arbitrator pass. Its two halves are
//!   public too: [`DataCenter::dvfs_decision`] reads one server, and
//!   [`DataCenter::apply_dvfs_decisions`] commits the decisions in index
//!   order.
//!
//! # Slot recycling
//!
//! Removing a VM bumps its slot's generation and pushes the slot onto a
//! free list; the next registration pops it (LIFO) instead of growing the
//! arena, so lifecycle churn keeps the arena at its high-water live
//! population. Handles are generation-tagged, so a handle minted for a
//! removed tenant keeps failing with [`DcError::StaleHandle`] even after
//! the slot hosts a new VM. Runs that never remove a VM never touch the
//! free list and stay byte-identical to the pre-recycling arena.

use crate::server::{CpuArbitrator, Server, ServerHandle, ServerState};
use crate::vm::{VmHandle, VmId, VmSpec};
use crate::{DcError, Result};
use std::collections::BTreeMap;

/// One per-server outcome of the DVFS/arbitrator pass, computed read-only
/// by [`DataCenter::dvfs_decision`] and committed by
/// [`DataCenter::apply_dvfs_decisions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvfsDecision {
    /// Leave the server untouched (it is sleeping).
    Hold,
    /// Sleep an idle active server (`sleep_idle` mode, no hosted VMs).
    Sleep,
    /// Set the active server to this per-core frequency (GHz).
    Frequency(f64),
}

/// The data center: servers, VMs, placement, and accounting.
///
/// # Examples
///
/// ```
/// use vdc_dcsim::{DataCenter, Server, ServerSpec, VmSpec};
///
/// let mut dc = DataCenter::new();
/// let srv = dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
/// let vm = dc.add_vm(VmSpec::new(1, 2.0, 1024.0)).unwrap();
/// dc.place_vm(vm, srv).unwrap();
/// dc.apply_dvfs().unwrap();
/// assert!(dc.total_power_watts() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataCenter {
    servers: Vec<Server>,
    /// VM arena; `None` marks a vacant (removed, recyclable) slot.
    vms: Vec<Option<VmSpec>>,
    /// Current CPU demand (GHz) per VM slot; 0.0 for vacant slots.
    demand: Vec<f64>,
    /// Hosting server per VM slot; `None` = registered but unplaced.
    placement: Vec<Option<ServerHandle>>,
    /// Hosted VM handles per server, in placement order.
    hosted: Vec<Vec<VmHandle>>,
    /// External-label index, VmId-ordered.
    index: BTreeMap<VmId, VmHandle>,
    /// Per-slot generation: the generation the slot's *current or next*
    /// occupant is (or will be) addressed under. Bumped on removal, so
    /// handles minted for earlier tenants fail the generation comparison.
    vm_gen: Vec<u32>,
    /// Vacant slot indices available for reuse (LIFO). While this is empty
    /// — i.e. in any run that never removes a VM — registration appends,
    /// byte-identical to the pre-recycling arena.
    free: Vec<usize>,
    /// Site index per server slot (site 0 when unspecified).
    site_of: Vec<u32>,
    /// Current facility PUE per site; every site starts at 1.0 (facility
    /// power == IT power) until [`DataCenter::set_site_pue`].
    site_pue: Vec<f64>,
    arbitrator: CpuArbitrator,
    wake_count: u64,
    sleep_count: u64,
    /// DVFS frequency changes applied by the arbitrator (a server moving to
    /// a different active frequency; wake/sleep transitions count separately).
    freq_transitions: u64,
    /// Energy spent on wake transitions (a waking server burns roughly its
    /// static power for `wake_latency_s` before doing useful work).
    wake_energy_wh: f64,
}

impl DataCenter {
    /// Empty data center with the default arbitrator.
    pub fn new() -> DataCenter {
        DataCenter::default()
    }

    /// Validate a server handle (index in range, generation current —
    /// servers are never removed, so every live generation is 0) and
    /// return its slot index.
    fn server_slot(&self, server: ServerHandle) -> Result<usize> {
        if server.index() >= self.servers.len() || server.generation() != 0 {
            return Err(DcError::UnknownServer(server.index()));
        }
        Ok(server.index())
    }

    // ---- topology -------------------------------------------------------

    /// Add a server to site 0; returns its handle (slot indices are
    /// assigned in insertion order and never change).
    pub fn add_server(&mut self, server: Server) -> ServerHandle {
        self.add_server_in_site(server, 0)
            .expect("site 0 is always addressable")
    }

    /// Add a server to a specific site. Sites are created on first use
    /// with PUE 1.0; change it with [`DataCenter::set_site_pue`].
    pub fn add_server_in_site(&mut self, server: Server, site: usize) -> Result<ServerHandle> {
        if site > u32::MAX as usize {
            return Err(DcError::Invalid(format!("site index {site} out of range")));
        }
        self.servers.push(server);
        self.hosted.push(Vec::new());
        self.site_of.push(site as u32);
        if self.site_pue.len() <= site {
            self.site_pue.resize(site + 1, 1.0);
        }
        Ok(ServerHandle::from_index(self.servers.len() - 1))
    }

    /// Set a site's current facility PUE (finite, ≥ 1.0).
    pub fn set_site_pue(&mut self, site: usize, pue: f64) -> Result<()> {
        if site >= self.site_pue.len() {
            return Err(DcError::Invalid(format!(
                "unknown site {site} ({} sites exist)",
                self.site_pue.len()
            )));
        }
        if !pue.is_finite() || pue < 1.0 {
            return Err(DcError::Invalid(format!(
                "PUE for site {site} is {pue}; must be finite and >= 1.0"
            )));
        }
        self.site_pue[site] = pue;
        Ok(())
    }

    /// The site a server belongs to (site 0 when it was added without one).
    pub fn server_site(&self, server: ServerHandle) -> usize {
        self.site_of.get(server.index()).copied().unwrap_or(0) as usize
    }

    /// The current facility PUE of the server's site (1.0 when no PUE was
    /// ever set).
    pub fn server_pue(&self, server: ServerHandle) -> f64 {
        self.site_pue
            .get(self.server_site(server))
            .copied()
            .unwrap_or(1.0)
    }

    /// Number of sites: one past the highest site any server was added
    /// to, so every [`DataCenter::server_site`] indexes below it.
    pub fn n_sites(&self) -> usize {
        self.site_pue.len()
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// Borrow a server.
    pub fn server(&self, server: ServerHandle) -> Result<&Server> {
        let s = self.server_slot(server)?;
        Ok(&self.servers[s])
    }

    /// All servers, slot-indexed.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Handles of currently active servers, in slot order.
    pub fn active_servers(&self) -> Vec<ServerHandle> {
        (0..self.servers.len())
            .filter(|&i| self.servers[i].is_active())
            .map(ServerHandle::from_index)
            .collect()
    }

    /// Register a VM (initially unplaced); returns its arena handle. The
    /// spec's `cpu_demand_ghz` seeds the live demand table. The external
    /// label must be unique among live VMs.
    ///
    /// Slots of removed VMs are recycled (most recently freed first) under
    /// a bumped generation, so the arena never grows past its high-water
    /// live population; with no free slot the arena appends, exactly as it
    /// did before recycling existed.
    pub fn add_vm(&mut self, spec: VmSpec) -> Result<VmHandle> {
        let id = spec.id;
        if self.index.contains_key(&id) {
            return Err(DcError::BadPlacement(format!("VM {id} already exists")));
        }
        let h = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.vms[slot].is_none(),
                    "free list holds only vacant slots"
                );
                let h = VmHandle::new(slot, self.vm_gen[slot]);
                self.demand[slot] = spec.cpu_demand_ghz;
                self.vms[slot] = Some(spec);
                self.placement[slot] = None;
                h
            }
            None => {
                let slot = self.vms.len();
                let h = VmHandle::from_index(slot);
                self.demand.push(spec.cpu_demand_ghz);
                self.vms.push(Some(spec));
                self.placement.push(None);
                self.vm_gen.push(0);
                h
            }
        };
        self.index.insert(id, h);
        Ok(h)
    }

    /// Deregister a VM (unplacing it first if hosted) and return its spec.
    /// The slot's generation is bumped and the slot joins the free list for
    /// reuse by a later arrival; every outstanding handle to the removed VM
    /// fails the generation comparison from now on
    /// ([`crate::DcError::StaleHandle`]), so it can never alias the slot's
    /// next tenant.
    pub fn remove_vm(&mut self, h: VmHandle) -> Result<VmSpec> {
        let id = self.vm(h)?.id;
        if self.placement_of(h).is_some() {
            self.unplace_vm(h)?;
        }
        self.index.remove(&id);
        self.demand[h.index()] = 0.0;
        self.vm_gen[h.index()] += 1;
        self.free.push(h.index());
        Ok(self.vms[h.index()].take().expect("checked occupied above"))
    }

    /// Number of registered (live) VMs.
    pub fn n_vms(&self) -> usize {
        self.index.len()
    }

    /// Arena length in slots (live VMs plus vacant slots awaiting reuse);
    /// the bound for slot-enumerating loops and the length of
    /// [`DataCenter::demands_mut`]. Because vacant slots are recycled before
    /// the arena grows, this never exceeds the high-water live population.
    pub fn vm_slots(&self) -> usize {
        self.vms.len()
    }

    /// Borrow a VM spec (fields are as registered; the *live* demand is
    /// [`DataCenter::vm_demand`]).
    pub fn vm(&self, h: VmHandle) -> Result<&VmSpec> {
        if self.vm_gen.get(h.index()).copied() != Some(h.generation()) {
            return Err(DcError::StaleHandle(h.index()));
        }
        self.vms
            .get(h.index())
            .and_then(|slot| slot.as_ref())
            .ok_or(DcError::StaleHandle(h.index()))
    }

    /// Translate an external VM label to its arena handle.
    pub fn lookup(&self, id: VmId) -> Option<VmHandle> {
        self.index.get(&id).copied()
    }

    /// Registered VMs in external-label (`VmId`) order — the iteration
    /// order the old `BTreeMap`-keyed state exposed; label-ordered outputs
    /// (e.g. final placements) are built from this.
    pub fn vm_handles(&self) -> impl Iterator<Item = (VmId, VmHandle)> + '_ {
        self.index.iter().map(|(&id, &h)| (id, h))
    }

    /// Current server hosting a VM, if placed. Stale handles (the slot
    /// was recycled under a bumped generation) read `None`, never the new
    /// tenant's placement.
    pub fn placement_of(&self, h: VmHandle) -> Option<ServerHandle> {
        self.vm(h).ok()?;
        self.placement.get(h.index()).copied().flatten()
    }

    /// VMs hosted on a server, in placement order.
    pub fn hosted_vms(&self, server: ServerHandle) -> Result<&[VmHandle]> {
        let s = self.server_slot(server)?;
        Ok(self.hosted[s].as_slice())
    }

    /// Each VM hosted on a server, in placement order, as its label, its
    /// live CPU demand (GHz) and its memory (MiB): what
    /// [`DataCenter::hosted_vms`] read through [`DataCenter::vm`] and
    /// [`DataCenter::vm_demand`] gives, read by slot index without their
    /// generation checks, since hosted lists hold only occupied slots.
    pub fn hosted_loads(
        &self,
        server: ServerHandle,
    ) -> Result<impl Iterator<Item = (VmId, f64, f64)> + '_> {
        let s = self.server_slot(server)?;
        Ok(self.hosted[s].iter().map(|h| {
            let spec = self.vms[h.index()]
                .as_ref()
                .expect("hosted lists hold only occupied slots");
            (spec.id, self.demand[h.index()], spec.memory_mib)
        }))
    }

    // ---- demand / capacity ----------------------------------------------

    /// Update a VM's CPU demand (GHz, floored at 0).
    pub fn set_vm_demand(&mut self, h: VmHandle, ghz: f64) -> Result<()> {
        self.vm(h)?;
        self.demand[h.index()] = ghz.max(0.0);
        Ok(())
    }

    /// Current CPU demand (GHz) of a VM.
    pub fn vm_demand(&self, h: VmHandle) -> Result<f64> {
        self.vm(h)?;
        Ok(self.demand[h.index()])
    }

    /// Mutable access to the whole demand table, indexed by arena slot, for
    /// a per-sample pass that writes every slot. Callers must write
    /// non-negative values; entries of vacant slots are ignored by every
    /// aggregate.
    pub fn demands_mut(&mut self) -> &mut [f64] {
        &mut self.demand
    }

    /// Aggregate CPU demand hosted on a server (GHz).
    pub fn server_demand_ghz(&self, server: ServerHandle) -> Result<f64> {
        Ok(self
            .hosted_vms(server)?
            .iter()
            .map(|h| self.demand[h.index()])
            .sum())
    }

    /// Aggregate memory hosted on a server (MiB).
    pub(crate) fn server_memory_mib(&self, server: ServerHandle) -> Result<f64> {
        Ok(self.hosted_loads(server)?.map(|(_, _, mem)| mem).sum())
    }

    // ---- placement & migration ------------------------------------------

    /// Place an unplaced VM on a server. Wakes the server if sleeping.
    /// Enforces the hard memory constraint; CPU may oversubscribe (it
    /// degrades performance rather than failing).
    pub fn place_vm(&mut self, h: VmHandle, server: ServerHandle) -> Result<()> {
        let vm = self.vm(h)?;
        let (id, vm_mem) = (vm.id, vm.memory_mib);
        let s = self.server_slot(server)?;
        if self.placement[h.index()].is_some() {
            return Err(DcError::BadPlacement(format!(
                "VM {id} is already placed; use migrate_vm"
            )));
        }
        let used = self.server_memory_mib(server)?;
        if used + vm_mem > self.servers[s].spec.memory_mib + 1e-9 {
            return Err(DcError::Invalid(format!(
                "memory overflow on server {s}: {used} + {vm_mem} > {}",
                self.servers[s].spec.memory_mib
            )));
        }
        if matches!(self.servers[s].state, ServerState::Failed) {
            return Err(DcError::ServerFailed(s));
        }
        if !self.servers[s].is_active() {
            self.wake_server(server)?;
        }
        self.placement[h.index()] = Some(server);
        self.hosted[s].push(h);
        Ok(())
    }

    /// Remove a VM from its server (it remains registered, unplaced).
    pub fn unplace_vm(&mut self, h: VmHandle) -> Result<ServerHandle> {
        let id = self.vm(h)?.id;
        let server = self.placement[h.index()]
            .ok_or_else(|| DcError::BadPlacement(format!("VM {id} is not placed")))?;
        self.placement[h.index()] = None;
        self.hosted[server.index()].retain(|&v| v != h);
        Ok(server)
    }

    /// Live-migrate a placed VM to another server.
    pub fn migrate_vm(&mut self, h: VmHandle, to: ServerHandle) -> Result<()> {
        let id = self.vm(h)?.id;
        let from = self
            .placement_of(h)
            .ok_or_else(|| DcError::BadPlacement(format!("VM {id} is not placed")))?;
        if to == from {
            return Err(DcError::BadPlacement(format!(
                "VM {id} is already on server {}",
                to.index()
            )));
        }
        self.unplace_vm(h)?;
        if let Err(e) = self.place_vm(h, to) {
            // Roll back so the datacenter stays consistent.
            self.placement[h.index()] = Some(from);
            self.hosted[from.index()].push(h);
            return Err(e);
        }
        Ok(())
    }

    // ---- power state ------------------------------------------------------

    /// Put an *empty* active server to sleep.
    pub fn sleep_server(&mut self, server: ServerHandle) -> Result<()> {
        let s = self.server_slot(server)?;
        if !self.hosted[s].is_empty() {
            return Err(DcError::Invalid(format!(
                "server {s} still hosts {} VMs",
                self.hosted[s].len()
            )));
        }
        if self.servers[s].is_active() {
            self.servers[s].state = ServerState::Sleeping;
            self.sleep_count += 1;
        }
        Ok(())
    }

    /// Wake a sleeping server (to its maximum frequency; the next DVFS pass
    /// throttles it down). A [`ServerState::Failed`] server cannot be woken
    /// — it must first be repaired via [`DataCenter::recover_server`].
    pub fn wake_server(&mut self, server: ServerHandle) -> Result<()> {
        let s = self.server_slot(server)?;
        if matches!(self.servers[s].state, ServerState::Failed) {
            return Err(DcError::ServerFailed(s));
        }
        if !self.servers[s].is_active() {
            let spec = &self.servers[s].spec;
            let wake_wh = spec.power.static_watts * spec.wake_latency_s / 3600.0;
            let f = spec.max_freq_ghz;
            self.wake_energy_wh += wake_wh;
            self.servers[s].state = ServerState::Active { freq_ghz: f };
            self.wake_count += 1;
        }
        Ok(())
    }

    /// Crash a host: every hosted VM is unplaced (the evacuee handles are
    /// returned in placement order so the caller can re-place them) and the
    /// server enters [`ServerState::Failed`], where it draws no power,
    /// offers no capacity, and rejects wake/placement until
    /// [`DataCenter::recover_server`]. Failing an already-failed server is
    /// a no-op returning no evacuees.
    pub fn fail_server(&mut self, server: ServerHandle) -> Result<Vec<VmHandle>> {
        let s = self.server_slot(server)?;
        if matches!(self.servers[s].state, ServerState::Failed) {
            return Ok(Vec::new());
        }
        let evacuees = std::mem::take(&mut self.hosted[s]);
        for h in &evacuees {
            self.placement[h.index()] = None;
        }
        self.servers[s].state = ServerState::Failed;
        Ok(evacuees)
    }

    /// Repair a failed host: it returns to [`ServerState::Sleeping`] (empty,
    /// wakeable again — no wake energy is charged until something wakes it).
    /// A no-op for servers that are not failed.
    pub fn recover_server(&mut self, server: ServerHandle) -> Result<()> {
        let s = self.server_slot(server)?;
        if matches!(self.servers[s].state, ServerState::Failed) {
            self.servers[s].state = ServerState::Sleeping;
        }
        Ok(())
    }

    /// Whether a server is currently in the [`ServerState::Failed`] state.
    pub fn is_failed(&self, server: ServerHandle) -> Result<bool> {
        let s = self.server_slot(server)?;
        Ok(matches!(self.servers[s].state, ServerState::Failed))
    }

    /// Number of wake transitions so far.
    pub fn wake_count(&self) -> u64 {
        self.wake_count
    }

    /// Number of sleep transitions so far.
    pub fn sleep_count(&self) -> u64 {
        self.sleep_count
    }

    /// Number of DVFS frequency changes applied so far (excluding
    /// wake/sleep transitions, which [`DataCenter::wake_count`] and
    /// [`DataCenter::sleep_count`] track).
    pub fn dvfs_transitions(&self) -> u64 {
        self.freq_transitions
    }

    /// Energy consumed by wake transitions so far (Wh): each wake burns the
    /// server's static power for its wake latency (S3 resume + readiness).
    pub fn wake_energy_wh(&self) -> f64 {
        self.wake_energy_wh
    }

    /// The read-only half of the arbitrator pass for one server: what the
    /// DVFS step would do, computed from the current state without touching
    /// it. Feed the index-ordered results to
    /// [`DataCenter::apply_dvfs_decisions`].
    pub fn dvfs_decision(&self, server: ServerHandle, sleep_idle: bool) -> Result<DvfsDecision> {
        let s = self.server_slot(server)?;
        let srv = &self.servers[s];
        if !srv.is_active() {
            return Ok(DvfsDecision::Hold);
        }
        if self.hosted[s].is_empty() && sleep_idle {
            return Ok(DvfsDecision::Sleep);
        }
        let demand = self.server_demand_ghz(server)?;
        Ok(DvfsDecision::Frequency(
            self.arbitrator.choose_frequency(&srv.spec, demand),
        ))
    }

    /// Commit one decision per server (index order, sequential), updating
    /// transition counters deterministically. Decisions must come from
    /// [`DataCenter::dvfs_decision`] on this same state — the slice length
    /// must equal [`DataCenter::n_servers`].
    pub fn apply_dvfs_decisions(&mut self, decisions: &[DvfsDecision]) -> Result<()> {
        if decisions.len() != self.servers.len() {
            return Err(DcError::Invalid(format!(
                "{} DVFS decisions for {} servers",
                decisions.len(),
                self.servers.len()
            )));
        }
        for (s, d) in decisions.iter().enumerate() {
            match *d {
                DvfsDecision::Hold => {}
                DvfsDecision::Sleep => {
                    self.sleep_server(ServerHandle::from_index(s))?;
                }
                DvfsDecision::Frequency(f) => {
                    if !matches!(
                        self.servers[s].state,
                        ServerState::Active { freq_ghz } if freq_ghz == f
                    ) {
                        self.freq_transitions += 1;
                    }
                    self.servers[s].state = ServerState::Active { freq_ghz: f };
                }
            }
        }
        Ok(())
    }

    /// Run the CPU resource arbitrator on every active server: set each to
    /// the lowest DVFS level covering its aggregate demand, and sleep idle
    /// ones: [`DataCenter::dvfs_decision`] for every server, then
    /// [`DataCenter::apply_dvfs_decisions`].
    pub fn apply_dvfs(&mut self) -> Result<()> {
        let decisions = (0..self.n_servers())
            .map(|s| self.dvfs_decision(ServerHandle::from_index(s), true))
            .collect::<Result<Vec<_>>>()?;
        self.apply_dvfs_decisions(&decisions)
    }

    // ---- power & energy ---------------------------------------------------

    /// Instantaneous power of one server (watts).
    pub fn server_power_watts(&self, server: ServerHandle) -> Result<f64> {
        let demand = self.server_demand_ghz(server)?;
        Ok(self.servers[server.index()].power_watts(demand))
    }

    /// Instantaneous total power (watts) across all servers.
    pub fn total_power_watts(&self) -> f64 {
        (0..self.servers.len())
            .map(|s| {
                self.server_power_watts(ServerHandle::from_index(s))
                    .expect("index in range by construction")
            })
            .sum()
    }

    /// Instantaneous facility power of one server (watts): IT power scaled
    /// by the site's current PUE. With PUE 1.0 (the default) this is
    /// bit-identical to [`DataCenter::server_power_watts`].
    pub fn server_facility_power_watts(&self, server: ServerHandle) -> Result<f64> {
        Ok(self.server_power_watts(server)? * self.server_pue(server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;

    fn dc_with(n_quad: usize) -> DataCenter {
        let mut dc = DataCenter::new();
        for _ in 0..n_quad {
            dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        }
        dc
    }

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn add_and_query_topology() {
        let mut dc = dc_with(2);
        assert_eq!(dc.n_servers(), 2);
        assert!(dc.server(srv(5)).is_err());
        let h = dc.add_vm(VmSpec::new(1, 1.0, 1024.0)).unwrap();
        assert_eq!(dc.n_vms(), 1);
        assert!(dc.add_vm(VmSpec::new(1, 2.0, 512.0)).is_err());
        assert!(dc.vm(VmHandle::from_index(9)).is_err());
        assert_eq!(dc.placement_of(h), None);
        assert_eq!(dc.lookup(VmId(1)), Some(h));
        assert_eq!(dc.lookup(VmId(9)), None);
    }

    #[test]
    fn placement_and_demand_aggregation() {
        let mut dc = dc_with(1);
        let a = dc.add_vm(VmSpec::new(1, 1.5, 1024.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 2.0, 2048.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(0)).unwrap();
        assert_eq!(dc.server_demand_ghz(srv(0)).unwrap(), 3.5);
        assert_eq!(dc.server_memory_mib(srv(0)).unwrap(), 3072.0);
        dc.set_vm_demand(a, 11.0).unwrap();
        assert_eq!(dc.vm_demand(a).unwrap(), 11.0);
        assert_eq!(dc.server_demand_ghz(srv(0)).unwrap(), 13.0);
        let loads: Vec<_> = dc.hosted_loads(srv(0)).unwrap().collect();
        assert_eq!(loads, [(VmId(1), 11.0, 1024.0), (VmId(2), 2.0, 2048.0)]);
        assert!(dc.hosted_loads(srv(1)).is_err());
        // Double placement rejected.
        assert!(dc.place_vm(a, srv(0)).is_err());
    }

    #[test]
    fn memory_constraint_enforced() {
        let mut dc = dc_with(1); // 16384 MiB
        let a = dc.add_vm(VmSpec::new(1, 0.5, 16000.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 0.5, 1000.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        let err = dc.place_vm(b, srv(0)).unwrap_err();
        assert!(matches!(err, DcError::Invalid(_)));
    }

    #[test]
    fn placing_on_sleeping_server_wakes_it() {
        let mut dc = DataCenter::new();
        let s = dc.add_server(Server::asleep(ServerSpec::type_dual_2ghz()));
        let h = dc.add_vm(VmSpec::new(1, 1.0, 512.0)).unwrap();
        assert!(dc.active_servers().is_empty());
        dc.place_vm(h, s).unwrap();
        assert_eq!(dc.active_servers(), vec![s]);
        assert_eq!(dc.wake_count(), 1);
    }

    #[test]
    fn migration_moves_vm_and_rejects_bad_moves() {
        let mut dc = dc_with(2);
        let h = dc.add_vm(VmSpec::new(1, 1.0, 2000.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        dc.migrate_vm(h, srv(1)).unwrap();
        assert_eq!(dc.placement_of(h), Some(srv(1)));
        assert!(dc.hosted_vms(srv(0)).unwrap().is_empty());
        assert_eq!(dc.hosted_vms(srv(1)).unwrap(), &[h]);
        // Self-migration rejected.
        assert!(dc.migrate_vm(h, srv(1)).is_err());
        // Unplaced VM rejected.
        let h2 = dc.add_vm(VmSpec::new(2, 1.0, 512.0)).unwrap();
        assert!(dc.migrate_vm(h2, srv(0)).is_err());
    }

    #[test]
    fn migration_rolls_back_on_destination_overflow() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz())); // 16 GiB
        dc.add_server(Server::active(ServerSpec::type_dual_1_5ghz())); // 4 GiB
        let h = dc.add_vm(VmSpec::new(1, 1.0, 8000.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        assert!(dc.migrate_vm(h, srv(1)).is_err());
        // VM must still be on server 0.
        assert_eq!(dc.placement_of(h), Some(srv(0)));
        assert_eq!(dc.hosted_vms(srv(0)).unwrap(), &[h]);
    }

    #[test]
    fn sleep_requires_empty_server() {
        let mut dc = dc_with(1);
        let h = dc.add_vm(VmSpec::new(1, 1.0, 512.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        assert!(dc.sleep_server(srv(0)).is_err());
        dc.unplace_vm(h).unwrap();
        dc.sleep_server(srv(0)).unwrap();
        assert!(dc.active_servers().is_empty());
        assert_eq!(dc.sleep_count(), 1);
        // Sleeping a sleeping server is a no-op.
        dc.sleep_server(srv(0)).unwrap();
        assert_eq!(dc.sleep_count(), 1);
    }

    #[test]
    fn dvfs_throttles_and_sleeps_idle() {
        let mut dc = dc_with(2);
        let h = dc.add_vm(VmSpec::new(1, 3.5, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        dc.apply_dvfs().unwrap();
        // Server 0: demand 3.5 needs 3.5 / 0.95 = 3.68 GHz under the default
        // 5 % headroom => 1.0 GHz level (capacity 4.0).
        match dc.server(srv(0)).unwrap().state {
            ServerState::Active { freq_ghz } => assert_eq!(freq_ghz, 1.0),
            _ => panic!("server 0 should stay active"),
        }
        // Server 1 idle => asleep.
        assert!(!dc.server(srv(1)).unwrap().is_active());
    }

    #[test]
    fn two_phase_dvfs_matches_one_shot() {
        let mut one_shot = dc_with(3);
        let mut two_phase = one_shot.clone();
        for (i, dc) in [&mut one_shot, &mut two_phase].into_iter().enumerate() {
            let _ = i;
            let a = dc.add_vm(VmSpec::new(1, 3.5, 1024.0)).unwrap();
            let b = dc.add_vm(VmSpec::new(2, 7.0, 1024.0)).unwrap();
            dc.place_vm(a, srv(0)).unwrap();
            dc.place_vm(b, srv(1)).unwrap();
        }
        one_shot.apply_dvfs().unwrap();
        let decisions = (0..two_phase.n_servers())
            .map(|s| two_phase.dvfs_decision(srv(s), true).unwrap())
            .collect::<Vec<_>>();
        two_phase.apply_dvfs_decisions(&decisions).unwrap();
        for s in 0..3 {
            assert_eq!(
                one_shot.server(srv(s)).unwrap().state,
                two_phase.server(srv(s)).unwrap().state,
                "server {s}"
            );
        }
        assert_eq!(one_shot.dvfs_transitions(), two_phase.dvfs_transitions());
        assert_eq!(one_shot.sleep_count(), two_phase.sleep_count());
    }

    #[test]
    fn power_accounting() {
        let mut dc = dc_with(1);
        let h = dc.add_vm(VmSpec::new(1, 6.0, 1024.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        // Active at 3 GHz, u = 0.5: P = 190 + 130*0.5 = 255 W.
        assert!((dc.total_power_watts() - 255.0).abs() < 1e-9);
    }

    #[test]
    fn consolidation_saves_energy_end_to_end() {
        // Two lightly loaded servers vs one consolidated + one asleep.
        let mut spread = dc_with(2);
        for i in 0..2u64 {
            let h = spread.add_vm(VmSpec::new(i, 1.0, 1024.0)).unwrap();
            spread.place_vm(h, srv(i as usize)).unwrap();
        }
        spread.apply_dvfs().unwrap();
        let mut packed = dc_with(2);
        for i in 0..2u64 {
            let h = packed.add_vm(VmSpec::new(i, 1.0, 1024.0)).unwrap();
            packed.place_vm(h, srv(0)).unwrap();
        }
        packed.apply_dvfs().unwrap();
        assert!(
            packed.total_power_watts() < spread.total_power_watts() - 100.0,
            "packing should save the static power of one server: {} vs {}",
            packed.total_power_watts(),
            spread.total_power_watts()
        );
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;
    use crate::server::ServerSpec;

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn stale_handle_is_rejected_everywhere_after_removal() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        let h = dc.add_vm(VmSpec::new(7, 1.0, 512.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        let spec = dc.remove_vm(h).unwrap();
        assert_eq!(spec.id, VmId(7));
        assert_eq!(dc.n_vms(), 0);
        assert!(dc.hosted_vms(srv(0)).unwrap().is_empty(), "unplaced first");
        for err in [
            dc.vm(h).unwrap_err(),
            dc.vm_demand(h).unwrap_err(),
            dc.remove_vm(h).unwrap_err(),
        ] {
            assert_eq!(err, DcError::StaleHandle(h.index()));
        }
        assert!(matches!(
            dc.set_vm_demand(h, 2.0),
            Err(DcError::StaleHandle(_))
        ));
        assert!(matches!(
            dc.place_vm(h, srv(0)),
            Err(DcError::StaleHandle(_))
        ));
        assert!(matches!(dc.unplace_vm(h), Err(DcError::StaleHandle(_))));
        assert!(matches!(
            dc.migrate_vm(h, srv(0)),
            Err(DcError::StaleHandle(_))
        ));
        assert_eq!(dc.placement_of(h), None);
    }

    #[test]
    fn removed_slots_are_recycled_under_a_new_generation() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        let a = dc.add_vm(VmSpec::new(1, 1.0, 512.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.0, 512.0)).unwrap();
        dc.remove_vm(a).unwrap();
        // The next arrival reuses slot 0 under generation 1; the arena does
        // not grow.
        let a2 = dc.add_vm(VmSpec::new(1, 2.0, 512.0)).unwrap();
        assert_ne!(a2, a);
        assert_eq!(a2.index(), a.index(), "freed slot is reused");
        assert_eq!(a2.generation(), a.generation() + 1);
        assert_eq!(dc.vm_slots(), 2, "arena stays at its high-water mark");
        assert_eq!(dc.n_vms(), 2);
        // The stale handle still refuses to alias the new tenant.
        assert_eq!(dc.vm(a).unwrap_err(), DcError::StaleHandle(a.index()));
        assert_eq!(dc.lookup(VmId(1)), Some(a2));
        assert_eq!(dc.vm_demand(a2).unwrap(), 2.0);
        // Untouched VM is unaffected.
        assert_eq!(dc.vm(b).unwrap().id, VmId(2));
        // Removing the recycled tenant frees the slot again for a third
        // generation; the generation-1 handle goes stale in turn.
        dc.remove_vm(a2).unwrap();
        let a3 = dc.add_vm(VmSpec::new(11, 3.0, 512.0)).unwrap();
        assert_eq!(a3.index(), a.index());
        assert_eq!(a3.generation(), 2);
        assert!(dc.vm(a2).is_err());
        assert_eq!(dc.vm(a3).unwrap().id, VmId(11));
        assert_eq!(dc.vm_slots(), 2);
    }

    #[test]
    fn label_order_iteration_matches_btreemap_semantics() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        // Insert labels out of order; iteration must come back sorted,
        // exactly as the old BTreeMap-keyed state iterated.
        for id in [9u64, 2, 40, 17] {
            dc.add_vm(VmSpec::new(id, 0.5, 256.0)).unwrap();
        }
        let labels: Vec<u64> = dc.vm_handles().map(|(id, _)| id.0).collect();
        assert_eq!(labels, vec![2, 9, 17, 40]);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::server::ServerSpec;

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn failing_a_host_evacuates_and_rejects_wake_and_placement() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        let a = dc.add_vm(VmSpec::new(1, 1.0, 512.0)).unwrap();
        let b = dc.add_vm(VmSpec::new(2, 1.5, 512.0)).unwrap();
        dc.place_vm(a, srv(0)).unwrap();
        dc.place_vm(b, srv(0)).unwrap();
        let evacuees = dc.fail_server(srv(0)).unwrap();
        assert_eq!(evacuees, vec![a, b], "placement order preserved");
        assert!(dc.is_failed(srv(0)).unwrap());
        assert_eq!(dc.placement_of(a), None);
        assert_eq!(dc.placement_of(b), None);
        assert!(dc.hosted_vms(srv(0)).unwrap().is_empty());
        // A failed host draws no power and offers no capacity.
        assert_eq!(dc.server_power_watts(srv(0)).unwrap(), 0.0);
        assert_eq!(dc.server(srv(0)).unwrap().capacity_ghz(), 0.0);
        assert!(!dc.server(srv(0)).unwrap().is_active());
        // It rejects wake and placement until recovered.
        assert_eq!(
            dc.wake_server(srv(0)).unwrap_err(),
            DcError::ServerFailed(0)
        );
        assert_eq!(
            dc.place_vm(a, srv(0)).unwrap_err(),
            DcError::ServerFailed(0)
        );
        // Failing again is a no-op with no evacuees.
        assert!(dc.fail_server(srv(0)).unwrap().is_empty());
    }

    #[test]
    fn recovery_returns_the_host_to_the_sleeping_pool() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_dual_2ghz()));
        dc.fail_server(srv(0)).unwrap();
        let wake_wh_before = dc.wake_energy_wh();
        dc.recover_server(srv(0)).unwrap();
        assert!(!dc.is_failed(srv(0)).unwrap());
        assert_eq!(dc.server(srv(0)).unwrap().state, ServerState::Sleeping);
        assert_eq!(
            dc.wake_energy_wh(),
            wake_wh_before,
            "recovery is not a wake"
        );
        // Recovering a healthy server is a no-op.
        dc.recover_server(srv(0)).unwrap();
        assert_eq!(dc.server(srv(0)).unwrap().state, ServerState::Sleeping);
        // The recovered host is wakeable and placeable again.
        let h = dc.add_vm(VmSpec::new(1, 1.0, 512.0)).unwrap();
        dc.place_vm(h, srv(0)).unwrap();
        assert!(dc.server(srv(0)).unwrap().is_active());
    }

    #[test]
    fn dvfs_pass_holds_failed_servers() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        let h = dc.add_vm(VmSpec::new(1, 2.0, 512.0)).unwrap();
        dc.place_vm(h, srv(1)).unwrap();
        dc.fail_server(srv(0)).unwrap();
        assert_eq!(
            dc.dvfs_decision(srv(0), true).unwrap(),
            DvfsDecision::Hold,
            "failed servers are held, never slept or retuned"
        );
        dc.apply_dvfs().unwrap();
        assert!(
            dc.is_failed(srv(0)).unwrap(),
            "DVFS pass leaves failure intact"
        );
        // Migration into a failed host rolls back cleanly.
        let err = dc.migrate_vm(h, srv(0)).unwrap_err();
        assert_eq!(err, DcError::ServerFailed(0));
        assert_eq!(dc.placement_of(h), Some(srv(1)));
    }
}

#[cfg(test)]
mod site_tests {
    use super::*;
    use crate::server::ServerSpec;

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    /// Total facility power, the index-order fold of the per-server figure.
    fn total_facility_w(dc: &DataCenter) -> f64 {
        (0..dc.n_servers())
            .map(|s| dc.server_facility_power_watts(srv(s)).unwrap())
            .sum()
    }

    #[test]
    fn default_site_is_zero_with_unit_pue() {
        let mut dc = DataCenter::new();
        assert_eq!(dc.n_sites(), 0);
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        assert_eq!(dc.site_pue, [1.0]);
        assert_eq!(dc.server_site(srv(0)), 0);
        assert_eq!(dc.server_pue(srv(0)), 1.0);
        // With PUE 1.0 facility power is bit-identical to IT power.
        let it = dc.server_power_watts(srv(0)).unwrap();
        let fac = dc.server_facility_power_watts(srv(0)).unwrap();
        assert_eq!(it.to_bits(), fac.to_bits());
        assert_eq!(
            dc.total_power_watts().to_bits(),
            total_facility_w(&dc).to_bits()
        );
    }

    #[test]
    fn site_pue_scales_facility_power_only() {
        let mut dc = DataCenter::new();
        dc.add_server_in_site(Server::active(ServerSpec::type_quad_3ghz()), 0)
            .unwrap();
        dc.add_server_in_site(Server::active(ServerSpec::type_quad_3ghz()), 1)
            .unwrap();
        assert_eq!(dc.n_sites(), 2);
        dc.set_site_pue(1, 1.5).unwrap();
        let it0 = dc.server_power_watts(srv(0)).unwrap();
        let it1 = dc.server_power_watts(srv(1)).unwrap();
        assert_eq!(it0, it1, "identical hardware, identical IT power");
        assert_eq!(dc.server_facility_power_watts(srv(0)).unwrap(), it0);
        assert_eq!(dc.server_facility_power_watts(srv(1)).unwrap(), it1 * 1.5);
        assert_eq!(total_facility_w(&dc), it0 + it1 * 1.5);
        // IT-power accessors are untouched by PUE.
        assert_eq!(dc.total_power_watts(), it0 + it1);
    }

    #[test]
    fn set_site_pue_validates_site_and_value() {
        let mut dc = DataCenter::new();
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
        assert!(dc.set_site_pue(3, 1.2).is_err(), "unknown site");
        assert!(dc.set_site_pue(0, 0.8).is_err(), "PUE < 1 rejected");
        assert!(dc.set_site_pue(0, f64::NAN).is_err());
        assert!(dc.set_site_pue(0, f64::INFINITY).is_err());
        dc.set_site_pue(0, 1.35).unwrap();
        assert_eq!(dc.server_pue(srv(0)), 1.35);
    }
}

#[cfg(test)]
mod accounting_tests {
    use super::*;
    use crate::server::ServerSpec;

    fn srv(i: usize) -> ServerHandle {
        ServerHandle::from_index(i)
    }

    #[test]
    fn wake_energy_accrues_per_transition() {
        let mut dc = DataCenter::new();
        let spec = ServerSpec::type_quad_3ghz();
        let expected = spec.power.static_watts * spec.wake_latency_s / 3600.0;
        dc.add_server(Server::asleep(spec));
        assert_eq!(dc.wake_energy_wh(), 0.0);
        dc.wake_server(srv(0)).unwrap();
        assert!((dc.wake_energy_wh() - expected).abs() < 1e-12);
        // Waking an already-active server adds nothing.
        dc.wake_server(srv(0)).unwrap();
        assert!((dc.wake_energy_wh() - expected).abs() < 1e-12);
        // Sleep and wake again: a second transition is charged.
        dc.sleep_server(srv(0)).unwrap();
        dc.wake_server(srv(0)).unwrap();
        assert!((dc.wake_energy_wh() - 2.0 * expected).abs() < 1e-12);
    }
}
