//! Property gate for the slot-recycling free list: under *arbitrary*
//! create/destroy/create interleavings,
//!
//! 1. no stale handle is ever resurrected — every handle minted for a
//!    removed VM keeps failing with `DcError::StaleHandle`, even after its
//!    slot hosts a new tenant under a bumped generation;
//! 2. the arena never grows past its high-water live population (vacant
//!    slots are reused before the arena appends);
//! 3. label-index iteration stays strictly ascending by `VmId` throughout.
//!
//! Failures replay with `VDC_CHECK_SEED`.

use std::cell::Cell;
use vdc_check::{check, from_fn, prop_assert, prop_assert_eq, CaseResult, Gen, TestRng};
use vdc_dcsim::{DataCenter, DcError, Server, ServerHandle, ServerSpec, VmId, VmSpec};

const CASES: u32 = 48;

/// A live demand for `VmId(label)` that differs from its registration
/// demand and from every other label's, so a read of the wrong slot or of
/// the spec shows.
fn live_demand(label: u64) -> f64 {
    1.0 + 0.25 * label as f64
}

/// Every server's `hosted_loads` equals its `hosted_vms` read through the
/// checked accessors `vm()` and `vm_demand()`. Counts into `recycled` the
/// hosted VMs whose slot an earlier tenant held.
fn hosted_loads_match(
    dc: &DataCenter,
    servers: &[ServerHandle],
    recycled: &Cell<u32>,
) -> CaseResult {
    for &srv in servers {
        let hosted = dc.hosted_vms(srv).expect("valid server");
        let mut want = Vec::with_capacity(hosted.len());
        for &h in hosted {
            let spec = dc.vm(h).expect("hosted handle is live");
            let demand = dc.vm_demand(h).expect("hosted handle is live");
            want.push((spec.id, demand, spec.memory_mib));
            if h.generation() > 0 {
                recycled.set(recycled.get() + 1);
            }
        }
        let got: Vec<(VmId, f64, f64)> = dc.hosted_loads(srv).expect("valid server").collect();
        prop_assert_eq!(got, want, "hosted_loads of server {}", srv.index());
    }
    Ok(())
}

/// One lifecycle script: positive label = register `VmId(label)`, negative
/// = remove a pseudo-randomly chosen live VM (the value picks which).
#[derive(Debug, Clone)]
struct Script {
    ops: Vec<i64>,
}

fn script() -> impl Gen<Value = Script> {
    from_fn(|rng: &mut TestRng| {
        let n_ops = rng.usize_in(1, 60);
        let ops = (0..n_ops)
            .map(|_| {
                // Removal-heavy mix over a small label space: plenty of
                // destroy/create collisions on the same slots.
                if rng.usize_in(0, 2) == 0 {
                    -(rng.u64_in(0, 1 << 20) as i64) - 1
                } else {
                    rng.u64_in(0, 10) as i64
                }
            })
            .collect();
        Script { ops }
    })
}

#[test]
fn free_list_never_resurrects_and_never_grows_past_high_water() {
    check(CASES, &script(), |s| {
        let mut dc = DataCenter::new();
        let mut live = std::collections::BTreeMap::new();
        let mut dead_handles = Vec::new();
        let mut high_water = 0usize;
        for &op in &s.ops {
            if op >= 0 {
                let id = VmId(op as u64);
                if let Ok(handle) = dc.add_vm(VmSpec::new(id.0, 0.5, 256.0)) {
                    // A recycled slot must come back under a strictly
                    // higher generation than any dead handle it had.
                    for dead in dead_handles
                        .iter()
                        .filter(|h: &&vdc_dcsim::VmHandle| h.index() == handle.index())
                    {
                        prop_assert!(
                            handle.generation() > dead.generation(),
                            "slot {} reissued at generation {} <= dead generation {}",
                            handle.index(),
                            handle.generation(),
                            dead.generation()
                        );
                    }
                    live.insert(id, handle);
                    high_water = high_water.max(live.len());
                }
            } else if !live.is_empty() {
                let pick = (-op - 1) as usize % live.len();
                let id = *live.keys().nth(pick).expect("pick in range");
                let handle = live.remove(&id).expect("tracked live VM");
                let spec = dc.remove_vm(handle).expect("live handle removes cleanly");
                prop_assert_eq!(spec.id, id, "removed the VM the handle named");
                dead_handles.push(handle);
            }
            // (2) Arena length never exceeds the high-water live count.
            prop_assert!(
                dc.vm_slots() <= high_water,
                "arena grew to {} slots with high-water population {}",
                dc.vm_slots(),
                high_water
            );
            // (1) Every dead handle stays dead, whatever now occupies its
            // slot.
            for dead in &dead_handles {
                prop_assert_eq!(
                    dc.vm(*dead).unwrap_err(),
                    DcError::StaleHandle(dead.index()),
                    "stale handle {:?} resurrected",
                    dead
                );
                prop_assert_eq!(dc.placement_of(*dead), None);
            }
            // (3) Label iteration stays strictly ascending by VmId and in
            // sync with the reference map.
            let order: Vec<VmId> = dc.vm_handles().map(|(id, _)| id).collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "label iteration not strictly ascending: {:?}",
                order
            );
            let reference: Vec<VmId> = live.keys().copied().collect();
            prop_assert_eq!(&order, &reference, "live set diverged");
            prop_assert_eq!(dc.n_vms(), live.len());
        }
        // Live handles still resolve to their own specs at the end.
        for (&id, &handle) in &live {
            prop_assert_eq!(dc.vm(handle).expect("live handle resolves").id, id);
        }
        Ok(())
    });
}

/// One op of the migration/churn interleaving script (see
/// `rebalance_migrations_interleaved_with_recycling_stay_consistent`).
#[derive(Debug, Clone)]
enum MixOp {
    /// Register `VmId(label)` and place it on the first host with room.
    Add(u64),
    /// Remove a pseudo-randomly chosen live VM, freeing its slot.
    Remove(u64),
    /// Rebalance-style move: migrate a pseudo-randomly chosen live VM to
    /// the given server (the cross-pod rebalance and drain passes issue
    /// exactly these one-VM moves).
    Migrate(u64, usize),
    /// Replay a dead handle through `migrate_vm` — must fail stale, even
    /// when the slot already hosts a new tenant.
    MigrateStale(u64, usize),
}

#[derive(Debug, Clone)]
struct MixScript {
    ops: Vec<MixOp>,
}

const MIX_SERVERS: usize = 3;

fn mix_script() -> impl Gen<Value = MixScript> {
    from_fn(|rng: &mut TestRng| {
        let n_ops = rng.usize_in(1, 80);
        let ops = (0..n_ops)
            .map(|_| match rng.usize_in(0, 9) {
                0..=3 => MixOp::Add(rng.u64_in(0, 12)),
                4 | 5 => MixOp::Remove(rng.u64_in(0, 1 << 20)),
                6 | 7 => MixOp::Migrate(rng.u64_in(0, 1 << 20), rng.usize_in(0, MIX_SERVERS - 1)),
                _ => MixOp::MigrateStale(rng.u64_in(0, 1 << 20), rng.usize_in(0, MIX_SERVERS - 1)),
            })
            .collect();
        MixScript { ops }
    })
}

/// Rebalance-style migrations interleaved with slot recycling: under
/// arbitrary add/remove/migrate scripts over a memory-tight fleet,
///
/// 1. a committed migration moves exactly the named VM to the target; a
///    refused one (same host, memory overflow) rolls back to the pre-call
///    placement;
/// 2. dead handles fail `migrate_vm` with `DcError::StaleHandle` forever,
///    even after their slot is recycled for a new tenant — a stale
///    rebalance move can never drag the new occupant anywhere;
/// 3. the hosted lists stay exact: every placed VM appears on exactly one
///    host, unplaced and removed VMs on none, and the arena never grows
///    past its high-water live population;
/// 4. each server's `hosted_loads` reads what its `hosted_vms` read
///    through the checked accessors give, in recycled slots too.
#[test]
fn rebalance_migrations_interleaved_with_recycling_stay_consistent() {
    let recycled = Cell::new(0u32);
    check(CASES, &mix_script(), |s| {
        let mut dc = DataCenter::new();
        // Small hosts (4096 MiB) and 1024 MiB VMs: four tenants fill a
        // host, so migrations regularly bounce off the memory constraint
        // and exercise the rollback path.
        let servers: Vec<ServerHandle> = (0..MIX_SERVERS)
            .map(|_| dc.add_server(Server::active(ServerSpec::type_dual_1_5ghz())))
            .collect();
        let mut live = std::collections::BTreeMap::new();
        let mut placed_on: std::collections::BTreeMap<VmId, Option<usize>> =
            std::collections::BTreeMap::new();
        let mut dead_handles: Vec<vdc_dcsim::VmHandle> = Vec::new();
        let mut high_water = 0usize;

        for op in &s.ops {
            match *op {
                MixOp::Add(label) => {
                    let id = VmId(label);
                    if let Ok(handle) = dc.add_vm(VmSpec::new(id.0, 0.5, 1024.0)) {
                        dc.set_vm_demand(handle, live_demand(label))
                            .expect("live handle");
                        for dead in dead_handles.iter().filter(|h| h.index() == handle.index()) {
                            prop_assert!(
                                handle.generation() > dead.generation(),
                                "slot {} reissued at generation {} <= dead generation {}",
                                handle.index(),
                                handle.generation(),
                                dead.generation()
                            );
                        }
                        let mut host = None;
                        for (i, &srv) in servers.iter().enumerate() {
                            if dc.place_vm(handle, srv).is_ok() {
                                host = Some(i);
                                break;
                            }
                        }
                        live.insert(id, handle);
                        placed_on.insert(id, host);
                        high_water = high_water.max(live.len());
                    }
                }
                MixOp::Remove(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = pick as usize % live.len();
                    let id = *live.keys().nth(idx).expect("pick in range");
                    let handle = live.remove(&id).expect("tracked live VM");
                    placed_on.remove(&id);
                    let spec = dc.remove_vm(handle).expect("live handle removes cleanly");
                    prop_assert_eq!(spec.id, id, "removed the VM the handle named");
                    dead_handles.push(handle);
                }
                MixOp::Migrate(pick, target) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = pick as usize % live.len();
                    let id = *live.keys().nth(idx).expect("pick in range");
                    let handle = live[&id];
                    let before = placed_on[&id];
                    match dc.migrate_vm(handle, servers[target]) {
                        Ok(()) => {
                            prop_assert!(before.is_some(), "migrated an unplaced VM");
                            prop_assert_eq!(
                                dc.placement_of(handle),
                                Some(servers[target]),
                                "migrated VM is on the target"
                            );
                            placed_on.insert(id, Some(target));
                        }
                        Err(_) => {
                            // Unplaced VM, same-host move, or memory
                            // overflow on the target: the placement must
                            // be exactly what it was before the call.
                            prop_assert_eq!(
                                dc.placement_of(handle).map(|s| s.index()),
                                before.map(|i| servers[i].index()),
                                "refused migration did not roll back"
                            );
                        }
                    }
                }
                MixOp::MigrateStale(pick, target) => {
                    if dead_handles.is_empty() {
                        continue;
                    }
                    let dead = dead_handles[pick as usize % dead_handles.len()];
                    prop_assert_eq!(
                        dc.migrate_vm(dead, servers[target]).unwrap_err(),
                        DcError::StaleHandle(dead.index()),
                        "stale handle {:?} accepted a migration",
                        dead
                    );
                }
            }
            prop_assert!(
                dc.vm_slots() <= high_water,
                "arena grew to {} slots with high-water population {}",
                dc.vm_slots(),
                high_water
            );
            // Hosted lists stay exact: placed VMs on exactly their host,
            // nobody else anywhere.
            let mut hosted_seen = std::collections::BTreeMap::new();
            for (i, &srv) in servers.iter().enumerate() {
                for &h in dc.hosted_vms(srv).expect("valid server") {
                    let id = dc.vm(h).expect("hosted handle is live").id;
                    prop_assert!(
                        hosted_seen.insert(id, i).is_none(),
                        "VM {:?} hosted on two servers",
                        id
                    );
                }
            }
            for (&id, &host) in &placed_on {
                prop_assert_eq!(
                    hosted_seen.get(&id).copied(),
                    host,
                    "hosted list diverged for {:?}",
                    id
                );
            }
            prop_assert_eq!(hosted_seen.len(), placed_on.values().flatten().count());
            hosted_loads_match(&dc, &servers, &recycled)?;
            for dead in &dead_handles {
                prop_assert_eq!(
                    dc.vm(*dead).unwrap_err(),
                    DcError::StaleHandle(dead.index()),
                    "stale handle {:?} resurrected",
                    dead
                );
                prop_assert_eq!(dc.placement_of(*dead), None);
            }
        }
        Ok(())
    });
    assert!(recycled.get() > 0, "no case hosted a VM in a recycled slot");
}

/// One fault-script op over a small placed fleet.
#[derive(Debug, Clone)]
enum FaultOp {
    /// Register `VmId(label)` and place it on the first willing host.
    Add(u64),
    /// Remove a pseudo-randomly chosen live VM (the value picks which).
    Remove(u64),
    /// Crash the given server, evacuating its tenants.
    Crash(usize),
    /// Repair the given server (no-op unless failed).
    Recover(usize),
}

#[derive(Debug, Clone)]
struct FaultScript {
    ops: Vec<FaultOp>,
}

const N_SERVERS: usize = 4;

fn fault_script() -> impl Gen<Value = FaultScript> {
    from_fn(|rng: &mut TestRng| {
        let n_ops = rng.usize_in(1, 80);
        let ops = (0..n_ops)
            .map(|_| match rng.usize_in(0, 9) {
                0..=3 => FaultOp::Add(rng.u64_in(0, 10)),
                4 | 5 => FaultOp::Remove(rng.u64_in(0, 1 << 20)),
                6 | 7 => FaultOp::Crash(rng.usize_in(0, N_SERVERS - 1)),
                _ => FaultOp::Recover(rng.usize_in(0, N_SERVERS - 1)),
            })
            .collect();
        FaultScript { ops }
    })
}

/// Crash/evacuate/recover interleaved with VM churn: under arbitrary fault
/// scripts,
///
/// 1. every evacuation is exactly-once — `fail_server` returns precisely
///    the VMs the model says were hosted there, and each evacuee ends up
///    either re-placed on a healthy host or counted stranded (unplaced),
///    never duplicated and never lost;
/// 2. failed hosts reject placements with `DcError::ServerFailed` until
///    repaired, and repairing makes them placeable again;
/// 3. no stale handle is ever resurrected, and label-index iteration stays
///    strictly ascending, exactly as in the churn-only property above;
/// 4. each server's `hosted_loads` reads what its `hosted_vms` read
///    through the checked accessors give, through crashes and recoveries.
#[test]
fn crash_recover_scripts_never_lose_or_duplicate_vms() {
    let recycled = Cell::new(0u32);
    check(CASES, &fault_script(), |s| {
        let mut dc = DataCenter::new();
        let servers: Vec<ServerHandle> = (0..N_SERVERS)
            .map(|_| dc.add_server(Server::active(ServerSpec::type_quad_3ghz())))
            .collect();
        // Model state: live VMs, where each is placed (None = stranded),
        // and every handle ever invalidated by removal.
        let mut live = std::collections::BTreeMap::new();
        let mut placed_on: std::collections::BTreeMap<VmId, Option<usize>> =
            std::collections::BTreeMap::new();
        let mut failed = [false; N_SERVERS];
        let mut dead_handles: Vec<vdc_dcsim::VmHandle> = Vec::new();

        // Re-place one unplaced VM on the first healthy host with memory
        // room; returns its new host, or None (stranded).
        fn replace(
            dc: &mut DataCenter,
            servers: &[ServerHandle],
            failed: &[bool; N_SERVERS],
            h: vdc_dcsim::VmHandle,
        ) -> Option<usize> {
            for (i, &srv) in servers.iter().enumerate() {
                if failed[i] {
                    continue;
                }
                if dc.place_vm(h, srv).is_ok() {
                    return Some(i);
                }
            }
            None
        }

        for op in &s.ops {
            match *op {
                FaultOp::Add(label) => {
                    let id = VmId(label);
                    if let Ok(handle) = dc.add_vm(VmSpec::new(id.0, 0.5, 1024.0)) {
                        dc.set_vm_demand(handle, live_demand(label))
                            .expect("live handle");
                        let host = replace(&mut dc, &servers, &failed, handle);
                        live.insert(id, handle);
                        placed_on.insert(id, host);
                    }
                }
                FaultOp::Remove(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = pick as usize % live.len();
                    let id = *live.keys().nth(idx).expect("pick in range");
                    let handle = live.remove(&id).expect("tracked live VM");
                    placed_on.remove(&id);
                    let spec = dc.remove_vm(handle).expect("live handle removes cleanly");
                    prop_assert_eq!(spec.id, id, "removed the VM the handle named");
                    dead_handles.push(handle);
                }
                FaultOp::Crash(srv) => {
                    let evacuees = dc.fail_server(servers[srv]).expect("valid server handle");
                    // Exactly-once: the evacuee label set is precisely the
                    // model's set of VMs placed on this host (empty when
                    // the host was already failed).
                    let mut got: Vec<VmId> = evacuees
                        .iter()
                        .map(|&h| dc.vm(h).expect("evacuee is live").id)
                        .collect();
                    got.sort();
                    let mut expected: Vec<VmId> = placed_on
                        .iter()
                        .filter(|&(_, &host)| !failed[srv] && host == Some(srv))
                        .map(|(&id, _)| id)
                        .collect();
                    expected.sort();
                    prop_assert_eq!(&got, &expected, "evacuation set mismatch on crash");
                    failed[srv] = true;
                    prop_assert!(dc.is_failed(servers[srv]).expect("valid handle"));
                    // A crashed host rejects new placements outright.
                    if let Some((&id, _)) = live.iter().next() {
                        if placed_on[&id].is_none() {
                            prop_assert_eq!(
                                dc.place_vm(live[&id], servers[srv]).unwrap_err(),
                                DcError::ServerFailed(srv),
                                "failed host accepted a placement"
                            );
                        }
                    }
                    // Each evacuee is re-placed once or counted stranded.
                    for &h in &evacuees {
                        let id = dc.vm(h).expect("evacuee is live").id;
                        let host = replace(&mut dc, &servers, &failed, h);
                        placed_on.insert(id, host);
                    }
                }
                FaultOp::Recover(srv) => {
                    dc.recover_server(servers[srv]).expect("valid handle");
                    prop_assert!(!dc.is_failed(servers[srv]).expect("valid handle"));
                    failed[srv] = false;
                    // The repaired host rejoins the pool: stranded VMs are
                    // retried, in ascending label order, exactly once each.
                    let stranded: Vec<VmId> = placed_on
                        .iter()
                        .filter(|&(_, &host)| host.is_none())
                        .map(|(&id, _)| id)
                        .collect();
                    for id in stranded {
                        let host = replace(&mut dc, &servers, &failed, live[&id]);
                        placed_on.insert(id, host);
                    }
                }
            }
            // Placements agree with the model, and no live VM sits on a
            // failed host.
            for (&id, &handle) in &live {
                let actual = dc.placement_of(handle).map(|s| s.index());
                prop_assert_eq!(actual, placed_on[&id], "placement diverged for {:?}", id);
                if let Some(host) = actual {
                    prop_assert!(!failed[host], "VM {:?} left on failed host {}", id, host);
                }
            }
            // Dead handles stay dead through crash/recover cycles.
            for dead in &dead_handles {
                prop_assert_eq!(
                    dc.vm(*dead).unwrap_err(),
                    DcError::StaleHandle(dead.index()),
                    "stale handle {:?} resurrected",
                    dead
                );
                prop_assert_eq!(dc.placement_of(*dead), None);
            }
            // Label iteration stays strictly ascending and in sync.
            let order: Vec<VmId> = dc.vm_handles().map(|(id, _)| id).collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "label iteration not strictly ascending: {:?}",
                order
            );
            let reference: Vec<VmId> = live.keys().copied().collect();
            prop_assert_eq!(&order, &reference, "live set diverged");
            prop_assert_eq!(dc.n_vms(), live.len());
            hosted_loads_match(&dc, &servers, &recycled)?;
        }
        Ok(())
    });
    assert!(recycled.get() > 0, "no case hosted a VM in a recycled slot");
}
