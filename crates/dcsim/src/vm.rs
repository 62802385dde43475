//! Virtual-machine descriptors as seen by the consolidation layer.
//!
//! A VM here is characterized by the two resources the paper's optimizer
//! packs: CPU demand (absolute GHz, as determined by the application-level
//! response-time controller — §IV-A's `c_ij`) and memory footprint (the
//! administrator-defined constraint of §VII-B). The `app` tag ties tier VMs
//! back to their application.

/// Opaque VM identifier, unique within a [`crate::DataCenter`].
///
/// This is the *external label* of a VM — the name a trace row, a packing
/// item, or a migration record carries. Runtime state is addressed by
/// [`VmHandle`], the dense arena slot; [`crate::DataCenter::lookup`]
/// translates label to handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Copyable generation-tagged handle addressing one VM slot in the
/// [`crate::DataCenter`] arena.
///
/// A handle pairs the slot index with the slot's *generation* at the time
/// the handle was issued. Removing a VM bumps its slot's generation and
/// recycles the slot through a free list, so a later arrival may occupy
/// the same index under a higher generation; every validity check compares
/// generations, so an outstanding handle to the removed tenant keeps
/// returning [`crate::DcError::StaleHandle`] instead of silently aliasing
/// the new one. Obtained from [`crate::DataCenter::add_vm`] or
/// [`crate::DataCenter::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmHandle {
    index: usize,
    generation: u32,
}

impl VmHandle {
    /// Handle for an arena slot at a specific generation (what the arena
    /// mints on registration; [`crate::DataCenter::lookup`] returns the
    /// live occupant's handle).
    pub(crate) fn new(index: usize, generation: u32) -> VmHandle {
        VmHandle { index, generation }
    }

    /// Generation-0 handle for an arena slot index. Intended for fan-out
    /// loops that enumerate slots (`0..arena_len`) of a churn-free arena
    /// (no removal ever bumps a generation there); an out-of-range, vacant,
    /// or recycled slot yields [`crate::DcError::StaleHandle`] at the use
    /// site, never UB.
    pub fn from_index(slot: usize) -> VmHandle {
        VmHandle {
            index: slot,
            generation: 0,
        }
    }

    /// The arena slot this handle addresses.
    pub fn index(self) -> usize {
        self.index
    }

    /// The slot generation this handle was issued for (0 until the slot is
    /// first recycled).
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for VmHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.generation == 0 {
            write!(f, "vm#{}", self.index)
        } else {
            write!(f, "vm#{}g{}", self.index, self.generation)
        }
    }
}

/// Descriptor of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Identifier.
    pub id: VmId,
    /// Current CPU demand in GHz (cycles/second / 1e9). Updated at run time
    /// by the application-level controller or the utilization trace.
    pub(crate) cpu_demand_ghz: f64,
    /// Memory footprint in MiB (static; drives migration cost and the
    /// memory packing constraint).
    pub memory_mib: f64,
    /// Application this VM belongs to and its tier index, if any.
    pub app: Option<(u32, u32)>,
}

impl VmSpec {
    /// Construct a standalone VM (no application tag).
    pub fn new(id: u64, cpu_demand_ghz: f64, memory_mib: f64) -> VmSpec {
        VmSpec {
            id: VmId(id),
            cpu_demand_ghz: cpu_demand_ghz.max(0.0),
            memory_mib: memory_mib.max(0.0),
            app: None,
        }
    }

    /// Construct a tier VM of an application.
    pub fn for_app(id: u64, app: u32, tier: u32, cpu_demand_ghz: f64, memory_mib: f64) -> VmSpec {
        VmSpec {
            app: Some((app, tier)),
            ..VmSpec::new(id, cpu_demand_ghz, memory_mib)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_negatives() {
        let vm = VmSpec::new(1, -0.5, -10.0);
        assert_eq!(vm.cpu_demand_ghz, 0.0);
        assert_eq!(vm.memory_mib, 0.0);
        assert_eq!(vm.app, None);
    }

    #[test]
    fn app_tagging() {
        let vm = VmSpec::for_app(7, 3, 1, 1.2, 2048.0);
        assert_eq!(vm.id, VmId(7));
        assert_eq!(vm.app, Some((3, 1)));
        assert_eq!(format!("{}", vm.id), "vm7");
    }

    #[test]
    fn ids_hash_and_order() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(VmId(1));
        set.insert(VmId(2));
        set.insert(VmId(1));
        assert_eq!(set.len(), 2);
        assert!(VmId(1) < VmId(2));
    }
}
