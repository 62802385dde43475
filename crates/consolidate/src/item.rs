//! Packing inputs: items (VMs) and bins (servers).

use vdc_dcsim::VmId;

/// A VM as a packing item: its identity and the two packed resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackItem {
    /// Which VM this is.
    pub vm: VmId,
    /// CPU demand in GHz.
    pub cpu_ghz: f64,
    /// Memory footprint in MiB.
    pub mem_mib: f64,
}

impl PackItem {
    /// Construct an item (demands floored at zero).
    pub fn new(vm: VmId, cpu_ghz: f64, mem_mib: f64) -> PackItem {
        PackItem {
            vm,
            cpu_ghz: cpu_ghz.max(0.0),
            mem_mib: mem_mib.max(0.0),
        }
    }
}

/// A server as a packing bin.
///
/// `resident` holds items already on the server that are *not* candidates
/// for repacking this round (Algorithm 1 explicitly allows a server that is
/// "not necessarily empty"); their demands count against capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct PackServer {
    /// Index of this server in the owning data center.
    pub index: usize,
    /// Total CPU capacity at maximum frequency (GHz).
    pub cpu_capacity_ghz: f64,
    /// Total memory (MiB).
    pub mem_capacity_mib: f64,
    /// Maximum power draw (watts) — the denominator of power efficiency.
    pub max_watts: f64,
    /// Idle (static) power draw when active (watts) — the saving realized
    /// when consolidation empties the server and puts it to sleep.
    pub idle_watts: f64,
    /// Whether the server is currently active (drives wake accounting).
    pub active: bool,
    /// Facility PUE of the server's site: every IT watt spent here costs
    /// `pue` facility watts. 1.0 for single-site runs.
    pub pue: f64,
    /// Items already resident and not being repacked.
    pub resident: Vec<PackItem>,
}

impl PackServer {
    /// Power efficiency: capacity per *facility* watt (§V, extended to
    /// multi-site fleets — a watt at a PUE-1.6 site costs more than a watt
    /// at a PUE-1.1 site, so ordering prefers efficient hardware in
    /// efficient facilities). Higher is better.
    pub fn power_efficiency(&self) -> f64 {
        if self.max_watts <= 0.0 || self.pue <= 0.0 {
            return 0.0;
        }
        self.cpu_capacity_ghz / (self.max_watts * self.pue)
    }

    /// CPU already used by residents (GHz).
    pub fn resident_cpu(&self) -> f64 {
        self.resident.iter().map(|i| i.cpu_ghz).sum()
    }

    /// Memory already used by residents (MiB).
    pub fn resident_mem(&self) -> f64 {
        self.resident.iter().map(|i| i.mem_mib).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> PackServer {
        PackServer {
            index: 0,
            cpu_capacity_ghz: 4.0,
            mem_capacity_mib: 8192.0,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: true,
            pue: 1.0,
            resident: vec![PackItem::new(VmId(1), 1.0, 1024.0)],
        }
    }

    #[test]
    fn item_clamps_negatives() {
        let i = PackItem::new(VmId(1), -1.0, -5.0);
        assert_eq!(i.cpu_ghz, 0.0);
        assert_eq!(i.mem_mib, 0.0);
    }

    #[test]
    fn efficiency_and_residents() {
        let s = server();
        assert!((s.power_efficiency() - 0.02).abs() < 1e-12);
        assert_eq!(s.resident_cpu(), 1.0);
        assert_eq!(s.resident_mem(), 1024.0);
        let degenerate = PackServer {
            max_watts: 0.0,
            ..server()
        };
        assert_eq!(degenerate.power_efficiency(), 0.0);
    }

    #[test]
    fn pue_divides_efficiency() {
        let unit = server();
        let costly = PackServer {
            pue: 2.0,
            ..server()
        };
        assert_eq!(costly.power_efficiency(), unit.power_efficiency() / 2.0);
        // PUE 1.0 leaves the legacy ordering key bit-identical.
        assert_eq!(
            unit.power_efficiency().to_bits(),
            (unit.cpu_capacity_ghz / unit.max_watts).to_bits()
        );
        let degenerate = PackServer {
            pue: 0.0,
            ..server()
        };
        assert_eq!(degenerate.power_efficiency(), 0.0);
    }
}
