//! Generalized packing constraints.
//!
//! Algorithm 1 extends the MBS heuristic "by evaluating a more general
//! constraint in each step, instead of checking if the total size of the
//! items exceeds the size of the bin" — administrators can add their own
//! feasibility rules (the paper's §VII-B example is a memory-size
//! restriction). A [`Constraint`] decides whether a server can host a
//! candidate item set on top of its residents.

use crate::item::{PackItem, PackServer};

/// A feasibility rule for placing `candidates` on `server` (in addition to
/// the server's residents).
pub trait Constraint {
    /// `true` iff the placement is admissible.
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool;

    /// The rule's [`Ceilings`] on `server`, if it is *additive*.
    ///
    /// Contract: when this returns `Some(c)`, then for every candidate
    /// slice (of demands that are not NaN) `admits(server, candidates)`
    /// equals
    ///
    /// ```text
    /// server.resident_cpu() + Σ cpu_ghz <= c.cpu_ghz
    ///     && server.resident_mem() + Σ mem_mib <= c.mem_mib
    /// ```
    ///
    /// with each Σ taken over `candidates` left to right, as
    /// [`Iterator::sum`] takes it. The ceilings bound totals, so they may
    /// read the server's own fields but not which items it holds.
    /// [`minimum_slack`] then keeps running sums along its search instead
    /// of calling `admits` on every step, and [`relieve_overloads`] keeps
    /// each server's resident sums; both results are bit-identical either
    /// way.
    ///
    /// The default, `None`, keeps the search on `admits`. That is the
    /// right answer for any rule that is not a pair of sum bounds, such as
    /// an [`FnConstraint`].
    ///
    /// [`minimum_slack`]: crate::minslack::minimum_slack
    /// [`relieve_overloads`]: crate::relief::relieve_overloads
    fn ceilings(&self, _server: &PackServer) -> Option<Ceilings> {
        None
    }
}

/// Upper bounds on a server's total CPU and memory, residents included,
/// that an additive rule admits (see [`Constraint::ceilings`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceilings {
    /// Bound on total CPU (GHz); `+∞` when the rule leaves CPU free.
    pub(crate) cpu_ghz: f64,
    /// Bound on total memory (MiB); `+∞` when the rule leaves memory free.
    pub(crate) mem_mib: f64,
}

impl Ceilings {
    /// No bound on either resource.
    const NONE: Ceilings = Ceilings {
        cpu_ghz: f64::INFINITY,
        mem_mib: f64::INFINITY,
    };

    /// The tighter bound per resource. A NaN bound admits nothing, so it
    /// wins, just as one NaN part makes a conjunction reject.
    fn tighter(self, other: Ceilings) -> Ceilings {
        let min = |a: f64, b: f64| if a.is_nan() || a < b { a } else { b };
        Ceilings {
            cpu_ghz: min(self.cpu_ghz, other.cpu_ghz),
            mem_mib: min(self.mem_mib, other.mem_mib),
        }
    }
}

/// CPU capacity constraint with an optional utilization cap.
///
/// `utilization_cap = 1.0` allows filling the server completely; `0.9`
/// keeps 10 % of capacity free for transient growth.
#[derive(Debug, Clone, Copy)]
pub struct CpuConstraint {
    /// Fraction of total capacity that may be allocated, in `(0, 1]`.
    pub utilization_cap: f64,
}

impl Default for CpuConstraint {
    fn default() -> Self {
        CpuConstraint {
            utilization_cap: 1.0,
        }
    }
}

impl CpuConstraint {
    fn ceiling(&self, server: &PackServer) -> f64 {
        server.cpu_capacity_ghz * self.utilization_cap.clamp(0.0, 1.0) + 1e-9
    }
}

impl Constraint for CpuConstraint {
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
        let extra: f64 = candidates.iter().map(|i| i.cpu_ghz).sum();
        server.resident_cpu() + extra <= self.ceiling(server)
    }

    fn ceilings(&self, server: &PackServer) -> Option<Ceilings> {
        Some(Ceilings {
            cpu_ghz: self.ceiling(server),
            ..Ceilings::NONE
        })
    }
}

/// Memory capacity constraint (the §VII-B administrator example: "the
/// memory size of every server should be greater than the total memory
/// allocations of the hosted VMs").
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryConstraint;

impl MemoryConstraint {
    fn ceiling(server: &PackServer) -> f64 {
        server.mem_capacity_mib + 1e-9
    }
}

impl Constraint for MemoryConstraint {
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
        let extra: f64 = candidates.iter().map(|i| i.mem_mib).sum();
        server.resident_mem() + extra <= Self::ceiling(server)
    }

    fn ceilings(&self, server: &PackServer) -> Option<Ceilings> {
        Some(Ceilings {
            mem_mib: Self::ceiling(server),
            ..Ceilings::NONE
        })
    }
}

/// Conjunction of constraints.
pub struct AndConstraint {
    parts: Vec<Box<dyn Constraint + Send + Sync>>,
}

impl AndConstraint {
    /// Build from boxed parts.
    pub fn new(parts: Vec<Box<dyn Constraint + Send + Sync>>) -> AndConstraint {
        AndConstraint { parts }
    }

    /// The standard rule set: CPU (full utilization) + memory.
    pub fn cpu_and_memory() -> AndConstraint {
        AndConstraint::new(vec![
            Box::new(CpuConstraint::default()),
            Box::new(MemoryConstraint),
        ])
    }
}

impl Constraint for AndConstraint {
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
        self.parts.iter().all(|c| c.admits(server, candidates))
    }

    /// The tightest ceiling per resource over the parts, or `None` as soon
    /// as one part is not additive.
    fn ceilings(&self, server: &PackServer) -> Option<Ceilings> {
        self.parts.iter().try_fold(Ceilings::NONE, |acc, c| {
            Some(acc.tighter(c.ceilings(server)?))
        })
    }
}

/// Closure adapter so administrators can write ad-hoc rules.
pub struct FnConstraint<F>(pub F);

impl<F> Constraint for FnConstraint<F>
where
    F: Fn(&PackServer, &[PackItem]) -> bool,
{
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
        (self.0)(server, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_dcsim::VmId;

    fn server() -> PackServer {
        PackServer {
            index: 0,
            cpu_capacity_ghz: 4.0,
            mem_capacity_mib: 4096.0,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: true,
            pue: 1.0,
            resident: vec![PackItem::new(VmId(1), 1.0, 1024.0)],
        }
    }

    fn item(cpu: f64, mem: f64) -> PackItem {
        PackItem::new(VmId(99), cpu, mem)
    }

    #[test]
    fn cpu_constraint_respects_residents() {
        let c = CpuConstraint::default();
        assert!(c.admits(&server(), &[item(3.0, 0.0)]));
        assert!(!c.admits(&server(), &[item(3.1, 0.0)]));
        assert!(c.admits(&server(), &[]));
    }

    #[test]
    fn cpu_utilization_cap() {
        let c = CpuConstraint {
            utilization_cap: 0.5,
        };
        // Cap = 2.0 GHz total; resident already uses 1.0.
        assert!(c.admits(&server(), &[item(1.0, 0.0)]));
        assert!(!c.admits(&server(), &[item(1.1, 0.0)]));
    }

    #[test]
    fn memory_constraint() {
        let c = MemoryConstraint;
        assert!(c.admits(&server(), &[item(0.0, 3072.0)]));
        assert!(!c.admits(&server(), &[item(0.0, 3073.0)]));
    }

    #[test]
    fn and_constraint_needs_all() {
        let c = AndConstraint::cpu_and_memory();
        assert!(c.admits(&server(), &[item(3.0, 3072.0)]));
        assert!(!c.admits(&server(), &[item(3.1, 100.0)])); // CPU fails
        assert!(!c.admits(&server(), &[item(0.1, 4000.0)])); // memory fails
    }

    #[test]
    fn fn_constraint_custom_rule() {
        // Administrator rule: at most 2 candidate VMs per placement.
        let c = FnConstraint(|_: &PackServer, cands: &[PackItem]| cands.len() <= 2);
        assert!(c.admits(&server(), &[item(0.1, 0.1), item(0.1, 0.1)]));
        assert!(!c.admits(&server(), &[item(0.1, 0.1), item(0.1, 0.1), item(0.1, 0.1)]));
    }

    #[test]
    fn additive_rules_report_the_ceilings_admits_uses() {
        let s = server();
        let half = CpuConstraint {
            utilization_cap: 0.5,
        };
        let cpu = half.ceilings(&s).unwrap();
        assert_eq!(cpu.cpu_ghz, 4.0 * 0.5 + 1e-9);
        assert_eq!(cpu.mem_mib, f64::INFINITY);
        let mem = MemoryConstraint.ceilings(&s).unwrap();
        assert_eq!(mem.cpu_ghz, f64::INFINITY);
        assert_eq!(mem.mem_mib, 4096.0 + 1e-9);
        // The conjunction keeps the tightest bound per resource.
        let both = AndConstraint::new(vec![
            Box::new(CpuConstraint::default()),
            Box::new(half),
            Box::new(MemoryConstraint),
        ]);
        assert_eq!(
            both.ceilings(&s),
            Some(Ceilings {
                cpu_ghz: cpu.cpu_ghz,
                mem_mib: mem.mem_mib,
            })
        );
    }

    #[test]
    fn a_closure_part_makes_a_conjunction_non_additive() {
        let closure = FnConstraint(|_: &PackServer, cands: &[PackItem]| cands.len() <= 2);
        assert_eq!(closure.ceilings(&server()), None);
        let c = AndConstraint::new(vec![Box::new(CpuConstraint::default()), Box::new(closure)]);
        assert_eq!(c.ceilings(&server()), None);
    }

    #[test]
    fn multiple_candidates_summed() {
        let c = CpuConstraint::default();
        let ok = [item(1.5, 0.0), item(1.5, 0.0)];
        assert!(c.admits(&server(), &ok));
        let over = [item(1.6, 0.0), item(1.5, 0.0)];
        assert!(!c.admits(&server(), &over));
    }
}
