//! Cost-aware migration policies (§V, "Cost-aware VM migration").
//!
//! "When the IPAC algorithm requests a migration, benefits and costs should
//! be compared to decide if the migration should be allowed or rejected. …
//! the cost function can be highly different for different data centers. As
//! a result, we provide an interface for data center administrators to
//! define their own cost functions based on their various policies."
//!
//! The interface decides per *batch*: IPAC drains one server at a time, and
//! the benefit (the drained server's idle power) only materializes if the
//! whole batch moves, so accept/reject is naturally all-or-nothing per
//! drain round. Overload-resolution moves are not subject to policy — they
//! restore feasibility rather than optimize power.

use crate::plan::Move;

/// Administrator-defined migration admission policy.
pub trait MigrationPolicy {
    /// Decide whether a batch of power-saving migrations may proceed.
    ///
    /// * `moves` — the proposed migrations (real moves only);
    /// * `watts_saved` — estimated steady-state power saving if the batch
    ///   executes (typically the idle power of the server being drained).
    fn allow(&self, moves: &[Move], watts_saved: f64) -> bool;
}

/// Accept everything (the paper's default when migration is cheap).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysAllow;

impl MigrationPolicy for AlwaysAllow {
    fn allow(&self, _moves: &[Move], _watts_saved: f64) -> bool {
        true
    }
}

/// Reject batches that would copy more than a bandwidth budget (the §V
/// example: "if the network bandwidth is a bottleneck … a VM migration with
/// high bandwidth consumption is the least preferred").
#[derive(Debug, Clone, Copy)]
pub struct BandwidthBudget {
    /// Maximum memory the batch may copy (MiB).
    pub max_batch_mib: f64,
}

impl MigrationPolicy for BandwidthBudget {
    fn allow(&self, moves: &[Move], _watts_saved: f64) -> bool {
        let total: f64 = moves
            .iter()
            .filter(|m| m.from.is_some())
            .map(|m| m.mem_mib)
            .sum();
        total <= self.max_batch_mib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_dcsim::VmId;

    fn mv(mem: f64, placed: bool) -> Move {
        Move {
            vm: VmId(1),
            from: placed.then_some(0),
            to: 1,
            cpu_ghz: 1.0,
            mem_mib: mem,
        }
    }

    #[test]
    fn always_allow() {
        assert!(AlwaysAllow.allow(&[mv(1e9, true)], 0.0));
        assert!(AlwaysAllow.allow(&[], -5.0));
    }

    #[test]
    fn bandwidth_budget() {
        let p = BandwidthBudget {
            max_batch_mib: 4096.0,
        };
        assert!(p.allow(&[mv(2048.0, true), mv(2048.0, true)], 100.0));
        assert!(!p.allow(&[mv(2048.0, true), mv(2049.0, true)], 100.0));
        // Initial placements don't consume migration bandwidth.
        assert!(p.allow(&[mv(9999.0, false)], 100.0));
    }
}
