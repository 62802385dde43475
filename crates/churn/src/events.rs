//! Timestamped VM lifecycle events.
//!
//! An event stream is a `Vec<VmEvent>` sorted ascending by sample index
//! (ties keep generation order, which the workload generator fixes once —
//! steady-state arrivals in time order, then flash-crowd bursts). The run
//! loop walks the stream with a cursor: at each sample it applies every
//! departure due at that sample, then every arrival, so the set of live
//! VMs a control period sees is a pure function of the stream and never
//! of shard count.

/// What happens to a churn VM at its event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Churn VM `k` (an index into the workload's demand trace) asks for
    /// admission.
    Arrive(usize),
    /// Churn VM `k` departs; its arena slot is freed for recycling. A
    /// departure for a VM that was rejected at admission is a no-op.
    Depart(usize),
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmEvent {
    /// Sample index (multiple of the trace interval) the event fires at.
    pub at_sample: usize,
    /// Arrival or departure.
    pub kind: EventKind,
}

impl VmEvent {
    /// An arrival of churn VM `k` at `at_sample`.
    pub(crate) fn arrive(at_sample: usize, k: usize) -> VmEvent {
        VmEvent {
            at_sample,
            kind: EventKind::Arrive(k),
        }
    }

    /// A departure of churn VM `k` at `at_sample`.
    pub(crate) fn depart(at_sample: usize, k: usize) -> VmEvent {
        VmEvent {
            at_sample,
            kind: EventKind::Depart(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_tag_the_kind() {
        assert_eq!(VmEvent::arrive(3, 7).kind, EventKind::Arrive(7));
        assert_eq!(VmEvent::depart(9, 1).kind, EventKind::Depart(1));
        assert_eq!(VmEvent::arrive(3, 7).at_sample, 3);
    }
}
