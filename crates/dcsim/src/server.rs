//! Server catalog, runtime state, and the CPU resource arbitrator.
//!
//! The arbitrator is the server-level component of Fig. 1: it "collects the
//! CPU resource demand of every VM hosted on the server, … decides what CPU
//! frequency the server should have in order to satisfy the aggregated
//! demands, and then throttles the processor … using DVFS" (§IV).

use crate::power::PowerModel;

/// Copyable generation-tagged handle addressing one server slot in the
/// [`crate::DataCenter`] arena.
///
/// Server handles carry the same index + generation shape as
/// [`crate::VmHandle`], and every validity check compares generations.
/// Servers are never removed, so every server slot stays at generation 0
/// and a handle obtained from [`crate::DataCenter::add_server`] stays
/// valid for the lifetime of the data center; an out-of-range (or
/// fabricated non-zero-generation) handle yields
/// [`crate::DcError::UnknownServer`] at the use site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerHandle {
    index: usize,
    generation: u32,
}

impl ServerHandle {
    /// Handle for a server slot index. Intended for loops that
    /// enumerate servers (`0..n_servers`) and for converting the raw
    /// indices carried by consolidation plans back into handles.
    pub fn from_index(slot: usize) -> ServerHandle {
        ServerHandle {
            index: slot,
            generation: 0,
        }
    }

    /// The arena slot this handle addresses.
    pub fn index(self) -> usize {
        self.index
    }

    /// The slot generation this handle was issued for — always 0 today,
    /// because servers are never removed from the arena.
    pub(crate) fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "srv#{}", self.index)
    }
}

/// Static description of a server model (the "catalog" entry).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Human-readable model name (e.g. `ASUSTeK-RS720-E9`).
    pub name: String,
    /// Number of cores.
    pub(crate) cores: u32,
    /// Maximum per-core frequency in GHz.
    pub max_freq_ghz: f64,
    /// Discrete DVFS frequency ladder (GHz, ascending, last == max).
    pub freq_levels_ghz: Vec<f64>,
    /// Installed memory in MiB.
    pub memory_mib: f64,
    /// Power model.
    pub power: PowerModel,
    /// Seconds to wake from sleep (S3 resume + readiness).
    pub wake_latency_s: f64,
}

impl ServerSpec {
    /// Total CPU capacity at maximum frequency (GHz·cores) — the paper's
    /// notion of a server's CPU resource.
    pub fn max_capacity_ghz(&self) -> f64 {
        self.max_freq_ghz * self.cores as f64
    }

    /// Capacity at a given per-core frequency.
    pub(crate) fn capacity_at(&self, freq_ghz: f64) -> f64 {
        freq_ghz * self.cores as f64
    }

    /// Idle power as a fraction of peak (the SPECpower "idle %").
    pub fn idle_fraction(&self) -> f64 {
        if self.power.max_watts > 0.0 {
            self.power.static_watts / self.power.max_watts
        } else {
            0.0
        }
    }

    /// Power efficiency (GHz per watt, §V ordering key); higher is better.
    pub fn power_efficiency(&self) -> f64 {
        self.max_capacity_ghz() / self.power.max_watts
    }

    /// A SPECpower-style model: idle power given as a percentage of peak,
    /// 4 GiB of memory per core, sleep at 5 % of peak, 30 s wake latency,
    /// and a four-step DVFS ladder at 40/60/80/100 % of the maximum
    /// frequency.
    pub(crate) fn specpower(
        name: &str,
        cores: u32,
        peak_power_w: f64,
        idle_percent: f64,
        max_freq_ghz: f64,
    ) -> ServerSpec {
        let idle_power_w = peak_power_w * idle_percent / 100.0;
        ServerSpec {
            name: name.to_string(),
            cores,
            max_freq_ghz,
            freq_levels_ghz: [0.4, 0.6, 0.8, 1.0]
                .iter()
                .map(|r| r * max_freq_ghz)
                .collect(),
            memory_mib: cores as f64 * 4096.0,
            power: PowerModel::new(peak_power_w * 0.05, idle_power_w, peak_power_w)
                .expect("SPECpower curve validates"),
            wake_latency_s: 30.0,
        }
    }

    /// The 3 GHz quad-core type of §VI-B. Numbers chosen so that larger
    /// servers are more power-efficient (typical of server generations).
    pub fn type_quad_3ghz() -> ServerSpec {
        ServerSpec {
            name: "quad-3.0GHz".into(),
            cores: 4,
            max_freq_ghz: 3.0,
            freq_levels_ghz: vec![1.0, 1.5, 2.0, 2.5, 3.0],
            memory_mib: 16384.0,
            power: PowerModel::new(15.0, 190.0, 320.0).expect("static catalog model"),
            wake_latency_s: 30.0,
        }
    }

    /// The 2 GHz dual-core type of §VI-B.
    pub fn type_dual_2ghz() -> ServerSpec {
        ServerSpec {
            name: "dual-2.0GHz".into(),
            cores: 2,
            max_freq_ghz: 2.0,
            freq_levels_ghz: vec![0.8, 1.2, 1.6, 2.0],
            memory_mib: 8192.0,
            power: PowerModel::new(10.0, 110.0, 180.0).expect("static catalog model"),
            wake_latency_s: 25.0,
        }
    }

    /// The 1.5 GHz dual-core type of §VI-B.
    pub fn type_dual_1_5ghz() -> ServerSpec {
        ServerSpec {
            name: "dual-1.5GHz".into(),
            cores: 2,
            max_freq_ghz: 1.5,
            freq_levels_ghz: vec![0.6, 0.9, 1.2, 1.5],
            memory_mib: 4096.0,
            power: PowerModel::new(8.0, 95.0, 150.0).expect("static catalog model"),
            wake_latency_s: 25.0,
        }
    }

    /// The full §VI-B catalog, in declaration order.
    pub fn catalog() -> Vec<ServerSpec> {
        vec![
            ServerSpec::type_quad_3ghz(),
            ServerSpec::type_dual_2ghz(),
            ServerSpec::type_dual_1_5ghz(),
        ]
    }
}

/// Runtime power state of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerState {
    /// Active at the given per-core frequency (GHz).
    Active {
        /// Current per-core DVFS frequency (GHz).
        freq_ghz: f64,
    },
    /// Sleeping (suspend-to-RAM).
    Sleeping,
    /// Crashed. A failed host draws no power, offers no capacity, and
    /// cannot be woken or receive placements until
    /// [`crate::DataCenter::recover_server`] returns it to
    /// [`ServerState::Sleeping`].
    Failed,
}

/// A server instance: spec + runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Static description.
    pub spec: ServerSpec,
    /// Current power state.
    pub state: ServerState,
}

impl Server {
    /// A new server, initially sleeping (the large-scale scenario wakes
    /// servers on demand, §VII-B).
    pub fn asleep(spec: ServerSpec) -> Server {
        Server {
            spec,
            state: ServerState::Sleeping,
        }
    }

    /// A new server, active at maximum frequency.
    pub fn active(spec: ServerSpec) -> Server {
        let f = spec.max_freq_ghz;
        Server {
            spec,
            state: ServerState::Active { freq_ghz: f },
        }
    }

    /// Whether the server is active.
    pub fn is_active(&self) -> bool {
        matches!(self.state, ServerState::Active { .. })
    }

    /// Current total capacity (GHz); 0 when sleeping or failed.
    pub fn capacity_ghz(&self) -> f64 {
        match self.state {
            ServerState::Active { freq_ghz } => self.spec.capacity_at(freq_ghz),
            ServerState::Sleeping | ServerState::Failed => 0.0,
        }
    }

    /// Power draw (watts) given the total CPU demand currently hosted
    /// (GHz). Demand above capacity saturates at 100 % utilization.
    pub fn power_watts(&self, demand_ghz: f64) -> f64 {
        match self.state {
            ServerState::Sleeping => self.spec.power.sleep_power(),
            ServerState::Failed => 0.0,
            ServerState::Active { freq_ghz } => {
                let cap = self.spec.capacity_at(freq_ghz);
                let u = if cap > 0.0 { demand_ghz / cap } else { 0.0 };
                self.spec
                    .power
                    .active_power(freq_ghz / self.spec.max_freq_ghz, u)
            }
        }
    }
}

/// The server-level CPU resource arbitrator of §IV.
///
/// `headroom` is the fraction of capacity kept free when choosing the DVFS
/// level (0.0 = run exactly at demand; 0.1 = keep 10 % slack so transient
/// demand spikes do not immediately saturate the processor). Every data
/// center runs the default, 5 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuArbitrator {
    /// Fractional capacity headroom retained when picking the frequency.
    pub(crate) headroom: f64,
}

impl Default for CpuArbitrator {
    fn default() -> Self {
        CpuArbitrator { headroom: 0.05 }
    }
}

impl CpuArbitrator {
    /// Pick the lowest DVFS frequency whose capacity covers the aggregate
    /// demand plus headroom; returns the ladder maximum if none suffices.
    pub fn choose_frequency(&self, spec: &ServerSpec, total_demand_ghz: f64) -> f64 {
        let needed = total_demand_ghz / (1.0 - self.headroom);
        for &f in &spec.freq_levels_ghz {
            if spec.capacity_at(f) >= needed {
                return f;
            }
        }
        *spec.freq_levels_ghz.last().unwrap_or(&spec.max_freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_capacities_match_paper() {
        let cat = ServerSpec::catalog();
        assert_eq!(cat.len(), 3);
        assert_eq!(cat[0].max_capacity_ghz(), 12.0);
        assert_eq!(cat[1].max_capacity_ghz(), 4.0);
        assert_eq!(cat[2].max_capacity_ghz(), 3.0);
        for s in &cat {
            assert_eq!(*s.freq_levels_ghz.last().unwrap(), s.max_freq_ghz);
            let mut sorted = s.freq_levels_ghz.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sorted, s.freq_levels_ghz, "ladder must ascend");
        }
    }

    #[test]
    fn efficiency_ordering() {
        let cat = ServerSpec::catalog();
        let eff: Vec<f64> = cat.iter().map(ServerSpec::power_efficiency).collect();
        assert!(eff[0] > eff[1] && eff[1] > eff[2], "{eff:?}");
    }

    #[test]
    fn server_states_and_capacity() {
        let spec = ServerSpec::type_dual_2ghz();
        let asleep = Server::asleep(spec.clone());
        assert!(!asleep.is_active());
        assert_eq!(asleep.capacity_ghz(), 0.0);
        let active = Server::active(spec);
        assert!(active.is_active());
        assert_eq!(active.capacity_ghz(), 4.0);
    }

    #[test]
    fn power_reflects_state_and_load() {
        let spec = ServerSpec::type_quad_3ghz();
        let sleeping = Server::asleep(spec.clone());
        assert_eq!(sleeping.power_watts(99.0), 15.0);
        let active = Server::active(spec.clone());
        let idle = active.power_watts(0.0);
        let half = active.power_watts(6.0);
        let full = active.power_watts(12.0);
        let over = active.power_watts(24.0);
        assert_eq!(idle, 190.0);
        assert!(idle < half && half < full);
        assert_eq!(full, 320.0);
        assert_eq!(over, full, "utilization saturates at 1");
        // Throttled server at same absolute demand draws less dynamic power.
        let throttled = Server {
            spec,
            state: ServerState::Active { freq_ghz: 2.0 },
        };
        assert!(throttled.power_watts(6.0) < half);
    }

    #[test]
    fn arbitrator_picks_lowest_sufficient_frequency() {
        let spec = ServerSpec::type_quad_3ghz(); // 4 cores
        let arb = CpuArbitrator { headroom: 0.0 };
        // Demand 3.9 GHz needs capacity >= 3.9: 1.0 GHz level gives 4.0.
        assert_eq!(arb.choose_frequency(&spec, 3.9), 1.0);
        // Demand 4.1 needs the 1.5 level (6.0).
        assert_eq!(arb.choose_frequency(&spec, 4.1), 1.5);
        // Demand beyond max returns max.
        assert_eq!(arb.choose_frequency(&spec, 100.0), 3.0);
        // Zero demand: lowest level.
        assert_eq!(arb.choose_frequency(&spec, 0.0), 1.0);
    }

    #[test]
    fn arbitrator_headroom_raises_frequency() {
        let spec = ServerSpec::type_quad_3ghz();
        let tight = CpuArbitrator { headroom: 0.0 };
        let slack = CpuArbitrator { headroom: 0.2 };
        // 3.9 GHz demand with 20 % headroom needs 4.875 => 1.5 level.
        assert_eq!(tight.choose_frequency(&spec, 3.9), 1.0);
        assert_eq!(slack.choose_frequency(&spec, 3.9), 1.5);
    }
}
