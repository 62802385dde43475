//! Exact Mean Value Analysis (MVA) of the closed multi-tier network.
//!
//! The plant in [`crate::sim`] is a closed queueing network: `C` clients
//! circulating through `K` processor-sharing stations (tiers) plus an
//! optional infinite-server think station. For exponential-ish service this
//! network is product-form, and exact MVA computes mean response times and
//! throughput by the classic recursion over population size:
//!
//! ```text
//! R_k(n)  = D_k · (1 + Q_k(n−1))          (PS station)
//! X(n)    = n / (Z + Σ_k R_k(n))
//! Q_k(n)  = X(n) · R_k(n)
//! ```
//!
//! We use it to cross-validate the discrete-event simulator (they must
//! agree on means for cv = 1 workloads) and as a fast approximate plant.

/// Result of an MVA evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaResult {
    /// Mean response time (seconds), excluding think time.
    pub(crate) response_time: f64,
    /// Throughput (requests/second).
    pub(crate) throughput: f64,
}

/// Exact MVA for a closed network of PS stations.
///
/// * `demands_s`: mean service demand at each station in **seconds** (i.e.
///   cycles / allocated Hz);
/// * `think_time`: mean think time `Z` (seconds);
/// * `population`: number of circulating clients `C`.
///
/// Returns `None` when inputs are degenerate (no stations, zero population,
/// or a non-finite/negative demand).
pub fn mva_closed_network(
    demands_s: &[f64],
    think_time: f64,
    population: usize,
) -> Option<MvaResult> {
    if demands_s.is_empty() || population == 0 {
        return None;
    }
    if demands_s.iter().any(|&d| d < 0.0 || !d.is_finite()) || think_time < 0.0 {
        return None;
    }
    let k = demands_s.len();
    let mut q = vec![0.0_f64; k];
    let mut r = vec![0.0_f64; k];
    let mut x = 0.0_f64;
    for n in 1..=population {
        let mut r_total = 0.0;
        for i in 0..k {
            r[i] = demands_s[i] * (1.0 + q[i]);
            r_total += r[i];
        }
        x = n as f64 / (think_time + r_total);
        for i in 0..k {
            q[i] = x * r[i];
        }
    }
    Some(MvaResult {
        response_time: r.iter().sum(),
        throughput: x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_inputs() {
        assert!(mva_closed_network(&[], 0.0, 10).is_none());
        assert!(mva_closed_network(&[0.1], 0.0, 0).is_none());
        assert!(mva_closed_network(&[-0.1], 0.0, 10).is_none());
        assert!(mva_closed_network(&[f64::NAN], 0.0, 10).is_none());
        assert!(mva_closed_network(&[0.1], -1.0, 10).is_none());
    }

    #[test]
    fn single_customer_no_queueing() {
        // One client never queues: R = ΣD, X = 1/(Z + R).
        let r = mva_closed_network(&[0.010, 0.012], 0.1, 1).unwrap();
        assert!((r.response_time - 0.022).abs() < 1e-12);
        assert!((r.throughput - 1.0 / 0.122).abs() < 1e-12);
    }

    #[test]
    fn asymptotic_bottleneck_throughput() {
        // Heavy population: X -> 1/D_max (bottleneck law).
        let d = [0.010, 0.020];
        let r = mva_closed_network(&d, 0.0, 200).unwrap();
        assert!((r.throughput - 1.0 / 0.020).abs() < 0.5);
        // Response time ~ N*D_max for large N.
        assert!((r.response_time - 200.0 * 0.020).abs() < 0.5);
    }

    #[test]
    fn littles_law_holds() {
        let d = [0.010, 0.015, 0.005];
        let z = 0.05;
        let n = 30;
        let r = mva_closed_network(&d, z, n).unwrap();
        // N = X·(R + Z).
        let lhs = n as f64;
        let rhs = r.throughput * (r.response_time + z);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn response_time_monotone_in_population() {
        let d = [0.01, 0.012];
        let mut prev = 0.0;
        for n in [1, 5, 10, 20, 40, 80] {
            let r = mva_closed_network(&d, 0.0, n).unwrap();
            assert!(r.response_time >= prev);
            prev = r.response_time;
        }
    }

    #[test]
    fn matches_des_simulator_for_exponential_service() {
        // cv = 1 (exponential-like) PS network is product-form: DES mean
        // response should match MVA within a few percent.
        use crate::profile::{TierDemand, WorkloadProfile};
        use crate::sim::AppSim;
        let d1 = 10.0e6;
        let d2 = 12.0e6;
        let profile = WorkloadProfile::new(
            vec![
                TierDemand::new(d1, 1.0).unwrap(),
                TierDemand::new(d2, 1.0).unwrap(),
            ],
            0.0,
        )
        .unwrap();
        let alloc = [1.0, 1.0];
        let c = 20;
        let mut sim = AppSim::new(profile, c, &alloc, 12345).unwrap();
        sim.run_for(20.0); // warm up
        sim.take_completed();
        sim.run_for(120.0);
        let samples = sim.take_completed();
        let des_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Demands in seconds: cycles at the 1 GHz allocations.
        let mva = mva_closed_network(&[d1 / 1e9, d2 / 1e9], 0.0, c)
            .unwrap()
            .response_time;
        let rel = (des_mean - mva).abs() / mva;
        assert!(
            rel < 0.08,
            "DES mean {des_mean} vs MVA {mva} (rel err {rel})"
        );
    }
}
