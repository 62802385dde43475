//! Workload profiles: per-tier service demands and client behaviour.
//!
//! A profile describes *what* an application's requests cost, independent of
//! *how fast* the hosting VMs run: service demands are in CPU **cycles**, so
//! a request with a 20 M-cycle web-tier demand takes 20 ms on a 1 GHz
//! allocation and 10 ms on 2 GHz. That is exactly the coupling the paper's
//! controller exploits via `c_ij` (allocations in GHz, §IV-A).

use crate::{AppTierError, Result};

/// Service-demand distribution for one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierDemand {
    /// Mean service demand per request, in CPU cycles.
    pub(crate) mean_cycles: f64,
    /// Coefficient of variation of the (log-normal) demand distribution.
    pub(crate) cv: f64,
}

impl TierDemand {
    /// Construct a validated tier demand.
    pub fn new(mean_cycles: f64, cv: f64) -> Result<TierDemand> {
        if mean_cycles <= 0.0 || !mean_cycles.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "mean_cycles {mean_cycles} must be positive"
            )));
        }
        if cv < 0.0 || !cv.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "cv {cv} must be non-negative"
            )));
        }
        Ok(TierDemand { mean_cycles, cv })
    }
}

/// One request class of a mixed workload (e.g. RUBBoS "browse" vs
/// "post"): its relative frequency and per-tier demands.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestClass {
    /// Short label ("browse", "post", …).
    pub(crate) name: String,
    /// Relative frequency weight (need not be normalized).
    pub(crate) weight: f64,
    /// Per-tier service demands for requests of this class.
    pub(crate) tiers: Vec<TierDemand>,
}

/// A complete workload profile for one multi-tier application.
///
/// `tiers` holds the *weighted-mean* per-tier demands (what analytic
/// consumers such as MVA use); `classes` holds the full mixture the
/// discrete-event simulator samples from. Single-class profiles have one
/// class that equals `tiers`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Weighted-mean per-tier service demands, in request traversal order.
    pub(crate) tiers: Vec<TierDemand>,
    /// Mean client think time between response and next request (seconds);
    /// 0 emulates Apache `ab`, which fires back-to-back requests.
    pub(crate) think_time: f64,
    /// The request-class mixture (at least one class; weights positive).
    pub(crate) classes: Vec<RequestClass>,
}

impl WorkloadProfile {
    /// Construct a validated single-class profile.
    pub fn new(tiers: Vec<TierDemand>, think_time: f64) -> Result<WorkloadProfile> {
        let class = RequestClass {
            name: "default".into(),
            weight: 1.0,
            tiers,
        };
        WorkloadProfile::with_classes(vec![class], think_time)
    }

    /// Construct a validated multi-class profile. All classes must have the
    /// same tier count and positive weights; `tiers` becomes the
    /// weight-averaged demand per tier.
    pub(crate) fn with_classes(
        classes: Vec<RequestClass>,
        think_time: f64,
    ) -> Result<WorkloadProfile> {
        if classes.is_empty() || classes[0].tiers.is_empty() {
            return Err(AppTierError::BadConfig(
                "profile needs at least one class with at least one tier".into(),
            ));
        }
        let n = classes[0].tiers.len();
        if classes.iter().any(|c| c.tiers.len() != n) {
            return Err(AppTierError::BadConfig(
                "all request classes must have the same tier count".into(),
            ));
        }
        if classes
            .iter()
            .any(|c| c.weight <= 0.0 || !c.weight.is_finite())
        {
            return Err(AppTierError::BadConfig(
                "class weights must be positive and finite".into(),
            ));
        }
        if think_time < 0.0 || !think_time.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "think_time {think_time} must be non-negative"
            )));
        }
        let total_w: f64 = classes.iter().map(|c| c.weight).sum();
        let tiers: Result<Vec<TierDemand>> = (0..n)
            .map(|t| {
                let mean: f64 = classes
                    .iter()
                    .map(|c| c.weight * c.tiers[t].mean_cycles)
                    .sum::<f64>()
                    / total_w;
                // Mixture cv: conservative upper bound via weighted mean of
                // per-class cv plus between-class spread.
                let cv: f64 = classes
                    .iter()
                    .map(|c| c.weight * c.tiers[t].cv)
                    .sum::<f64>()
                    / total_w;
                TierDemand::new(mean, cv)
            })
            .collect();
        Ok(WorkloadProfile {
            tiers: tiers?,
            think_time,
            classes,
        })
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Number of request classes.
    pub(crate) fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Pick a class index given a uniform sample `u ∈ [0, 1)`.
    pub(crate) fn pick_class(&self, u: f64) -> usize {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut acc = 0.0;
        for (i, c) in self.classes.iter().enumerate() {
            acc += c.weight / total;
            if u < acc {
                return i;
            }
        }
        self.classes.len() - 1
    }

    /// A RUBBoS-like two-tier profile (§VI-A of the paper): a web tier
    /// running application scripts in front of a heavier database tier.
    ///
    /// Demands are chosen so that, at the paper's baseline operating point
    /// (concurrency 40, roughly 1 GHz per tier), the 90-percentile response
    /// time sits near the 1000 ms set point used throughout §VII-A.
    pub fn rubbos() -> WorkloadProfile {
        WorkloadProfile::new(
            vec![
                // Web/PHP tier: moderate per-request CPU.
                TierDemand {
                    mean_cycles: 11.0e6,
                    cv: 0.6,
                },
                // MySQL tier: slightly heavier and more variable.
                TierDemand {
                    mean_cycles: 13.0e6,
                    cv: 0.8,
                },
            ],
            0.0,
        )
        .expect("static preset")
    }

    /// A mixed RUBBoS-like workload: 85 % light "browse" requests and 15 %
    /// heavy "post" requests (story submission hits the database hard).
    /// The weighted-mean demands match [`WorkloadProfile::rubbos`], so the
    /// same controller setup applies, but the per-request variance is
    /// higher — a stress case for the p90 monitor.
    pub fn rubbos_mixed() -> WorkloadProfile {
        WorkloadProfile::with_classes(
            vec![
                RequestClass {
                    name: "browse".into(),
                    weight: 0.85,
                    tiers: vec![
                        TierDemand {
                            mean_cycles: 9.0e6,
                            cv: 0.5,
                        },
                        TierDemand {
                            mean_cycles: 8.0e6,
                            cv: 0.6,
                        },
                    ],
                },
                RequestClass {
                    name: "post".into(),
                    weight: 0.15,
                    tiers: vec![
                        TierDemand {
                            mean_cycles: 22.3e6,
                            cv: 0.7,
                        },
                        TierDemand {
                            mean_cycles: 41.3e6,
                            cv: 0.9,
                        },
                    ],
                },
            ],
            0.0,
        )
        .expect("static preset")
    }

    /// A three-tier profile (load balancer / app / DB) exercising the
    /// "applications may span more than two VMs" generality of §IV.
    pub fn three_tier() -> WorkloadProfile {
        WorkloadProfile::new(
            vec![
                TierDemand {
                    mean_cycles: 3.0e6,
                    cv: 0.3,
                },
                TierDemand {
                    mean_cycles: 10.0e6,
                    cv: 0.6,
                },
                TierDemand {
                    mean_cycles: 12.0e6,
                    cv: 0.8,
                },
            ],
            0.0,
        )
        .expect("static preset")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(TierDemand::new(0.0, 0.5).is_err());
        assert!(TierDemand::new(-1.0, 0.5).is_err());
        assert!(TierDemand::new(1e6, -0.1).is_err());
        assert!(TierDemand::new(1e6, 0.5).is_ok());
        assert!(WorkloadProfile::new(vec![], 0.0).is_err());
        assert!(WorkloadProfile::new(vec![TierDemand::new(1e6, 0.5).unwrap()], -1.0).is_err());
        assert!(WorkloadProfile::new(vec![TierDemand::new(1e6, 0.5).unwrap()], 0.1).is_ok());
    }

    #[test]
    fn presets_are_valid() {
        for p in [WorkloadProfile::rubbos(), WorkloadProfile::three_tier()] {
            assert!(p.n_tiers() >= 2);
            assert!(p.tiers.iter().all(|t| t.mean_cycles > 0.0 && t.cv >= 0.0));
            assert!(p.think_time >= 0.0);
        }
        assert_eq!(WorkloadProfile::three_tier().n_tiers(), 3);
    }

    #[test]
    fn rubbos_db_tier_is_heavier() {
        let p = WorkloadProfile::rubbos();
        assert!(p.tiers[1].mean_cycles > p.tiers[0].mean_cycles);
    }
}
