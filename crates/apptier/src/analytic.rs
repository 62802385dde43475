//! Instant analytic plant: Mean Value Analysis plus synthetic sampling.
//!
//! A drop-in [`Plant`] whose "simulation" costs microseconds: mean response
//! time comes from exact MVA of the closed PS network, and per-request
//! samples are drawn log-normally around it so percentile monitors see
//! realistic spread. Useful for controller tuning sweeps and tests where
//! the discrete-event engine would dominate run time — and as an
//! independent cross-check of the DES (they agree on means; see
//! `mva::tests::matches_des_simulator_for_exponential_service`).
//!
//! A flush only records its distribution and draw count; the draws happen
//! when the batch is drained, in flush order, so the stream is the one
//! drawing at flush time would use. That lets [`Plant::measure`] read a
//! high percentile of a single pending batch from its tail draws alone
//! (`LogNormal::tail_order_statistic`).

use crate::monitor::{nearest_rank_index, SlaMetric};
use crate::mva::{mva_closed_network, MvaResult};
use crate::plant::Plant;
use crate::profile::WorkloadProfile;
use crate::rng::{LogNormal, SimRng};
use crate::{AppTierError, Result};

/// Analytic approximation of a closed multi-tier application.
#[derive(Debug, Clone)]
pub struct AnalyticPlant {
    profile: WorkloadProfile,
    allocations_ghz: Vec<f64>,
    concurrency: usize,
    /// Coefficient of variation of synthesized response-time samples.
    response_cv: f64,
    rng: SimRng,
    pending_time_s: f64,
    /// Flushed batches not yet drawn: each one's distribution and size.
    pending: Vec<(LogNormal, usize)>,
    /// `measure` calls answered by the tail walk.
    tail_measurements: u64,
}

impl AnalyticPlant {
    /// Create an analytic plant. `response_cv` shapes the synthetic sample
    /// spread (0.35–0.6 matches what the DES produces for the RUBBoS-like
    /// profiles).
    pub fn new(
        profile: WorkloadProfile,
        concurrency: usize,
        allocations_ghz: &[f64],
        response_cv: f64,
        seed: u64,
    ) -> Result<AnalyticPlant> {
        if allocations_ghz.len() != profile.n_tiers() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                allocations_ghz.len(),
                profile.n_tiers()
            )));
        }
        if response_cv < 0.0 || !response_cv.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "response_cv {response_cv} must be non-negative"
            )));
        }
        Ok(AnalyticPlant {
            profile,
            allocations_ghz: allocations_ghz.to_vec(),
            concurrency,
            response_cv,
            rng: SimRng::seed_from_u64(seed),
            pending_time_s: 0.0,
            pending: Vec::new(),
            tail_measurements: 0,
        })
    }

    /// Exact MVA of the closed network at the current operating point;
    /// `None` when there are no clients or a tier has no allocation.
    fn mva(&self) -> Option<MvaResult> {
        if self.concurrency == 0 {
            return None;
        }
        let demands: Option<Vec<f64>> = self
            .profile
            .tiers
            .iter()
            .zip(&self.allocations_ghz)
            .map(|(t, &a)| {
                if a <= 0.0 {
                    None
                } else {
                    Some(t.mean_cycles / (a * 1e9))
                }
            })
            .collect();
        mva_closed_network(&demands?, self.profile.think_time, self.concurrency)
    }

    /// How many [`Plant::measure`] calls this plant answered from the tail
    /// of its pending batch instead of drawing the whole batch. Both paths
    /// give the same bits; the count only says which one ran.
    pub fn tail_measurements(&self) -> u64 {
        self.tail_measurements
    }

    /// Maximum synthetic samples emitted per flush. A percentile estimate
    /// from 2,000 samples is statistically indistinguishable from one over
    /// hundreds of thousands, and capping keeps long virtual periods cheap
    /// (the co-simulation runs hundreds of plants over a week).
    const MAX_SAMPLES_PER_FLUSH: usize = 2000;

    /// Turn the completions accumulated in `pending_time_s` into a pending
    /// batch.
    fn flush(&mut self) {
        let (mean, x) = match self.mva() {
            Some(r) if r.response_time > 0.0 => (r.response_time, r.throughput),
            _ => {
                // Starved plant: nothing completes, time still passes (the
                // DES shows the same behaviour with zero capacity).
                return;
            }
        };
        let expected = x * self.pending_time_s;
        if expected < 1.0 {
            return; // not enough virtual time for even one completion
        }
        let n = expected.floor() as usize;
        self.pending_time_s -= n as f64 / x;
        // One distribution per flush: every draw shares the operating
        // point, so its log-space terms are derived once.
        self.pending.push((
            LogNormal::new(mean, self.response_cv),
            n.min(Self::MAX_SAMPLES_PER_FLUSH),
        ));
    }
}

impl Plant for AnalyticPlant {
    fn n_tiers(&self) -> usize {
        self.profile.n_tiers()
    }

    fn set_allocations(&mut self, ghz: &[f64]) -> Result<()> {
        if ghz.len() != self.profile.n_tiers() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                ghz.len(),
                self.profile.n_tiers()
            )));
        }
        if ghz.iter().any(|&g| g < 0.0 || !g.is_finite()) {
            return Err(AppTierError::BadConfig(
                "allocations must be finite and non-negative".into(),
            ));
        }
        self.allocations_ghz = ghz.to_vec();
        Ok(())
    }

    fn run_for(&mut self, dt: f64) {
        self.pending_time_s += dt.max(0.0);
        self.flush();
    }

    fn take_completed(&mut self) -> Vec<f64> {
        let mut completed = Vec::with_capacity(self.pending.iter().map(|&(_, n)| n).sum());
        for (draw, n) in self.pending.drain(..) {
            completed.extend((0..n).map(|_| draw.sample(&mut self.rng)));
        }
        completed
    }

    /// A percentile of at least the 90th over one pending batch comes from
    /// the batch's tail draws; anything else, or a tail walk that cannot
    /// prove its answer, drains and selects.
    fn measure(&mut self, metric: SlaMetric) -> Option<f64> {
        if let (SlaMetric::Percentile(p), &[(draw, n)]) = (metric, self.pending.as_slice()) {
            // The walk keeps ~13.6 % of the draws: enough for the top decile.
            if p >= 90.0 {
                let k = nearest_rank_index(p, n);
                if let Some(v) = draw.tail_order_statistic(&mut self.rng, n, k) {
                    self.pending.clear();
                    self.tail_measurements += 1;
                    return Some(v);
                }
            }
        }
        metric.measure(self.take_completed())
    }

    fn set_concurrency(&mut self, concurrency: usize) {
        self.concurrency = concurrency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ResponseStats, SlaMetric};
    use crate::sim::AppSim;

    fn plant(c: usize, alloc: &[f64]) -> AnalyticPlant {
        AnalyticPlant::new(WorkloadProfile::rubbos(), c, alloc, 0.45, 9).unwrap()
    }

    #[test]
    fn validation() {
        assert!(AnalyticPlant::new(WorkloadProfile::rubbos(), 10, &[1.0], 0.4, 1).is_err());
        assert!(AnalyticPlant::new(WorkloadProfile::rubbos(), 10, &[1.0, 1.0], -0.1, 1).is_err());
        let mut p = plant(10, &[1.0, 1.0]);
        assert!(p.set_allocations(&[1.0]).is_err());
        assert!(p.set_allocations(&[1.0, f64::NAN]).is_err());
        assert!(p.set_allocations(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn produces_samples_at_mva_rate() {
        let mut p = plant(40, &[1.0, 1.0]);
        let x = p.mva().unwrap().throughput;
        p.run_for(10.0);
        let n = p.take_completed().len() as f64;
        assert!((n - 10.0 * x).abs() <= 1.0, "completions {n} vs rate {x}");
    }

    #[test]
    fn mean_tracks_mva_and_more_cpu_is_faster() {
        let mut slow = plant(40, &[0.6, 0.6]);
        let mut fast = plant(40, &[2.0, 2.0]);
        slow.run_for(200.0);
        fast.run_for(200.0);
        let ms = ResponseStats::from_samples(slow.take_completed()).mean();
        let mf = ResponseStats::from_samples(fast.take_completed()).mean();
        assert!(ms > 2.0 * mf, "slow {ms} vs fast {mf}");
        // Mean close to the MVA prediction.
        let predicted = plant(40, &[0.6, 0.6]).mva().unwrap().response_time;
        assert!((ms - predicted).abs() / predicted < 0.1);
    }

    #[test]
    fn agrees_with_des_on_p90_within_tolerance() {
        // The analytic plant's p90 (lognormal around the MVA mean) should
        // land near the DES p90 for the same operating point.
        let mut analytic = plant(40, &[1.0, 1.0]);
        analytic.run_for(300.0);
        let p90_a = ResponseStats::from_samples(analytic.take_completed()).p90();
        let mut des = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 5).unwrap();
        des.run_for(30.0);
        des.take_completed();
        des.run_for(300.0);
        let p90_d = ResponseStats::from_samples(des.take_completed()).p90();
        let rel = (p90_a - p90_d).abs() / p90_d;
        assert!(
            rel < 0.25,
            "analytic {p90_a:.3}s vs DES {p90_d:.3}s ({rel:.2})"
        );
    }

    #[test]
    fn starved_plant_completes_nothing() {
        let mut p = plant(10, &[0.0, 1.0]);
        p.run_for(50.0);
        assert!(p.take_completed().is_empty());
        assert!(p.mva().is_none());
    }

    #[test]
    fn zero_concurrency_idles() {
        let mut p = plant(0, &[1.0, 1.0]);
        p.run_for(50.0);
        assert!(p.take_completed().is_empty());
    }

    #[test]
    fn sample_and_p90_bits_are_pinned() {
        // Bit patterns of the first draws and of each period's p90 at two
        // operating points: a capped cosim period (2,000 samples) and a
        // short identification-length period (~213 samples, carrying a
        // fractional completion between periods). Any change to the float
        // operations of a draw, to the MVA feeding it, or to the
        // nearest-rank selection moves them.
        let rubbos = |c, alloc: &[f64], cv, seed| {
            AnalyticPlant::new(WorkloadProfile::rubbos(), c, alloc, cv, seed).unwrap()
        };
        let cases = [
            (
                rubbos(40, &[1.0, 1.0], 0.45, 5415),
                112.5,
                [
                    0x3fd9_6127_3468_60c2,
                    0x3fe0_d7b9_c563_5be7,
                    0x3fdb_e17f_d94c_f037,
                    0x3fd6_b83d_7ab1_b21a,
                ],
                [
                    0x3fea_5176_4699_3389,
                    0x3fea_280d_e67e_8d99,
                    0x3fe9_dc43_4c7c_8189,
                    0x3fe9_7a4e_f500_b36d,
                ],
            ),
            (
                rubbos(10, &[0.6, 0.9], 0.35, 77),
                4.0,
                [
                    0x3fc3_3b81_88ee_4a6d,
                    0x3fc7_688f_6c8c_b0f2,
                    0x3fb2_a8b7_4b0d_4f65,
                    0x3fc6_76d3_bdc2_7f98,
                ],
                [
                    0x3fd1_221a_46bf_41cf,
                    0x3fd1_eb9f_f952_d068,
                    0x3fd0_fe85_8f0c_240c,
                    0x3fd1_7983_c132_3409,
                ],
            ),
        ];
        for (mut p, period_s, first, p90s) in cases {
            for (period, &want_p90) in p90s.iter().enumerate() {
                p.run_for(period_s);
                let done = p.take_completed();
                if period == 0 {
                    let got: Vec<u64> = done[..4].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, first, "first draws of a {period_s} s period");
                }
                let p90 = SlaMetric::P90.measure(done.clone()).unwrap();
                assert_eq!(p90.to_bits(), want_p90, "p90 of period {period}");
                let sorted_p90 = ResponseStats::from_samples(done).p90();
                assert_eq!(
                    sorted_p90.to_bits(),
                    want_p90,
                    "sorted p90 of period {period}"
                );
            }
        }
    }

    #[test]
    fn concurrency_knob_works() {
        let mut p = plant(10, &[1.0, 1.0]);
        p.run_for(50.0);
        let m_low = ResponseStats::from_samples(p.take_completed()).mean();
        p.set_concurrency(80);
        p.run_for(50.0);
        let m_high = ResponseStats::from_samples(p.take_completed()).mean();
        assert!(m_high > 2.0 * m_low);
    }
}
