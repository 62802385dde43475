//! The discrete-event engine: closed-loop clients over processor-sharing
//! tier queues.
//!
//! Time is continuous (`f64` seconds). The engine is *event-stepped*: at
//! each step it computes the earliest next event — a job finishing its
//! current tier under processor sharing, or a thinking client issuing its
//! next request — advances every in-service job's remaining demand by the
//! elapsed CPU share, and processes the event. Processor sharing with a
//! dynamic job count has no closed-form departure times, so this
//! recompute-on-every-event scheme is the standard exact simulation.

use crate::profile::WorkloadProfile;
use crate::rng::SimRng;
use crate::{AppTierError, Result};

/// Residual-cycle tolerance under which a job is considered finished
/// (absorbs floating-point drift from repeated decrements).
const FINISH_EPS_CYCLES: f64 = 1e-3;

/// A request currently in service at some tier.
#[derive(Debug, Clone)]
struct Job {
    /// Owning closed-loop client, or `None` for open-loop arrivals.
    client: Option<usize>,
    /// Request class index into the profile's mixture.
    class: usize,
    /// Absolute time the request entered the system.
    issued_at: f64,
    remaining_cycles: f64,
}

/// One tier: a processor-sharing queue with a CPU-cycle capacity.
#[derive(Debug, Clone)]
struct Tier {
    /// Allocated capacity in cycles per second (GHz × 1e9).
    capacity: f64,
    jobs: Vec<Job>,
    /// Accumulated busy time (seconds with ≥ 1 job in service).
    busy_time: f64,
    /// Total cycles executed.
    cycles_done: f64,
    /// Requests completed at this tier.
    completions: u64,
}

impl Tier {
    /// Seconds until the first in-service job completes under PS, or
    /// `None` if the tier is empty or frozen (zero capacity).
    fn time_to_next_completion(&self) -> Option<f64> {
        if self.jobs.is_empty() || self.capacity <= 0.0 {
            return None;
        }
        let per_job_rate = self.capacity / self.jobs.len() as f64;
        self.jobs
            .iter()
            .map(|j| j.remaining_cycles / per_job_rate)
            .min_by(|a, b| a.partial_cmp(b).expect("remaining cycles are finite"))
    }

    /// Advance every in-service job by `dt` seconds of PS service.
    fn advance(&mut self, dt: f64) {
        if self.jobs.is_empty() {
            return;
        }
        self.busy_time += dt;
        if self.capacity <= 0.0 {
            return;
        }
        let work = dt * self.capacity / self.jobs.len() as f64;
        for j in &mut self.jobs {
            j.remaining_cycles -= work;
        }
        self.cycles_done += dt * self.capacity.min(self.capacity);
    }
}

/// State of one emulated client.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientState {
    /// Waiting to issue the next request at the given absolute time.
    Thinking { until: f64 },
    /// Request in flight (the job lives in some tier's queue).
    InFlight { issued_at: f64, tier: usize },
    /// Retired (concurrency was reduced).
    Retired,
}

/// Discrete-event simulation of one multi-tier application.
///
/// # Examples
///
/// ```
/// use vdc_apptier::{AppSim, WorkloadProfile};
///
/// // 40 closed-loop clients against a two-tier app at 1 GHz per tier.
/// let mut sim = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 7).unwrap();
/// sim.run_for(10.0);
/// let responses = sim.take_completed();
/// assert!(!responses.is_empty());
/// assert!(responses.iter().all(|&t| t > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct AppSim {
    profile: WorkloadProfile,
    tiers: Vec<Tier>,
    clients: Vec<ClientState>,
    target_concurrency: usize,
    /// Open-loop Poisson arrival rate (requests/second); `None` = purely
    /// closed-loop. Both sources can be active simultaneously (e.g. a
    /// benchmark load plus background API traffic).
    open_rate: Option<f64>,
    /// Absolute time of the next scheduled open arrival.
    next_open_arrival: f64,
    now: f64,
    rng: SimRng,
    /// Response times (seconds) completed since the last drain.
    completed: Vec<f64>,
    /// Class of each completed response, parallel to `completed`.
    completed_classes: Vec<usize>,
    total_completed: u64,
}

impl AppSim {
    /// Create a simulation with `concurrency` closed-loop clients and the
    /// given per-tier CPU allocations in GHz.
    pub fn new(
        profile: WorkloadProfile,
        concurrency: usize,
        allocations_ghz: &[f64],
        seed: u64,
    ) -> Result<AppSim> {
        if allocations_ghz.len() != profile.n_tiers() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                allocations_ghz.len(),
                profile.n_tiers()
            )));
        }
        if allocations_ghz.iter().any(|&g| g < 0.0 || !g.is_finite()) {
            return Err(AppTierError::BadConfig(
                "allocations must be finite and non-negative".into(),
            ));
        }
        let tiers = allocations_ghz
            .iter()
            .map(|&g| Tier {
                capacity: g * 1e9,
                jobs: Vec::new(),
                busy_time: 0.0,
                cycles_done: 0.0,
                completions: 0,
            })
            .collect();
        let mut sim = AppSim {
            profile,
            tiers,
            clients: Vec::new(),
            target_concurrency: 0,
            open_rate: None,
            next_open_arrival: f64::INFINITY,
            now: 0.0,
            rng: SimRng::seed_from_u64(seed),
            completed: Vec::new(),
            completed_classes: Vec::new(),
            total_completed: 0,
        };
        sim.set_concurrency(concurrency);
        Ok(sim)
    }

    /// Create an **open-loop** simulation: requests arrive as a Poisson
    /// process at `rate_rps` requests/second (no client population). The
    /// open system models internet-facing traffic where the arrival rate
    /// does not depend on how fast responses come back; under overload its
    /// queues grow without bound, unlike the self-throttling closed loop.
    pub fn open(
        profile: WorkloadProfile,
        rate_rps: f64,
        allocations_ghz: &[f64],
        seed: u64,
    ) -> Result<AppSim> {
        if rate_rps <= 0.0 || !rate_rps.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "arrival rate {rate_rps} must be positive"
            )));
        }
        let mut sim = AppSim::new(profile, 0, allocations_ghz, seed)?;
        sim.set_arrival_rate(Some(rate_rps));
        Ok(sim)
    }

    /// Enable, change, or disable (`None`) the open-loop arrival process.
    pub(crate) fn set_arrival_rate(&mut self, rate_rps: Option<f64>) {
        self.open_rate = rate_rps.filter(|r| *r > 0.0 && r.is_finite());
        self.next_open_arrival = match self.open_rate {
            Some(rate) => self.now + self.rng.exponential(1.0 / rate),
            None => f64::INFINITY,
        };
    }

    /// Number of tiers.
    pub(crate) fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total requests completed since the start of the simulation.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Change the CPU allocation of one tier (GHz). Takes effect
    /// immediately — in-service work continues at the new rate, which is
    /// how Xen credit-scheduler cap changes behave.
    pub fn set_allocation(&mut self, tier: usize, ghz: f64) -> Result<()> {
        if tier >= self.tiers.len() {
            return Err(AppTierError::BadConfig(format!(
                "tier {tier} out of range ({} tiers)",
                self.tiers.len()
            )));
        }
        if ghz < 0.0 || !ghz.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "allocation {ghz} must be finite and non-negative"
            )));
        }
        self.tiers[tier].capacity = ghz * 1e9;
        Ok(())
    }

    /// Set all tier allocations at once (GHz).
    pub fn set_allocations(&mut self, ghz: &[f64]) -> Result<()> {
        if ghz.len() != self.tiers.len() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                ghz.len(),
                self.tiers.len()
            )));
        }
        for (i, &g) in ghz.iter().enumerate() {
            self.set_allocation(i, g)?;
        }
        Ok(())
    }

    /// Change the concurrency level (the `ab -c` knob; Fig. 3 ramps this
    /// from 40 to 80 mid-run). Increases take effect immediately; decreases
    /// retire clients as their in-flight requests complete.
    pub fn set_concurrency(&mut self, target: usize) {
        self.target_concurrency = target;
        // Reactivate retired clients or create new ones as needed.
        let mut active = self.active_clients();
        if active < target {
            for c in &mut self.clients {
                if active == target {
                    break;
                }
                if *c == ClientState::Retired {
                    *c = ClientState::Thinking { until: self.now };
                    active += 1;
                }
            }
            while active < target {
                self.clients.push(ClientState::Thinking { until: self.now });
                active += 1;
            }
        } else if active > target {
            // Retire surplus thinking clients immediately; in-flight ones
            // retire upon completion.
            let mut surplus = active - target;
            for c in &mut self.clients {
                if surplus == 0 {
                    break;
                }
                if matches!(c, ClientState::Thinking { .. }) {
                    *c = ClientState::Retired;
                    surplus -= 1;
                }
            }
        }
    }

    fn active_clients(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| !matches!(c, ClientState::Retired))
            .count()
    }

    /// Jobs currently in service at each tier.
    pub fn queue_lengths(&self) -> Vec<usize> {
        self.tiers.iter().map(|t| t.jobs.len()).collect()
    }

    /// Utilization of each tier since the start (busy time / elapsed time).
    pub fn utilizations(&self) -> Vec<f64> {
        if self.now <= 0.0 {
            return vec![0.0; self.tiers.len()];
        }
        self.tiers.iter().map(|t| t.busy_time / self.now).collect()
    }

    /// Drain and return the response times (seconds) of requests completed
    /// since the previous drain.
    pub fn take_completed(&mut self) -> Vec<f64> {
        self.completed_classes.clear();
        std::mem::take(&mut self.completed)
    }

    /// Drain response times *with* their request-class index (for per-class
    /// SLA analysis of mixed workloads).
    #[cfg(test)]
    pub(crate) fn take_completed_by_class(&mut self) -> Vec<(usize, f64)> {
        let times = std::mem::take(&mut self.completed);
        let classes = std::mem::take(&mut self.completed_classes);
        classes.into_iter().zip(times).collect()
    }

    /// Run the simulation until `self.now + duration`.
    pub fn run_for(&mut self, duration: f64) {
        let end = self.now + duration.max(0.0);
        while self.now < end {
            let dt_next = self.time_to_next_event();
            match dt_next {
                Some(dt) if self.now + dt <= end => {
                    self.advance(dt);
                    self.process_due_events();
                }
                _ => {
                    // No event before the deadline: coast to it.
                    let dt = end - self.now;
                    self.advance(dt);
                    self.process_due_events();
                    break;
                }
            }
        }
    }

    /// Seconds until the earliest event, if any event is pending.
    fn time_to_next_event(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for t in &self.tiers {
            if let Some(dt) = t.time_to_next_completion() {
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            }
        }
        for c in &self.clients {
            if let ClientState::Thinking { until } = c {
                let dt = (until - self.now).max(0.0);
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            }
        }
        if self.next_open_arrival.is_finite() {
            let dt = (self.next_open_arrival - self.now).max(0.0);
            best = Some(best.map_or(dt, |b: f64| b.min(dt)));
        }
        best
    }

    /// Advance simulation time by `dt`, performing PS service at each tier.
    fn advance(&mut self, dt: f64) {
        if dt <= 0.0 {
            // Still process zero-time events (e.g. think time 0).
            self.now += 0.0;
            return;
        }
        for t in &mut self.tiers {
            t.advance(dt);
        }
        self.now += dt;
    }

    /// Fire every event that is due at (or marginally before) `self.now`.
    fn process_due_events(&mut self) {
        // Tier completions cascade (a job can finish tier j and have zero
        // demand at tier j+1), so loop to a fixed point.
        loop {
            let mut fired = false;

            // 1. Thinking clients whose timers elapsed issue new requests.
            for ci in 0..self.clients.len() {
                if let ClientState::Thinking { until } = self.clients[ci] {
                    if until <= self.now + 1e-12 {
                        self.issue_request(ci);
                        fired = true;
                    }
                }
            }

            // 1b. Open-loop arrivals that are due.
            while self.next_open_arrival <= self.now + 1e-12 {
                let class = self.pick_class();
                let demand = self.sample_demand(class, 0);
                self.tiers[0].jobs.push(Job {
                    client: None,
                    class,
                    issued_at: self.now,
                    remaining_cycles: demand,
                });
                let rate = self.open_rate.expect("finite arrival implies rate");
                self.next_open_arrival = self.now + self.rng.exponential(1.0 / rate);
                fired = true;
            }

            // 2. Jobs whose remaining demand reached zero move on.
            for ti in 0..self.tiers.len() {
                let mut idx = 0;
                while idx < self.tiers[ti].jobs.len() {
                    if self.tiers[ti].jobs[idx].remaining_cycles <= FINISH_EPS_CYCLES {
                        let job = self.tiers[ti].jobs.swap_remove(idx);
                        self.tiers[ti].completions += 1;
                        self.job_finished_tier(job, ti);
                        fired = true;
                    } else {
                        idx += 1;
                    }
                }
            }

            if !fired {
                break;
            }
        }
    }

    /// Client `ci` issues a new request into tier 0.
    fn issue_request(&mut self, ci: usize) {
        let class = self.pick_class();
        let demand = self.sample_demand(class, 0);
        self.clients[ci] = ClientState::InFlight {
            issued_at: self.now,
            tier: 0,
        };
        self.tiers[0].jobs.push(Job {
            client: Some(ci),
            class,
            issued_at: self.now,
            remaining_cycles: demand,
        });
    }

    /// A job finished tier `ti`: forward it or complete the request.
    fn job_finished_tier(&mut self, job: Job, ti: usize) {
        let next_tier = ti + 1;
        if next_tier < self.tiers.len() {
            let demand = self.sample_demand(job.class, next_tier);
            if let Some(ci) = job.client {
                self.clients[ci] = ClientState::InFlight {
                    issued_at: job.issued_at,
                    tier: next_tier,
                };
            }
            self.tiers[next_tier].jobs.push(Job {
                remaining_cycles: demand,
                ..job
            });
        } else {
            // Response complete.
            self.completed.push(self.now - job.issued_at);
            self.completed_classes.push(job.class);
            self.total_completed += 1;
            if let Some(ci) = job.client {
                if self.active_clients() > self.target_concurrency {
                    self.clients[ci] = ClientState::Retired;
                } else {
                    let think = self.rng.exponential(self.profile.think_time);
                    self.clients[ci] = ClientState::Thinking {
                        until: self.now + think,
                    };
                }
            }
        }
    }

    /// Pick a request class from the profile's mixture.
    fn pick_class(&mut self) -> usize {
        if self.profile.n_classes() <= 1 {
            return 0;
        }
        let u = self.rng.uniform();
        self.profile.pick_class(u)
    }

    /// Sample the service demand (cycles) for a `class` request at `tier`.
    fn sample_demand(&mut self, class: usize, tier: usize) -> f64 {
        let d = self.profile.classes[class].tiers[tier];
        self.rng.lognormal(d.mean_cycles, d.cv).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{TierDemand, WorkloadProfile};

    fn two_tier(cv: f64, think: f64) -> WorkloadProfile {
        WorkloadProfile::new(
            vec![
                TierDemand::new(10.0e6, cv).unwrap(),
                TierDemand::new(12.0e6, cv).unwrap(),
            ],
            think,
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        let p = two_tier(0.5, 0.0);
        assert!(AppSim::new(p.clone(), 10, &[1.0], 1).is_err());
        assert!(AppSim::new(p.clone(), 10, &[1.0, -1.0], 1).is_err());
        assert!(AppSim::new(p.clone(), 10, &[1.0, f64::NAN], 1).is_err());
        let sim = AppSim::new(p, 10, &[1.0, 1.0], 1).unwrap();
        assert_eq!(sim.n_tiers(), 2);
        assert_eq!(sim.target_concurrency, 10);
    }

    #[test]
    fn single_client_deterministic_response_time() {
        // cv = 0, one client, no think time: response = D1/c1 + D2/c2.
        let p = two_tier(0.0, 0.0);
        let mut sim = AppSim::new(p, 1, &[1.0, 1.0], 7).unwrap();
        sim.run_for(5.0);
        let times = sim.take_completed();
        assert!(!times.is_empty());
        let expected = 10.0e6 / 1e9 + 12.0e6 / 1e9; // 22 ms
        for t in &times {
            assert!((t - expected).abs() < 1e-6, "{t} vs {expected}");
        }
        // Throughput: one request every 22 ms => ~227 in 5 s.
        let n = times.len() as f64;
        assert!((n - 5.0 / expected).abs() < 2.0, "completions {n}");
    }

    #[test]
    fn doubling_allocation_halves_response_time() {
        let p = two_tier(0.0, 0.0);
        let mut slow = AppSim::new(p.clone(), 1, &[1.0, 1.0], 7).unwrap();
        let mut fast = AppSim::new(p, 1, &[2.0, 2.0], 7).unwrap();
        slow.run_for(5.0);
        fast.run_for(5.0);
        let rs = slow.take_completed()[0];
        let rf = fast.take_completed()[0];
        assert!((rs / rf - 2.0).abs() < 1e-6);
    }

    #[test]
    fn closed_loop_conserves_customers() {
        let p = two_tier(0.5, 0.01);
        let mut sim = AppSim::new(p, 25, &[1.0, 1.0], 3).unwrap();
        sim.run_for(10.0);
        // Everyone is thinking, in flight, or (not here) retired.
        let in_queues: usize = sim.queue_lengths().iter().sum();
        let thinking = sim
            .clients
            .iter()
            .filter(|c| matches!(c, ClientState::Thinking { .. }))
            .count();
        assert_eq!(in_queues + thinking, 25);
    }

    #[test]
    fn response_time_grows_with_concurrency() {
        let p = two_tier(0.3, 0.0);
        let mut lo = AppSim::new(p.clone(), 5, &[1.0, 1.0], 11).unwrap();
        let mut hi = AppSim::new(p, 40, &[1.0, 1.0], 11).unwrap();
        lo.run_for(30.0);
        hi.run_for(30.0);
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let r_lo = mean(lo.take_completed());
        let r_hi = mean(hi.take_completed());
        assert!(
            r_hi > 3.0 * r_lo,
            "response under load {r_hi} should dwarf light load {r_lo}"
        );
    }

    #[test]
    fn more_cpu_lowers_response_time_under_load() {
        let p = two_tier(0.5, 0.0);
        let mut starved = AppSim::new(p.clone(), 40, &[0.5, 0.5], 13).unwrap();
        let mut rich = AppSim::new(p, 40, &[2.5, 2.5], 13).unwrap();
        starved.run_for(30.0);
        rich.run_for(30.0);
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(starved.take_completed()) > 3.0 * mean(rich.take_completed()));
    }

    #[test]
    fn utilization_bounded_and_bottleneck_saturates() {
        let p = two_tier(0.5, 0.0);
        // Tier 1 has double the demand per GHz => bottleneck.
        let mut sim = AppSim::new(p, 40, &[2.0, 1.0], 17).unwrap();
        sim.run_for(30.0);
        let u = sim.utilizations();
        assert!(u.iter().all(|&x| x <= 1.0 + 1e-9));
        assert!(u[1] > 0.95, "bottleneck utilization {}", u[1]);
    }

    #[test]
    fn concurrency_ramp_up_and_down() {
        let p = two_tier(0.5, 0.0);
        let mut sim = AppSim::new(p, 10, &[1.0, 1.0], 19).unwrap();
        sim.run_for(5.0);
        let x1 = sim.take_completed().len() as f64 / 5.0;
        sim.set_concurrency(40);
        sim.run_for(5.0);
        sim.take_completed();
        // After the ramp, in-flight + thinking actives equal 40.
        let in_queues: usize = sim.queue_lengths().iter().sum();
        assert!(in_queues <= 40);
        assert_eq!(sim.active_clients(), 40);
        sim.set_concurrency(5);
        sim.run_for(10.0);
        let _ = sim.take_completed();
        assert_eq!(sim.active_clients(), 5);
        // Throughput in the saturated regime stays positive.
        assert!(x1 > 0.0);
    }

    #[test]
    fn zero_capacity_freezes_then_resumes() {
        let p = two_tier(0.0, 0.0);
        let mut sim = AppSim::new(p, 4, &[1.0, 0.0], 23).unwrap();
        sim.run_for(2.0);
        // All requests pile up at tier 1 (zero capacity): none complete.
        assert!(sim.take_completed().is_empty());
        assert_eq!(sim.queue_lengths()[1], 4);
        // Restore capacity: completions resume.
        sim.set_allocation(1, 2.0).unwrap();
        sim.run_for(2.0);
        assert!(!sim.take_completed().is_empty());
        assert!((sim.now - 4.0).abs() < 1e-9);
    }

    #[test]
    fn take_completed_drains() {
        let p = two_tier(0.2, 0.0);
        let mut sim = AppSim::new(p, 5, &[1.0, 1.0], 29).unwrap();
        sim.run_for(5.0);
        let first = sim.take_completed();
        assert!(!first.is_empty());
        assert!(sim.take_completed().is_empty());
        assert_eq!(sim.total_completed(), first.len() as u64);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let p = two_tier(0.7, 0.005);
        let mut a = AppSim::new(p.clone(), 20, &[1.2, 0.9], 31).unwrap();
        let mut b = AppSim::new(p, 20, &[1.2, 0.9], 31).unwrap();
        a.run_for(10.0);
        b.run_for(10.0);
        assert_eq!(a.take_completed(), b.take_completed());
    }

    #[test]
    fn three_tier_flow() {
        let p = WorkloadProfile::three_tier();
        let mut sim = AppSim::new(p, 10, &[1.0, 1.0, 1.0], 37).unwrap();
        sim.run_for(10.0);
        assert!(sim.total_completed() > 0);
        // Per-tier completion counts are equal (every request visits all
        // tiers) up to in-flight residue.
        let c: Vec<u64> = sim.tiers.iter().map(|t| t.completions).collect();
        assert!(c[0] >= c[1] && c[1] >= c[2]);
        assert!(c[0] - c[2] <= 10);
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use crate::profile::{TierDemand, WorkloadProfile};

    fn two_tier() -> WorkloadProfile {
        WorkloadProfile::new(
            vec![
                TierDemand::new(10.0e6, 1.0).unwrap(),
                TierDemand::new(12.0e6, 1.0).unwrap(),
            ],
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn open_constructor_validates_rate() {
        assert!(AppSim::open(two_tier(), 0.0, &[1.0, 1.0], 1).is_err());
        assert!(AppSim::open(two_tier(), -5.0, &[1.0, 1.0], 1).is_err());
        assert!(AppSim::open(two_tier(), f64::NAN, &[1.0, 1.0], 1).is_err());
        let sim = AppSim::open(two_tier(), 20.0, &[1.0, 1.0], 1).unwrap();
        assert_eq!(sim.open_rate, Some(20.0));
        assert_eq!(sim.target_concurrency, 0);
    }

    #[test]
    fn open_throughput_matches_arrival_rate_when_stable() {
        // Utilization ~ 0.44 at both tiers: stable M/G/1-PS pair, so
        // long-run throughput equals the arrival rate.
        let mut sim = AppSim::open(two_tier(), 40.0, &[0.9, 1.1], 7).unwrap();
        sim.run_for(20.0);
        sim.take_completed();
        sim.run_for(100.0);
        let x = sim.take_completed().len() as f64 / 100.0;
        assert!((x - 40.0).abs() < 3.0, "throughput {x} vs arrival rate 40");
    }

    #[test]
    fn open_mean_response_matches_mg1_ps() {
        // For M/G/1-PS the mean sojourn is D / (1 - rho) regardless of the
        // service distribution; two tiers in series approximately add.
        let lambda = 30.0;
        let (d1, d2) = (10.0e6 / 1e9, 12.0e6 / 1e9);
        let mut sim = AppSim::open(two_tier(), lambda, &[1.0, 1.0], 11).unwrap();
        sim.run_for(30.0);
        sim.take_completed();
        sim.run_for(400.0);
        let samples = sim.take_completed();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let expect = d1 / (1.0 - lambda * d1) + d2 / (1.0 - lambda * d2);
        let rel = (mean - expect).abs() / expect;
        assert!(
            rel < 0.12,
            "mean {mean:.4} vs M/G/1-PS {expect:.4} (rel {rel:.2})"
        );
    }

    #[test]
    fn open_overload_grows_queues() {
        // rho > 1 at tier 0: the open system diverges (unlike closed).
        let mut sim = AppSim::open(two_tier(), 150.0, &[1.0, 2.0], 13).unwrap();
        sim.run_for(20.0);
        let q20: usize = sim.queue_lengths().iter().sum();
        sim.run_for(20.0);
        let q40: usize = sim.queue_lengths().iter().sum();
        assert!(
            q40 > q20,
            "overloaded open system must grow: {q20} -> {q40}"
        );
        assert!(q40 > 100, "queue {q40} should be large");
    }

    #[test]
    fn mixed_open_and_closed_sources() {
        let mut sim = AppSim::new(two_tier(), 5, &[1.5, 1.5], 17).unwrap();
        sim.set_arrival_rate(Some(10.0));
        sim.run_for(50.0);
        let n = sim.take_completed().len() as f64 / 50.0;
        // Closed part alone would give ~C/R ≈ 5/0.03 ≈ way more; just check
        // both sources flow: throughput clearly above the open rate alone
        // and the population of closed clients is conserved.
        assert!(n > 10.0);
        assert_eq!(sim.target_concurrency, 5);
        // Disabling the open source stops unbounded work.
        sim.set_arrival_rate(None);
        assert_eq!(sim.open_rate, None);
        sim.run_for(10.0);
        let in_flight: usize = sim.queue_lengths().iter().sum();
        assert!(in_flight <= 5 + 2, "only closed jobs remain: {in_flight}");
    }

    #[test]
    fn open_arrivals_deterministic_per_seed() {
        let mut a = AppSim::open(two_tier(), 25.0, &[1.0, 1.0], 23).unwrap();
        let mut b = AppSim::open(two_tier(), 25.0, &[1.0, 1.0], 23).unwrap();
        a.run_for(30.0);
        b.run_for(30.0);
        assert_eq!(a.take_completed(), b.take_completed());
    }
}

#[cfg(test)]
mod multiclass_tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    #[test]
    fn mixed_profile_produces_both_classes() {
        let p = WorkloadProfile::rubbos_mixed();
        assert_eq!(p.n_classes(), 2);
        let mut sim = AppSim::new(p, 20, &[1.5, 1.5], 7).unwrap();
        sim.run_for(60.0);
        let by_class = sim.take_completed_by_class();
        let n = by_class.len() as f64;
        assert!(n > 100.0);
        let posts = by_class.iter().filter(|(c, _)| *c == 1).count() as f64;
        let share = posts / n;
        // 15 % post share within sampling tolerance.
        assert!((share - 0.15).abs() < 0.05, "post share {share}");
    }

    #[test]
    fn heavy_class_has_longer_responses() {
        let p = WorkloadProfile::rubbos_mixed();
        let mut sim = AppSim::new(p, 20, &[1.5, 1.5], 11).unwrap();
        sim.run_for(120.0);
        let by_class = sim.take_completed_by_class();
        let mean_of = |cls: usize| {
            let v: Vec<f64> = by_class
                .iter()
                .filter(|(c, _)| *c == cls)
                .map(|(_, t)| *t)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let browse = mean_of(0);
        let post = mean_of(1);
        assert!(
            post > 1.5 * browse,
            "posts ({post:.4}s) must dwarf browses ({browse:.4}s)"
        );
    }

    #[test]
    fn mixture_mean_matches_single_class_equivalent() {
        // The weighted-mean demands of rubbos_mixed equal rubbos's, so the
        // aggregate mean response under light load should be close.
        let mixed = WorkloadProfile::rubbos_mixed();
        for t in 0..2 {
            let ratio = mixed.tiers[t].mean_cycles / WorkloadProfile::rubbos().tiers[t].mean_cycles;
            assert!((ratio - 1.0).abs() < 0.05, "tier {t} ratio {ratio}");
        }
    }

    #[test]
    fn take_completed_clears_class_log_too() {
        let p = WorkloadProfile::rubbos_mixed();
        let mut sim = AppSim::new(p, 5, &[1.0, 1.0], 3).unwrap();
        sim.run_for(10.0);
        let _ = sim.take_completed(); // aggregate drain
        assert!(sim.take_completed_by_class().is_empty());
    }

    #[test]
    fn class_validation() {
        use crate::profile::{RequestClass, TierDemand};
        // Mismatched tier counts rejected.
        let bad = WorkloadProfile::with_classes(
            vec![
                RequestClass {
                    name: "a".into(),
                    weight: 1.0,
                    tiers: vec![TierDemand::new(1e6, 0.5).unwrap()],
                },
                RequestClass {
                    name: "b".into(),
                    weight: 1.0,
                    tiers: vec![
                        TierDemand::new(1e6, 0.5).unwrap(),
                        TierDemand::new(1e6, 0.5).unwrap(),
                    ],
                },
            ],
            0.0,
        );
        assert!(bad.is_err());
        // Non-positive weights rejected.
        let bad_w = WorkloadProfile::with_classes(
            vec![RequestClass {
                name: "a".into(),
                weight: 0.0,
                tiers: vec![TierDemand::new(1e6, 0.5).unwrap()],
            }],
            0.0,
        );
        assert!(bad_w.is_err());
        assert!(WorkloadProfile::with_classes(vec![], 0.0).is_err());
    }
}
