//! The hardware-testbed scenario of §VI-A / §VII-A, simulated.
//!
//! Four servers host eight two-tier RUBBoS-like applications (16 VMs).
//! Every application has its own response-time controller; every server
//! runs the CPU resource arbitrator (DVFS). The data-center power optimizer
//! can be invoked on top, but the §VII-A experiments disable it ("In this
//! experiment, we disable the power optimizer to evaluate the response time
//! controllers"), which is the default here too.

use crate::controller::{identify_plant, IdentificationConfig};
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{SimState, Stages};
use crate::run::RunOptions;
use crate::tier::{ControllerSpec, TierController};
use crate::{CoreError, Result};
use vdc_apptier::{AppSim, WorkloadProfile};
use vdc_consolidate::view::ApplyStats;
use vdc_dcsim::{DataCenter, Server, ServerHandle, ServerSpec, VmHandle, VmSpec};

/// Configuration of the testbed scenario.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of applications (paper: 8).
    pub n_apps: usize,
    /// Concurrency level per application (paper: 40).
    pub concurrency: usize,
    /// Response-time set point (ms; paper: 1000).
    pub setpoint_ms: f64,
    /// Control period (seconds; paper: "several seconds").
    pub period_s: f64,
    /// Identification settings.
    pub ident: IdentificationConfig,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_apps: 8,
            concurrency: 40,
            setpoint_ms: 1000.0,
            period_s: 4.0,
            ident: IdentificationConfig::default(),
            seed: 2010,
        }
    }
}

/// One sample of the testbed per control period.
#[derive(Debug, Clone)]
pub struct TestbedSample {
    /// Simulation time at the end of the period (seconds).
    pub(crate) time_s: f64,
    /// Measured 90-percentile response time per application (ms); `None`
    /// if no requests completed that period.
    pub response_ms: Vec<Option<f64>>,
    /// Cluster power (watts): the shared charge over the active servers.
    pub power_w: f64,
    /// Per-server DVFS frequency (GHz; 0 = sleeping).
    pub freq_ghz: Vec<f64>,
}

/// The simulated testbed.
pub struct Testbed {
    sim: SimState<'static>,
    apps: Vec<AppSim>,
    controllers: Vec<Box<dyn TierController>>,
    /// `vm_handles[app][tier]`.
    vm_handles: Vec<Vec<VmHandle>>,
    time_s: f64,
}

impl Testbed {
    /// Build the testbed: create servers and VMs, identify one model, and
    /// construct the controllers. This performs the §IV-B identification
    /// experiment, so it simulates several hundred control periods.
    pub fn build(cfg: &TestbedConfig) -> Result<Testbed> {
        if cfg.n_apps == 0 {
            return Err(CoreError::BadConfig("need at least one application".into()));
        }
        let profile = WorkloadProfile::rubbos();
        let n_tiers = profile.n_tiers();

        // Four servers as in §VI-A (two larger, two smaller boxes).
        let mut dc = DataCenter::new();
        let specs = [
            ServerSpec::type_quad_3ghz(),
            ServerSpec::type_dual_2ghz(),
            ServerSpec::type_dual_2ghz(),
            ServerSpec::type_quad_3ghz(),
        ];
        for spec in specs {
            dc.add_server(Server::active(spec));
        }

        // One model shared across the identical applications: the paper
        // identifies one application and reuses the controller design
        // (Figs. 4–5 probe exactly this robustness).
        let mut twin = AppSim::new(
            profile.clone(),
            cfg.concurrency,
            &vec![1.0; n_tiers],
            cfg.seed ^ 0x51D,
        )?;
        let model = identify_plant(&mut twin, &cfg.ident, cfg.seed)?;

        let mut apps = Vec::with_capacity(cfg.n_apps);
        let mut controllers = Vec::with_capacity(cfg.n_apps);
        let mut vm_handles = Vec::with_capacity(cfg.n_apps);
        let c0 = vec![1.0; n_tiers];
        for a in 0..cfg.n_apps {
            let plant = AppSim::new(
                profile.clone(),
                cfg.concurrency,
                &c0,
                cfg.seed.wrapping_add(7919 * (a as u64 + 1)),
            )?;
            let controller =
                ControllerSpec::Mpc.build(&model, cfg.setpoint_ms, cfg.period_s, &c0)?;

            // Register the application's tier VMs, spreading web and DB
            // tiers across different servers.
            let mut handles = Vec::with_capacity(n_tiers);
            for (tier, &c_init) in c0.iter().enumerate() {
                let vm_id = (a * n_tiers + tier) as u64;
                let h = dc.add_vm(VmSpec::for_app(
                    vm_id,
                    a as u32,
                    tier as u32,
                    c_init,
                    1024.0,
                ))?;
                let server = ServerHandle::from_index((a + tier) % dc.n_servers());
                dc.place_vm(h, server)?;
                handles.push(h);
            }
            apps.push(plant);
            controllers.push(controller);
            vm_handles.push(handles);
        }

        let stages = Stages {
            prefix: "testbed",
            // Unread: the optimizer runs only through `run_optimizer`.
            optimizer_period: usize::MAX,
            relief: false,
            dvfs: true,
            interval_s: cfg.period_s,
            shards: 1,
        };
        let opts = RunOptions::default();
        Ok(Testbed {
            sim: SimState::new(stages, dc, OptimizerConfig::ipac_default(), &opts),
            apps,
            controllers,
            vm_handles,
            time_s: 0.0,
        })
    }

    /// Current simulation time (seconds).
    pub(crate) fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Number of applications.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Borrow one application's controller (through the
    /// [`TierController`] seam).
    pub fn controller(&self, app: usize) -> &dyn TierController {
        self.controllers[app].as_ref()
    }

    /// Change an application's concurrency level (the Fig. 3 workload
    /// surge: App5 ramps 40 → 80 at t = 600 s).
    pub(crate) fn set_concurrency(&mut self, app: usize, concurrency: usize) {
        self.apps[app].set_concurrency(concurrency);
    }

    /// Run one control period for every application (the testbed's demand
    /// stage), then the shared DVFS stage, the throttling of oversubscribed
    /// servers, and the shared power charge ([`crate::pipeline`]).
    pub(crate) fn step(&mut self) -> Result<TestbedSample> {
        // 1. Application-level control.
        let mut response_ms = Vec::with_capacity(self.apps.len());
        for (ctrl, plant) in self.controllers.iter_mut().zip(&mut self.apps) {
            response_ms.push(ctrl.control_period(plant)?);
        }

        // 2. Propagate the VM demands to the data center.
        let dc = &mut self.sim.dc;
        for (app, handles) in self.vm_handles.iter().enumerate() {
            let alloc = self.controllers[app].allocation();
            for (tier, &vm) in handles.iter().enumerate() {
                dc.set_vm_demand(vm, alloc[tier])?;
            }
        }

        // 3. Server-level arbitration: DVFS to the lowest sufficient level,
        //    sleeping servers that host no VM; when a server is
        //    oversubscribed, scale the hosted allocations proportionally and
        //    apply the throttled values to the plants.
        self.sim.dvfs()?;
        let dc = &self.sim.dc;
        for i in 0..dc.n_servers() {
            let s = ServerHandle::from_index(i);
            let demand = dc.server_demand_ghz(s)?;
            let cap = dc.server(s)?.spec.max_capacity_ghz();
            if demand > cap {
                let scale = cap / demand;
                for &vm in dc.hosted_vms(s)? {
                    let (app, tier) = dc.vm(vm)?.app.expect("testbed VMs carry app tags");
                    let granted = dc.vm_demand(vm)? * scale;
                    self.apps[app as usize].set_allocation(tier as usize, granted)?;
                }
            }
        }

        // 4. The one power charge.
        let charge = self.sim.account(1.0)?;
        self.time_s += self.sim.stages.interval_s;
        let freq_ghz = (0..self.sim.dc.n_servers())
            .map(|i| match self.sim.dc.servers()[i].state {
                vdc_dcsim::ServerState::Active { freq_ghz } => freq_ghz,
                vdc_dcsim::ServerState::Sleeping | vdc_dcsim::ServerState::Failed => 0.0,
            })
            .collect();

        Ok(TestbedSample {
            time_s: self.time_s,
            response_ms,
            power_w: charge.watts,
            freq_ghz,
        })
    }

    /// Run `n` control periods, collecting samples.
    pub fn run(&mut self, n: usize) -> Result<Vec<TestbedSample>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.step()?);
        }
        Ok(out)
    }

    /// Invoke the data-center power optimizer on the testbed (the §VII-A
    /// experiments disable it, but the integrated system of Fig. 1 runs it
    /// on a long period on top of the response-time controllers).
    ///
    /// Placement changes do not disturb the application plants — live
    /// migration is transparent to the workload — but they change which
    /// server arbitrates each VM's demand and therefore the cluster power.
    pub fn run_optimizer(&mut self) -> Result<ApplyStats> {
        self.sim.optimize(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced testbed that keeps unit tests fast; the full-scale
    /// scenario is exercised by the fig* binaries and integration tests.
    fn quick_cfg() -> TestbedConfig {
        TestbedConfig {
            n_apps: 2,
            concurrency: 25,
            ident: IdentificationConfig {
                periods: 120,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn build_and_step() {
        let mut tb = Testbed::build(&quick_cfg()).unwrap();
        assert_eq!(tb.n_apps(), 2);
        let s = tb.step().unwrap();
        assert_eq!(s.response_ms.len(), 2);
        assert!(s.power_w > 0.0);
        assert_eq!(s.freq_ghz.len(), 4);
        // Two apps use servers 0–2; server 3 hosts no VM, so it sleeps.
        assert!(s.freq_ghz[..3].iter().all(|&f| f > 0.0), "{:?}", s.freq_ghz);
        assert_eq!(s.freq_ghz[3], 0.0);
        assert!((tb.time_s() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_apps_rejected() {
        let cfg = TestbedConfig {
            n_apps: 0,
            ..quick_cfg()
        };
        assert!(Testbed::build(&cfg).is_err());
    }

    #[test]
    fn controllers_reach_setpoint() {
        let mut tb = Testbed::build(&quick_cfg()).unwrap();
        let samples = tb.run(100).unwrap();
        // Average the measured p90 over the last third of the run.
        for app in 0..2 {
            let tail: Vec<f64> = samples[66..]
                .iter()
                .filter_map(|s| s.response_ms[app])
                .collect();
            assert!(!tail.is_empty());
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            assert!(
                (mean - 1000.0).abs() < 200.0,
                "app {app}: steady-state p90 {mean} ms"
            );
        }
    }

    #[test]
    fn workload_surge_recovers() {
        let mut tb = Testbed::build(&quick_cfg()).unwrap();
        tb.run(60).unwrap();
        tb.set_concurrency(0, 50);
        let surge = tb.run(80).unwrap();
        let tail: Vec<f64> = surge[50..]
            .iter()
            .filter_map(|s| s.response_ms[0])
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 1000.0).abs() < 250.0,
            "post-surge steady state {mean} ms"
        );
        // The controller should have raised app 0's allocation.
        let demand = tb.controller(0).total_demand_ghz();
        assert!(demand > 1.0, "surged app demand {demand} GHz");
    }

    #[test]
    fn power_tracks_demand() {
        let mut tb = Testbed::build(&quick_cfg()).unwrap();
        let early = tb.step().unwrap().power_w;
        // Tighter SLA → more CPU → more power.
        for ctrl in &mut tb.controllers {
            ctrl.set_setpoint(600.0);
        }
        let samples = tb.run(60).unwrap();
        let late = samples.last().unwrap().power_w;
        assert!(late >= early - 30.0, "power {late} vs {early}");
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::controller::IdentificationConfig;

    #[test]
    fn oversubscribed_cluster_degrades_gracefully() {
        // Six applications with aggressive 400 ms targets push total CPU
        // demand past what the four servers can grant; the arbitrator
        // scales allocations instead of crashing, and the system keeps
        // producing measurements with bounded demands.
        let cfg = TestbedConfig {
            n_apps: 6,
            concurrency: 30,
            setpoint_ms: 400.0,
            ident: IdentificationConfig {
                periods: 120,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut tb = Testbed::build(&cfg).unwrap();
        let samples = tb.run(60).unwrap();
        // The run completes and keeps measuring.
        let measured: usize = samples
            .iter()
            .map(|s| s.response_ms.iter().filter(|r| r.is_some()).count())
            .sum();
        assert!(
            measured > 200,
            "cluster starved: only {measured} measurements"
        );
        // Every controller's demand stays within its configured ceiling.
        for app in 0..cfg.n_apps {
            for &c in tb.controller(app).allocation() {
                assert!((0.0..=3.0 + 1e-9).contains(&c));
            }
        }
        // Power stays within the physical envelope of the 4 servers.
        for s in &samples {
            assert!(
                s.power_w > 100.0 && s.power_w < 1200.0,
                "power {}",
                s.power_w
            );
        }
    }
}
