//! Benches for the large-scale machinery: trace generation and one full
//! optimizer invocation against a populated data center (the cost paid
//! every 4 simulated hours in Fig. 6).

use std::hint::black_box;
use vdc_apptier::rng::SimRng;
use vdc_bench::harness::BenchHarness;
use vdc_core::optimizer::{OptimizerConfig, PowerOptimizer};
use vdc_dcsim::{DataCenter, Server, ServerHandle, ServerSpec, VmSpec};
use vdc_trace::{generate_trace, TraceConfig};

fn bench_trace_generation(h: &mut BenchHarness) {
    for n_vms in [100usize, 1000] {
        h.bench("trace_generate", &n_vms.to_string(), || {
            generate_trace(black_box(&TraceConfig {
                n_vms,
                n_samples: 672,
                interval_s: 900.0,
                seed: 7,
            }))
        });
    }
}

/// A populated data center with some overloaded servers.
fn pressured_dc(n_servers: usize, n_vms: usize, seed: u64) -> DataCenter {
    let mut rng = SimRng::seed_from_u64(seed);
    let catalog = ServerSpec::catalog();
    let mut dc = DataCenter::new();
    for _ in 0..n_servers {
        let spec = rng.pick(&catalog).clone();
        dc.add_server(Server::active(spec));
    }
    let mut vms = Vec::with_capacity(n_vms);
    for i in 0..n_vms {
        let demand = 0.3 + rng.uniform() * 1.2;
        let vm = dc.add_vm(VmSpec::new(i as u64, demand, 512.0)).unwrap();
        vms.push(vm);
        // Round-robin placement ignores balance: some servers overload.
        let mut placed = false;
        for off in 0..n_servers {
            let s = ServerHandle::from_index((i + off) % n_servers);
            if dc.place_vm(vm, s).is_ok() {
                placed = true;
                break;
            }
        }
        assert!(placed, "fleet too small for the benchmark population");
    }
    // Inflate some demands to create genuine overload.
    for i in (0..n_vms).step_by(7) {
        dc.set_vm_demand(vms[i], 3.5).unwrap();
    }
    dc
}

fn bench_optimizer_invocation(h: &mut BenchHarness) {
    for (servers, vms) in [(100usize, 300usize), (400, 1200)] {
        let dc = pressured_dc(servers, vms, 5);
        let ipac = PowerOptimizer::new(OptimizerConfig::ipac_default());
        h.bench(
            "optimizer_invocation_plan",
            &format!("ipac_{vms}vms"),
            || ipac.plan(black_box(&dc), &[]),
        );
        let pmapper = PowerOptimizer::new(OptimizerConfig::pmapper_default());
        h.bench(
            "optimizer_invocation_plan",
            &format!("pmapper_{vms}vms"),
            || pmapper.plan(black_box(&dc), &[]),
        );
    }
}

fn main() {
    let mut h = BenchHarness::from_env("largescale");
    bench_trace_generation(&mut h);
    bench_optimizer_invocation(&mut h);
    h.finish();
}
