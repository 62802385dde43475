//! Property-based tests for trace generation and I/O.

use std::cell::Cell;
use std::ops::Range;
use vdc_check::{ascii_string, check, choose, from_fn, prop_assert, prop_assert_eq, Gen, TestRng};
use vdc_trace::{
    generate_trace, generate_windows, Sector, TraceConfig, UtilizationTrace, VmTraceMeta,
};

const CASES: u32 = 32;

fn gen_meta(rng: &mut TestRng) -> VmTraceMeta {
    let sector = choose(&[
        Sector::Manufacturing,
        Sector::Telecom,
        Sector::Financial,
        Sector::Retail,
    ])
    .generate(rng);
    VmTraceMeta {
        sector,
        nominal_ghz: rng.f64_in(0.5, 8.0),
        memory_mib: rng.f64_in(128.0, 8192.0),
    }
}

#[test]
fn generated_utilization_always_in_unit_range() {
    let gen = from_fn(|rng: &mut TestRng| {
        (
            rng.usize_in(1, 30),
            rng.usize_in(1, 200),
            rng.u64_in(0, 10_000),
        )
    });
    check(CASES, &gen, |&(n_vms, n_samples, seed)| {
        let t = generate_trace(&TraceConfig {
            n_vms,
            n_samples,
            interval_s: 900.0,
            seed,
        });
        prop_assert_eq!(t.n_vms(), n_vms);
        prop_assert_eq!(t.n_samples(), n_samples);
        for vm in 0..n_vms {
            for &u in t.series(vm) {
                prop_assert!((0.0..=1.0).contains(&u));
            }
            prop_assert!(t.meta(vm).nominal_ghz > 0.0);
        }
        Ok(())
    });
}

/// A window of `0..n_samples`: empty, full, a prefix, a suffix or an
/// interior stretch, with equal odds.
fn gen_window(rng: &mut TestRng, n_samples: usize) -> Range<usize> {
    let (a, b) = (
        rng.usize_in(0, n_samples + 1),
        rng.usize_in(0, n_samples + 1),
    );
    let (lo, hi) = (a.min(b), a.max(b));
    match rng.usize_in(0, 5) {
        0 => a..a,
        1 => 0..n_samples,
        2 => 0..hi,
        3 => lo..n_samples,
        _ => lo..hi,
    }
}

#[test]
fn windowed_rows_equal_generate_trace_bit_for_bit() {
    let gen = from_fn(|rng: &mut TestRng| {
        let n_vms = rng.usize_in(0, 13);
        let n_samples = rng.usize_in(1, 65);
        let windows: Vec<Range<usize>> = (0..n_vms).map(|_| gen_window(rng, n_samples)).collect();
        (windows, n_samples, rng.u64_in(0, 10_000))
    });
    // Cases where a VM with nothing stored precedes one with values: the
    // skipped VM's draws must still keep the serial stream in step.
    let skip_then_store = Cell::new(0u32);
    check(CASES, &gen, |(windows, n_samples, seed)| {
        let cfg = TraceConfig {
            n_vms: windows.len(),
            n_samples: *n_samples,
            interval_s: 900.0,
            seed: *seed,
        };
        let full = generate_trace(&cfg);
        let (data, meta) = generate_windows(&cfg, windows);
        prop_assert_eq!(data.len(), windows.iter().map(|w| w.len()).sum::<usize>());
        prop_assert_eq!(meta.len(), windows.len());
        let mut stored = data.iter();
        for (vm, window) in windows.iter().enumerate() {
            prop_assert_eq!(&meta[vm], full.meta(vm));
            for t in window.clone() {
                let u = stored.next().expect("one value per windowed sample");
                prop_assert_eq!(u.to_bits(), full.utilization(vm, t).to_bits());
            }
        }
        let first_empty = windows.iter().position(|w| w.is_empty());
        let last_stored = windows.iter().rposition(|w| !w.is_empty());
        if matches!((first_empty, last_stored), (Some(e), Some(s)) if e < s) {
            skip_then_store.set(skip_then_store.get() + 1);
        }
        Ok(())
    });
    assert!(
        skip_then_store.get() > 0,
        "no case put an empty window before a non-empty one"
    );
}

#[test]
fn csv_roundtrip_arbitrary_traces() {
    let gen = from_fn(|rng: &mut TestRng| {
        let n_vms = rng.usize_in(1, 10);
        let metas: Vec<VmTraceMeta> = (0..n_vms).map(|_| gen_meta(rng)).collect();
        (metas, rng.usize_in(1, 50), rng.u64_in(0, 1000))
    });
    check(CASES, &gen, |(metas, n_samples, seed)| {
        let (n_samples, seed) = (*n_samples, *seed);
        // Build a trace with pseudo-random but valid utilizations.
        let n_vms = metas.len();
        let mut state = seed.wrapping_add(1);
        let mut data = Vec::with_capacity(n_vms * n_samples);
        for _ in 0..n_vms * n_samples {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            data.push(((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0));
        }
        let t = UtilizationTrace::from_parts(n_samples, 900.0, data, metas.clone());
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let parsed = UtilizationTrace::read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(parsed.n_vms(), t.n_vms());
        prop_assert_eq!(parsed.n_samples(), t.n_samples());
        for vm in 0..t.n_vms() {
            prop_assert_eq!(parsed.meta(vm).sector, t.meta(vm).sector);
            prop_assert!((parsed.meta(vm).nominal_ghz - t.meta(vm).nominal_ghz).abs() < 1e-9);
            for k in 0..n_samples {
                // 4-decimal CSV precision.
                prop_assert!((parsed.utilization(vm, k) - t.utilization(vm, k)).abs() < 5e-5);
            }
        }
        Ok(())
    });
}

#[test]
fn head_preserves_prefix() {
    let gen = from_fn(|rng: &mut TestRng| {
        (
            rng.usize_in(2, 20),
            rng.usize_in(1, 20),
            rng.u64_in(0, 1000),
        )
    });
    check(CASES, &gen, |&(n_vms, keep, seed)| {
        let t = generate_trace(&TraceConfig {
            n_vms,
            n_samples: 24,
            interval_s: 900.0,
            seed,
        });
        let h = t.head(keep);
        prop_assert_eq!(h.n_vms(), keep.min(n_vms));
        for vm in 0..h.n_vms() {
            prop_assert_eq!(h.series(vm), t.series(vm));
        }
        Ok(())
    });
}

#[test]
fn demand_is_utilization_times_nominal() {
    let gen = from_fn(|rng: &mut TestRng| {
        (
            rng.usize_in(1, 10),
            rng.u64_in(0, 1000),
            rng.usize_in(0, 10),
            rng.usize_in(0, 30),
        )
    });
    check(CASES, &gen, |&(n_vms, seed, vm_pick, t_pick)| {
        let t = generate_trace(&TraceConfig {
            n_vms,
            n_samples: 30,
            interval_s: 900.0,
            seed,
        });
        let vm = vm_pick % n_vms;
        let d = t.demand_ghz(vm, t_pick);
        let expect = t.utilization(vm, t_pick) * t.meta(vm).nominal_ghz;
        prop_assert!((d - expect).abs() < 1e-12);
        prop_assert!(d <= t.meta(vm).nominal_ghz + 1e-12);
        Ok(())
    });
}

/// Robustness: the CSV reader must reject or accept arbitrary junk without
/// panicking.
#[test]
fn csv_reader_never_panics_on_junk() {
    check(128, &ascii_string(0, 400), |junk| {
        let _ = UtilizationTrace::read_csv(junk.as_bytes());
        Ok(())
    });
}

/// Header-shaped junk with arbitrary bodies must also be panic-free.
#[test]
fn csv_reader_never_panics_on_near_miss() {
    check(128, &ascii_string(0, 300), |body| {
        let input = format!("# vdcpower utilization trace: interval_s=900\n{body}\n");
        let _ = UtilizationTrace::read_csv(input.as_bytes());
        Ok(())
    });
}
