//! Property gate for the heterogeneous-fleet layer: every catalog profile's
//! power curve must be monotone in utilization *and* in the DVFS ladder
//! step (more load or more clock never costs less power), and per-site PUE
//! must behave like a pure multiplier on IT power — constant series stay
//! constant, step changes clamp, and sub-unity PUE is rejected everywhere.
//! The `--fleet` JSON reader must answer junk and damaged documents with an
//! error, never a panic. Failures replay with `VDC_CHECK_SEED`.

use vdc_check::{ascii_string, check, from_fn, prop_assert, Gen, TestRng};
use vdc_dcsim::json::JsonValue;
use vdc_dcsim::{DataCenter, FleetSpec, HostCatalog, ProfileId, PueSeries, Server, SiteSpec};

const CASES: u32 = 64;

/// Both shipped catalogs, as (catalog, profile-index) draws.
fn any_profile() -> impl Gen<Value = (HostCatalog, usize)> {
    from_fn(|rng: &mut TestRng| {
        let catalog = if rng.bool() {
            HostCatalog::specpower()
        } else {
            HostCatalog::paper()
        };
        let idx = rng.usize_in(0, catalog.len() - 1);
        (catalog, idx)
    })
}

#[test]
fn profile_power_is_monotone_in_utilization() {
    let gen = from_fn(|rng: &mut TestRng| {
        let (catalog, idx) = any_profile().generate(rng);
        let a = rng.unit_f64();
        let b = rng.unit_f64();
        (catalog, idx, a.min(b), a.max(b))
    });
    check(CASES, &gen, |(catalog, idx, lo, hi)| {
        let profile = catalog
            .get(ProfileId::from_index(*idx))
            .expect("drawn index");
        prop_assert!(
            profile.power_at_util(*lo) <= profile.power_at_util(*hi),
            "{}: P({lo}) > P({hi}) on the linear SPECpower view",
            profile.name
        );
        let model = profile.power_model().expect("catalog profiles validate");
        let f = profile.freq_levels_ghz[idx % profile.freq_levels_ghz.len()];
        let ratio = f / profile.max_freq_ghz;
        prop_assert!(
            model.active_power(ratio, *lo) <= model.active_power(ratio, *hi),
            "{}: active power not monotone in u at f_ratio {ratio}",
            profile.name
        );
        Ok(())
    });
}

#[test]
fn profile_power_is_monotone_in_dvfs_step() {
    let gen = from_fn(|rng: &mut TestRng| {
        let (catalog, idx) = any_profile().generate(rng);
        let u = rng.unit_f64();
        (catalog, idx, u)
    });
    check(CASES, &gen, |(catalog, idx, u)| {
        let profile = catalog
            .get(ProfileId::from_index(*idx))
            .expect("drawn index");
        let model = profile.power_model().expect("catalog profiles validate");
        for pair in profile.freq_levels_ghz.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            prop_assert!(
                model.active_power(lo / profile.max_freq_ghz, *u)
                    <= model.active_power(hi / profile.max_freq_ghz, *u),
                "{}: stepping {lo} -> {hi} GHz at u {u} lowered power",
                profile.name
            );
        }
        Ok(())
    });
}

#[test]
fn constant_pue_series_is_constant_everywhere() {
    let gen = from_fn(|rng: &mut TestRng| (rng.f64_in(1.0, 3.0), rng.usize_in(0, 10_000)));
    check(CASES, &gen, |(pue, t)| {
        let series = PueSeries::constant(*pue).expect("PUE >= 1 is valid");
        prop_assert!(
            series.at(*t).to_bits() == pue.to_bits(),
            "constant series moved at t {t}: {} vs {pue}",
            series.at(*t)
        );
        Ok(())
    });
}

#[test]
fn step_change_pue_series_clamps_to_the_last_value() {
    let gen = from_fn(|rng: &mut TestRng| {
        let before = rng.f64_in(1.0, 2.0);
        let after = rng.f64_in(1.0, 2.0);
        let step_at = rng.usize_in(1, 96);
        (before, after, step_at)
    });
    check(CASES, &gen, |(before, after, step_at)| {
        let mut samples = vec![*before; *step_at];
        samples.push(*after);
        let series = PueSeries::from_samples(samples).expect("valid step series");
        prop_assert!(
            series.at(0).to_bits() == before.to_bits(),
            "pre-step value moved"
        );
        prop_assert!(
            series.at(*step_at).to_bits() == after.to_bits(),
            "step value moved"
        );
        // Clamp: any index past the end holds the post-step value.
        prop_assert!(
            series.at(step_at + 10_000).to_bits() == after.to_bits(),
            "clamp past the end moved"
        );
        Ok(())
    });
}

#[test]
fn sub_unity_and_non_finite_pue_are_rejected_everywhere() {
    let gen = from_fn(|rng: &mut TestRng| rng.f64_in(-1.0, 1.0 - 1e-9));
    check(CASES, &gen, |bad| {
        prop_assert!(
            PueSeries::constant(*bad).is_err(),
            "PueSeries accepted PUE {bad}"
        );
        prop_assert!(
            PueSeries::from_samples(vec![1.2, *bad]).is_err(),
            "PueSeries accepted a {bad} sample"
        );
        let mut dc = DataCenter::new();
        let catalog = HostCatalog::specpower();
        let spec = catalog
            .spec(ProfileId::from_index(0))
            .expect("catalog spec");
        dc.add_server_in_site(Server::active(spec), 0)
            .expect("site 0 always exists");
        prop_assert!(
            dc.set_site_pue(0, *bad).is_err(),
            "set_site_pue accepted PUE {bad}"
        );
        Ok(())
    });
    assert!(PueSeries::constant(f64::NAN).is_err());
    assert!(PueSeries::constant(f64::INFINITY).is_err());
}

/// A random multi-site fleet over one of the shipped catalogs: arbitrary
/// site count, server counts, weighted sub-mixes of the catalog, and PUE
/// series of random length/values — the space a hand-written `--fleet`
/// file lives in.
fn any_fleet() -> impl Gen<Value = FleetSpec> {
    from_fn(|rng: &mut TestRng| {
        let catalog = if rng.bool() {
            HostCatalog::specpower()
        } else {
            HostCatalog::paper()
        };
        let n_sites = rng.usize_in(1, 4);
        let sites = (0..n_sites)
            .map(|i| {
                let n_mix = rng.usize_in(1, catalog.len());
                let mix = (0..n_mix)
                    .map(|_| {
                        (
                            ProfileId::from_index(rng.usize_in(0, catalog.len() - 1)),
                            rng.usize_in(1, 100) as u32,
                        )
                    })
                    .collect();
                let pue = PueSeries::from_samples(
                    (0..rng.usize_in(1, 8))
                        .map(|_| rng.f64_in(1.0, 3.0))
                        .collect(),
                )
                .expect("samples in [1, 3] validate");
                SiteSpec {
                    name: format!("site-{i}"),
                    n_servers: rng.usize_in(0, 500),
                    mix,
                    pue,
                }
            })
            .collect();
        FleetSpec::new(catalog, sites).expect("generated fleets validate")
    })
}

#[test]
fn fleet_spec_json_round_trips_bit_exactly() {
    check(CASES, &any_fleet(), |spec| {
        let doc = spec.to_json();
        let parsed = FleetSpec::from_json_str(&doc);
        prop_assert!(
            parsed.is_ok(),
            "round-trip parse failed: {:?}",
            parsed.err()
        );
        let back = parsed.expect("checked above");
        prop_assert!(
            back == *spec,
            "parsed fleet differs from the original (doc: {doc})"
        );
        // Equality covers every f64 via PartialEq; additionally pin the
        // rendered document itself (shortest-round-trip floats re-render
        // identically).
        prop_assert!(back.to_json() == doc, "re-rendered document drifted");
        Ok(())
    });
}

#[test]
fn facility_power_is_it_power_times_site_pue() {
    let gen = from_fn(|rng: &mut TestRng| {
        let idx = rng.usize_in(0, HostCatalog::specpower().len() - 1);
        let pue = rng.f64_in(1.0, 3.0);
        (idx, pue)
    });
    check(CASES, &gen, |(idx, pue)| {
        let catalog = HostCatalog::specpower();
        let spec = catalog
            .spec(ProfileId::from_index(*idx))
            .expect("catalog spec");
        let mut dc = DataCenter::new();
        let s = dc
            .add_server_in_site(Server::active(spec), 0)
            .expect("add server");
        dc.set_site_pue(0, *pue).expect("PUE >= 1 is valid");
        let it = dc.server_power_watts(s).expect("power");
        let facility = dc.server_facility_power_watts(s).expect("facility power");
        prop_assert!(
            facility.to_bits() == (it * pue).to_bits(),
            "facility {facility} != IT {it} x PUE {pue}"
        );
        Ok(())
    });
}

/// Robustness: the `--fleet` reader and the JSON parser under it must
/// reject or accept arbitrary junk without panicking.
#[test]
fn fleet_json_reader_never_panics_on_junk() {
    check(128, &ascii_string(0, 400), |junk| {
        let _ = JsonValue::parse(junk);
        let _ = FleetSpec::from_json_str(junk);
        Ok(())
    });
}

/// Bytes a substitution writes: JSON structure, number and literal
/// characters, and whitespace.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\-+.eE0123456789truefalsn \n";

/// Robustness: every truncation of a valid fleet document, and 1–3-byte
/// substitutions into it, must come back as `Ok` or `Err`, never a panic.
#[test]
fn fleet_json_reader_never_panics_on_damaged_documents() {
    let gen = from_fn(|rng: &mut TestRng| {
        let doc = any_fleet().generate(rng).to_json();
        let edits: Vec<Vec<(usize, u8)>> = (0..64)
            .map(|_| {
                (0..rng.usize_in(1, 4))
                    .map(|_| {
                        let at = rng.usize_in(0, doc.len());
                        (at, JSON_BYTES[rng.usize_in(0, JSON_BYTES.len())])
                    })
                    .collect()
            })
            .collect();
        (doc, edits)
    });
    check(32, &gen, |(doc, edits)| {
        prop_assert!(doc.is_ascii(), "fleet documents are ASCII");
        for cut in 0..doc.len() {
            let _ = FleetSpec::from_json_str(&doc[..cut]);
        }
        for edit in edits {
            let mut damaged = doc.clone().into_bytes();
            for &(at, b) in edit {
                damaged[at] = b;
            }
            let damaged = String::from_utf8(damaged).expect("ASCII stays UTF-8");
            let _ = JsonValue::parse(&damaged);
            let _ = FleetSpec::from_json_str(&damaged);
        }
        Ok(())
    });
}
