//! Fleet specification: multi-site host mixes and per-site PUE series.
//!
//! A [`FleetSpec`] describes *what hardware exists where*: a
//! [`HostCatalog`] plus one [`SiteSpec`] per datacenter site, each with a
//! server count, a weighted profile mix, and a [`PueSeries`] — the
//! facility power-usage-effectiveness trace that multiplies IT power in
//! every exported power figure for that site.
//!
//! `dcsim` stays dependency-free, so profile draws are injected:
//! [`FleetSpec::build_with`] takes a `draw(n) -> usize` closure and the
//! caller supplies its own RNG. [`FleetSpec::paper_default`] encodes the
//! legacy single-site 15/35/50 mix over the paper catalog, and — driven by
//! the same RNG draws the legacy builder used — reproduces the
//! single-template fleet byte for byte.

use crate::datacenter::DataCenter;
use crate::json::{array, JsonObject, JsonValue};
use crate::power::PowerModel;
use crate::profile::{HostCatalog, ProfileId};
use crate::server::{Server, ServerSpec};
use crate::{DcError, Result};

/// A per-site PUE time series, sampled on the trace grid.
///
/// `at(t)` clamps to the last value, so a constant series is one sample
/// and a step change is two-plus. Every value must be finite and ≥ 1.0 —
/// a facility cannot deliver more IT power than it draws.
#[derive(Debug, Clone, PartialEq)]
pub struct PueSeries {
    values: Vec<f64>,
}

impl PueSeries {
    /// A constant PUE (single-sample series).
    pub fn constant(pue: f64) -> Result<PueSeries> {
        PueSeries::from_samples(vec![pue])
    }

    /// A PUE trace on the sample grid; clamps to the last value past the
    /// end. Rejects empty series and any value that is non-finite or
    /// below 1.0.
    pub fn from_samples(values: Vec<f64>) -> Result<PueSeries> {
        if values.is_empty() {
            return Err(DcError::Invalid("PUE series must not be empty".into()));
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() || *v < 1.0 {
                return Err(DcError::Invalid(format!(
                    "PUE series sample {i} is {v}; every PUE must be finite and >= 1.0"
                )));
            }
        }
        Ok(PueSeries { values })
    }

    /// The PUE at sample index `t` (clamped to the last sample).
    pub fn at(&self, t: usize) -> f64 {
        self.values[t.min(self.values.len() - 1)]
    }

    /// The raw samples.
    pub(crate) fn samples(&self) -> &[f64] {
        &self.values
    }
}

/// One datacenter site: a server count, a weighted profile mix, and the
/// facility PUE series.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site name (used in telemetry gauge names and reports).
    pub name: String,
    /// Number of servers stamped at this site.
    pub n_servers: usize,
    /// Weighted profile mix: `(profile, weight)` pairs; a server's profile
    /// is drawn with probability `weight / Σ weights`.
    pub mix: Vec<(ProfileId, u32)>,
    /// Facility PUE over the run.
    pub pue: PueSeries,
}

impl SiteSpec {
    /// A site with the given mix and a constant PUE.
    pub fn new(
        name: &str,
        n_servers: usize,
        mix: Vec<(ProfileId, u32)>,
        pue: f64,
    ) -> Result<SiteSpec> {
        Ok(SiteSpec {
            name: name.to_string(),
            n_servers,
            mix,
            pue: PueSeries::constant(pue)?,
        })
    }

    /// Map one draw from `0..total_weight` onto a profile by cumulative
    /// weight.
    fn profile_for_draw(&self, draw: usize) -> ProfileId {
        let mut acc = 0usize;
        for (id, w) in &self.mix {
            acc += *w as usize;
            if draw < acc {
                return *id;
            }
        }
        self.mix.last().expect("validated mix is non-empty").0
    }

    fn total_weight(&self) -> usize {
        self.mix.iter().map(|(_, w)| *w as usize).sum()
    }
}

/// A multi-site fleet: the hardware catalog plus per-site specs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The hardware catalog every site's mix indexes into.
    pub catalog: HostCatalog,
    /// The sites, in index order (site id = position).
    pub sites: Vec<SiteSpec>,
}

impl FleetSpec {
    /// Build a validated fleet spec.
    pub fn new(catalog: HostCatalog, sites: Vec<SiteSpec>) -> Result<FleetSpec> {
        if sites.is_empty() {
            return Err(DcError::Invalid("fleet must have at least one site".into()));
        }
        for site in &sites {
            if site.mix.is_empty() || site.total_weight() == 0 {
                return Err(DcError::Invalid(format!(
                    "site {:?}: profile mix must have positive total weight",
                    site.name
                )));
            }
            for (id, _) in &site.mix {
                catalog.get(*id)?;
            }
        }
        Ok(FleetSpec { catalog, sites })
    }

    /// The legacy single-site fleet: the paper catalog with the 15/35/50
    /// quad-3 GHz / dual-2 GHz / dual-1.5 GHz mix and PUE 1.0. Driven by
    /// the same RNG, [`build_with`](FleetSpec::build_with) reproduces the
    /// pre-fleet template builder draw for draw.
    pub fn paper_default(n_servers: usize) -> FleetSpec {
        let catalog = HostCatalog::paper();
        let mix = vec![
            (ProfileId::from_index(0), 15),
            (ProfileId::from_index(1), 35),
            (ProfileId::from_index(2), 50),
        ];
        let site =
            SiteSpec::new("site0", n_servers, mix, 1.0).expect("constant 1.0 is a valid PUE");
        FleetSpec::new(catalog, vec![site]).expect("static spec validates")
    }

    /// A two-site mixed fleet over the SPECpower catalog: one site biased
    /// to the low-idle-fraction ASUS profiles, one to the older
    /// high-idle boxes, with distinct constant PUEs. The `fig6
    /// --mixed-fleet` sweep runs on this spec.
    pub fn specpower_mixed(n_servers: usize) -> FleetSpec {
        let catalog = HostCatalog::specpower();
        let id = |name: &str| catalog.by_name(name).expect("catalog name");
        let lean = n_servers / 2;
        let legacy = n_servers - lean;
        let sites = vec![
            SiteSpec::new(
                "lean",
                lean,
                vec![
                    (id("ASUSTeK-RS720-E9"), 40),
                    (id("ASUSTeK-RS500A"), 30),
                    (id("ASUSTeK-RS700A"), 30),
                ],
                1.12,
            )
            .expect("valid PUE"),
            SiteSpec::new(
                "legacy",
                legacy,
                vec![
                    (id("HP-DL360-G7-LowPower"), 25),
                    (id("Dell-R720-Medium"), 25),
                    (id("Cisco-UCS-C240-HighPerf"), 15),
                    (id("HPE-DL380-Gen10-Ultra"), 10),
                    (id("Acer-Altos-R520"), 15),
                    (id("Acer-AR360-F2"), 10),
                ],
                1.58,
            )
            .expect("valid PUE"),
        ];
        FleetSpec::new(catalog, sites).expect("static spec validates")
    }

    /// Total servers across all sites.
    pub(crate) fn n_servers(&self) -> usize {
        self.sites.iter().map(|s| s.n_servers).sum()
    }

    /// Resolve every server's profile, in (site, server) order, by calling
    /// `draw(total_weight)` once per server — the caller owns the RNG, so
    /// `dcsim` stays dependency-free and the draw sequence is under the
    /// caller's deterministic control. Returns `(site, profile)` pairs in
    /// arena order.
    pub fn assignments_with(
        &self,
        draw: &mut dyn FnMut(usize) -> usize,
    ) -> Vec<(usize, ProfileId)> {
        let mut out = Vec::with_capacity(self.n_servers());
        for (site_idx, site) in self.sites.iter().enumerate() {
            let total = site.total_weight();
            for _ in 0..site.n_servers {
                out.push((site_idx, site.profile_for_draw(draw(total))));
            }
        }
        out
    }

    /// Render the fleet spec as a JSON document (`dcsim::json` dialect),
    /// the file format the `largescale`/`megafleet` bins load via
    /// `--fleet <path>`. Profiles serialize in full (every
    /// [`ServerSpec`] field) and site mixes reference them *by name*, so
    /// a spec file is self-contained and survives catalog reordering.
    /// [`FleetSpec::from_json_str`] inverts this losslessly (the f64
    /// writer emits shortest-round-trip decimals).
    pub fn to_json(&self) -> String {
        let profiles: Vec<String> = self
            .catalog
            .profiles()
            .iter()
            .map(|p| {
                JsonObject::new()
                    .str("name", &p.name)
                    .int("cores", p.cores as i64)
                    .num("peak_power_w", p.power.max_watts)
                    .num("idle_power_w", p.power.static_watts)
                    .num("sleep_watts", p.power.sleep_watts)
                    .num("max_freq_ghz", p.max_freq_ghz)
                    .nums("freq_levels_ghz", &p.freq_levels_ghz)
                    .num("memory_mib", p.memory_mib)
                    .num("wake_latency_s", p.wake_latency_s)
                    .build()
            })
            .collect();
        let sites: Vec<String> = self
            .sites
            .iter()
            .map(|s| {
                let mix: Vec<String> = s
                    .mix
                    .iter()
                    .map(|(id, w)| {
                        let name = &self
                            .catalog
                            .get(*id)
                            .expect("validated mix references the catalog")
                            .name;
                        JsonObject::new()
                            .str("profile", name)
                            .int("weight", *w as i64)
                            .build()
                    })
                    .collect();
                JsonObject::new()
                    .str("name", &s.name)
                    .int("n_servers", s.n_servers as i64)
                    .raw("mix", &array(&mix))
                    .nums("pue", s.pue.samples())
                    .build()
            })
            .collect();
        JsonObject::new()
            .raw("catalog", &array(&profiles))
            .raw("sites", &array(&sites))
            .build()
    }

    /// Parse a fleet spec from its [`FleetSpec::to_json`] document,
    /// re-running every constructor validation (power curves, DVFS
    /// ladders, mix weights, PUE bounds) — a hand-edited file fails with
    /// the same errors the builders raise.
    pub fn from_json_str(text: &str) -> Result<FleetSpec> {
        let bad = |what: &str| DcError::Invalid(format!("fleet spec: {what}"));
        let doc = JsonValue::parse(text).map_err(|e| bad(&format!("invalid JSON: {e}")))?;
        let f64_of = |obj: &JsonValue, key: &str| -> Result<f64> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad(&format!("missing number {key:?}")))
        };
        // A count: a whole, non-negative number that fits a `u32`. An `as`
        // cast alone would read 4.9 as 4 and -3 as 0 without an error.
        let count_of = |obj: &JsonValue, key: &str| -> Result<u32> {
            let v = f64_of(obj, key)?;
            if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
                Ok(v as u32)
            } else {
                Err(bad(&format!(
                    "{key:?} must be a whole number in 0..={}, got {v}",
                    u32::MAX
                )))
            }
        };
        let str_of = |obj: &JsonValue, key: &str| -> Result<String> {
            Ok(obj
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad(&format!("missing string {key:?}")))?
                .to_string())
        };
        let nums_of = |obj: &JsonValue, key: &str| -> Result<Vec<f64>> {
            obj.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad(&format!("missing array {key:?}")))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| bad(&format!("non-numeric entry in {key:?}")))
                })
                .collect()
        };

        let mut profiles = Vec::new();
        for p in doc
            .get("catalog")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing array \"catalog\""))?
        {
            let name = str_of(p, "name")?;
            let cores = count_of(p, "cores")?;
            let power = PowerModel::new(
                f64_of(p, "sleep_watts")?,
                f64_of(p, "idle_power_w")?,
                f64_of(p, "peak_power_w")?,
            )
            .ok_or_else(|| {
                DcError::Invalid(format!(
                    "profile {name:?}: power curve must satisfy 0 <= sleep <= idle <= peak"
                ))
            })?;
            profiles.push(ServerSpec {
                name,
                cores,
                max_freq_ghz: f64_of(p, "max_freq_ghz")?,
                freq_levels_ghz: nums_of(p, "freq_levels_ghz")?,
                memory_mib: f64_of(p, "memory_mib")?,
                power,
                wake_latency_s: f64_of(p, "wake_latency_s")?,
            });
        }
        let catalog = HostCatalog::new(profiles)?;

        let mut sites = Vec::new();
        for s in doc
            .get("sites")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing array \"sites\""))?
        {
            let mut mix = Vec::new();
            for m in s
                .get("mix")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("site missing array \"mix\""))?
            {
                let profile = str_of(m, "profile")?;
                let id = catalog
                    .by_name(&profile)
                    .ok_or_else(|| bad(&format!("mix references unknown profile {profile:?}")))?;
                mix.push((id, count_of(m, "weight")?));
            }
            sites.push(SiteSpec {
                name: str_of(s, "name")?,
                n_servers: count_of(s, "n_servers")? as usize,
                mix,
                pue: PueSeries::from_samples(nums_of(s, "pue")?)?,
            });
        }
        FleetSpec::new(catalog, sites)
    }

    /// Stamp the fleet into a [`DataCenter`]: every server starts asleep,
    /// tagged with its site, with each site's PUE initialised to the
    /// series' first sample. Returns the site of each server in arena
    /// order.
    pub fn build_with(
        &self,
        dc: &mut DataCenter,
        draw: &mut dyn FnMut(usize) -> usize,
    ) -> Result<Vec<usize>> {
        let assignments = self.assignments_with(draw);
        let mut sites = Vec::with_capacity(assignments.len());
        for (site, profile) in assignments {
            let spec = self.catalog.spec(profile)?;
            dc.add_server_in_site(Server::asleep(spec), site)?;
            sites.push(site);
        }
        for (site_idx, site) in self.sites.iter().enumerate() {
            dc.set_site_pue(site_idx, site.pue.at(0))?;
        }
        Ok(sites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pue_series_rejects_empty_nonfinite_and_below_one() {
        assert!(PueSeries::from_samples(vec![]).is_err());
        assert!(PueSeries::from_samples(vec![0.97]).is_err());
        assert!(PueSeries::from_samples(vec![f64::NAN]).is_err());
        assert!(PueSeries::from_samples(vec![1.2, f64::INFINITY]).is_err());
        assert!(PueSeries::constant(0.5).is_err());
        assert!(PueSeries::constant(1.0).is_ok());
    }

    #[test]
    fn pue_series_clamps_to_last_sample() {
        let s = PueSeries::from_samples(vec![1.5, 1.2]).unwrap();
        assert_eq!(s.at(0), 1.5);
        assert_eq!(s.at(1), 1.2);
        assert_eq!(s.at(100), 1.2);
        let c = PueSeries::constant(1.3).unwrap();
        assert_eq!(c.at(0), 1.3);
        assert_eq!(c.at(672), 1.3);
    }

    #[test]
    fn paper_default_draw_mapping_matches_the_legacy_thresholds() {
        // Legacy builder: draw in 0..=14 -> catalog[0], 15..=49 ->
        // catalog[1], else catalog[2].
        let spec = FleetSpec::paper_default(1);
        let site = &spec.sites[0];
        assert_eq!(site.total_weight(), 100);
        for d in 0..100 {
            let want = if d <= 14 {
                0
            } else if d <= 49 {
                1
            } else {
                2
            };
            assert_eq!(site.profile_for_draw(d).index(), want, "draw {d}");
        }
    }

    #[test]
    fn assignments_cover_sites_in_order() {
        let spec = FleetSpec::specpower_mixed(10);
        let mut counter = 0usize;
        let mut draw = |n: usize| {
            counter += 1;
            counter % n
        };
        let got = spec.assignments_with(&mut draw);
        assert_eq!(got.len(), 10);
        assert!(got[..5].iter().all(|(site, _)| *site == 0));
        assert!(got[5..].iter().all(|(site, _)| *site == 1));
    }

    #[test]
    fn validation_rejects_bad_mixes() {
        let catalog = HostCatalog::paper();
        let empty_mix = SiteSpec::new("s", 4, vec![], 1.0).unwrap();
        assert!(FleetSpec::new(catalog.clone(), vec![empty_mix]).is_err());
        let zero_weight = SiteSpec::new("s", 4, vec![(ProfileId::from_index(0), 0)], 1.0).unwrap();
        assert!(FleetSpec::new(catalog.clone(), vec![zero_weight]).is_err());
        let unknown_profile =
            SiteSpec::new("s", 4, vec![(ProfileId::from_index(99), 1)], 1.0).unwrap();
        assert!(FleetSpec::new(catalog.clone(), vec![unknown_profile]).is_err());
        assert!(FleetSpec::new(catalog, vec![]).is_err());
    }

    #[test]
    fn json_round_trips_the_shipped_fleets() {
        for spec in [FleetSpec::paper_default(40), FleetSpec::specpower_mixed(13)] {
            let doc = spec.to_json();
            let back = FleetSpec::from_json_str(&doc).unwrap();
            assert_eq!(back, spec);
            // And the document itself is stable under a second round.
            assert_eq!(back.to_json(), doc);
        }
    }

    #[test]
    fn from_json_rejects_malformed_and_invalid_specs() {
        assert!(FleetSpec::from_json_str("not json").is_err());
        assert!(FleetSpec::from_json_str("{}").is_err(), "missing catalog");
        // Structurally valid but semantically bad: PUE below 1.0 fails the
        // same constructor validation the builders run.
        let doc = FleetSpec::paper_default(4)
            .to_json()
            .replace("\"pue\":[1.0]", "\"pue\":[0.5]");
        assert!(FleetSpec::from_json_str(&doc).is_err());
        // A power curve with idle above peak.
        let doc = FleetSpec::paper_default(4)
            .to_json()
            .replace("\"idle_power_w\":190.0", "\"idle_power_w\":400.0");
        let err = FleetSpec::from_json_str(&doc).unwrap_err();
        assert!(err.to_string().contains("power curve"), "{err}");
        // Mix referencing a profile the catalog doesn't have.
        let doc = FleetSpec::specpower_mixed(4)
            .to_json()
            .replace("ASUSTeK-RS720-E9\",\"weight\"", "no-such-box\",\"weight\"");
        assert!(FleetSpec::from_json_str(&doc).is_err());
    }

    #[test]
    fn from_json_rejects_counts_that_are_not_whole_and_non_negative() {
        let doc = FleetSpec::paper_default(40).to_json();
        for (key, value) in [
            ("cores", "4.9"),
            ("n_servers", "7.9"),
            ("n_servers", "-3"),
            ("weight", "0.5"),
            ("cores", "1e10"),
        ] {
            // Swap the first `key`'s value for `value`.
            let at = doc.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = at + doc[at..].find([',', '}']).unwrap();
            let edited = format!("{}{value}{}", &doc[..at], &doc[end..]);
            let err = FleetSpec::from_json_str(&edited).unwrap_err();
            assert!(err.to_string().contains(key), "{key}: {value} gave {err}");
        }
    }

    #[test]
    fn build_with_stamps_sites_and_initial_pue() {
        let spec = FleetSpec::specpower_mixed(6);
        let mut dc = DataCenter::new();
        let mut k = 0usize;
        let sites = spec
            .build_with(&mut dc, &mut |n| {
                k += 7;
                k % n
            })
            .unwrap();
        assert_eq!(sites, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(dc.n_sites(), spec.sites.len());
        for (i, srv) in dc.servers().iter().enumerate() {
            assert!(!srv.is_active(), "servers start asleep");
            assert_eq!(dc.server_site(crate::ServerHandle::from_index(i)), sites[i]);
        }
        assert_eq!(dc.server_pue(crate::ServerHandle::from_index(0)), 1.12);
        assert_eq!(dc.server_pue(crate::ServerHandle::from_index(5)), 1.58);
    }
}
