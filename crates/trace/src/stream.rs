//! Streaming trace generation and the [`DemandSource`] abstraction.
//!
//! The materialized generator ([`crate::generate_trace`]) stores the full
//! `n_vms × n_samples` utilization matrix — ~5.4 GB of `f64`s for the
//! 100k-server / 1M-VM megafleet week the ROADMAP targets. The replay loop
//! only ever reads one *sample column* at a time, so [`StreamingTrace`]
//! keeps per-VM generator state (RNG, AR(1) noise, diurnal parameters) and
//! synthesizes each column on demand: memory is `O(n_vms)` regardless of
//! the horizon length.
//!
//! Sample-major streaming is impossible on the legacy generator's single
//! serial RNG (each sample consumes a data-dependent number of draws), so
//! the stream derives one independent RNG per VM with
//! [`vdc_apptier::rng::seed_stream`]. The statistical model is code
//! shared with the materialized path in [`crate::generate`]: `draw_vm`
//! draws the per-VM parameters, and `sample_utilization` runs the same
//! noise draw (`draw_noise`) and utilization formula that
//! [`crate::generate_windows`]'s loop runs at every sample.
//! [`StreamingTrace::materialize`] replays the
//! same per-VM streams into an in-memory [`UtilizationTrace`] — streaming
//! and materialized replays of the same config are bit-identical, which
//! `tests/determinism.rs` pins end to end.

use crate::generate::{draw_vm, sample_utilization, TraceConfig, VmParams};
use crate::store::{UtilizationTrace, VmTraceMeta};
use vdc_apptier::rng::{seed_stream, SimRng};

/// A per-sample CPU-demand source for the replay loops.
///
/// [`UtilizationTrace`] (random access, whole matrix in memory) and
/// [`StreamingTrace`] (forward-only cursor, `O(n_vms)` memory) both
/// implement it, so `run_large_scale` and `run_churn` are generic over
/// where the demand column comes from. Callers must invoke
/// [`DemandSource::advance_to`] with non-decreasing `t` before reading
/// sample `t`; random-access sources make it a no-op.
pub trait DemandSource {
    /// Number of VMs.
    fn n_vms(&self) -> usize;
    /// Samples per VM.
    fn n_samples(&self) -> usize;
    /// Sampling interval in seconds.
    fn interval_s(&self) -> f64;
    /// Metadata of one VM.
    fn meta(&self, vm: usize) -> &VmTraceMeta;
    /// Whether any `(vm, t)` can be read at any time. `false` means the
    /// source is forward-only: reads are valid only for the sample most
    /// recently passed to [`DemandSource::advance_to`].
    fn random_access(&self) -> bool {
        true
    }
    /// Position the source at sample `t` (non-decreasing across calls).
    fn advance_to(&mut self, _t: usize) {}
    /// Absolute CPU demand (GHz) of `vm` at sample `t`.
    fn demand_ghz(&self, vm: usize, t: usize) -> f64;
}

impl DemandSource for UtilizationTrace {
    fn n_vms(&self) -> usize {
        UtilizationTrace::n_vms(self)
    }
    fn n_samples(&self) -> usize {
        UtilizationTrace::n_samples(self)
    }
    fn interval_s(&self) -> f64 {
        UtilizationTrace::interval_s(self)
    }
    fn meta(&self, vm: usize) -> &VmTraceMeta {
        UtilizationTrace::meta(self, vm)
    }
    fn demand_ghz(&self, vm: usize, t: usize) -> f64 {
        UtilizationTrace::demand_ghz(self, vm, t)
    }
}

/// A shared trace reference is itself a (random-access) demand source, so
/// the borrowing runner entry points can hand `&UtilizationTrace` to the
/// generic replay loop without cloning the matrix.
impl DemandSource for &UtilizationTrace {
    fn n_vms(&self) -> usize {
        UtilizationTrace::n_vms(self)
    }
    fn n_samples(&self) -> usize {
        UtilizationTrace::n_samples(self)
    }
    fn interval_s(&self) -> f64 {
        UtilizationTrace::interval_s(self)
    }
    fn meta(&self, vm: usize) -> &VmTraceMeta {
        UtilizationTrace::meta(self, vm)
    }
    fn demand_ghz(&self, vm: usize, t: usize) -> f64 {
        UtilizationTrace::demand_ghz(self, vm, t)
    }
}

/// Constant-memory, forward-only trace generator.
///
/// Holds one RNG + AR(1) state per VM (derived with
/// [`seed_stream`]`(cfg.seed, vm)`) plus the current sample column —
/// `O(n_vms)` memory however long the horizon. [`StreamingTrace::advance_to`]
/// steps every VM's generator to the requested sample; reads are then valid
/// for that sample only.
///
/// # Examples
///
/// ```
/// use vdc_trace::{DemandSource, StreamingTrace, TraceConfig};
///
/// let cfg = TraceConfig { n_vms: 4, n_samples: 8, interval_s: 900.0, seed: 7 };
/// let mut s = StreamingTrace::new(&cfg);
/// s.advance_to(0);
/// let d0 = s.demand_ghz(2, 0);
/// assert!(d0 > 0.0);
/// // Bit-identical to the materialized twin.
/// let full = StreamingTrace::materialize(&cfg);
/// assert_eq!(d0.to_bits(), full.demand_ghz(2, 0).to_bits());
/// ```
pub struct StreamingTrace {
    n_samples: usize,
    interval_s: f64,
    meta: Vec<VmTraceMeta>,
    params: Vec<VmParams>,
    rngs: Vec<SimRng>,
    /// Utilization column at `cursor`.
    current: Vec<f64>,
    /// Last generated sample; `None` until the first `advance_to`.
    cursor: Option<usize>,
}

impl StreamingTrace {
    /// Create a stream positioned before the first sample. Per-VM
    /// parameters (sector, scale, phase, nominal capacity, memory) are
    /// drawn up front; utilization columns are synthesized by
    /// [`StreamingTrace::advance_to`].
    pub fn new(cfg: &TraceConfig) -> StreamingTrace {
        assert!(cfg.n_samples > 0, "trace needs at least one sample");
        let mut meta = Vec::with_capacity(cfg.n_vms);
        let mut params = Vec::with_capacity(cfg.n_vms);
        let mut rngs = Vec::with_capacity(cfg.n_vms);
        for vm in 0..cfg.n_vms {
            let mut rng = SimRng::seed_from_u64(seed_stream(cfg.seed, vm as u64));
            let (p, m) = draw_vm(&mut rng);
            params.push(p);
            meta.push(m);
            rngs.push(rng);
        }
        StreamingTrace {
            n_samples: cfg.n_samples,
            interval_s: cfg.interval_s,
            meta,
            params,
            rngs,
            current: vec![0.0; cfg.n_vms],
            cursor: None,
        }
    }

    /// Generate the next sample column for every VM.
    fn step(&mut self) {
        let t = self.cursor.map_or(0, |c| c + 1);
        debug_assert!(t < self.n_samples);
        for vm in 0..self.current.len() {
            self.current[vm] =
                sample_utilization(&mut self.params[vm], t, self.interval_s, &mut self.rngs[vm]);
        }
        self.cursor = Some(t);
    }

    /// Materialize the whole trace the stream would produce into an
    /// in-memory [`UtilizationTrace`] — the bit-identity reference for the
    /// streaming replay path (note: *not* the same values as
    /// [`crate::generate_trace`], whose single serial RNG cannot stream).
    pub fn materialize(cfg: &TraceConfig) -> UtilizationTrace {
        let mut s = StreamingTrace::new(cfg);
        let n_vms = s.current.len();
        let mut data = vec![0.0_f64; n_vms * cfg.n_samples];
        for t in 0..cfg.n_samples {
            s.step();
            for (vm, &u) in s.current.iter().enumerate() {
                data[vm * cfg.n_samples + t] = u;
            }
        }
        UtilizationTrace::from_parts(cfg.n_samples, cfg.interval_s, data, s.meta)
    }
}

impl DemandSource for StreamingTrace {
    fn n_vms(&self) -> usize {
        self.current.len()
    }
    fn n_samples(&self) -> usize {
        self.n_samples
    }
    fn interval_s(&self) -> f64 {
        self.interval_s
    }
    fn meta(&self, vm: usize) -> &VmTraceMeta {
        &self.meta[vm]
    }
    fn random_access(&self) -> bool {
        false
    }

    /// Step the generators forward to sample `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range or behind the cursor (the stream is
    /// forward-only; rebuild it with [`StreamingTrace::new`] to rewind).
    fn advance_to(&mut self, t: usize) {
        assert!(t < self.n_samples, "sample {t} out of range");
        if let Some(c) = self.cursor {
            assert!(c <= t, "stream is forward-only: at {c}, asked for {t}");
        }
        while self.cursor.is_none_or(|c| c < t) {
            self.step();
        }
    }

    /// Demand at the cursor sample; `t` must equal the cursor.
    fn demand_ghz(&self, vm: usize, t: usize) -> f64 {
        debug_assert_eq!(Some(t), self.cursor, "read must match advance_to");
        self.current[vm] * self.meta[vm].nominal_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_vms: usize, n_samples: usize, seed: u64) -> TraceConfig {
        TraceConfig {
            n_vms,
            n_samples,
            interval_s: 900.0,
            seed,
        }
    }

    #[test]
    fn stream_matches_materialized_bit_for_bit() {
        let c = cfg(17, 96, 0x57E4);
        let full = StreamingTrace::materialize(&c);
        let mut s = StreamingTrace::new(&c);
        assert_eq!(DemandSource::n_vms(&s), 17);
        assert_eq!(DemandSource::n_samples(&s), 96);
        for t in 0..96 {
            s.advance_to(t);
            for vm in 0..17 {
                assert_eq!(
                    DemandSource::demand_ghz(&s, vm, t).to_bits(),
                    DemandSource::demand_ghz(&full, vm, t).to_bits(),
                    "vm {vm} sample {t}"
                );
                assert_eq!(s.current[vm].to_bits(), full.utilization(vm, t).to_bits());
            }
        }
    }

    #[test]
    fn meta_matches_materialized() {
        let c = cfg(40, 8, 9);
        let full = StreamingTrace::materialize(&c);
        let s = StreamingTrace::new(&c);
        for vm in 0..40 {
            assert_eq!(DemandSource::meta(&s, vm), DemandSource::meta(&full, vm));
        }
    }

    #[test]
    fn advance_is_idempotent_and_skippable() {
        let c = cfg(5, 32, 3);
        let full = StreamingTrace::materialize(&c);
        let mut s = StreamingTrace::new(&c);
        // Jump straight to sample 20, then re-request it.
        s.advance_to(20);
        s.advance_to(20);
        assert_eq!(s.cursor, Some(20));
        for vm in 0..5 {
            assert_eq!(
                DemandSource::demand_ghz(&s, vm, 20).to_bits(),
                DemandSource::demand_ghz(&full, vm, 20).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn rewinding_panics() {
        let mut s = StreamingTrace::new(&cfg(3, 16, 1));
        s.advance_to(5);
        s.advance_to(4);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = StreamingTrace::materialize(&cfg(8, 24, 42));
        let b = StreamingTrace::materialize(&cfg(8, 24, 42));
        let c = StreamingTrace::materialize(&cfg(8, 24, 43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn utilization_stays_in_range() {
        let t = StreamingTrace::materialize(&cfg(30, 96, 11));
        for vm in 0..30 {
            for &u in t.series(vm) {
                assert!((0.01..=1.0).contains(&u), "utilization {u} out of range");
            }
        }
    }

    #[test]
    fn trace_reference_is_a_random_access_source() {
        let full = StreamingTrace::materialize(&cfg(4, 8, 2));
        let mut by_ref: &UtilizationTrace = &full;
        assert!(DemandSource::random_access(&by_ref));
        by_ref.advance_to(7); // no-op
        assert_eq!(
            DemandSource::demand_ghz(&by_ref, 1, 3).to_bits(),
            full.demand_ghz(1, 3).to_bits()
        );
    }
}
