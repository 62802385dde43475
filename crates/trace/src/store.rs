//! Trace storage and CSV interchange.

use crate::sector::Sector;
use std::io::{BufRead, BufWriter, Write};

/// Per-VM metadata carried alongside the utilization series.
#[derive(Debug, Clone, PartialEq)]
pub struct VmTraceMeta {
    /// Sector the source server belonged to.
    pub sector: Sector,
    /// Nominal CPU capacity of the source server (GHz); utilization × this
    /// gives the VM's absolute CPU demand.
    pub nominal_ghz: f64,
    /// Memory footprint of the VM (MiB).
    pub memory_mib: f64,
}

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse(s) => write!(f, "trace parse error: {s}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// An in-memory utilization trace: `n_vms` series of `n_samples` values in
/// `\[0, 1\]`, sampled every `interval_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    n_vms: usize,
    n_samples: usize,
    interval_s: f64,
    /// Row-major: `data[vm * n_samples + t]`.
    data: Vec<f64>,
    meta: Vec<VmTraceMeta>,
}

impl UtilizationTrace {
    /// Assemble a trace from raw parts.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn from_parts(
        n_samples: usize,
        interval_s: f64,
        data: Vec<f64>,
        meta: Vec<VmTraceMeta>,
    ) -> UtilizationTrace {
        assert!(n_samples > 0, "trace needs at least one sample");
        assert_eq!(
            data.len(),
            meta.len() * n_samples,
            "data length must be n_vms * n_samples"
        );
        UtilizationTrace {
            n_vms: meta.len(),
            n_samples,
            interval_s,
            data,
            meta,
        }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.n_vms
    }

    /// Samples per VM.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Sampling interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.interval_s * self.n_samples as f64
    }

    /// Utilization of `vm` at sample `t` (clamped into range).
    pub fn utilization(&self, vm: usize, t: usize) -> f64 {
        let t = t.min(self.n_samples - 1);
        self.data[vm * self.n_samples + t]
    }

    /// Full series of one VM.
    pub fn series(&self, vm: usize) -> &[f64] {
        &self.data[vm * self.n_samples..(vm + 1) * self.n_samples]
    }

    /// Absolute CPU demand (GHz) of `vm` at sample `t`.
    pub fn demand_ghz(&self, vm: usize, t: usize) -> f64 {
        self.utilization(vm, t) * self.meta[vm].nominal_ghz
    }

    /// Metadata of one VM.
    pub fn meta(&self, vm: usize) -> &VmTraceMeta {
        &self.meta[vm]
    }

    /// Restrict to the first `n` VMs (used by the Fig. 6 sweep over data
    /// centers of 30…5,415 VMs).
    pub fn head(&self, n: usize) -> UtilizationTrace {
        let n = n.min(self.n_vms);
        UtilizationTrace {
            n_vms: n,
            n_samples: self.n_samples,
            interval_s: self.interval_s,
            data: self.data[..n * self.n_samples].to_vec(),
            meta: self.meta[..n].to_vec(),
        }
    }

    /// Mean utilization across all VMs and samples.
    pub fn mean_utilization(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Write as CSV: header, then one row per VM:
    /// `vm,sector,nominal_ghz,memory_mib,u0,u1,…`.
    pub fn write_csv<W: Write>(&self, w: W) -> Result<(), TraceError> {
        let mut out = BufWriter::new(w);
        writeln!(
            out,
            "# vdcpower utilization trace: n_vms={} n_samples={} interval_s={}",
            self.n_vms, self.n_samples, self.interval_s
        )?;
        for vm in 0..self.n_vms {
            let m = &self.meta[vm];
            write!(
                out,
                "{},{},{},{}",
                vm,
                m.sector.name(),
                m.nominal_ghz,
                m.memory_mib
            )?;
            for &u in self.series(vm) {
                write!(out, ",{:.4}", u)?;
            }
            writeln!(out)?;
        }
        out.flush()?;
        Ok(())
    }

    /// Read the CSV format produced by [`UtilizationTrace::write_csv`].
    /// `interval_s` must be finite and positive, and every other number
    /// finite and not negative; an error names the file line and field.
    pub fn read_csv<R: BufRead>(r: R) -> Result<UtilizationTrace, TraceError> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| TraceError::Parse("empty trace file".into()))??;
        let interval_s = header
            .split("interval_s=")
            .nth(1)
            .and_then(|s| s.trim().parse::<f64>().ok())
            .ok_or_else(|| TraceError::Parse("missing interval_s in header".into()))?;
        if !(interval_s.is_finite() && interval_s > 0.0) {
            return Err(TraceError::Parse(format!(
                "line 1: interval_s {interval_s} is not a finite number > 0"
            )));
        }

        let mut data = Vec::new();
        let mut meta = Vec::new();
        let mut n_samples = None;
        // File line numbers: the header is line 1.
        for (lineno, line) in (2..).zip(lines) {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let _vm = fields
                .next()
                .ok_or_else(|| TraceError::Parse(format!("line {lineno}: missing vm id")))?;
            let sector_name = fields
                .next()
                .ok_or_else(|| TraceError::Parse(format!("line {lineno}: missing sector")))?;
            let sector = Sector::from_name(sector_name).ok_or_else(|| {
                TraceError::Parse(format!("line {lineno}: unknown sector {sector_name}"))
            })?;
            let nominal_ghz = non_negative(fields.next(), lineno, "nominal_ghz")?;
            let memory_mib = non_negative(fields.next(), lineno, "memory_mib")?;
            let series = fields
                .map(|s| non_negative(Some(s), lineno, "sample"))
                .collect::<Result<Vec<f64>, _>>()?;
            if series.is_empty() {
                return Err(TraceError::Parse(format!("line {lineno}: no samples")));
            }
            match n_samples {
                None => n_samples = Some(series.len()),
                Some(n) if n != series.len() => {
                    return Err(TraceError::Parse(format!(
                        "line {lineno}: expected {n} samples, got {}",
                        series.len()
                    )))
                }
                _ => {}
            }
            data.extend(series);
            meta.push(VmTraceMeta {
                sector,
                nominal_ghz,
                memory_mib,
            });
        }
        let n_samples =
            n_samples.ok_or_else(|| TraceError::Parse("trace has no VM rows".into()))?;
        Ok(UtilizationTrace::from_parts(
            n_samples, interval_s, data, meta,
        ))
    }
}

/// One numeric field of line `lineno`, named `field` in the error: a
/// finite number, not negative.
fn non_negative(s: Option<&str>, lineno: usize, field: &str) -> Result<f64, TraceError> {
    s.and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| {
            TraceError::Parse(format!(
                "line {lineno}: bad {field} {:?}, not a finite number >= 0",
                s.unwrap_or("")
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> UtilizationTrace {
        let meta = vec![
            VmTraceMeta {
                sector: Sector::Financial,
                nominal_ghz: 2.0,
                memory_mib: 1024.0,
            },
            VmTraceMeta {
                sector: Sector::Retail,
                nominal_ghz: 3.0,
                memory_mib: 2048.0,
            },
        ];
        let data = vec![0.1, 0.2, 0.3, 0.5, 0.6, 0.7];
        UtilizationTrace::from_parts(3, 900.0, data, meta)
    }

    #[test]
    fn accessors() {
        let t = small_trace();
        assert_eq!(t.n_vms(), 2);
        assert_eq!(t.n_samples(), 3);
        assert_eq!(t.duration_s(), 2700.0);
        assert_eq!(t.utilization(0, 1), 0.2);
        assert_eq!(t.utilization(1, 0), 0.5);
        // Clamped past-the-end access.
        assert_eq!(t.utilization(0, 99), 0.3);
        assert_eq!(t.series(1), &[0.5, 0.6, 0.7]);
        assert!((t.demand_ghz(1, 2) - 2.1).abs() < 1e-12);
        assert!((t.mean_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "n_vms * n_samples")]
    fn mismatched_dimensions_panic() {
        let meta = vec![VmTraceMeta {
            sector: Sector::Telecom,
            nominal_ghz: 1.0,
            memory_mib: 512.0,
        }];
        let _ = UtilizationTrace::from_parts(3, 900.0, vec![0.1, 0.2], meta);
    }

    #[test]
    fn head_restricts() {
        let t = small_trace();
        let h = t.head(1);
        assert_eq!(h.n_vms(), 1);
        assert_eq!(h.series(0), t.series(0));
        // head beyond size is the whole trace.
        assert_eq!(t.head(10).n_vms(), 2);
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let parsed = UtilizationTrace::read_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed.n_vms(), 2);
        assert_eq!(parsed.n_samples(), 3);
        assert_eq!(parsed.interval_s(), 900.0);
        assert_eq!(parsed.meta(0).sector, Sector::Financial);
        for vm in 0..2 {
            for k in 0..3 {
                assert!((parsed.utilization(vm, k) - t.utilization(vm, k)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(UtilizationTrace::read_csv(&b""[..]).is_err());
        assert!(UtilizationTrace::read_csv(&b"# nonsense header\n"[..]).is_err());
        let bad_sector = b"# interval_s=900\n0,agriculture,1.0,512,0.5\n";
        assert!(UtilizationTrace::read_csv(&bad_sector[..]).is_err());
        let ragged = b"# interval_s=900\n0,retail,1.0,512,0.5,0.6\n1,retail,1.0,512,0.5\n";
        assert!(UtilizationTrace::read_csv(&ragged[..]).is_err());
        let bad_sample = b"# interval_s=900\n0,retail,1.0,512,zebra\n";
        assert!(UtilizationTrace::read_csv(&bad_sample[..]).is_err());
        // Numbers that parse but are not finite, or are negative, name
        // their line and field.
        let message = |csv: &str| match UtilizationTrace::read_csv(csv.as_bytes()) {
            Err(TraceError::Parse(m)) => m,
            other => panic!("{csv:?} parsed: {other:?}"),
        };
        for (row, field) in [
            ("0,retail,1.0,512,NaN", "sample"),
            ("0,retail,1.0,512,0.5,inf", "sample"),
            ("0,retail,1.0,512,-0.25", "sample"),
            ("0,retail,NaN,512,0.5", "nominal_ghz"),
            ("0,retail,-1.0,512,0.5", "nominal_ghz"),
            ("0,retail,1.0,inf,0.5", "memory_mib"),
            ("0,retail,1.0,-512,0.5", "memory_mib"),
        ] {
            let m = message(&format!("# interval_s=900\n0,retail,1.0,512,0.5\n{row}\n"));
            assert!(
                m.starts_with(&format!("line 3: bad {field} ")),
                "{row}: {m}"
            );
        }
        for interval in ["NaN", "inf", "-900", "0"] {
            let m = message(&format!("# interval_s={interval}\n0,retail,1.0,512,0.5\n"));
            assert!(m.starts_with("line 1: interval_s "), "{interval}: {m}");
        }
    }
}
