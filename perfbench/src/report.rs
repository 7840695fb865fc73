//! Metric collection, statistics, the provenance header and the JSON
//! result line.

use crate::workloads::Workload;

/// Named metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(name, value, unit)`.
    pub rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One line summarising a sample: median, mean, quartiles, range and
/// count.
pub fn describe(name: &str, xs: &[f64], unit: &str) -> String {
    format!(
        "{name:<16} {:>12.6} {unit:<5} median of n={} (mean {:.6}, q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6})",
        median(xs),
        xs.len(),
        xs.iter().sum::<f64>() / xs.len() as f64,
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        quantile(xs, 0.0),
        quantile(xs, 1.0),
    )
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .rows
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN/inf; a missing measurement is null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Why a run must not report: a probe plane compiled into the library
/// would put instrumentation on the measured path.
pub fn probes_compiled(trace: bool, fault: bool) -> Option<String> {
    match (trace, fault) {
        (false, false) => None,
        _ => Some(format!(
            "refusing to report untraced metrics: compiled-in probes (trace: {trace}, fault: {fault})"
        )),
    }
}

/// The provenance header, as `# `-prefixed lines.
pub fn provenance(w: &Workload, seed: u64, seconds: u64, traced: bool, d: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features = format!(
        "trace={} fault={}",
        if lsgd_trace::COMPILED { "on" } else { "off" },
        if lsgd_fault::COMPILED { "on" } else { "off" }
    );
    format!(
        "# perfbench: workload={} seed={seed} seconds={seconds} trace={}\n\
         # host: nproc={nproc} cpu=\"{}\" LSGD_THREADS={} runtime_threads={}\n\
         # build: features [{features}] git={}\n\
         # config: model={:?} d={d} algo={} workers={} batch={} eta={} target={:?} samples={} eval_samples={}\n\
         # why: {}",
        w.name,
        traced as u8,
        cpu_model(),
        std::env::var("LSGD_THREADS").unwrap_or_else(|_| "unset".into()),
        lsgd_runtime::global().threads(),
        git_rev(),
        w.model,
        w.algorithm.label(),
        w.workers,
        w.batch,
        w.eta,
        w.target,
        w.samples,
        w.eval_samples,
        w.why,
    )
}

/// CPU brand string from CPUID (no file reads).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports which extended leaves are valid.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, no search above the checkout).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        m.push("missing", f64::NAN, "s");
        let line = json_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"missing\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn compiled_probes_refuse_untraced_reports() {
        assert!(probes_compiled(false, false).is_none());
        assert!(probes_compiled(true, false).is_some());
        assert!(probes_compiled(false, true).is_some());
    }
}
