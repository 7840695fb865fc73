//! Time-to-ε benchmark for the Leashed-SGD workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` trains the workload through `lsgd_core::train` for
//! `--seconds` and prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics instead. Both print a provenance header and one line
//! per training run first, check every training run, and end with one
//! JSON line. The exit code is 0 only when every check passed.

mod layers;
mod probe;
mod report;
mod workloads;

use lsgd_core::prelude::*;
use lsgd_metrics::OnlineStats;
use probe::{Probe, Recorded};
use report::{describe, json_line, median, probes_compiled, provenance, quantile, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Built, Workload, CNN_LAYERS, LAYER_MAP, MLP_LAYERS, WORKLOADS};

/// A benchmark run sets up at least `SETUP_REPS` times and for at least
/// `SETUP_MIN`; `setup_s` is the median set-up. The floor matters for the
/// millisecond set-ups of the sparse workloads, whose single timings are
/// noisy.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_millis(500);

/// The end-to-end metrics, in the order the untraced run reports them.
const END_TO_END: [&str; 6] = [
    "time_to_eps_s",
    "updates_to_eps",
    "updates_per_s",
    "mem_peak_mb",
    "setup_s",
    "reached_share",
];

/// How long the traced run drives the parameter store's step loop.
const STORE_LOOP: Duration = Duration::from_millis(800);

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                let w = workloads::find(&value);
                workload =
                    Some(w.ok_or_else(|| format!("unknown workload {value:?}; one of {names:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s));
                seconds = Some(s.ok_or_else(|| bad("a whole number in 1..=600"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one training run produced, plus every check it failed.
#[derive(Debug)]
struct RunRecord {
    /// The run's target, as a fraction of its initial loss.
    epsilon: f64,
    time_to_eps: Option<f64>,
    updates_to_eps: Option<u64>,
    result: RunResult,
    recorded: Recorded,
    violations: Vec<String>,
}

impl RunRecord {
    fn new(epsilon: f64, result: RunResult, recorded: Recorded) -> Self {
        let time_to_eps = result.time_to(epsilon);
        let updates_to_eps = result.iters_to_eps.first().and_then(|&(_, u)| u);
        let mut v = Vec::new();
        if time_to_eps.is_none() || updates_to_eps.is_none() {
            v.push(format!(
                "did not reach eps={epsilon:.4} (best loss {:.4} of initial {:.4})",
                result.best_loss, result.initial_loss
            ));
        }
        if !result.final_loss.is_finite() || result.crashed {
            v.push(format!("non-finite loss (final {})", result.final_loss));
        }
        if !result.worker_crashes.is_empty() {
            v.push(format!("worker crashes: {:?}", result.worker_crashes));
        }
        // Exactly-once accounting: one staleness sample per publication.
        if result.staleness.count() != result.published {
            v.push(format!(
                "staleness count {} != published {}",
                result.staleness.count(),
                result.published
            ));
        }
        let grads: u64 = recorded.losses.iter().map(|l| l.len() as u64).sum();
        if grads < result.published + result.aborted {
            v.push(format!(
                "{grads} gradients for {} updates",
                result.published + result.aborted
            ));
        }
        RunRecord {
            epsilon,
            time_to_eps,
            updates_to_eps,
            result,
            recorded,
            violations: v,
        }
    }

    fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn line(&self, k: usize, seed: u64, timed: bool) -> String {
        let r = &self.result;
        format!(
            "run {k:>3} {:<5} seed {seed:>20}  eps {:.4}  time_to_eps {:>9}  updates_to_eps {:>7}  updates/s {:>10.1}  mem {:.3} MB  {}",
            if timed { "timed" } else { "plain" },
            self.epsilon,
            self.time_to_eps.map_or("-".into(), |t| format!("{t:.4}s")),
            self.updates_to_eps.map_or("-".into(), |u| u.to_string()),
            r.updates_per_sec(),
            r.mem_peak_bytes as f64 / 1e6,
            if self.ok() { "ok".to_string() } else { format!("FAILED: {}", self.violations.join("; ")) },
        )
    }
}

/// Single-worker trajectories are deterministic per seed: runs 0 and 1
/// share a seed, so their minibatch-loss sequences must agree bitwise
/// over their common prefix. (`updates_to_eps` is read at a time-scheduled
/// monitor evaluation, so it may differ by a few updates between them.)
fn check_determinism(w: &Workload, runs: &mut [RunRecord]) {
    if w.workers != 1 || runs.len() < 2 {
        return;
    }
    let (la, lb) = (&runs[0].recorded.losses, &runs[1].recorded.losses);
    let same = la.len() == 1
        && lb.len() == 1
        && !la[0].is_empty()
        && !lb[0].is_empty()
        && la[0].iter().zip(&lb[0]).all(|(x, y)| x == y);
    if !same {
        runs[1]
            .violations
            .push("trajectory differs from run 0 with the same seed".into());
    }
}

/// Generates run 0's inputs and warms the runtime, repeatedly; returns
/// the last problem and each set-up's seconds. Every set-up from one seed
/// must build the same problem (same initial loss, bitwise).
fn setup(w: &Workload, seed: u64) -> Result<(Built, Vec<f64>), String> {
    let seed = w.run_seed(seed, 0);
    let (mut times, mut losses, mut built) = (Vec::new(), Vec::new(), None);
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        drop(built.take());
        let t = Instant::now();
        let b = w.build(seed);
        let rt = lsgd_runtime::global();
        rt.parallel_for(rt.threads(), &|_| {});
        let loss = match &b {
            Built::Nn(p) => initial_loss(p),
            Built::Sparse(p) => initial_loss(p),
        };
        times.push(t.elapsed().as_secs_f64());
        losses.push(loss.to_bits());
        built = Some(b);
    }
    if losses.windows(2).any(|p| p[0] != p[1]) {
        return Err(format!(
            "set-ups from one seed disagree: initial-loss bits {losses:?}"
        ));
    }
    Ok((built.expect("SETUP_REPS > 0"), times))
}

fn initial_loss<P: Problem>(p: &P) -> f64 {
    p.eval_loss(&p.init_theta(0), &mut p.scratch())
}

/// Trains one run on `built` through a probe that also times calls when
/// `timing` is set.
fn train_on(built: &Built, cfg: &TrainConfig, timing: bool) -> (RunResult, Recorded) {
    fn probed<P: Problem>(p: &P, cfg: &TrainConfig, timing: bool) -> (RunResult, Recorded) {
        let probe = Probe::new(p, timing);
        let result = train(&probe, cfg);
        (result, probe.take())
    }
    match built {
        Built::Nn(p) => probed(p, cfg, timing),
        Built::Sparse(p) => probed(p, cfg, timing),
    }
}

/// Trains until `budget` has passed (at least two runs). Run `k` trains on
/// its own data set and minibatch stream from `run_seed(seed, k)`, timed
/// when `timed(k)`; `first` is the set-up's problem, built for run 0.
fn train_runs(
    w: &Workload,
    first: &Built,
    seed: u64,
    budget: Duration,
    timed: impl Fn(usize) -> bool,
    lines: &mut Vec<String>,
) -> Vec<(bool, RunRecord)> {
    let start = Instant::now();
    let mut runs: Vec<RunRecord> = Vec::new();
    while runs.len() < 2 || start.elapsed() < budget {
        let k = runs.len();
        let run_seed = w.run_seed(seed, k);
        let fresh;
        let built = if run_seed == w.run_seed(seed, 0) {
            first
        } else {
            fresh = w.build(run_seed);
            &fresh
        };
        let epsilon = built.epsilon(w.target);
        let (result, recorded) = train_on(built, &w.config(run_seed, epsilon), timed(k));
        runs.push(RunRecord::new(epsilon, result, recorded));
    }
    check_determinism(w, &mut runs);
    let mut out = Vec::new();
    for (k, rec) in runs.into_iter().enumerate() {
        lines.push(rec.line(k, w.run_seed(seed, k), timed(k)));
        out.push((timed(k), rec));
    }
    out
}

/// One benchmark run's outcome.
struct Outcome {
    lines: Vec<String>,
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn end_to_end(w: &Workload, first: &Built, seed: u64, seconds: u64, setup_s: &[f64]) -> Outcome {
    let mut lines = Vec::new();
    let runs = train_runs(
        w,
        first,
        seed,
        Duration::from_secs(seconds),
        |_| false,
        &mut lines,
    );
    let failed = runs.iter().filter(|(_, r)| !r.ok()).count();
    let time: Vec<f64> = runs.iter().filter_map(|(_, r)| r.time_to_eps).collect();
    let updates: Vec<f64> = runs
        .iter()
        .filter_map(|(_, r)| r.updates_to_eps)
        .map(|u| u as f64)
        .collect();
    let ups: Vec<f64> = runs
        .iter()
        .map(|(_, r)| r.result.updates_per_sec())
        .collect();
    let mem: Vec<f64> = runs
        .iter()
        .map(|(_, r)| r.result.mem_peak_bytes as f64 / 1e6)
        .collect();
    let reached = 1.0 - failed as f64 / runs.len() as f64;
    lines.push(describe("time_to_eps_s", &time, "s"));
    lines.push(describe("updates_to_eps", &updates, "count"));
    lines.push(describe("updates_per_s", &ups, "1/s"));
    lines.push(describe("mem_peak_mb", &mem, "MB"));
    lines.push(describe("setup_s", setup_s, "s"));
    lines.push(format!(
        "failed_share     {:>12.6} share {failed} of {} training runs failed a check",
        1.0 - reached,
        runs.len()
    ));

    let mut m = Metrics::default();
    m.push("time_to_eps_s", median(&time), "s");
    m.push("updates_to_eps", median(&updates), "count");
    m.push("updates_per_s", median(&ups), "1/s");
    // Mean, not median: a run's peak is a whole number of buffers, and
    // the median flips between neighbouring counts from run to run.
    m.push(
        "mem_peak_mb",
        mem.iter().sum::<f64>() / mem.len() as f64,
        "MB",
    );
    m.push("setup_s", median(setup_s), "s");
    m.push("reached_share", reached, "share");
    let mut errors = Vec::new();
    if m.rows.iter().map(|(n, ..)| n.as_str()).ne(END_TO_END) {
        errors.push("end-to-end metrics differ from the declared list".into());
    }
    Outcome {
        lines,
        metrics: m,
        attempted: runs.len(),
        failed,
        errors,
    }
}

fn per_layer(w: &Workload, first: &Built, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let (mut m, mut lines, mut errors) = (Metrics::default(), Vec::new(), Vec::new());
    for r in [
        layers::runtime(&mut m),
        layers::pool_and_queue(first.dim(), &mut m),
        layers::gemm_shapes(seed, &mut m),
        layers::nn_layers("mlp", MLP_LAYERS, lsgd_nn::mlp_mnist(), 128, seed, &mut m),
        layers::nn_layers("cnn", CNN_LAYERS, lsgd_nn::cnn_mnist(), 64, seed, &mut m),
        match first {
            Built::Nn(p) => layers::store_loop(w, p, seed, STORE_LOOP, &mut m),
            Built::Sparse(p) => layers::store_loop(w, p, seed, STORE_LOOP, &mut m),
        },
    ] {
        errors.extend(r.err());
    }

    // Odd runs are timed: plain and timed runs alternate, so both see the
    // same machine state, and their difference is the probe's overhead.
    let budget = Duration::from_secs(seconds).saturating_sub(start.elapsed());
    let runs = train_runs(w, first, seed, budget, |k| k % 2 == 1, &mut lines);
    let failed = runs.iter().filter(|(_, r)| !r.ok()).count();
    let timed: Vec<&RunRecord> = runs.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let plain: Vec<&RunResult> = runs
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, r)| &r.result)
        .collect();

    let grad_ns: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.recorded.grad_ns)
        .map(|&n| n as f64)
        .collect();
    let eval_ns: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.recorded.eval_ns)
        .map(|&n| n as f64)
        .collect();
    m.push("core.grad.p50_us", quantile(&grad_ns, 0.5) / 1e3, "us");
    m.push("core.grad.p99_us", quantile(&grad_ns, 0.99) / 1e3, "us");
    m.push("core.eval_loss.p50_ms", quantile(&eval_ns, 0.5) / 1e6, "ms");

    // Protocol counts and step shares come from the plain runs.
    let sum = |f: &dyn Fn(&RunResult) -> f64| plain.iter().map(|r| f(r)).sum::<f64>();
    let per_run =
        |f: &dyn Fn(&RunResult) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let (published, aborted) = (sum(&|r| r.published as f64), sum(&|r| r.aborted as f64));
    m.push(
        "core.publish.cas_retry_ratio",
        ratio(sum(&|r| r.failed_cas as f64), published),
        "ratio",
    );
    m.push(
        "core.publish.abort_ratio",
        ratio(aborted, published + aborted),
        "ratio",
    );
    m.push(
        "core.staleness.mean",
        per_run(&|r| r.staleness.mean()),
        "updates",
    );
    m.push(
        "core.staleness.p99",
        per_run(&|r| r.staleness.quantile(0.99) as f64),
        "updates",
    );
    let total = |s: &OnlineStats| s.mean() * s.count() as f64;
    let step = sum(&|r| total(&r.iter_time));
    let (tc, tu) = (
        ratio(sum(&|r| total(&r.tc)), step),
        ratio(sum(&|r| total(&r.tu)), step),
    );
    m.push("core.step.tc_share", tc, "share");
    m.push("core.step.tu_share", tu, "share");
    m.push("core.step.other_share", 1.0 - tc - tu, "share");
    let (reuses, allocs) = (sum(&|r| r.mem_reuses as f64), sum(&|r| r.mem_allocs as f64));
    m.push(
        "core.pool.reuse_ratio",
        ratio(reuses, reuses + allocs),
        "ratio",
    );
    m.push(
        "core.pool.outstanding_peak",
        per_run(&|r| r.pool_outstanding_peak as f64),
        "count",
    );

    let ups_plain = median(
        &plain
            .iter()
            .map(|r| r.updates_per_sec())
            .collect::<Vec<_>>(),
    );
    let ups_timed = median(
        &timed
            .iter()
            .map(|r| r.result.updates_per_sec())
            .collect::<Vec<_>>(),
    );
    let overhead = ratio(ups_plain - ups_timed, ups_plain);
    m.push("trace_overhead", overhead, "ratio");

    lines.push(format!(
        "step shares of T_it on {}: Tc {tc:.4}  Tu {tu:.4}  other (read + loop) {:.4}",
        w.name,
        1.0 - tc - tu
    ));
    lines.push(format!(
        "trace_overhead on {}: {overhead:+.4} = 1 - {ups_timed:.1} timed / {ups_plain:.1} plain updates/s (medians of {} timed, {} plain runs)",
        w.name,
        timed.len(),
        plain.len()
    ));
    for map in LAYER_MAP {
        let role = if map.on.contains(&w.name) {
            "should move"
        } else if map.not_on.contains(&w.name) {
            "should NOT move"
        } else {
            "has no prediction for"
        };
        lines.push(format!(
            "layer map: {:<30} {role} {} on {}",
            map.layer, map.moves, w.name
        ));
    }
    for (name, value, unit) in &m.rows {
        lines.push(format!("{name:<40} {value:>14.6} {unit}"));
    }
    if m.rows
        .iter()
        .map(|(n, ..)| n.as_str())
        .ne(layers::names().iter().map(String::as_str))
    {
        errors.push("per-layer metrics differ from the declared list".into());
    }
    Outcome {
        lines,
        metrics: m,
        attempted: runs.len(),
        failed,
        errors,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <1..=600> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        if let Some(why) = probes_compiled(lsgd_trace::COMPILED, lsgd_fault::COMPILED) {
            eprintln!("perfbench: {why}");
            return ExitCode::from(3);
        }
    }
    // One runtime thread per core, set before the runtime is first used.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("LSGD_THREADS", nproc.to_string());

    let w = args.workload;
    let (built, setup_s) = match setup(w, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.trace {
        per_layer(w, &built, args.seed, args.seconds)
    } else {
        end_to_end(w, &built, args.seed, args.seconds, &setup_s)
    };
    println!(
        "{}",
        provenance(w, args.seed, args.seconds, args.trace, built.dim())
    );
    for l in &outcome.lines {
        println!("{l}");
    }
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    println!(
        "{}",
        json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Target;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string values of `"<field>": "..."` inside BENCHMARK.json's
    /// top-level `"<key>": [...]` array.
    fn json_strings(key: &str, field: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split(&format!("\"{field}\": \""))
            .skip(1)
            .map(|s| s[..s.find('"').expect("string end")].to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The workload at a tenth of its data: the smoke-test size.
    fn tiny(w: &Workload) -> Workload {
        let samples = w.samples / 10;
        Workload {
            samples,
            eval_samples: w.eval_samples.min(samples),
            ..w.clone()
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        all.extend(END_TO_END.iter().map(|s| s.to_string()));
        all.extend(layers::names());
        for n in &all {
            assert!(valid_name(n), "invalid name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate names");
        assert!(layers::names().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        let whys: Vec<_> = WORKLOADS.iter().map(|w| w.why.to_string()).collect();
        assert_eq!(json_strings("workloads", "name"), names);
        assert_eq!(json_strings("workloads", "why"), whys);
        assert_eq!(json_strings("end_to_end", "name"), END_TO_END);
        assert_eq!(json_strings("per_layer", "name"), layers::names());
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric_and_names_real_workloads() {
        let matches = |pattern: &str, name: &str| match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == pattern,
        };
        for name in layers::names() {
            assert!(
                LAYER_MAP.iter().any(|m| matches(m.layer, &name)),
                "{name} has no mapping"
            );
        }
        for m in LAYER_MAP {
            assert!(
                layers::names().iter().any(|n| matches(m.layer, n)),
                "{} maps nothing",
                m.layer
            );
            for w in m.on.iter().chain(m.not_on) {
                assert!(
                    workloads::find(w).is_some(),
                    "{} names unknown workload {w}",
                    m.layer
                );
            }
            assert!(
                m.on.iter().all(|w| !m.not_on.contains(w)),
                "{} both moves and not",
                m.layer
            );
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload cnn_seq_w1 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("cnn_seq_w1", 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cnn_seq_w1 --seed -1 --seconds 1 --trace 0",
            "--workload cnn_seq_w1 --seed 1 --seconds 0 --trace 0",
            "--workload cnn_seq_w1 --seed 1 --seconds 1 --trace 2",
            "--workload cnn_seq_w1 --seed 1 --seconds 1",
            "--workload cnn_seq_w1 --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn targets_match_the_models() {
        for w in WORKLOADS {
            let generator = matches!(w.target, Target::OfGenerator(_));
            assert_eq!(
                generator,
                w.model == workloads::Model::SparseLogReg,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn tiny_smoke_runs_pass_their_checks_and_report_every_metric() {
        for w in WORKLOADS {
            let t = tiny(w);
            let (built, setup_s) = setup(&t, 3).expect("set-up");
            let o = end_to_end(&t, &built, 3, 1, &setup_s);
            assert!(
                o.failed == 0 && o.errors.is_empty(),
                "{}: {:#?}",
                w.name,
                o.lines
            );
            let names: Vec<_> = o.metrics.rows.iter().map(|(n, ..)| n.as_str()).collect();
            assert_eq!(names, END_TO_END, "{}", w.name);
            for (n, v, _) in &o.metrics.rows {
                assert!(v.is_finite() && *v > 0.0, "{}: {n} = {v}", w.name);
            }
        }
    }

    #[test]
    fn tiny_traced_run_reports_every_per_layer_metric() {
        let t = tiny(workloads::find("sparse_lsh_w2").expect("workload"));
        let (built, _) = setup(&t, 5).expect("set-up");
        let o = per_layer(&t, &built, 5, 1);
        assert!(
            o.failed == 0 && o.errors.is_empty(),
            "{:#?} {:#?}",
            o.errors,
            o.lines
        );
        for (n, v, _) in &o.metrics.rows {
            assert!(v.is_finite(), "{n} = {v}");
        }
    }
}
