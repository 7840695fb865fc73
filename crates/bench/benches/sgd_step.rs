//! End-to-end SGD **step latency**: parameter read + minibatch gradient +
//! publication, per workload × algorithm — the quantity the paper's
//! convergence-per-second results are made of (`T_it ≈ Tc + Tu`).
//!
//! Workloads: the Table II MLP (`d = 134,794`), the Table III CNN
//! (`d = 27,354`, im2col-dominated `Tc`), and the PR 4 sparse
//! logistic-regression instance (native sparse gradients). Algorithms:
//! SEQ-style locked, HOGWILD!, Leashed-SGD, and sharded Leashed-SGD at
//! the heuristic shard count — every row one generic step over the
//! store's [`ParamStore`] read and publish, as in the trainer.
//!
//! The `*_prepr/` rows re-run the NN workloads on the **ablation
//! baseline** ([`ComputeOpts::baseline`]: fresh packing per GEMM, serial
//! materialised im2col) — isolating the cost of the panel cache, fused
//! lowering, and intra-step threading. Gradients on the two paths are
//! bitwise identical (see `crates/nn/tests/fastpath_differential.rs`),
//! so the rows differ in time only. On a single core the two sit near
//! parity (the shared-kernel optimisations lift both); the gap opens
//! with pool threads. The PR's ≥ 1.5× CNN step claim is measured against
//! the *actual pre-PR tree* from a clean `git worktree` (see the README
//! performance section), which this in-tree ablation cannot reproduce.
//!
//! Set `LSGD_BENCH_SMOKE=1` for short windows (CI) and
//! `LSGD_BENCH_JSON=BENCH_sgd_step.json` to emit the machine-readable
//! trajectory file. Throughput is reported as parameters/s
//! (`d / step-latency`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::prelude::*;
use lsgd_core::shard::default_shards;
use lsgd_core::{LeashedShared, ParamStore, ShardedShared, Update};
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_data::SynthDigits;
use lsgd_nn::ComputeOpts;
use lsgd_tensor::SmallRng64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step size: small enough that thousands of benchmark steps cannot
/// destabilise the iterates (a diverged `theta` would change gradient
/// timing mid-measurement).
const ETA: f32 = 1e-4;

/// Builds the store benchmarked under `$kind` and evaluates `$body` with
/// it bound to `$store` — once per store type, so every row runs the
/// same generic [`step`].
macro_rules! with_store {
    ($kind:expr, $theta0:expr, $workers:expr, |$store:ident| $body:expr) => {{
        let theta0: &[f32] = $theta0;
        let gauge = Arc::new(MemoryGauge::new());
        match $kind {
            "SEQ" => {
                let $store = LockedParams::new(theta0.to_vec(), gauge);
                $body
            }
            "HOG" => {
                let $store = HogwildParams::new(theta0, gauge);
                $body
            }
            "LSH" => {
                let pool = BufferPool::new_with_recycling(theta0.len(), gauge, true);
                let $store = LeashedShared::new(theta0, pool);
                $body
            }
            "LSH_sharded" => {
                let shards = default_shards(theta0.len(), $workers);
                let $store = ShardedShared::new(theta0, shards, gauge, true);
                $body
            }
            other => unreachable!("unknown algorithm {other}"),
        }
    }};
}

/// One worker's step state.
struct StepState<P: Problem, S: ParamStore> {
    local: S::Local,
    grad: Vec<f32>,
    pairs: Vec<(u32, f32)>,
    scratch: P::Scratch,
    rng: SmallRng64,
}

impl<P: Problem, S: ParamStore> StepState<P, S> {
    fn new(problem: &P, store: &S, seed: u64) -> Self {
        StepState {
            local: store.local(),
            grad: vec![0.0; problem.dim()],
            pairs: Vec::new(),
            scratch: problem.scratch(),
            rng: SmallRng64::new(seed),
        }
    }
}

/// One full SGD step: read the shared parameters, compute a minibatch
/// gradient (sparse where the store takes it and the problem has it),
/// publish the scaled update.
fn step<P: Problem, S: ParamStore>(problem: &P, store: &S, st: &mut StepState<P, S>) {
    let mut sparse = false;
    {
        let (theta, _) = store.read(&mut st.local, SnapshotMode::Fast);
        if S::SPARSE {
            sparse = problem
                .grad_sparse(&theta, &mut st.pairs, &mut st.scratch, &mut st.rng)
                .is_some();
        }
        if !sparse {
            problem.grad(&theta, &mut st.grad, &mut st.scratch, &mut st.rng);
        }
    }
    let update = if sparse {
        Update::Sparse(&st.pairs)
    } else {
        Update::Dense(&st.grad)
    };
    store.publish(&st.local, update, ETA, None, |_| {});
}

/// Benchmarks `algos` step latency on one workload under `name`.
fn bench_workload<P: Problem>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    problem: &P,
    algos: &[&str],
) {
    let theta0 = problem.init_theta(1);
    group.throughput(Throughput::Elements(problem.dim() as u64));
    for &kind in algos {
        with_store!(kind, &theta0, 4, |store| {
            let mut st = StepState::new(problem, &store, 99);
            group.bench_with_input(BenchmarkId::new(name, kind), &(), |bench, _| {
                bench.iter(|| step(problem, &store, &mut st));
            });
        });
    }
}

/// Fig. 3-style worker-scaling rows: `workers` concurrent trainer-style
/// tasks step against one shared store, scheduled as scoped tasks on
/// the unified work-stealing runtime (exactly how [`lsgd_core::train`]
/// runs its workers, including any intra-step GEMM splits sharing the
/// same worker threads). One timed iteration = every worker completes
/// one step, so the `elements` throughput is `d × workers`: under
/// perfect scaling the per-iteration latency stays flat as `workers`
/// grows and `Melem/s` grows linearly; lock contention (SEQ) shows up
/// as latency growth instead.
fn bench_scaling<P: Problem>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    problem: &P,
    workers: usize,
    algos: &[&str],
) {
    let theta0 = problem.init_theta(1);
    group.throughput(Throughput::Elements((problem.dim() * workers) as u64));
    let rt = lsgd_runtime::global();
    for &kind in algos {
        with_store!(kind, &theta0, workers, |store| {
            // Per-worker step state, handed to the scoped tasks through
            // `iter_mut` the same way the trainer distributes stats slots.
            let mut states: Vec<_> = (0..workers)
                .map(|w| {
                    let seed = 99 ^ (w as u64).wrapping_mul(0x9e3779b97f4a7c15);
                    StepState::new(problem, &store, seed)
                })
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("scaling_{name}_w{workers}"), kind),
                &(),
                |bench, _| {
                    bench.iter_custom(|iters| {
                        let store = &store;
                        let start = Instant::now();
                        rt.scope(|scope| {
                            for st in states.iter_mut() {
                                scope.spawn(move || {
                                    for _ in 0..iters {
                                        step(problem, store, st);
                                    }
                                });
                            }
                        });
                        start.elapsed()
                    });
                },
            );
        });
    }
}

fn bench_sgd_step(c: &mut Criterion) {
    let smoke = lsgd_core::env::flag("LSGD_BENCH_SMOKE");
    // Optional trace window over the whole suite: needs both the probes
    // compiled in (`--features trace` — NOT the default, so the reference
    // bench stays untraced) and the runtime gate (`LSGD_TRACE=1`). The
    // dump then explains bench medians with protocol counters (publish
    // retries, snapshot retries, queue contention).
    let collector = lsgd_trace::enabled().then(lsgd_trace::Collector::new);
    let mut group = c.benchmark_group("sgd_step");
    if smoke {
        group
            .warm_up_time(Duration::from_millis(150))
            .measurement_time(Duration::from_millis(500))
            .sample_size(10);
    } else {
        group
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(2))
            .sample_size(10);
    }
    let all: [&str; 4] = ["SEQ", "HOG", "LSH", "LSH_sharded"];
    let samples = if smoke { 512 } else { 2048 };

    // Table II MLP, minibatch 128.
    let mlp_data = SynthDigits::default().generate(samples, 1);
    let mlp = NnProblem::new(lsgd_nn::mlp_mnist(), mlp_data.clone(), 128, 1);
    bench_workload(&mut group, "mlp", &mlp, &all);
    let mlp_pre =
        NnProblem::new(lsgd_nn::mlp_mnist(), mlp_data, 128, 1).with_compute_opts(ComputeOpts::baseline());
    bench_workload(&mut group, "mlp_prepr", &mlp_pre, &["LSH"]);

    // Table III CNN, minibatch 64 — the im2col-dominated workload this
    // PR's >= 1.5x step-latency target is measured on (fast vs _prepr).
    let cnn_data = SynthDigits::default().generate(samples, 8);
    let cnn = NnProblem::new(lsgd_nn::cnn_mnist(), cnn_data.clone(), 64, 1);
    bench_workload(&mut group, "cnn", &cnn, &all);
    let cnn_pre =
        NnProblem::new(lsgd_nn::cnn_mnist(), cnn_data, 64, 1).with_compute_opts(ComputeOpts::baseline());
    bench_workload(&mut group, "cnn_prepr", &cnn_pre, &["LSH"]);

    // Sparse logistic regression (PR 4 workload), minibatch 16: the
    // sharded row exercises the native sparse dirty-shard publication.
    let logreg = SparseLogRegProblem::new(sparse_logreg(2 * samples, 16_384, 12, 9), 16);
    bench_workload(&mut group, "sparse_logreg", &logreg, &all);

    // Fig. 3-style scaling: m ∈ {1, 2, 4} concurrent workers on the
    // unified runtime, NN workloads × {SEQ, HOG, LSH}. The w1 medians
    // double as a regression check against the single-worker rows above.
    let scaling: [&str; 3] = ["SEQ", "HOG", "LSH"];
    for &workers in &[1usize, 2, 4] {
        bench_scaling(&mut group, "mlp", &mlp, workers, &scaling);
        bench_scaling(&mut group, "cnn", &cnn, workers, &scaling);
    }

    group.finish();

    if let Some(collector) = collector {
        let dump = collector.finish();
        print!("{}", dump.report());
        if let Some(path) = lsgd_trace::chrome_path() {
            match lsgd_trace::chrome::append_run(&path, "sgd_step bench", &dump) {
                Ok(_) => println!("chrome trace appended to {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

criterion_group!(benches, bench_sgd_step);
criterion_main!(benches);
