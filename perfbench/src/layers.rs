//! Per-layer timings for the traced run, taken from the benchmark's own
//! code around calls into each layer's public functions: `nn` layer
//! forward/backward, `tensor` GEMM, `runtime` scope/spawn and
//! `parallel_for`, `sync::SegQueue`, `core::pool::BufferPool`, and the
//! parameter stores' read and publish in a step loop the benchmark drives.
//!
//! Every function also checks what it ran, and returns an error when the
//! layer computed something wrong.

use crate::report::{quantile, Metrics};
use crate::workloads::{LayerSpec, Workload, CNN_LAYERS, MLP_LAYERS};
use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::{Algorithm, LeashedShared, Problem, PublishOutcome};
use lsgd_nn::{LayerCache, StepCtx};
use lsgd_sync::SegQueue;
use lsgd_tensor::gemm::{gemm, gemm_naive, Transpose};
use lsgd_tensor::{Matrix, SmallRng64};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer metrics of the runtime, pool and queue micro-benchmarks.
const FIXED: [&str; 4] = [
    "runtime.scope2.p50_us",
    "runtime.parallel_for.p50_us",
    "core.pool.acquire_release.p50_ns",
    "sync.queue.push_pop.p50_ns",
];

/// Per-layer metrics of the store loop and the training runs.
const TRAINING: [&str; 17] = [
    "core.read.p50_us",
    "core.read.p99_us",
    "core.publish.p50_us",
    "core.publish.p99_us",
    "core.grad.p50_us",
    "core.grad.p99_us",
    "core.eval_loss.p50_ms",
    "core.publish.cas_retry_ratio",
    "core.publish.abort_ratio",
    "core.staleness.mean",
    "core.staleness.p99",
    "core.step.tc_share",
    "core.step.tu_share",
    "core.step.other_share",
    "core.pool.reuse_ratio",
    "core.pool.outstanding_peak",
    "trace_overhead",
];

/// Every per-layer metric name, in the order the traced run reports them.
pub fn names() -> Vec<String> {
    let mut out: Vec<String> = FIXED.iter().map(|s| s.to_string()).collect();
    out.extend(
        GEMM_SHAPES
            .iter()
            .map(|&(m, n, k, ..)| format!("tensor.gemm.{m}x{n}x{k}.p50_us")),
    );
    for (tag, specs) in [("mlp", MLP_LAYERS), ("cnn", CNN_LAYERS)] {
        for (i, s) in specs.iter().enumerate() {
            for dir in ["fwd", "bwd"] {
                out.push(format!("nn.{tag}.l{i}_{}.{dir}.p50_us", s.kind()));
            }
        }
    }
    out.extend(TRAINING.iter().map(|s| s.to_string()));
    out
}

/// Calls `f` `reps` times (stopping early once `cap` has passed, after at
/// least 5 calls) and returns each call's duration in nanoseconds.
fn sample(reps: usize, cap: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(reps);
    while out.len() < reps && (out.len() < 5 || start.elapsed() < cap) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

fn p50(ns: &[f64], scale: f64) -> f64 {
    quantile(ns, 0.5) / scale
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.next_f32() - 0.5)
}

/// Times each layer of a network mirror at `batch`: forward, then
/// backward, with a fresh panel-cache step before each pair as in a
/// training step. Checks first that the mirror computes bitwise what the
/// library network computes.
pub fn nn_layers(
    tag: &str,
    specs: &[LayerSpec],
    lib: lsgd_nn::Network,
    batch: usize,
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let layers: Vec<_> = specs.iter().map(|s| s.build()).collect();
    let mut offsets = vec![0usize];
    for l in &layers {
        offsets.push(offsets[offsets.len() - 1] + l.param_len());
    }
    if offsets[layers.len()] != lib.param_len() {
        return Err(format!(
            "nn.{tag}: mirror has d={} but library d={}",
            offsets[layers.len()],
            lib.param_len()
        ));
    }
    let theta = lib.init_params(seed);
    let mut rng = SmallRng64::new(seed);
    let x = Matrix::from_fn(batch, lib.in_dim(), |_, _| rng.next_f32());

    // Activations through the mirror, layer by layer.
    let mut ctx = StepCtx::default();
    let mut caches: Vec<LayerCache> = layers.iter().map(|_| LayerCache::default()).collect();
    let mut acts = vec![x.clone()];
    ctx.panels.begin_step();
    for (i, l) in layers.iter().enumerate() {
        let mut out = Matrix::zeros(batch, l.out_dim());
        l.forward(
            &theta[offsets[i]..offsets[i + 1]],
            &acts[i],
            &mut out,
            &mut caches[i],
            &mut ctx,
        );
        acts.push(out);
    }
    let mut ws = lib.workspace(batch);
    let logits = lib.forward(&theta, &x, &mut ws);
    if logits.as_slice() != acts.last().unwrap().as_slice() {
        return Err(format!(
            "nn.{tag}: layer-by-layer forward differs from the library network"
        ));
    }

    for (i, l) in layers.iter().enumerate() {
        let params = &theta[offsets[i]..offsets[i + 1]];
        let grad_out = random_matrix(batch, l.out_dim(), &mut rng);
        let mut out = Matrix::zeros(batch, l.out_dim());
        let mut gparams = vec![0.0f32; l.param_len()];
        let mut grad_in = Matrix::zeros(batch, l.in_dim());
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while fwd.len() < 60 && (fwd.len() < 5 || start.elapsed() < Duration::from_millis(250)) {
            ctx.panels.begin_step();
            let t0 = Instant::now();
            l.forward(params, &acts[i], &mut out, &mut caches[i], &mut ctx);
            let t1 = Instant::now();
            l.backward(
                params,
                &acts[i],
                &out,
                &grad_out,
                &mut caches[i],
                &mut ctx,
                &mut gparams,
                &mut grad_in,
            );
            let t2 = Instant::now();
            fwd.push((t1 - t0).as_nanos() as f64);
            bwd.push((t2 - t1).as_nanos() as f64);
        }
        if out.as_slice() != acts[i + 1].as_slice()
            || !grad_in.as_slice().iter().all(|v| v.is_finite())
        {
            return Err(format!(
                "nn.{tag}.l{i}: repeated forward/backward is not stable"
            ));
        }
        let base = format!("nn.{tag}.l{i}_{}", specs[i].kind());
        m.push(&format!("{base}.fwd.p50_us"), p50(&fwd, 1e3), "us");
        m.push(&format!("{base}.bwd.p50_us"), p50(&bwd, 1e3), "us");
    }
    Ok(())
}

/// GEMM shapes `(m, n, k, op(A), op(B))` of the Table II MLP at batch 128:
/// forward `X·Wᵀ` per layer, and the backward `dYᵀ·X` / `dY·W` products
/// whose shapes the forward set does not already cover.
pub const GEMM_SHAPES: &[(usize, usize, usize, Transpose, Transpose)] = &[
    (128, 128, 784, Transpose::No, Transpose::Yes),
    (128, 128, 128, Transpose::No, Transpose::Yes),
    (128, 10, 128, Transpose::No, Transpose::Yes),
    (128, 784, 128, Transpose::Yes, Transpose::No),
    (10, 128, 128, Transpose::Yes, Transpose::No),
    (128, 128, 10, Transpose::No, Transpose::No),
];

/// Times `lsgd_tensor::gemm` at [`GEMM_SHAPES`], checking each product
/// against the naive reference.
pub fn gemm_shapes(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let mut rng = SmallRng64::new(seed);
    for &(mm, n, k, ta, tb) in GEMM_SHAPES {
        let a = if ta.is_t() {
            random_matrix(k, mm, &mut rng)
        } else {
            random_matrix(mm, k, &mut rng)
        };
        let b = if tb.is_t() {
            random_matrix(n, k, &mut rng)
        } else {
            random_matrix(k, n, &mut rng)
        };
        let mut c = Matrix::zeros(mm, n);
        let mut want = Matrix::zeros(mm, n);
        gemm_naive(1.0, &a, ta, &b, tb, 0.0, &mut want);
        let ns = sample(200, Duration::from_millis(150), || {
            gemm(1.0, black_box(&a), ta, black_box(&b), tb, 0.0, &mut c);
            black_box(&c);
        });
        if c.max_abs_diff(&want) > 1e-3 {
            return Err(format!(
                "tensor.gemm.{mm}x{n}x{k}: differs from the naive reference"
            ));
        }
        m.push(
            &format!("tensor.gemm.{mm}x{n}x{k}.p50_us"),
            p50(&ns, 1e3),
            "us",
        );
    }
    Ok(())
}

/// Times a runtime scope spawning two empty tasks, and a `parallel_for`
/// with one empty task per runtime thread, on `lsgd_runtime::global()`.
pub fn runtime(m: &mut Metrics) -> Result<(), String> {
    let rt = lsgd_runtime::global();
    // ORDERING: Relaxed — a tally read after `scope` / `parallel_for`
    // returned, which joins every task.
    let ran = AtomicU64::new(0);
    let scope = sample(2000, Duration::from_millis(200), || {
        rt.scope(|s| {
            s.spawn(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            s.spawn(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
    });
    let tasks = rt.threads();
    let pfor = sample(2000, Duration::from_millis(200), || {
        rt.parallel_for(tasks, &|i| {
            black_box(i);
            ran.fetch_add(1, Ordering::Relaxed);
        });
    });
    let want = 2 * scope.len() as u64 + (tasks * pfor.len()) as u64;
    if ran.load(Ordering::Relaxed) != want {
        return Err(format!(
            "runtime: {} task runs, expected {want}",
            ran.load(Ordering::Relaxed)
        ));
    }
    m.push("runtime.scope2.p50_us", p50(&scope, 1e3), "us");
    m.push("runtime.parallel_for.p50_us", p50(&pfor, 1e3), "us");
    Ok(())
}

/// Pairs timed together per sample, so one sample is well above the
/// clock's resolution.
const PAIRS: usize = 256;

/// Times `BufferPool` acquire + release pairs (recycling mode, buffers of
/// `dim` floats) and `SegQueue` push + pop pairs.
pub fn pool_and_queue(dim: usize, m: &mut Metrics) -> Result<(), String> {
    let pool = BufferPool::new(dim, Arc::new(MemoryGauge::new()));
    let ns = sample(400, Duration::from_millis(150), || {
        for _ in 0..PAIRS {
            let p = pool.acquire();
            // SAFETY: `p` was just acquired from this pool and is not
            // used after release.
            unsafe { pool.release(black_box(p)) };
        }
    });
    if pool.outstanding() != 0 || pool.outstanding_peak() != 1 {
        return Err(format!(
            "core.pool: outstanding {} peak {} after balanced pairs",
            pool.outstanding(),
            pool.outstanding_peak()
        ));
    }
    m.push(
        "core.pool.acquire_release.p50_ns",
        p50(&ns, PAIRS as f64),
        "ns",
    );

    let q = SegQueue::new();
    let mut sum = 0usize;
    let ns = sample(400, Duration::from_millis(150), || {
        for i in 0..PAIRS {
            q.push(black_box(i));
            sum += q.pop().unwrap_or(usize::MAX);
        }
    });
    if sum != ns.len() * PAIRS * (PAIRS - 1) / 2 || !q.is_empty() {
        return Err("sync.queue: push/pop pairs lost or reordered values".into());
    }
    m.push("sync.queue.push_pop.p50_ns", p50(&ns, PAIRS as f64), "ns");
    Ok(())
}

/// The parameter store a workload's algorithm uses.
#[allow(clippy::large_enum_variant)] // one instance per store loop
enum Store {
    Locked(LockedParams),
    Hogwild(HogwildParams),
    Leashed(LeashedShared),
}

impl Store {
    fn seq(&self) -> u64 {
        match self {
            Store::Locked(p) => p.current_seq(),
            Store::Hogwild(p) => p.current_seq(),
            Store::Leashed(s) => s.current_seq(),
        }
    }
}

/// Drives the workload's store in a step loop at its worker count on
/// `lsgd_runtime::global()`: read (timed), gradient, publish (timed).
/// Read is `LeashedShared::latest` or `read_into`; publish is
/// `publish_update` or `update`. Checks exactly-once publication: the
/// store's sequence number equals the publishes counted.
pub fn store_loop<P: Problem>(
    w: &Workload,
    problem: &P,
    seed: u64,
    dur: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    let theta0 = problem.init_theta(seed);
    let gauge = Arc::new(MemoryGauge::new());
    let store = match w.algorithm {
        Algorithm::Sequential | Algorithm::AsyncLock => {
            Store::Locked(LockedParams::new(theta0, gauge))
        }
        Algorithm::Hogwild => Store::Hogwild(HogwildParams::new(&theta0, gauge)),
        Algorithm::Leashed { .. } => Store::Leashed(LeashedShared::new(
            &theta0,
            BufferPool::new(problem.dim(), gauge),
        )),
        other => return Err(format!("store loop: no store for {}", other.label())),
    };
    let reads = Mutex::new(Vec::new());
    let publishes = Mutex::new(Vec::new());
    // ORDERING: Relaxed — a tally read after the scope joined its tasks.
    let published = AtomicU64::new(0);
    let start = Instant::now();
    lsgd_runtime::global().scope(|s| {
        for worker in 0..w.workers {
            let (store, reads, publishes, published) = (&store, &reads, &publishes, &published);
            s.spawn(move || {
                let mut rng = SmallRng64::new(seed ^ (worker as u64 + 1));
                let mut scratch = problem.scratch();
                let mut grad = vec![0.0f32; problem.dim()];
                let mut local = vec![0.0f32; problem.dim()];
                let (mut r_ns, mut p_ns) = (Vec::new(), Vec::new());
                while start.elapsed() < dur || r_ns.len() < 5 {
                    let t0 = Instant::now();
                    match store {
                        Store::Leashed(sh) => {
                            let guard = sh.latest();
                            r_ns.push(t0.elapsed().as_nanos() as f64);
                            problem.grad(guard.theta(), &mut grad, &mut scratch, &mut rng);
                        }
                        Store::Hogwild(p) => {
                            p.read_into(&mut local);
                            r_ns.push(t0.elapsed().as_nanos() as f64);
                            problem.grad(&local, &mut grad, &mut scratch, &mut rng);
                        }
                        Store::Locked(p) => {
                            p.read_into(&mut local);
                            r_ns.push(t0.elapsed().as_nanos() as f64);
                            problem.grad(&local, &mut grad, &mut scratch, &mut rng);
                        }
                    }
                    let t1 = Instant::now();
                    let ok = match store {
                        Store::Leashed(sh) => {
                            matches!(
                                sh.publish_update(&grad, w.eta, None, |_| {}),
                                PublishOutcome::Published { .. }
                            )
                        }
                        Store::Hogwild(p) => p.update(&grad, w.eta) > 0,
                        Store::Locked(p) => p.update(&grad, w.eta) > 0,
                    };
                    p_ns.push(t1.elapsed().as_nanos() as f64);
                    if ok {
                        published.fetch_add(1, Ordering::Relaxed);
                    }
                }
                reads.lock().expect("no panics while held").extend(r_ns);
                publishes.lock().expect("no panics while held").extend(p_ns);
            });
        }
    });
    let reads = reads.into_inner().expect("no panics while held");
    let publishes = publishes.into_inner().expect("no panics while held");
    let published = published.load(Ordering::Relaxed);
    if store.seq() != published || published != publishes.len() as u64 {
        return Err(format!(
            "store loop: store seq {} but {published} publishes counted of {} attempted",
            store.seq(),
            publishes.len()
        ));
    }
    m.push("core.read.p50_us", quantile(&reads, 0.5) / 1e3, "us");
    m.push("core.read.p99_us", quantile(&reads, 0.99) / 1e3, "us");
    m.push("core.publish.p50_us", quantile(&publishes, 0.5) / 1e3, "us");
    m.push(
        "core.publish.p99_us",
        quantile(&publishes, 0.99) / 1e3,
        "us",
    );
    Ok(())
}
