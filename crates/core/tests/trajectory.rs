//! Single-worker trajectory oracle: at `threads = 1` every parameter
//! store must drive the exact same sequence of parameter vectors through
//! the problem. The stores differ only in how a worker reads θ and
//! publishes its update, so with one worker (no concurrency, staleness
//! 0) each must reproduce plain sequential SGD bit for bit.
//!
//! A recording [`Problem`] wrapper digests every θ handed to
//! `grad`/`grad_sparse`, plus the returned loss, for the first [`STEPS`]
//! gradient calls of a run.

use lsgd_core::prelude::*;
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_tensor::SmallRng64;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Mutex;
use std::time::Duration;

/// Gradient calls digested per run.
const STEPS: u64 = 300;
const SEED: u64 = 11;

fn digest_step(h: &mut DefaultHasher, theta: &[f32], loss: f32) {
    for v in theta {
        h.write_u32(v.to_bits());
    }
    h.write_u32(loss.to_bits());
}

/// Delegates to `inner`, digesting the first [`STEPS`] gradient calls.
struct Recording<P> {
    inner: P,
    calls: Mutex<(u64, DefaultHasher)>,
}

impl<P: Problem> Recording<P> {
    fn record(&self, theta: &[f32], loss: f32) {
        let mut calls = self.calls.lock().unwrap();
        if calls.0 < STEPS {
            digest_step(&mut calls.1, theta, loss);
        }
        calls.0 += 1;
    }
}

impl<P: Problem> Problem for Recording<P> {
    type Scratch = P::Scratch;

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn init_theta(&self, seed: u64) -> Vec<f32> {
        self.inner.init_theta(seed)
    }

    fn scratch(&self) -> P::Scratch {
        self.inner.scratch()
    }

    fn grad(&self, theta: &[f32], g: &mut [f32], s: &mut P::Scratch, r: &mut SmallRng64) -> f32 {
        let loss = self.inner.grad(theta, g, s, r);
        self.record(theta, loss);
        loss
    }

    fn eval_loss(&self, theta: &[f32], s: &mut P::Scratch) -> f64 {
        self.inner.eval_loss(theta, s)
    }

    fn grad_sparse(
        &self,
        theta: &[f32],
        pairs: &mut Vec<(u32, f32)>,
        s: &mut P::Scratch,
        r: &mut SmallRng64,
    ) -> Option<f32> {
        let loss = self.inner.grad_sparse(theta, pairs, s, r)?;
        self.record(theta, loss);
        Some(loss)
    }
}

/// Trains `problem` on `cfg` and returns the digest of its first steps.
fn digest_of<P: Problem>(problem: P, cfg: &TrainConfig) -> u64 {
    let rec = Recording {
        inner: problem,
        calls: Mutex::new((0, DefaultHasher::new())),
    };
    let r = train(&rec, cfg);
    assert!(!r.crashed, "{}", r.summary());
    let calls = rec.calls.into_inner().unwrap();
    assert!(calls.0 >= STEPS, "only {} gradient calls", calls.0);
    calls.1.finish()
}

/// Plain sequential SGD written out by hand: the worker-0 RNG stream the
/// trainer uses, `grad`, then `θ ← θ − η·g`.
fn reference_digest<P: Problem>(problem: &P, eta: f32) -> u64 {
    let mut theta = problem.init_theta(SEED);
    let mut grad = vec![0.0f32; problem.dim()];
    let mut scratch = problem.scratch();
    let mut rng = SmallRng64::new(SEED ^ 0x5bd1e995);
    let mut h = DefaultHasher::new();
    for _ in 0..STEPS {
        let loss = problem.grad(&theta, &mut grad, &mut scratch, &mut rng);
        digest_step(&mut h, &theta, loss);
        lsgd_tensor::ops::sgd_step(&mut theta, &grad, eta);
    }
    h.finish()
}

fn assert_stores_agree<P: Problem>(name: &str, make: impl Fn() -> P, eta: f32) {
    let sharded = |snapshot| Algorithm::ShardedLeashed {
        persistence: None,
        shards: 4,
        snapshot,
    };
    let stores = [
        Algorithm::Sequential,
        Algorithm::AsyncLock,
        Algorithm::Hogwild,
        Algorithm::Leashed { persistence: None },
        sharded(SnapshotMode::Fast),
        sharded(SnapshotMode::Consistent),
    ];
    // (label, momentum, step-size policy, top-k fraction)
    let variants = [
        ("plain", 0.0, EtaPolicy::Constant, None),
        ("momentum", 0.9, EtaPolicy::TauAdaptive { beta: 0.5 }, None),
        ("sparsify", 0.0, EtaPolicy::Constant, Some(0.1)),
    ];
    let mut per_variant = Vec::new();
    for (variant, momentum, eta_policy, sparsify) in variants {
        let digests: Vec<(String, u64)> = stores
            .iter()
            .map(|&algorithm| {
                let cfg = TrainConfig {
                    algorithm,
                    threads: 1,
                    eta,
                    // Unreachable: only the update budget ends the run.
                    epsilons: vec![1e-12],
                    max_updates: STEPS,
                    max_wall: Duration::from_secs(60),
                    eval_every: Duration::from_millis(5),
                    seed: SEED,
                    momentum,
                    eta_policy,
                    sparsify,
                    ..TrainConfig::default()
                };
                (algorithm.label(), digest_of(make(), &cfg))
            })
            .collect();
        let (first_label, first) = &digests[0];
        for (label, d) in &digests[1..] {
            assert_eq!(
                d, first,
                "{name} {variant}: {label} diverged from {first_label}"
            );
        }
        per_variant.push(*first);
    }
    assert_eq!(
        per_variant[0],
        reference_digest(&make(), eta),
        "{name}: stores diverged from hand-written sequential SGD"
    );
    // Momentum must change the update rule. (Sparsify need not: on
    // sparse logreg a 10% budget keeps every touched coordinate, so that
    // variant pins the sparse publish path rather than a new trajectory.)
    assert_ne!(
        per_variant[0], per_variant[1],
        "{name}: momentum had no effect"
    );
}

#[test]
fn single_worker_trajectories_match_across_stores_mlp() {
    let make = || {
        let data = gaussian_blobs(600, 6, 3, 0.3, 3);
        NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 32, 256)
    };
    assert_stores_agree("tiny_mlp", make, 0.05);
}

#[test]
fn single_worker_trajectories_match_across_stores_sparse_logreg() {
    let make = || SparseLogRegProblem::new(sparse_logreg(2000, 4096, 12, 9), 16);
    assert_stores_agree("sparse_logreg", make, 0.5);
}
