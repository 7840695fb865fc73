//! A `Problem` wrapper that times every call into the problem layer and
//! records the minibatch loss sequence each worker sees.
//!
//! Samples go into the per-worker scratch (no shared state on the hot
//! path) and are flushed into the probe's sink when the trainer drops the
//! scratch at the end of `train`.

use lsgd_core::Problem;
use lsgd_tensor::SmallRng64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one training run's probe recorded.
#[derive(Debug, Default)]
pub struct Recorded {
    /// `grad` / `grad_sparse` call durations in nanoseconds.
    pub grad_ns: Vec<u64>,
    /// `eval_loss` call durations in nanoseconds.
    pub eval_ns: Vec<u64>,
    /// Minibatch-loss bit patterns, one list per worker that called
    /// `grad`, in call order.
    pub losses: Vec<Vec<u32>>,
}

/// Wraps a problem; `timing = false` records only the loss sequence.
pub struct Probe<'p, P> {
    inner: &'p P,
    timing: bool,
    sink: Arc<Mutex<Recorded>>,
}

/// Per-worker scratch: the inner scratch plus this worker's samples.
pub struct ProbeScratch<S> {
    inner: S,
    grad_ns: Vec<u64>,
    eval_ns: Vec<u64>,
    losses: Vec<u32>,
    sink: Arc<Mutex<Recorded>>,
}

impl<'p, P: Problem> Probe<'p, P> {
    /// Wraps `inner`.
    pub fn new(inner: &'p P, timing: bool) -> Self {
        Probe {
            inner,
            timing,
            sink: Arc::default(),
        }
    }

    /// Takes what the runs since the last call recorded.
    pub fn take(&self) -> Recorded {
        std::mem::take(&mut *self.sink.lock().expect("probe sink poisoned"))
    }

    fn timed<R>(&self, samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
        if !self.timing {
            return f();
        }
        let t = Instant::now();
        let r = f();
        samples.push(t.elapsed().as_nanos() as u64);
        r
    }
}

impl<S> Drop for ProbeScratch<S> {
    fn drop(&mut self) {
        // A poisoned sink only means another worker panicked mid-flush;
        // the vectors are still whole, so keep recording.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.grad_ns.append(&mut self.grad_ns);
        sink.eval_ns.append(&mut self.eval_ns);
        if !self.losses.is_empty() {
            sink.losses.push(std::mem::take(&mut self.losses));
        }
    }
}

impl<P: Problem> Problem for Probe<'_, P> {
    type Scratch = ProbeScratch<P::Scratch>;

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn init_theta(&self, seed: u64) -> Vec<f32> {
        self.inner.init_theta(seed)
    }

    fn scratch(&self) -> Self::Scratch {
        ProbeScratch {
            inner: self.inner.scratch(),
            grad_ns: Vec::new(),
            eval_ns: Vec::new(),
            losses: Vec::new(),
            sink: Arc::clone(&self.sink),
        }
    }

    fn grad(
        &self,
        theta: &[f32],
        grad: &mut [f32],
        s: &mut Self::Scratch,
        rng: &mut SmallRng64,
    ) -> f32 {
        let inner = &mut s.inner;
        let loss = self.timed(&mut s.grad_ns, || self.inner.grad(theta, grad, inner, rng));
        s.losses.push(loss.to_bits());
        loss
    }

    fn eval_loss(&self, theta: &[f32], s: &mut Self::Scratch) -> f64 {
        let inner = &mut s.inner;
        self.timed(&mut s.eval_ns, || self.inner.eval_loss(theta, inner))
    }

    fn grad_sparse(
        &self,
        theta: &[f32],
        pairs: &mut Vec<(u32, f32)>,
        s: &mut Self::Scratch,
        rng: &mut SmallRng64,
    ) -> Option<f32> {
        let inner = &mut s.inner;
        let loss = self.timed(&mut s.grad_ns, || {
            self.inner.grad_sparse(theta, pairs, inner, rng)
        });
        if let Some(l) = loss {
            s.losses.push(l.to_bits());
        }
        loss
    }
}
