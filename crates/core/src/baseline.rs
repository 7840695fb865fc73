//! Shared parameter state for the baseline algorithms (paper Algorithms 2
//! and 4): the lock-based AsyncSGD and the synchronisation-free HOGWILD!.

use crate::mem::MemoryGauge;
use crate::shard::SnapshotMode;
use crate::store::{ParamStore, Publication, Update};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lock-protected shared parameters — Algorithm 2. Reads (full copy) and
/// updates are serialised through one mutex; a global sequence number
/// provides the total order used for staleness measurement.
pub struct LockedParams {
    theta: Mutex<Vec<f32>>,
    seq: AtomicU64,
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl LockedParams {
    /// Wraps an initial parameter vector.
    pub fn new(init: Vec<f32>, gauge: Arc<MemoryGauge>) -> Self {
        let bytes = std::mem::size_of_val(init.as_slice());
        gauge.add(bytes);
        LockedParams {
            theta: Mutex::new(init),
            seq: AtomicU64::new(0),
            gauge,
            bytes,
        }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta.lock().len()
    }

    /// Copies the shared parameters into `dst` under the lock; returns the
    /// sequence number of the copied state (Algorithm 2 lines 11–13).
    pub fn read_into(&self, dst: &mut [f32]) -> u64 {
        let guard = self.theta.lock();
        dst.copy_from_slice(&guard);
        // Read the seq while holding the lock: it labels this exact state.
        // ORDERING: SeqCst — one total order over seq labels so staleness
        // math (t_new - t_base) never observes reordered labels.
        self.seq.load(Ordering::SeqCst)
    }

    /// Applies `theta -= eta * grad` under the lock (Algorithm 2 lines
    /// 15–17); returns the new sequence number.
    pub fn update(&self, grad: &[f32], eta: f32) -> u64 {
        lsgd_trace::count(lsgd_trace::Counter::PublishDense);
        let mut guard = self.theta.lock();
        lsgd_tensor::ops::sgd_step(&mut guard, grad, eta);
        // ORDERING: SeqCst — seq labels share one total order; the data
        // itself is protected by the mutex.
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// [`update`](Self::update) for a sparse direction: applies
    /// `theta[i] -= eta * v` for each `(i, v)` pair under the lock and
    /// leaves every other coordinate untouched.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn update_sparse(&self, pairs: &[(u32, f32)], eta: f32) -> u64 {
        lsgd_trace::count(lsgd_trace::Counter::PublishSparse);
        let mut guard = self.theta.lock();
        for &(i, v) in pairs {
            guard[i as usize] -= eta * v;
        }
        // ORDERING: SeqCst — as in `update`.
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Current sequence number.
    pub fn current_seq(&self) -> u64 {
        // ORDERING: SeqCst — same total order as read_into/update.
        self.seq.load(Ordering::SeqCst)
    }
}

impl Drop for LockedParams {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

/// Unsynchronised shared parameters — Algorithm 4 (HOGWILD!).
///
/// C++ HOGWILD! races plain `float` reads/writes; in Rust that is UB, so
/// each component is an `AtomicU32` accessed with `Relaxed` bit-cast
/// loads/stores — on x86 these compile to the same `mov` instructions the
/// C++ emits, preserving the algorithm's behaviour (word-level atomicity,
/// vector-level inconsistency) with defined semantics.
pub struct HogwildParams {
    theta: Box<[AtomicU32]>,
    seq: AtomicU64,
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl HogwildParams {
    /// Wraps an initial parameter vector.
    pub fn new(init: &[f32], gauge: Arc<MemoryGauge>) -> Self {
        let bytes = std::mem::size_of_val(init);
        gauge.add(bytes);
        HogwildParams {
            theta: init.iter().map(|&v| AtomicU32::new(v.to_bits())).collect(),
            seq: AtomicU64::new(0),
            gauge,
            bytes,
        }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta.len()
    }

    /// Component read.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        // ORDERING: Relaxed — HOGWILD! is *defined* by unsynchronised
        // component access; only word-level atomicity is wanted.
        f32::from_bits(self.theta[i].load(Ordering::Relaxed))
    }

    /// Copies the (possibly inconsistent) current state into `dst` with
    /// relaxed per-component loads; returns the sequence number observed
    /// *before* the copy, matching the paper's staleness bookkeeping.
    pub fn read_into(&self, dst: &mut [f32]) -> u64 {
        // ORDERING: SeqCst — seq labels stay totally ordered even though
        // the component reads below are deliberately unordered.
        let t = self.seq.load(Ordering::SeqCst);
        for (d, a) in dst.iter_mut().zip(self.theta.iter()) {
            // ORDERING: Relaxed — the HOGWILD! racy read; see `get`.
            *d = f32::from_bits(a.load(Ordering::Relaxed));
        }
        t
    }

    /// The HOGWILD! update: component-wise racy read-modify-write
    /// `theta[i] -= eta * grad[i]` with no coordination (Algorithm 1 line
    /// 15–18 applied directly to the shared vector). Returns the new
    /// sequence number (`FetchAndAdd`, as in Algorithm 1 line 16).
    pub fn update(&self, grad: &[f32], eta: f32) -> u64 {
        lsgd_trace::count(lsgd_trace::Counter::PublishDense);
        // ORDERING: SeqCst — the paper's FetchAndAdd total order on t.
        let t = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        for (a, &g) in self.theta.iter().zip(grad) {
            racy_sub(a, eta * g);
        }
        t
    }

    /// The sparse HOGWILD! update of Niu et al.: the same `FetchAndAdd`
    /// and racy RMW as [`update`](Self::update), but only over the
    /// coordinates the `(index, value)` pairs touch — O(k) instead of
    /// O(d), and every other coordinate is left untouched.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn update_sparse(&self, pairs: &[(u32, f32)], eta: f32) -> u64 {
        lsgd_trace::count(lsgd_trace::Counter::PublishSparse);
        // ORDERING: SeqCst — as in `update`.
        let t = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        for &(i, v) in pairs {
            racy_sub(&self.theta[i as usize], eta * v);
        }
        t
    }

    /// Current sequence number.
    pub fn current_seq(&self) -> u64 {
        // ORDERING: SeqCst — same total order as read_into/update.
        self.seq.load(Ordering::SeqCst)
    }
}

/// One HOGWILD! component write, `a -= delta`: a racy read-modify-write,
/// exactly like the unsynchronised C++, so concurrent updates to the same
/// component can be lost.
#[inline]
fn racy_sub(a: &AtomicU32, delta: f32) {
    // ORDERING: Relaxed — deliberately unsynchronised; see `get`.
    let cur = f32::from_bits(a.load(Ordering::Relaxed));
    // ORDERING: Relaxed — see above.
    a.store((cur - delta).to_bits(), Ordering::Relaxed);
}

impl Drop for HogwildParams {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

/// Worker-local state of a store that copies θ on read.
pub struct CopyRead {
    theta: Vec<f32>,
    seq: u64,
}

/// SEQ / ASYNC (Algorithm 2: lock, copy or apply, unlock) and HOGWILD!
/// (Algorithm 4: racy per-component copy and RMW) share one shape: `Tu`
/// is one timed `update` or `update_sparse` call, and the sequence
/// numbers give τ.
macro_rules! copy_on_read_store {
    ($store:ty) => {
        impl ParamStore for $store {
            type Local = CopyRead;
            type View<'a> = &'a [f32];

            fn local(&self) -> CopyRead {
                CopyRead {
                    theta: vec![0.0; self.dim()],
                    seq: 0,
                }
            }

            fn read<'a>(&'a self, local: &'a mut CopyRead, _: SnapshotMode) -> (&'a [f32], bool) {
                local.seq = self.read_into(&mut local.theta);
                (&local.theta, false)
            }

            fn staleness(&self, local: &CopyRead) -> u64 {
                self.current_seq().saturating_sub(local.seq)
            }

            fn publish(
                &self,
                local: &CopyRead,
                update: Update<'_>,
                eta: f32,
                _: Option<u32>,
                mut on_attempt: impl FnMut(f64),
            ) -> Publication {
                let start = Instant::now();
                let t_pub = match update {
                    Update::Dense(g) => self.update(g, eta),
                    Update::Sparse(pairs) => self.update_sparse(pairs, eta),
                };
                on_attempt(start.elapsed().as_secs_f64());
                Publication {
                    published: true,
                    tau: t_pub - 1 - local.seq,
                    ..Publication::default()
                }
            }

            fn monitor_snapshot(&self, dst: &mut [f32]) {
                self.read_into(dst);
            }

            fn gauge(&self) -> &Arc<MemoryGauge> {
                &self.gauge
            }
        }
    };
}

copy_on_read_store!(LockedParams);
copy_on_read_store!(HogwildParams);

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge() -> Arc<MemoryGauge> {
        Arc::new(MemoryGauge::new())
    }

    #[test]
    fn locked_read_after_update() {
        let p = LockedParams::new(vec![1.0; 4], gauge());
        let t0 = p.update(&[1.0, 1.0, 1.0, 1.0], 0.5);
        assert_eq!(t0, 1);
        let mut buf = vec![0.0; 4];
        let t = p.read_into(&mut buf);
        assert_eq!(t, 1);
        assert_eq!(buf, vec![0.5; 4]);
    }

    #[test]
    fn locked_updates_are_serialised() {
        let p = Arc::new(LockedParams::new(vec![0.0; 8], gauge()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..1000 {
                        p.update(&[-1.0; 8], 1.0); // += 1 per component
                    }
                });
            }
        });
        let mut buf = vec![0.0; 8];
        p.read_into(&mut buf);
        assert_eq!(p.current_seq(), 4000);
        // Mutex-serialised updates lose nothing.
        assert!(buf.iter().all(|&v| v == 4000.0), "{buf:?}");
    }

    #[test]
    fn hogwild_single_thread_matches_sgd() {
        let p = HogwildParams::new(&[1.0, 2.0], gauge());
        p.update(&[0.5, -0.5], 0.2);
        assert!((p.get(0) - 0.9).abs() < 1e-7);
        assert!((p.get(1) - 2.1).abs() < 1e-7);
        assert_eq!(p.current_seq(), 1);
    }

    #[test]
    fn hogwild_concurrent_updates_may_lose_but_stay_finite() {
        let p = Arc::new(HogwildParams::new(&vec![0.0; 64], gauge()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..2000 {
                        p.update(&[-1.0; 64], 1.0);
                    }
                });
            }
        });
        assert_eq!(p.current_seq(), 8000);
        let mut buf = vec![0.0; 64];
        p.read_into(&mut buf);
        for &v in &buf {
            // Lost updates are allowed (that is HOGWILD!'s deal) but the
            // value must be finite, word-atomic, and at most the total.
            assert!(v.is_finite());
            assert!(v <= 8000.0 + 0.5);
            assert!(v > 0.0);
        }
    }

    /// θ with a signed zero, a subnormal and mixed magnitudes, so an
    /// untouched coordinate that is rewritten shows in its bits.
    const INIT: [f32; 8] = [0.3, -1.7, 2.5, 1e-3, -0.0, 7.0, 1e-40, -4.2];
    /// Ascending pairs; coordinate 3's batch sum cancelled to exactly 0.
    const PAIRS: [(u32, f32); 4] = [(0, 0.25), (3, 0.0), (5, -1.5), (7, 3.0)];
    const ETA: f32 = 0.37;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Publishes `PAIRS` sparse on one store and as a dense direction
    /// with zeros elsewhere on another: same θ bitwise, same publication.
    fn sparse_matches_dense<S: ParamStore>(make: impl Fn() -> S) {
        let mut dense_dir = [0.0f32; 8];
        for &(i, v) in &PAIRS {
            dense_dir[i as usize] = v;
        }
        let mut after = Vec::new();
        for update in [Update::Dense(&dense_dir), Update::Sparse(&PAIRS)] {
            let store = make();
            let mut local = store.local();
            drop(store.read(&mut local, SnapshotMode::Fast));
            let out = store.publish(&local, update, ETA, None, |_| {});
            let mut theta = [0.0f32; 8];
            store.monitor_snapshot(&mut theta);
            after.push((out, bits(&theta)));
        }
        assert_eq!(after[0], after[1]);
        assert_ne!(after[0].1, bits(&INIT), "the update had no effect");
    }

    #[test]
    fn locked_sparse_update_matches_dense_bitwise() {
        sparse_matches_dense(|| LockedParams::new(INIT.to_vec(), gauge()));
    }

    #[test]
    fn hogwild_sparse_update_matches_dense_bitwise() {
        sparse_matches_dense(|| HogwildParams::new(&INIT, gauge()));
    }

    #[test]
    fn hogwild_sparse_update_leaves_untouched_coordinates_alone() {
        let p = HogwildParams::new(&INIT, gauge());
        assert_eq!(p.update_sparse(&PAIRS, ETA), 1);
        for (i, &init) in INIT.iter().enumerate() {
            if PAIRS.iter().all(|&(j, _)| j as usize != i) {
                assert_eq!(p.get(i).to_bits(), init.to_bits(), "coordinate {i}");
            }
        }
        assert_eq!(p.get(0), INIT[0] - ETA * 0.25);
    }

    #[test]
    fn hogwild_sparse_updates_on_disjoint_coordinates_lose_nothing() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 2000;
        // Interleaved ownership: neighbouring coordinates, written by
        // different threads, share cache lines.
        let dim = 64;
        let p = HogwildParams::new(&vec![0.0; dim], gauge());
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p, start) = (&p, &start);
                s.spawn(move || {
                    let pairs: Vec<(u32, f32)> = (t..dim)
                        .step_by(THREADS)
                        .map(|i| (i as u32, -1.0))
                        .collect();
                    start.wait();
                    for _ in 0..ROUNDS {
                        p.update_sparse(&pairs, 1.0); // += 1 per owned coordinate
                    }
                });
            }
        });
        assert_eq!(p.current_seq(), (THREADS * ROUNDS) as u64);
        let mut buf = vec![0.0; dim];
        p.read_into(&mut buf);
        // Each component has one writer, so no racy RMW is ever lost.
        assert!(buf.iter().all(|&v| v == ROUNDS as f32), "{buf:?}");
    }

    #[test]
    fn gauges_track_shared_buffer_lifetime() {
        let g = gauge();
        {
            let _p = LockedParams::new(vec![0.0; 100], Arc::clone(&g));
            assert_eq!(g.live(), 400);
        }
        assert_eq!(g.live(), 0);
        {
            let _p = HogwildParams::new(&[0.0; 25], Arc::clone(&g));
            assert_eq!(g.live(), 100);
        }
        assert_eq!(g.live(), 0);
    }
}
