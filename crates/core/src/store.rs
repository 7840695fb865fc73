//! [`ParamStore`]: the one seam between the trainer's worker loop and the
//! shared parameters.
//!
//! The paper presents every algorithm as the same AsyncSGD thread body
//! (Algorithm 1): read θ, compute a gradient, publish the update. SEQ /
//! ASYNC, HOGWILD! and Leashed-SGD (Algorithms 2–4) differ only in how a
//! thread reads θ and how it publishes; the sharded extension differs in
//! the same two places. This trait carries exactly those differences, so
//! everything else in the loop lives once, in [`crate::trainer`].
//!
//! | store             | read                        | publish                                |
//! |-------------------|-----------------------------|----------------------------------------|
//! | [`LockedParams`]  | copy under the lock         | axpy or sparse pairs under the lock    |
//! | [`HogwildParams`] | racy per-component copy     | racy RMW of the touched components     |
//! | [`LeashedShared`] | zero-copy counted read (P3) | LAU-SPC: copy, apply dense/pairs, CAS  |
//! | [`ShardedShared`] | per-shard reads, gathered   | LAU-SPC on dirty shards only           |
//!
//! Every store takes both [`Update`] forms. Each store implements the
//! trait in its own module.
//!
//! [`LockedParams`]: crate::baseline::LockedParams
//! [`HogwildParams`]: crate::baseline::HogwildParams
//! [`LeashedShared`]: crate::paramvec::LeashedShared
//! [`ShardedShared`]: crate::shard::ShardedShared

use crate::mem::MemoryGauge;
use crate::shard::SnapshotMode;
use std::ops::Deref;
use std::sync::Arc;

/// One update handed to [`ParamStore::publish`].
#[derive(Debug, Clone, Copy)]
pub enum Update<'a> {
    /// A dense direction of length `d`.
    Dense(&'a [f32]),
    /// Ascending `(index, value)` pairs, each index below `d`; every
    /// other coordinate is left untouched.
    Sparse(&'a [(u32, f32)]),
}

/// What one publication did, in the terms the trainer accounts in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Publication {
    /// The update took effect (it was not abandoned under the
    /// persistence bound).
    pub published: bool,
    /// Staleness τ: updates that took effect between the read and this
    /// update.
    pub tau: u64,
    /// Scheduling staleness τs (§IV.2), for the LAU-SPC stores.
    pub tau_s: Option<u64>,
    /// Shards the update touched, for the sharded store.
    pub dirty: Option<u32>,
    /// CAS races lost along the way.
    pub failed_cas: u32,
}

/// The shared parameters of one run, seen from a worker: how it reads θ
/// and how it publishes an update. See the [module docs](self).
pub trait ParamStore: Sync {
    /// What a worker keeps from its read until its publish: the read's
    /// sequence label(s), and the local copy of θ where there is one.
    type Local: Send;

    /// The parameters one read hands to the gradient computation.
    type View<'a>: Deref<Target = [f32]>
    where
        Self: 'a;

    /// Parameter-sized vectors each worker holds (the paper's Fig. 10
    /// memory model): the gradient, plus a local copy of θ unless the
    /// read is zero-copy.
    const LOCAL_VECTORS: usize = 2;

    /// Fresh worker-local state.
    fn local(&self) -> Self::Local;

    /// Reads θ, recording the read's sequence label(s) in `local`.
    /// Returns the view and whether a Consistent read degraded to Fast
    /// (`mode` matters to the sharded store only).
    fn read<'a>(&'a self, local: &'a mut Self::Local, mode: SnapshotMode)
        -> (Self::View<'a>, bool);

    /// Estimated staleness τ of the last read: updates published since.
    fn staleness(&self, local: &Self::Local) -> u64;

    /// Publishes `θ ← θ − η·update` against the last read. `persistence`
    /// bounds the LAU-SPC retries; `on_attempt` receives each attempt's
    /// duration in seconds (the paper's `Tu`).
    fn publish(
        &self,
        local: &Self::Local,
        update: Update<'_>,
        eta: f32,
        persistence: Option<u32>,
        on_attempt: impl FnMut(f64),
    ) -> Publication;

    /// Copies the current parameters into `dst` for the monitor.
    fn monitor_snapshot(&self, dst: &mut [f32]);

    /// The memory gauge the store reports to.
    fn gauge(&self) -> &Arc<MemoryGauge>;

    /// High-water mark of outstanding pool buffers (0 without a pool).
    fn pool_peak(&self) -> usize {
        0
    }
}
