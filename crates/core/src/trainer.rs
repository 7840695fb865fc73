//! The parallel training executor.
//!
//! [`train`] runs `m` asynchronous worker threads executing one of the
//! paper's algorithms against a [`Problem`], while the calling thread acts
//! as the convergence monitor: it periodically snapshots the shared
//! parameters, evaluates the loss, drives the ε-convergence tracker
//! (including the Crash/Diverge classification of §V.2) and samples the
//! memory gauge. Workers record per-update staleness, `Tc`/`Tu` timings
//! and iteration latency — the raw series behind every figure in the
//! paper's evaluation.

use crate::algorithm::Algorithm;
use crate::baseline::{HogwildParams, LockedParams};
use crate::heartbeat::{BeatPhase, HeartbeatBoard};
use crate::mem::MemoryGauge;
use crate::paramvec::LeashedShared;
use crate::pool::BufferPool;
use crate::problem::Problem;
use crate::result::{RunResult, UpdateHistograms, WorkerCrash};
use crate::shard::{effective_shards, ShardedShared, SnapshotMode};
use crate::store::{ParamStore, Update};
use lsgd_metrics::{ConvergenceTracker, OnlineStats, Series};
use lsgd_trace::Phase;
use lsgd_tensor::SmallRng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Step-size policy — `Constant` reproduces the paper; `TauAdaptive`
/// implements the staleness-adaptive direction the paper cites as
/// orthogonal, complementary work (its refs [4], [33], [38], [43]):
/// the effective step of an update with estimated staleness `τ` is
/// `η / (1 + β·τ)`, damping stale updates instead of discarding them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EtaPolicy {
    /// Fixed step size (the paper's setting).
    Constant,
    /// `η_eff = η / (1 + beta · τ_est)` with `τ_est` the number of
    /// updates published since this worker read its parameters.
    TauAdaptive {
        /// Damping strength β (0 recovers `Constant`).
        beta: f64,
    },
}

impl EtaPolicy {
    /// Effective step size for an update with estimated staleness `tau`.
    #[inline]
    pub fn effective(&self, eta: f32, tau: u64) -> f32 {
        match self {
            EtaPolicy::Constant => eta,
            EtaPolicy::TauAdaptive { beta } => {
                (eta as f64 / (1.0 + beta * tau as f64)) as f32
            }
        }
    }
}

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Number of worker threads `m` (forced to 1 for `SEQ`).
    pub threads: usize,
    /// Step size η.
    pub eta: f32,
    /// ε thresholds as fractions of the initial loss (e.g. `[0.5, 0.1]`).
    pub epsilons: Vec<f64>,
    /// Stop after this many published updates (budget).
    pub max_updates: u64,
    /// Stop after this much wall-clock time (budget).
    pub max_wall: Duration,
    /// Monitor cadence (loss evaluation + memory sampling).
    pub eval_every: Duration,
    /// Seed for parameter init and worker RNG streams.
    pub seed: u64,
    /// Unit-bin cap for the staleness histograms.
    pub staleness_cap: usize,
    /// Top-|g| gradient sparsification: keep this fraction of components
    /// (`None` = dense updates, the paper's setting).
    pub sparsify: Option<f32>,
    /// Step-size policy (constant in the paper).
    pub eta_policy: EtaPolicy,
    /// ParameterVector buffer recycling (Leashed-SGD only; `false` runs
    /// the naive allocate/free variant for the recycling ablation).
    pub pool_recycling: bool,
    /// Momentum coefficient `μ` (0 = the paper's plain SGD). Each worker
    /// keeps a private velocity `v ← μ·v + g` and applies `v` instead of
    /// `g` — the standard local-momentum formulation for asynchronous
    /// SGD (the paper lists momentum among the hyper-parameters that
    /// "play a significant role", §I).
    pub momentum: f32,
    /// Soft cap on live parameter-buffer bytes (`None` = uncapped, the
    /// paper's setting). Under the cap, pressured pool allocations
    /// briefly wait for a recyclable buffer before being forced through
    /// — see [`MemoryGauge::set_cap`] and `BufferPool::acquire`.
    pub mem_cap_bytes: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            algorithm: Algorithm::Leashed { persistence: None },
            threads: 2,
            eta: 0.005,
            epsilons: vec![0.5],
            max_updates: 100_000,
            max_wall: Duration::from_secs(60),
            eval_every: Duration::from_millis(50),
            seed: 1,
            staleness_cap: 512,
            sparsify: None,
            eta_policy: EtaPolicy::Constant,
            pool_recycling: true,
            momentum: 0.0,
            mem_cap_bytes: None,
        }
    }
}

/// Per-worker statistics merged into the [`RunResult`].
#[derive(Debug)]
struct WorkerStats {
    hists: UpdateHistograms,
    published: u64,
    aborted: u64,
    failed_cas: u64,
    /// Consistent snapshots this worker saw degrade to a Fast re-read.
    degraded: u64,
    tc: OnlineStats,
    tu: OnlineStats,
    iter_time: OnlineStats,
}

impl WorkerStats {
    fn new(cap: usize) -> Self {
        WorkerStats {
            hists: UpdateHistograms::new(cap),
            published: 0,
            aborted: 0,
            failed_cas: 0,
            degraded: 0,
            tc: OnlineStats::new(),
            tu: OnlineStats::new(),
            iter_time: OnlineStats::new(),
        }
    }

    fn merge(&mut self, other: &WorkerStats) {
        self.hists.merge(&other.hists);
        self.published += other.published;
        self.aborted += other.aborted;
        self.failed_cas += other.failed_cas;
        self.degraded += other.degraded;
        self.tc.merge(&other.tc);
        self.tu.merge(&other.tu);
        self.iter_time.merge(&other.iter_time);
    }
}

/// Control block shared by workers and the monitor.
struct Control {
    stop: AtomicBool,
    crashed: AtomicBool,
    total_published: AtomicU64,
    /// Workers still running their loop. Decremented once per worker on
    /// exit (normal or contained panic); the monitor stops the run when
    /// it hits 0 before `stop` was set (= every worker crashed).
    alive: AtomicUsize,
}

/// RAII gauge accounting for worker-local buffers: the matching `sub`
/// must run even when the worker's loop unwinds from a contained panic,
/// or the run's live-byte accounting (and any cap) leaks permanently.
struct GaugeHold {
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl GaugeHold {
    fn new(gauge: Arc<MemoryGauge>, bytes: usize) -> GaugeHold {
        gauge.add(bytes);
        GaugeHold { gauge, bytes }
    }
}

impl Drop for GaugeHold {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

/// Stringifies a panic payload for [`WorkerCrash`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Per-worker context for heartbeats and fault probes.
struct WorkerCtx<'a> {
    board: &'a HeartbeatBoard,
    worker_id: usize,
    start: Instant,
}

impl WorkerCtx<'_> {
    /// One beat per iteration: ticks the liveness counter and (when the
    /// monitor has drained the mailbox) publishes `(step, ns)`.
    fn beat(&self, phase: BeatPhase, step: u64) {
        self.board.beat(
            self.worker_id,
            phase,
            step,
            self.start.elapsed().as_nanos() as u64,
        );
    }

    /// Mid-iteration phase label (no tick).
    fn phase(&self, phase: BeatPhase) {
        self.board.set_phase(self.worker_id, phase);
    }
}

/// Runs one training execution and returns its full measurement record.
///
/// # Panics
/// Panics if the initial evaluation loss is not finite and positive
/// (untrainable setup), or if `threads == 0`.
pub fn train<P: Problem>(problem: &P, cfg: &TrainConfig) -> RunResult {
    assert!(cfg.threads > 0, "need at least one worker thread");
    let threads = if cfg.algorithm == Algorithm::Sequential {
        1
    } else {
        cfg.threads
    };
    let dim = problem.dim();
    let gauge = Arc::new(MemoryGauge::new());

    let theta0 = problem.init_theta(cfg.seed);
    // The monitor evaluates concurrently with the workers; its splits
    // run on the same work-stealing runtime, so no fan-out budget is
    // needed.
    let mut monitor_scratch = problem.scratch();
    let initial_loss = problem.eval_loss(&theta0, &mut monitor_scratch);

    match cfg.algorithm {
        Algorithm::Sequential | Algorithm::AsyncLock => {
            let store = LockedParams::new(theta0, gauge);
            run(&store, problem, cfg, threads, initial_loss, monitor_scratch)
        }
        Algorithm::Hogwild => {
            let store = HogwildParams::new(&theta0, gauge);
            run(&store, problem, cfg, threads, initial_loss, monitor_scratch)
        }
        Algorithm::Leashed { .. } => {
            let pool = BufferPool::new_with_recycling(dim, gauge, cfg.pool_recycling);
            let store = LeashedShared::new(&theta0, pool);
            run(&store, problem, cfg, threads, initial_loss, monitor_scratch)
        }
        Algorithm::ShardedLeashed { shards, .. } => {
            let store = ShardedShared::new(
                &theta0,
                effective_shards(shards, dim, threads),
                gauge,
                cfg.pool_recycling,
            );
            run(&store, problem, cfg, threads, initial_loss, monitor_scratch)
        }
    }
}

/// The body of [`train`] once the algorithm's store exists: the workers
/// and the monitor as tasks of the unified runtime, then the merged
/// measurement record.
fn run<P: Problem, S: ParamStore>(
    store: &S,
    problem: &P,
    cfg: &TrainConfig,
    threads: usize,
    initial_loss: f64,
    mut monitor_scratch: P::Scratch,
) -> RunResult {
    let dim = problem.dim();
    let gauge = store.gauge();
    // Advisory memory cap: the pool's pressure path reads it through
    // the shared gauge.
    gauge.set_cap(cfg.mem_cap_bytes);

    let control = Control {
        stop: AtomicBool::new(false),
        crashed: AtomicBool::new(false),
        total_published: AtomicU64::new(0),
        alive: AtomicUsize::new(threads),
    };

    // Heartbeats: one cell per worker, plus the global registry so the
    // stress watchdog can print liveness for a hung run.
    let board = Arc::new(HeartbeatBoard::new(threads));
    crate::heartbeat::set_current(&board);
    // Contained worker panics land here (monitor threads never write).
    let crashes: Mutex<Vec<WorkerCrash>> = Mutex::new(Vec::new());

    let mut tracker = ConvergenceTracker::new(initial_loss, &cfg.epsilons);
    let mut iters_to_eps: Vec<(f64, Option<u64>)> =
        cfg.epsilons.iter().map(|&f| (f, None)).collect();
    let mut loss_trace = Series::new();
    let mut mem_trace = Series::new();
    loss_trace.push(0.0, initial_loss);

    let start = Instant::now();
    let mut merged = WorkerStats::new(cfg.staleness_cap);
    let mut heartbeat_stalls: u64 = 0;
    // Per-run trace window: baselines the process-wide counters now so the
    // final dump reports deltas for this run only. A ZST no-op unless the
    // `trace` feature is compiled in and LSGD_TRACE is set.
    let mut collector = lsgd_trace::Collector::new();

    // Workers and the monitor all run as tasks of the unified runtime: the
    // same workers also execute the intra-step GEMM splits the tasks fan
    // out, so m trainer workers × GEMM parallelism can never oversubscribe
    // the machine (scoped tasks beyond the runtime width degrade to
    // dedicated threads, preserving the old `thread::scope` semantics).
    // Each task writes its results through a disjoint `&mut` slot.
    let mut stats_slots: Vec<Option<WorkerStats>> = (0..threads).map(|_| None).collect();
    {
        // Monitor-owned state, moved into its task as one bundle.
        let monitor_scratch = &mut monitor_scratch;
        let tracker = &mut tracker;
        let iters_to_eps = &mut iters_to_eps;
        let loss_trace = &mut loss_trace;
        let mem_trace = &mut mem_trace;
        let control = &control;
        let collector = &mut collector;
        let board = &board;
        let crashes = &crashes;
        let heartbeat_stalls = &mut heartbeat_stalls;
        lsgd_runtime::global().scope(|scope| {
            for (worker_id, slot) in stats_slots.iter_mut().enumerate() {
                scope.spawn(move || {
                    // Tag this thread for the fault plane so crash rules
                    // target trainer workers (restored on drop — the
                    // runtime thread may run other tasks afterwards).
                    let _tag = lsgd_fault::worker_tag(worker_id as u32);
                    let ctx = WorkerCtx { board, worker_id, start };
                    // Contain worker panics: one dead worker must not
                    // take down the run. `AssertUnwindSafe` is justified
                    // because every shared structure the loop touches is
                    // panic-safe by construction — snapshot guards
                    // release their counted read on drop, `GaugeHold`
                    // returns gauge bytes, and the LAU-SPC CAS is a
                    // single atomic (no partially-published state).
                    match catch_unwind(AssertUnwindSafe(|| {
                        run_worker(problem, store, control, cfg, worker_id, &ctx)
                    })) {
                        Ok(stats) => {
                            ctx.phase(BeatPhase::Done);
                            *slot = Some(stats);
                        }
                        Err(payload) => {
                            ctx.phase(BeatPhase::Crashed);
                            lsgd_trace::count(lsgd_trace::Counter::WorkerPanic);
                            crashes
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(WorkerCrash {
                                    worker: worker_id,
                                    message: panic_message(payload),
                                });
                        }
                    }
                    // ORDERING: Relaxed — monotone countdown; the monitor
                    // only needs to eventually observe 0 (it polls every
                    // sleep slice), no data is carried through it.
                    control.alive.fetch_sub(1, Ordering::Relaxed);
                });
            }

            // ---- Monitor task (paper §V.2: halts executions at ε, flags
            // Crash on numerical instability, samples memory). ----
            scope.spawn(move || {
                let mut snapshot = vec![0.0f32; dim];
                // Heartbeat watchdog state: last observed tick per worker,
                // when it last changed, and whether the worker is currently
                // flagged as stalled (so one stall counts once, not once
                // per poll).
                let mut last_ticks = vec![0u64; threads];
                let mut last_change = vec![start; threads];
                let mut in_stall = vec![false; threads];
                loop {
                    // Sleep in small slices so worker-side crash/budget
                    // stops are reacted to promptly.
                    let slice = cfg.eval_every.min(Duration::from_millis(20));
                    let mut slept = Duration::ZERO;
                    // ORDERING: Relaxed — `stop` is an eventually-observed
                    // flag; it carries no data (workers re-check it every
                    // iteration). `alive` likewise: when every worker has
                    // exited (e.g. all crashed) there is no progress left
                    // to wait for, so stop sleeping and wrap up.
                    while slept < cfg.eval_every
                        && !control.stop.load(Ordering::Relaxed)
                        && control.alive.load(Ordering::Relaxed) > 0
                    {
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    let elapsed = start.elapsed();
                    // ORDERING: Relaxed — monotone progress tally; the
                    // monitor tolerates slightly stale counts (it re-reads
                    // next round).
                    let published = control.total_published.load(Ordering::Relaxed);

                    // Heartbeat watchdog: a worker whose tick count has
                    // not advanced for a full second (and which has not
                    // terminated) is stalled — likely blocked in grad or
                    // wedged on a protocol seam. Reads only the relaxed
                    // cells; the mailbox stays available for detail
                    // drains.
                    let now = Instant::now();
                    for w in 0..threads {
                        let ticks = board.ticks(w);
                        let phase = board.phase(w);
                        let terminal =
                            matches!(phase, BeatPhase::Done | BeatPhase::Crashed);
                        if ticks != last_ticks[w] || terminal {
                            last_ticks[w] = ticks;
                            last_change[w] = now;
                            in_stall[w] = false;
                        } else if !in_stall[w]
                            && ticks > 0
                            && now.duration_since(last_change[w]) >= STALL_WINDOW
                        {
                            in_stall[w] = true;
                            *heartbeat_stalls += 1;
                            lsgd_trace::count(lsgd_trace::Counter::HeartbeatStall);
                        }
                    }

                    let loss = {
                        let _span = lsgd_trace::span(Phase::MonitorEval);
                        store.monitor_snapshot(&mut snapshot);
                        // ORDERING: Relaxed — crash flag, eventually
                        // observed.
                        if control.crashed.load(Ordering::Relaxed) {
                            f64::NAN
                        } else {
                            // A panicking eval (same user code as worker
                            // grad) must not kill the monitor — treat it
                            // like numerical instability.
                            catch_unwind(AssertUnwindSafe(|| {
                                problem.eval_loss(&snapshot, monitor_scratch)
                            }))
                            .unwrap_or(f64::NAN)
                        }
                    };
                    // Drain worker rings at monitor cadence so span volume
                    // never outgrows the fixed-capacity rings.
                    collector.sample();
                    loss_trace.push(elapsed.as_secs_f64(), loss);
                    mem_trace.push(elapsed.as_secs_f64(), gauge.live() as f64);
                    let done = tracker.observe(elapsed, loss);
                    for (i, (frac, it)) in iters_to_eps.iter_mut().enumerate() {
                        let _ = frac;
                        if it.is_none() && tracker.outcome(i).converged() {
                            *it = Some(published);
                        }
                    }
                    let budget_out = elapsed >= cfg.max_wall || published >= cfg.max_updates;
                    // ORDERING: Relaxed loads — flag checks as above
                    // (`alive == 0` means every worker already exited, so
                    // there is nothing left to monitor). SeqCst store: the
                    // final verdict; keeps the terminal stop in one total
                    // order with workers' crash/stop stores so no worker
                    // can observe a "later" state that un-stops the run.
                    if done
                        || budget_out
                        || control.stop.load(Ordering::Relaxed)
                        || control.alive.load(Ordering::Relaxed) == 0
                    {
                        control.stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            });
        });
    }
    for stats in stats_slots.iter().flatten() {
        merged.merge(stats);
    }

    let dump = collector.finish();
    if let Some(path) = lsgd_trace::chrome_path() {
        if !dump.is_empty() {
            let label = format!("{} m={}", cfg.algorithm.label(), threads);
            if let Err(e) = lsgd_trace::chrome::append_run(&path, &label, &dump) {
                eprintln!("lsgd_trace: failed to write {path}: {e}");
            }
        }
    }

    let wall = start.elapsed();

    RunResult {
        algorithm: cfg.algorithm,
        threads,
        initial_loss,
        final_loss: loss_trace.last_value().unwrap_or(initial_loss),
        best_loss: tracker.best_loss(),
        crashed: tracker.crashed(),
        outcomes: tracker.outcomes(),
        iters_to_eps,
        loss_trace,
        mem_trace,
        staleness: merged.hists.staleness,
        tau_s: merged.hists.tau_s,
        dirty_shards: merged.hists.dirty_shards,
        phase_stats: dump.phases,
        trace_counters: dump.counters,
        published: merged.published,
        aborted: merged.aborted,
        failed_cas: merged.failed_cas,
        tc: merged.tc,
        tu: merged.tu,
        iter_time: merged.iter_time,
        wall,
        mem_peak_bytes: gauge.peak(),
        pool_outstanding_peak: store.pool_peak(),
        mem_allocs: gauge.total_allocs(),
        mem_reuses: gauge.pool_reuses(),
        worker_crashes: crashes.into_inner().unwrap_or_else(|e| e.into_inner()),
        degraded_snapshots: merged.degraded,
        heartbeat_stalls,
    }
}

/// A worker whose heartbeat tick count stays flat this long (while not
/// terminated) is reported as stalled by the monitor's watchdog.
const STALL_WINDOW: Duration = Duration::from_secs(1);

/// Folds the freshly computed gradient into the worker's velocity buffer
/// (`v ← μ·v + g`) and returns the slice to apply. With `μ = 0` the
/// gradient passes through untouched (no velocity buffer is kept).
fn fold_momentum<'g>(grad: &'g mut [f32], velocity: &'g mut Vec<f32>, mu: f32) -> &'g [f32] {
    if mu == 0.0 {
        return grad;
    }
    if velocity.is_empty() {
        velocity.resize(grad.len(), 0.0);
    }
    for (v, &g) in velocity.iter_mut().zip(grad.iter()) {
        *v = mu * *v + g;
    }
    velocity
}

/// One worker's training loop: the AsyncSGD thread body (paper
/// Algorithm 1) over any [`ParamStore`] — read, gradient, publish, with
/// the store deciding how θ is read and how the update lands.
fn run_worker<P: Problem, S: ParamStore>(
    problem: &P,
    store: &S,
    control: &Control,
    cfg: &TrainConfig,
    worker_id: usize,
    ctx: &WorkerCtx<'_>,
) -> WorkerStats {
    let dim = problem.dim();
    let mut stats = WorkerStats::new(cfg.staleness_cap);
    // Protocol knobs only the LAU-SPC stores read: the persistence bound
    // Tp and the cross-shard read mode.
    let (persistence, snapshot) = match cfg.algorithm {
        Algorithm::Leashed { persistence } => (persistence, SnapshotMode::Fast),
        Algorithm::ShardedLeashed {
            persistence,
            snapshot,
            ..
        } => (persistence, snapshot),
        _ => (None, SnapshotMode::Fast),
    };
    // Intra-step splits (NnProblem's GEMM fan-out) execute on the same
    // work-stealing runtime that runs the m trainer workers, so scratch
    // needs no worker-count-aware sizing: total parallelism is bounded
    // by LSGD_THREADS regardless of m.
    let mut scratch = problem.scratch();
    let mut rng = SmallRng64::new(cfg.seed ^ (0x5bd1e995u64.wrapping_mul(worker_id as u64 + 1)));
    // Worker-local buffers count towards the paper's memory model: every
    // worker holds its gradient, and a local copy of θ unless the store
    // reads zero-copy (ASYNC/HOG hold 2m + 1 vectors, Leashed m plus its
    // recycling pool). `GaugeHold` returns the bytes even when the loop
    // unwinds from a contained panic.
    let _hold = GaugeHold::new(
        Arc::clone(store.gauge()),
        S::LOCAL_VECTORS * dim * std::mem::size_of::<f32>(),
    );
    let mut local = store.local();
    let mut grad = vec![0.0f32; dim];
    let mut pairs: Vec<(u32, f32)> = Vec::new();
    let mut sparsify_scratch = Vec::new();
    let mut velocity: Vec<f32> = Vec::new();
    // The sparse-native gradient bypasses the dense buffer entirely;
    // momentum needs a dense velocity fold and top-k sparsification its
    // own selection, so either forces the dense path. A problem without a
    // sparse gradient says so on the first call, and the answer is fixed
    // per problem, so the worker stays dense from then on.
    let mut sparse_native = cfg.momentum == 0.0 && cfg.sparsify.is_none();
    let mut step: u64 = 0;
    // ORDERING: Relaxed — stop is an eventually-observed flag; the
    // worker re-polls it every iteration and carries no data through it.
    while !control.stop.load(Ordering::Relaxed) {
        ctx.beat(BeatPhase::Snapshot, step);
        lsgd_fault::worker_step(step);
        step += 1;
        let iter_start = Instant::now();
        let mut sparse = false;
        let loss = {
            let (theta, degraded) = {
                let _span = lsgd_trace::span(Phase::SnapshotRead);
                store.read(&mut local, snapshot)
            };
            stats.degraded += degraded as u64;
            ctx.phase(BeatPhase::Grad);
            let tc_start = Instant::now();
            let _span = lsgd_trace::span(Phase::GradCompute);
            let mut loss = None;
            if sparse_native {
                loss = problem.grad_sparse(&theta, &mut pairs, &mut scratch, &mut rng);
                sparse = loss.is_some();
                sparse_native = sparse;
            }
            let loss =
                loss.unwrap_or_else(|| problem.grad(&theta, &mut grad, &mut scratch, &mut rng));
            stats.tc.record(tc_start.elapsed().as_secs_f64());
            loss
        };
        if !loss.is_finite() {
            // ORDERING: SeqCst pair — crash must be visible no later
            // than stop in the single total order, so the monitor that
            // sees stop cannot miss the crash verdict behind it.
            control.crashed.store(true, Ordering::SeqCst);
            // ORDERING: SeqCst — see above.
            control.stop.store(true, Ordering::SeqCst);
            break;
        }
        if let Some(frac) = cfg.sparsify {
            if cfg.momentum == 0.0 {
                // Index extraction feeds the sparse publish directly — no
                // zeroing pass, no dense re-scan at publish time.
                crate::sparsify::sparsify_top_frac_indices(
                    &grad,
                    frac,
                    &mut sparsify_scratch,
                    &mut pairs,
                );
                sparse = true;
            } else {
                crate::sparsify::sparsify_top_frac(&mut grad, frac, &mut sparsify_scratch);
            }
        }
        let eta = cfg.eta_policy.effective(cfg.eta, store.staleness(&local));
        let update = if sparse {
            Update::Sparse(&pairs)
        } else {
            Update::Dense(fold_momentum(&mut grad, &mut velocity, cfg.momentum))
        };
        ctx.phase(BeatPhase::Publish);
        let tu_stats = &mut stats.tu;
        let out = {
            let _span = lsgd_trace::span(Phase::Publish);
            store.publish(&local, update, eta, persistence, |secs| {
                tu_stats.record(secs)
            })
        };
        if out.published {
            stats.published += 1;
            stats.hists.staleness.record(out.tau);
            if let Some(tau_s) = out.tau_s {
                stats.hists.tau_s.record(tau_s);
            }
            if let Some(dirty) = out.dirty {
                stats.hists.dirty_shards.record(dirty as u64);
            }
            // ORDERING: Relaxed — monotone progress tally; exact totals
            // are only read after the scope join.
            control.total_published.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.aborted += 1;
        }
        stats.failed_cas += out.failed_cas as u64;
        stats.iter_time.record(iter_start.elapsed().as_secs_f64());
    }
    stats
}
