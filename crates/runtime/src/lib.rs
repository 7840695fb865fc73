//! `lsgd_runtime` — the unified work-stealing runtime.
//!
//! One scheduler for both thread populations the repo used to run side by
//! side: long-lived trainer workers (previously `std::thread::scope` in
//! `lsgd_core::trainer`) and fine-grained intra-step GEMM/sample splits
//! (previously the condvar work-sharing pool in `lsgd_tensor::threadpool`).
//! Because both kinds of work execute on the *same* workers, m trainer
//! workers × GEMM fan-out can never oversubscribe the machine, and one knob
//! (`LSGD_THREADS`) sizes everything.
//!
//! # Architecture
//!
//! * **Workers and deques.** `Runtime::new(n)` spawns `n - 1` OS workers (the
//!   caller of `parallel_for` always participates, so `n` threads compute).
//!   Each worker permanently owns a seq-claim work-stealing deque
//!   ([`deque::Deque`]: LIFO owner pop, FIFO steal, model-checkable under
//!   `--cfg lsgd_model`); extra deque slots are claimed on demand by
//!   non-worker threads (the main thread, temp scope threads) when *they*
//!   call `parallel_for`.
//! * **`parallel_for` with caller participation.** The caller pushes the
//!   task indices onto its own deque, wakes sleepers, then pops LIFO while
//!   idle workers steal FIFO. The caller's wait loop runs tasks, so the
//!   serial case and the uncontended case stay fast; a full ring falls back
//!   to running the task inline. Nested `parallel_for` (a spawned trainer
//!   task splitting a GEMM) reuses the current thread's deque slot.
//! * **`Runtime::scope`.** Long-lived tasks (trainer workers, the monitor)
//!   are spawned into a scope. Scoped tasks are *guaranteed concurrent*: a
//!   task is queued to the runtime only when a sleeping worker is reserved
//!   for it, otherwise it gets a dedicated temporary thread — so
//!   barrier-style protocols between scope tasks cannot deadlock even on a
//!   single-core runtime. `scope()` joins and re-raises panics, like
//!   `std::thread::scope`.
//! * **Sleeping.** Idle workers park on a condvar behind an epoch counter.
//!   `parallel_for` publishers skip the lock entirely when nobody sleeps,
//!   using a SeqCst-fence Dekker handshake with the workers'
//!   idle-advertisement (`idle_hint`) so a publish and a park can never miss
//!   each other.
//!
//! # Determinism contract
//!
//! The runtime schedules *which thread* runs a task, never *what* the task
//! computes: `parallel_for(n, f)` always runs `f(0..n)` exactly once each,
//! and callers that need bitwise-reproducible results (the GEMM layer)
//! partition work into disjoint output rectangles with [`split_ranges`] and
//! reduce in ascending range order on the calling thread. Differential
//! suites (`gemm_differential`, `fastpath_differential`,
//! `prepacked_differential`) hold the serial ≡ parallel bitwise guarantee
//! across this runtime.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use lsgd_sync::backoff::Backoff;

pub mod deque;

use deque::Deque;

/// In-flight task bound per deque slot; overflow runs inline at the pusher.
const DEQUE_CAP: usize = 256;

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/// One `parallel_for` call, stack-allocated in the caller's frame.
struct SplitJob {
    /// The task body. Lifetime-erased from the caller's `&dyn`; kept alive
    /// by the `pending` protocol below (the job frame does not return until
    /// `pending == 0`, and every runner's last touch is the decrement).
    f: &'static (dyn Fn(usize) + Sync),
    /// Tasks not yet finished. Runners decrement after running.
    pending: AtomicUsize,
    /// Set (before the decrement) by any runner whose task panicked.
    poisoned: AtomicBool,
}

/// A claim on one index of a [`SplitJob`]. Flows through the deques.
#[derive(Clone, Copy)]
struct Task {
    job: *const SplitJob,
    index: usize,
}

// SAFETY: the pointee is a stack frame that provably outlives every Task
// referring to it (the `pending` counter keeps the frame alive until all
// tasks ran), and SplitJob's interior is Sync.
unsafe impl Send for Task {}

/// Run one task: catch panics (they must not unwind into a scheduler loop),
/// record poison, then signal completion.
fn run_task(t: Task) {
    // SAFETY: `pending > 0` (we hold an undone task), so the job frame is
    // alive; see `unsafe impl Send for Task`.
    let job = unsafe { &*t.job };
    if catch_unwind(AssertUnwindSafe(|| (job.f)(t.index))).is_err() {
        // ORDERING: Relaxed — ordered before the caller's observation of
        // `pending == 0` by the AcqRel decrement below.
        job.poisoned.store(true, Ordering::Relaxed);
    }
    // ORDERING: AcqRel — the completion edge: Release publishes this task's
    // effects (and the poison flag) to the caller's Acquire load of zero;
    // Acquire chains earlier decrements so the final observer sees them all.
    job.pending.fetch_sub(1, Ordering::AcqRel);
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

struct SlotEntry {
    /// Exclusive-owner flag for the deque's single-owner contract.
    claimed: AtomicBool,
    deque: Deque<Task>,
}

/// State behind the sleep lock.
struct Hub {
    /// Bumped on every event sleepers could be waiting for (new scoped task,
    /// scoped-task completion, work published while someone advertised idle,
    /// shutdown).
    epoch: u64,
    /// Workers currently inside `Condvar::wait`.
    waiters: usize,
    /// Scoped tasks awaiting a reserved worker. `spawn` only queues here
    /// when `waiters > scoped.len()` — i.e. a sleeping worker is dedicated
    /// to every queued entry — which is what makes scoped tasks guaranteed
    /// concurrent (see module docs).
    scoped: VecDeque<ScopedTask>,
    shutdown: bool,
}

struct Shared {
    /// Process-unique id, so a thread-local slot claim can't leak across
    /// distinct runtimes.
    id: u64,
    /// Total compute threads (workers + participating caller).
    nthreads: usize,
    /// Worker-owned slots first (`0..nthreads-1`, claimed forever), then
    /// claim-on-demand slots for external `parallel_for` callers.
    slots: Box<[SlotEntry]>,
    hub: Mutex<Hub>,
    cv: Condvar,
    /// Mirror of `hub.waiters` readable without the lock; the Dekker
    /// handshake in `publish_wakeup`/`worker_loop` keeps it honest.
    idle_hint: AtomicUsize,
}

/// The work-stealing runtime. See module docs.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

thread_local! {
    /// (runtime id, slot index) this thread currently owns, if any.
    static CURRENT_SLOT: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

fn next_runtime_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ORDERING: Relaxed — a pure id counter; uniqueness is all that matters.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Runtime {
    /// A runtime computing on `threads` threads total: `threads - 1` spawned
    /// workers plus the participating caller. `Runtime::new(1)` spawns
    /// nothing and runs everything inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let nworkers = threads - 1;
        // Workers own the first nworkers slots; the rest serve external
        // callers (main thread, temp scope threads, nested cases).
        let nslots = if nworkers == 0 { 0 } else { 2 * threads };
        let shared = Arc::new(Shared {
            id: next_runtime_id(),
            nthreads: threads,
            slots: (0..nslots)
                .map(|i| SlotEntry {
                    claimed: AtomicBool::new(i < nworkers),
                    deque: Deque::new(DEQUE_CAP),
                })
                .collect(),
            hub: Mutex::new(Hub {
                epoch: 0,
                waiters: 0,
                scoped: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            idle_hint: AtomicUsize::new(0),
        });
        let workers = (0..nworkers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lsgd-rt-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn lsgd runtime worker")
            })
            .collect();
        Runtime { shared, workers }
    }

    /// Total compute threads (spawned workers + the participating caller).
    pub fn threads(&self) -> usize {
        self.shared.nthreads
    }

    /// Run `f(0)`, …, `f(ntasks - 1)` exactly once each, in parallel across
    /// the runtime's workers with the caller participating; returns when all
    /// are done. Serial (plain ascending loop on the caller) when the
    /// runtime has no workers or `ntasks <= 1`. If any task panics, panics
    /// after all tasks finished.
    pub fn parallel_for(&self, ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if ntasks == 0 {
            return;
        }
        if self.workers.is_empty() || ntasks == 1 {
            for i in 0..ntasks {
                f(i);
            }
            return;
        }
        let shared = &*self.shared;
        // Find our deque slot: workers/nested callers already own one;
        // external callers claim one for the duration of the call.
        let (slot_idx, temp_claim) = match CURRENT_SLOT.get() {
            Some((id, s)) if id == shared.id => (s, false),
            _ => match claim_slot(shared) {
                Some(s) => {
                    CURRENT_SLOT.set(Some((shared.id, s)));
                    (s, true)
                }
                // Every slot busy (wildly oversubscribed externals): the
                // serial fallback is always correct.
                None => {
                    for i in 0..ntasks {
                        f(i);
                    }
                    return;
                }
            },
        };
        // SAFETY: lifetime erasure — `job` (and the `&dyn` it captures) must
        // outlive every Task. Guaranteed by the wait loop below: this frame
        // does not return until `pending == 0`, and the decrement is each
        // runner's final access.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = SplitJob {
            f: f_static,
            pending: AtomicUsize::new(ntasks),
            poisoned: AtomicBool::new(false),
        };
        let deque = &shared.slots[slot_idx].deque;
        let mut pushed_any = false;
        for i in 0..ntasks {
            // SAFETY: we own slot `slot_idx` (permanent worker ownership or
            // the claim above), so we are the unique deque owner.
            if unsafe { deque.push(Task { job: &job, index: i }) }.is_err() {
                // Ring full — run inline; the LIFO pop below keeps draining
                // so this is rare and only means less parallelism.
                run_task(Task { job: &job, index: i });
            } else {
                pushed_any = true;
            }
        }
        if pushed_any {
            publish_wakeup(shared);
        }
        // Participate: drain our own deque LIFO; when it runs dry, wait for
        // thieves to finish the stolen tasks. A popped task may belong to an
        // *outer* nested job — running it here is correct (it only shortens
        // the outer frame's wait).
        let mut backoff = Backoff::new();
        loop {
            if let Some(t) = unsafe { deque.pop() } {
                run_task(t);
                backoff = Backoff::new();
                continue;
            }
            // ORDERING: Acquire — pairs with runners' AcqRel decrements so
            // observing zero makes every task's effects visible here.
            if job.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            backoff.snooze();
        }
        if temp_claim {
            CURRENT_SLOT.set(None);
            release_slot(shared, slot_idx);
        }
        // ORDERING: Relaxed — ordered by the Acquire load of zero above.
        if job.poisoned.load(Ordering::Relaxed) {
            panic!("lsgd_runtime::parallel_for: a task panicked");
        }
    }

    /// Structured concurrency for long-lived tasks (trainer workers, the
    /// monitor): every task spawned on the scope is guaranteed to run
    /// *concurrently* with the others (reserved sleeping worker or dedicated
    /// temp thread — never merely queued), and `scope` returns only after
    /// all of them finished. Task panics are re-raised here, after the scope
    /// fully quiesces, like `std::thread::scope`.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            rt: self,
            core: Arc::new(ScopeCore {
                pending: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
            }),
            temps: Mutex::new(Vec::new()),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Must quiesce even when `f` panicked: spawned tasks borrow `'env`.
        scope.wait_all();
        for h in scope.temps.lock().unwrap().drain(..) {
            // Task panics were caught inside run_scoped; join can't fail.
            let _ = h.join();
        }
        // ORDERING: Acquire — pairs with the Release decrement in
        // run_scoped; wait_all saw zero, this makes the poison flag visible.
        let task_panicked = scope.core.panicked.load(Ordering::Acquire);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                if task_panicked {
                    panic!("lsgd_runtime::scope: a spawned task panicked");
                }
                r
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut hub = self.shared.hub.lock().unwrap();
            hub.shutdown = true;
            hub.epoch += 1;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

struct ScopeCore {
    /// Scoped tasks not yet finished (incremented at spawn).
    pending: AtomicUsize,
    panicked: AtomicBool,
}

struct ScopedTask {
    f: Box<dyn FnOnce() + Send + 'static>,
    core: Arc<ScopeCore>,
}

/// Handle for spawning tasks inside [`Runtime::scope`]. Mirrors
/// `std::thread::Scope`: tasks may borrow from the enclosing environment.
pub struct Scope<'scope, 'env: 'scope> {
    rt: &'scope Runtime,
    core: Arc<ScopeCore>,
    temps: Mutex<Vec<std::thread::JoinHandle<()>>>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that runs concurrently with the scope body and all other
    /// scoped tasks. The task may borrow from `'env`; the borrow is released
    /// when `scope` returns.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        // ORDERING: Relaxed — incremented before the task is published
        // (queue push / thread spawn below are the publication edges), and
        // `wait_all` only runs after the scope closure returned, i.e. after
        // this call. No task can observe a transient zero.
        self.core.pending.fetch_add(1, Ordering::Relaxed);
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: lifetime erasure to ship the closure to a worker/thread.
        // `Scope::wait_all` (run unconditionally by `Runtime::scope`, even
        // on panic) blocks until the task finished, so the `'scope`/`'env`
        // borrows outlive the task's execution.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let task = ScopedTask {
            f: boxed,
            core: Arc::clone(&self.core),
        };
        let shared = &self.rt.shared;
        let mut hub = shared.hub.lock().unwrap();
        // Reservation protocol: queue to the runtime only if a sleeping
        // worker is free to dedicate itself (each queued scoped task is
        // matched 1:1 with a waiter). Otherwise — all workers busy, or a
        // 1-thread runtime — a dedicated temp thread keeps the concurrency
        // guarantee (trainer barrier protocols rely on it).
        if hub.waiters > hub.scoped.len() {
            hub.scoped.push_back(task);
            hub.epoch += 1;
            drop(hub);
            shared.cv.notify_all();
        } else {
            drop(hub);
            lsgd_trace::count(lsgd_trace::Counter::SpillThread);
            let shared = Arc::clone(&self.rt.shared);
            let handle = std::thread::Builder::new()
                .name("lsgd-rt-scoped".into())
                .spawn(move || run_scoped(&shared, task))
                .expect("failed to spawn scoped task thread");
            self.temps.lock().unwrap().push(handle);
        }
    }

    /// Block until every spawned task finished, stealing split tasks while
    /// waiting so a scope waiter never idles a core that has GEMM work.
    fn wait_all(&self) {
        let shared = &*self.rt.shared;
        loop {
            // ORDERING: Acquire — pairs with run_scoped's Release decrement;
            // zero here means every task's effects are visible.
            if self.core.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(t) = steal_any(shared) {
                run_task(t);
                continue;
            }
            let hub = shared.hub.lock().unwrap();
            // ORDERING: Acquire — re-check under the lock (completion bumps
            // the epoch under the same lock, so we cannot sleep through it).
            if self.core.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if has_split_work(shared) {
                continue; // stealable work appeared; drop the lock and take it
            }
            // Timeout because split-work publishers skip notify when no
            // *worker* advertised idle — a scope waiter is not counted in
            // idle_hint, so it backstops with a short poll.
            let (hub, _) = shared
                .cv
                .wait_timeout(hub, Duration::from_millis(1))
                .unwrap();
            drop(hub);
        }
    }
}

fn run_scoped(shared: &Shared, task: ScopedTask) {
    let ScopedTask { f, core } = task;
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        // ORDERING: Relaxed — ordered before the scope's observation of
        // `pending == 0` by the Release decrement below.
        core.panicked.store(true, Ordering::Relaxed);
    }
    // ORDERING: Release — completion edge: the scope caller's Acquire load
    // of zero sees every effect of this task (and the poison flag).
    core.pending.fetch_sub(1, Ordering::Release);
    // Wake the scope waiter (and anyone else parked on the epoch).
    let mut hub = shared.hub.lock().unwrap();
    hub.epoch += 1;
    drop(hub);
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Worker loop and wakeup
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, me: usize) {
    CURRENT_SLOT.set(Some((shared.id, me)));
    loop {
        // Busy phase: drain our own deque LIFO, then steal FIFO.
        loop {
            // SAFETY: slot `me` is permanently claimed by this worker.
            while let Some(t) = unsafe { shared.slots[me].deque.pop() } {
                run_task(t);
            }
            match steal_any(shared) {
                Some(t) => run_task(t),
                None => break,
            }
        }
        // Idle phase.
        let mut hub = shared.hub.lock().unwrap();
        loop {
            if let Some(task) = hub.scoped.pop_front() {
                drop(hub);
                run_scoped(shared, task);
                break; // back to the busy phase
            }
            if hub.shutdown {
                return;
            }
            hub.waiters += 1;
            // ORDERING: Relaxed + SeqCst fence — Dekker handshake, sleeper
            // side: advertise idleness, then re-scan for work. Pairs with
            // the publisher's write-work → fence → read-hint sequence in
            // publish_wakeup: at least one of us must see the other.
            shared.idle_hint.store(hub.waiters, Ordering::Relaxed);
            // ORDERING: SeqCst fence — orders the advertise above before
            // the re-scan below; pairs with publish_wakeup's fence.
            fence(Ordering::SeqCst);
            if has_split_work(shared) {
                hub.waiters -= 1;
                // ORDERING: Relaxed — hint shrink; a stale larger value only
                // causes a spurious notify.
                shared.idle_hint.store(hub.waiters, Ordering::Relaxed);
                drop(hub);
                break; // back to the busy phase
            }
            lsgd_trace::count(lsgd_trace::Counter::Park);
            hub = shared.cv.wait(hub).unwrap();
            lsgd_trace::count(lsgd_trace::Counter::Unpark);
            hub.waiters -= 1;
            // ORDERING: Relaxed — as above.
            shared.idle_hint.store(hub.waiters, Ordering::Relaxed);
            // Loop: re-check scoped queue / shutdown / split work.
        }
    }
}

/// Publisher side of the Dekker handshake: after pushing split tasks, wake
/// sleepers iff any worker advertised idle. The common busy case costs one
/// fence + one load — no lock.
fn publish_wakeup(shared: &Shared) {
    // ORDERING: SeqCst fence + Relaxed load — publisher side of the Dekker
    // handshake (see worker_loop): our deque pushes precede the fence, so if
    // the sleeper's post-advertise re-scan missed them, this load must see
    // its idle_hint store.
    fence(Ordering::SeqCst);
    // ORDERING: Relaxed load — the SeqCst fence above makes the handshake
    // sound; a stale positive hint only costs a spurious lock + notify.
    if shared.idle_hint.load(Ordering::Relaxed) > 0 {
        let mut hub = shared.hub.lock().unwrap();
        hub.epoch += 1;
        drop(hub);
        shared.cv.notify_all();
    }
}

fn has_split_work(shared: &Shared) -> bool {
    shared.slots.iter().any(|s| s.deque.maybe_nonempty())
}

/// Steal one task from any slot's deque (FIFO within each victim).
fn steal_any(shared: &Shared) -> Option<Task> {
    lsgd_trace::count(lsgd_trace::Counter::StealAttempt);
    for entry in shared.slots.iter() {
        if let Some(t) = entry.deque.steal() {
            lsgd_trace::count(lsgd_trace::Counter::StealHit);
            return Some(t);
        }
    }
    lsgd_trace::count(lsgd_trace::Counter::StealMiss);
    None
}

/// Claim a free external slot (never a worker-owned one — those stay
/// claimed forever).
fn claim_slot(shared: &Shared) -> Option<usize> {
    for (i, entry) in shared.slots.iter().enumerate() {
        // ORDERING: Acquire on success — pairs with release_slot's Release
        // store: the previous external owner's deque cursor writes (plain
        // owner-local state) happen-before our first push/pop. Relaxed on
        // failure — we just try the next slot.
        if entry
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return Some(i);
        }
    }
    None
}

fn release_slot(shared: &Shared, idx: usize) {
    // ORDERING: Release — hand the deque's owner-local state to the next
    // claimant's Acquire CAS.
    shared.slots[idx].claimed.store(false, Ordering::Release);
}

// ---------------------------------------------------------------------------
// Handle, global runtime, sizing
// ---------------------------------------------------------------------------

/// How a compute layer reaches a runtime: the process-global one (default)
/// or an explicitly injected instance (tests, benchmarks, embedders).
/// Replaces the old `Option<Arc<ThreadPool>>` plumbing in `lsgd_nn`.
#[derive(Clone, Default)]
pub enum Handle {
    /// The process-global runtime, sized by `LSGD_THREADS` (see [`global`]).
    #[default]
    Global,
    /// An explicitly injected runtime.
    Owned(Arc<Runtime>),
}

impl Handle {
    /// The runtime this handle points at.
    pub fn get(&self) -> &Runtime {
        match self {
            Handle::Global => global(),
            Handle::Owned(rt) => rt,
        }
    }

    /// Convenience: `self.get().threads()`.
    pub fn threads(&self) -> usize {
        self.get().threads()
    }
}

impl From<Arc<Runtime>> for Handle {
    fn from(rt: Arc<Runtime>) -> Self {
        Handle::Owned(rt)
    }
}

impl From<Runtime> for Handle {
    fn from(rt: Runtime) -> Self {
        Handle::Owned(Arc::new(rt))
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Handle::Global => write!(f, "Handle::Global"),
            Handle::Owned(rt) => write!(f, "Handle::Owned({} threads)", rt.threads()),
        }
    }
}

/// The process-global runtime. Sized by `LSGD_THREADS` (≥ 1), else by
/// `available_parallelism()`. Malformed or zero values fall back to the
/// default with a one-time warning from the checked parser in
/// `lsgd_check::env`.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Runtime::new(lsgd_check::env::positive_usize("LSGD_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }))
    })
}

// ---------------------------------------------------------------------------
// split_ranges (moved from lsgd_tensor::threadpool)
// ---------------------------------------------------------------------------

/// Split `0..n` into at most `max_tasks` contiguous near-equal ranges
/// (longer ranges first). Deterministic: callers that reduce per-range
/// partial results in ascending range order get bitwise-identical results
/// regardless of which threads ran which range — this is the foundation of
/// the serial ≡ parallel guarantee in the GEMM layer.
pub fn split_ranges(n: usize, max_tasks: usize) -> Vec<Range<usize>> {
    if n == 0 || max_tasks == 0 {
        return Vec::new();
    }
    let tasks = max_tasks.min(n);
    let base = n / tasks;
    let extra = n % tasks;
    let mut out = Vec::with_capacity(tasks);
    let mut start = 0;
    for t in 0..tasks {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn runs_every_task_exactly_once() {
        let rt = Runtime::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}"); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn single_thread_runtime_runs_inline() {
        let rt = Runtime::new(1);
        assert_eq!(rt.threads(), 1);
        let tid = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        rt.parallel_for(8, &|_| {
            assert_eq!(std::thread::current().id(), tid);
            ran.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn runtime_survives_repeated_jobs() {
        let rt = Runtime::new(3);
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            rt.parallel_for(17, &|i| {
                sum.fetch_add(i + round, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
            });
            assert_eq!(sum.load(Ordering::Relaxed), 17 * 16 / 2 + 17 * round); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let rt = Runtime::new(2);
        rt.parallel_for(0, &|_| panic!("must not run"));
    }

    #[test]
    fn more_tasks_than_deque_capacity_still_all_run() {
        let rt = Runtime::new(4);
        let n = DEQUE_CAP * 3 + 7;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn task_panic_propagates_and_runtime_survives() {
        let rt = Runtime::new(4);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.parallel_for(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // The runtime must still work after a poisoned job.
        let sum = AtomicUsize::new(0);
        rt.parallel_for(16, &|i| {
            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn nested_parallel_for_completes() {
        let rt = Runtime::new(4);
        let total = AtomicUsize::new(0);
        rt.parallel_for(8, &|_| {
            rt.parallel_for(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn scope_tasks_run_concurrently_even_oversubscribed() {
        // More scope tasks than threads: the reservation protocol must fall
        // back to temp threads so this barrier cannot deadlock.
        let rt = Runtime::new(2);
        let ntasks = 6;
        let barrier = Barrier::new(ntasks);
        rt.scope(|s| {
            for _ in 0..ntasks {
                s.spawn(|| {
                    barrier.wait();
                });
            }
        });
    }

    #[test]
    fn scope_tasks_can_use_parallel_for() {
        let rt = Runtime::new(4);
        let sums: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        rt.scope(|s| {
            for sum in &sums {
                s.spawn(|| {
                    rt.parallel_for(32, &|i| {
                        sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                    });
                });
            }
        });
        for sum in &sums {
            assert_eq!(sum.load(Ordering::Relaxed), 32 * 31 / 2); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        }
    }

    #[test]
    fn scope_propagates_task_panic_after_quiescing() {
        let rt = Runtime::new(2);
        let finished = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn(|| panic!("task boom"));
                s.spawn(|| {
                    finished.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                });
            });
        }));
        assert!(res.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 1); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn scope_returns_closure_value() {
        let rt = Runtime::new(2);
        let v = rt.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn drop_joins_workers() {
        let rt = Runtime::new(4);
        let sum = AtomicUsize::new(0);
        rt.parallel_for(32, &|i| {
            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
        });
        drop(rt); // must not hang
        assert_eq!(sum.load(Ordering::Relaxed), 32 * 31 / 2); // ORDERING: Relaxed test tally; join/scope exit orders the read.
    }

    #[test]
    fn external_threads_can_share_one_runtime() {
        let rt = Runtime::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let sum = AtomicUsize::new(0);
                        rt.parallel_for(16, &|i| {
                            sum.fetch_add(i, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 120); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                    }
                });
            }
        });
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for max_tasks in [1usize, 2, 3, 8, 1000] {
                let ranges = split_ranges(n, max_tasks);
                if n == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= max_tasks);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
                // Longer ranges first, sizes differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1]));
                assert!(lens[0] - lens[lens.len() - 1] <= 1);
            }
        }
    }

    #[test]
    fn handle_default_is_global() {
        let h = Handle::default();
        assert!(matches!(h, Handle::Global));
        assert_eq!(h.threads(), global().threads());
        let owned: Handle = Runtime::new(2).into();
        assert_eq!(owned.threads(), 2);
    }
}
