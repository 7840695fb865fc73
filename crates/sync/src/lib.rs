//! Lock-free concurrency primitives for the Leashed-SGD reproduction.
//!
//! The paper's headline property is lock-freedom *end to end*: the
//! ParameterVector publication protocol is CAS-based, and the buffer
//! free-lists behind it must not reintroduce a lock on the hot
//! allocation/recycle path. This crate provides:
//!
//! * [`SegQueue`] — an unbounded, lock-free, MPMC FIFO queue built as a
//!   Michael–Scott-style linked list of fixed-size segments with
//!   per-segment atomic indices and CAS-only push/pop. Its reclamation
//!   scheme (safe under concurrent poppers) is documented in
//!   [`queue`]'s module docs.
//! * [`MutexSegQueue`] — the mutex-backed `VecDeque` implementation that
//!   previously stood in for the queue, kept as the comparison baseline
//!   for the contended-queue benchmark and as a semantics oracle in
//!   differential tests.
//!
//! This crate depends on nothing but `std` so every other workspace
//! member can build on it.

#![warn(missing_docs)]

pub mod backoff;
pub mod mutex_queue;
pub mod queue;

pub use mutex_queue::MutexSegQueue;
pub use queue::SegQueue;
