//! Pluggable synchronization primitives for the shard exchange protocol.
//!
//! The worker-thread runner ([`crate::shard::ShardRunner::run_parallel`])
//! coordinates regions with hand-rolled atomics and nothing else: every
//! [`WireRing`](crate::shard::WireRing) carries a published-cycle watermark
//! and per-slot stamps, and a worker spins on its inbound watermarks — no
//! mutex, no barrier. That protocol is the one part of the codebase a
//! cycle-accurate test cannot exhaust — its correctness depends on memory
//! orderings, not values.
//!
//! This module abstracts the primitives behind the [`SyncFamily`] trait so the
//! *same* protocol code can run either on real `std::sync::atomic` types
//! ([`StdSync`], the production default, fully inlined and zero-cost) or on
//! instrumented model cells driven by the bounded-interleaving model checker
//! in `aethereal-testkit` (`testkit::mc`), which explores thread schedules
//! and store-buffer reorderings exhaustively on small configurations.
//!
//! The shim deliberately mirrors the `std` atomic API shapes (explicit
//! [`Ordering`] arguments) so orderings stay visible at every call site and
//! a model can interpret — or a seeded mutant weaken — them.

use std::sync::atomic::AtomicU64;
pub use std::sync::atomic::Ordering;

/// A shared `u64` cell with the subset of the `std::sync::atomic::AtomicU64`
/// API the shard protocol uses.
pub trait AtomicU64Cell: Send + Sync {
    /// Creates a cell holding `v`.
    fn new(v: u64) -> Self;
    /// Atomic load with the given ordering.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store with the given ordering.
    fn store(&self, v: u64, order: Ordering);
    /// Atomic fetch-add returning the previous value.
    fn fetch_add(&self, v: u64, order: Ordering) -> u64;
}

/// The family of synchronization primitives the shard exchange protocol is
/// generic over: real atomics in production ([`StdSync`]), instrumented
/// model cells under the `testkit::mc` model checker.
pub trait SyncFamily: 'static {
    /// The `u64` atomic (watermarks, slot stamps).
    type AtomicU64: AtomicU64Cell;

    /// Blocks until `ready` returns true. The production family busy-spins
    /// then yields; a model family parks the thread until another thread
    /// performs a shared-memory write, keeping schedules finite.
    fn spin_until(ready: impl FnMut() -> bool);
}

/// Iterations to busy-spin before falling back to `yield_now` — long
/// enough to cover the common "peer is one phase behind" window, short
/// enough not to burn a core when a peer is descheduled (or the host has
/// fewer cores than regions).
const SPIN_LIMIT: u32 = 128;

/// The production synchronization family: plain `std` atomics,
/// spin-then-yield waits. Every method inlines to exactly the code the
/// shard runner used before the shim existed.
#[derive(Debug)]
pub struct StdSync;

impl AtomicU64Cell for AtomicU64 {
    #[inline]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }
    #[inline]
    fn store(&self, v: u64, order: Ordering) {
        AtomicU64::store(self, v, order)
    }
    #[inline]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, v, order)
    }
}

impl SyncFamily for StdSync {
    type AtomicU64 = AtomicU64;

    #[inline]
    fn spin_until(mut ready: impl FnMut() -> bool) {
        let mut spins = 0u32;
        while !ready() {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}
