//! Approximate element counting (paper §5.2).
//!
//! An exact, shared element counter would serialize every insertion on one
//! cache line.  Instead each handle keeps local insertion/deletion counters
//! and flushes them into the global counters `I` and `D` only after a
//! randomized number of operations, which de-correlates the flushes of
//! different handles.  `I` (the number of non-empty cells, i.e. insertions
//! including tombstones) drives the growth trigger; `I − D` estimates the
//! live size.
//!
//! The paper draws the flush threshold from `[1, p]`, so at p = 2 a handle
//! pays a contended `fetch_add` about every 1.5 insertions.
//! The growing handles instead size the threshold with [`flush_bound`],
//! which grows with the table's capacity: the error stays a fixed fraction
//! (1/64) of the capacity, so the growth trigger fires at most that much
//! late, and large tables write the shared line about once per 128
//! operations.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Global approximate counters of a table generation.
#[derive(Debug, Default)]
pub struct GlobalCount {
    /// Successful insertions (= number of non-empty cells, §5.4).
    insertions: CachePadded<AtomicU64>,
    /// Successful deletions (tombstones written).
    deletions: CachePadded<AtomicU64>,
}

impl GlobalCount {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to the exact values produced by a finished migration
    /// (`I = migrated live elements`, `D = 0`, §5.2).
    pub fn reset_after_migration(&self, live_elements: u64) {
        self.insertions.store(live_elements, Ordering::Release);
        self.deletions.store(0, Ordering::Release);
    }

    /// Add a flushed batch of local counts.
    #[inline]
    pub fn flush(&self, insertions: u64, deletions: u64) -> u64 {
        if deletions > 0 {
            self.deletions.fetch_add(deletions, Ordering::AcqRel);
        }
        if insertions > 0 {
            self.insertions.fetch_add(insertions, Ordering::AcqRel) + insertions
        } else {
            self.insertions.load(Ordering::Acquire)
        }
    }

    /// Current global insertion count `I` (lower bound on non-empty cells).
    #[inline]
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Acquire)
    }

    /// Current global deletion count `D`.
    #[inline]
    pub fn deletions(&self) -> u64 {
        self.deletions.load(Ordering::Acquire)
    }

    /// Estimated number of live elements `S = I − D`.
    #[inline]
    pub fn live_estimate(&self) -> u64 {
        self.insertions().saturating_sub(self.deletions())
    }
}

/// Upper bound for the randomized flush threshold of a handle on a table
/// generation of `capacity` cells used by about `threads` threads:
/// `max(p, min(256, capacity / (64·p)))` with `p = threads.max(1)`.
///
/// The p handles together buffer fewer than `p · bound ≤ max(p²,
/// capacity/64)` operations, so the growth trigger (checked on the
/// flushed `I`) never fires early and fires at most `capacity/64` inserts
/// late.  Tables of at most `64·p²` cells keep the paper's `p` bound (and
/// its `p²` error) exactly; tables of at least `16384·p` cells flush about
/// once per 128 operations.  This is the only place the policy is
/// written: both growing handles call it when they are created and when
/// they move to a new generation.
pub fn flush_bound(threads: usize, capacity: usize) -> usize {
    let p = threads.max(1);
    p.max((capacity / (64 * p)).min(256))
}

/// Handle-local counter with randomized flush threshold, drawn from
/// `[1, bound]` again after each flush.  The paper's bound is the thread
/// count p; the growing handles pass [`flush_bound`].
///
/// The buffered counts belong to one table generation.  A migration
/// counts the elements it copies exactly (`reset_after_migration`), so a
/// handle that finds its generation replaced discards its buffer instead
/// of flushing it.  One window stays open: a migration can finish between
/// that version check and the flush, and then the stale buffer (at most
/// `bound` operations) is added to the new generation's count.  The
/// estimate is approximate anyway, so this is not synchronized away.
#[derive(Debug)]
pub struct LocalCount {
    pending_insertions: u32,
    pending_deletions: u32,
    threshold: u32,
    /// Upper bound for the randomized threshold.
    threshold_bound: u32,
    /// Cheap handle-local RNG state for re-randomizing the threshold.
    rng_state: u64,
}

impl LocalCount {
    /// Create a local counter whose flush threshold is drawn from
    /// `[1, bound]` (the paper: `bound` = the number of threads p).
    pub fn new(bound: usize, seed: u64) -> Self {
        let bound = bound.clamp(1, u16::MAX as usize) as u32;
        let mut counter = LocalCount {
            pending_insertions: 0,
            pending_deletions: 0,
            threshold: 1,
            threshold_bound: bound,
            rng_state: seed | 1,
        };
        counter.rerandomize();
        counter
    }

    fn rerandomize(&mut self) {
        // xorshift64*; only needs to be cheap and decorrelated per handle.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D) >> 32;
        self.threshold = 1 + (r as u32 % self.threshold_bound);
    }

    /// Record one successful insertion.  Returns `Some((I_after, D))` if the
    /// local counters were flushed into `global` (the caller then checks the
    /// growth trigger), `None` otherwise.
    #[inline]
    pub fn record_insertion(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        self.pending_insertions += 1;
        self.maybe_flush(global)
    }

    /// Record one successful deletion.
    #[inline]
    pub fn record_deletion(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        self.pending_deletions += 1;
        self.maybe_flush(global)
    }

    #[inline]
    fn maybe_flush(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        if self.pending_insertions + self.pending_deletions >= self.threshold {
            Some(self.flush(global))
        } else {
            None
        }
    }

    /// Force a flush of the pending local counts (called when a handle is
    /// dropped or a migration begins).
    pub fn flush(&mut self, global: &GlobalCount) -> (u64, u64) {
        let i = global.flush(
            u64::from(self.pending_insertions),
            u64::from(self.pending_deletions),
        );
        self.pending_insertions = 0;
        self.pending_deletions = 0;
        self.rerandomize();
        (i, global.deletions())
    }

    /// Number of operations currently buffered locally.
    pub fn pending(&self) -> u32 {
        self.pending_insertions + self.pending_deletions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_threshold_bounded_by_p() {
        for p in [1usize, 2, 7, 48] {
            for seed in 0..20u64 {
                let c = LocalCount::new(p, seed);
                assert!(c.threshold >= 1 && c.threshold <= p as u32, "p={p}");
            }
        }
    }

    #[test]
    fn flush_bound_scales_with_capacity() {
        // Tables of at most 64·p² cells keep the paper's bound p exactly.
        assert_eq!(flush_bound(2, 256), 2);
        assert_eq!(flush_bound(0, 64), 1);
        // Larger ones buffer capacity/(64·p), capped at 256, never below p.
        assert_eq!(flush_bound(2, 4096), 32);
        assert_eq!(flush_bound(2, 1 << 22), 256);
        assert_eq!(flush_bound(512, 1 << 22), 512);
        for p in [1usize, 2, 7, 48] {
            for shift in 1..30 {
                let c = 1usize << shift;
                assert!(p * flush_bound(p, c) <= (p * p).max(c / 64), "p={p} c={c}");
            }
        }
    }

    #[test]
    fn exact_total_after_final_flush() {
        let global = GlobalCount::new();
        let mut locals: Vec<LocalCount> = (0..4).map(|i| LocalCount::new(4, i)).collect();
        let mut expected_i = 0u64;
        let mut expected_d = 0u64;
        for step in 0..10_000 {
            let l = &mut locals[step % 4];
            if step % 5 == 0 {
                l.record_deletion(&global);
                expected_d += 1;
            } else {
                l.record_insertion(&global);
                expected_i += 1;
            }
        }
        for l in &mut locals {
            l.flush(&global);
        }
        assert_eq!(global.insertions(), expected_i);
        assert_eq!(global.deletions(), expected_d);
        assert_eq!(global.live_estimate(), expected_i - expected_d);
    }

    #[test]
    fn underestimate_bounded_by_p_squared() {
        // The paper's bound: I underestimates the true count by at most
        // O(p²) because every one of the p handles buffers at most p
        // operations.
        let p = 8;
        let global = GlobalCount::new();
        let mut locals: Vec<LocalCount> = (0..p).map(|i| LocalCount::new(p, i as u64)).collect();
        let mut true_count = 0u64;
        for round in 0..1000 {
            for l in locals.iter_mut() {
                l.record_insertion(&global);
                true_count += 1;
            }
            let estimate = global.insertions();
            assert!(
                true_count - estimate <= (p * p) as u64,
                "round {round}: estimate {estimate} true {true_count}"
            );
        }
    }

    #[test]
    fn reset_after_migration() {
        let global = GlobalCount::new();
        global.flush(100, 40);
        assert_eq!(global.live_estimate(), 60);
        global.reset_after_migration(60);
        assert_eq!(global.insertions(), 60);
        assert_eq!(global.deletions(), 0);
        assert_eq!(global.live_estimate(), 60);
    }

    #[test]
    fn concurrent_flushes_do_not_lose_counts() {
        let global = std::sync::Arc::new(GlobalCount::new());
        let per_thread = 50_000u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let global = std::sync::Arc::clone(&global);
                s.spawn(move || {
                    let mut local = LocalCount::new(4, t);
                    for _ in 0..per_thread {
                        local.record_insertion(&global);
                    }
                    local.flush(&global);
                });
            }
        });
        assert_eq!(global.insertions(), 4 * per_thread);
    }
}
