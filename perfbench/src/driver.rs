//! The closed-loop driver: `threads` workers pull aligned blocks of op
//! indices from a `BlockScheduler` and run them against their own handle,
//! each op issued as soon as the previous one returns.

use std::sync::Barrier;
use std::time::Instant;

use growt_workloads::{BlockScheduler, Clock};

use crate::trace::Span;

/// Op classes with their own latency distribution.
pub const CLASSES: [&str; 3] = ["insert", "find", "update"];
pub const C_INSERT: usize = 0;
pub const C_FIND: usize = 1;
pub const C_UPDATE: usize = 2;

/// Ops per scheduler block (the paper's 4096).
pub const BLOCK: usize = 4096;

/// What one worker saw in one round.
#[derive(Default)]
pub struct ThreadStats {
    pub ops: u64,
    pub failures: u64,
    pub first_failure: Option<String>,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
    /// Clocked op latencies in clock ticks, per class.
    pub lat: [Vec<u32>; 3],
    /// Traced runs only: op spans of this worker.
    pub spans: Vec<Span>,
    /// Traced runs only: tick durations of ops during which a migration
    /// completed.
    pub stalls: Vec<u64>,
    /// Word count: vocabulary indices this worker's upserts inserted.
    pub inserted: Vec<u32>,
    /// Traced word count: largest QSBR backlog seen at a block boundary.
    pub pending_max: u64,
    /// Worker 0: the handle's size estimate once every op has returned.
    pub size_estimate: Option<usize>,
}

impl ThreadStats {
    /// Record a wrong result; the first one is kept for the error message.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn busy_s(&self) -> f64 {
        match (self.start, self.end) {
            (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// One worker's state (its handle and the inputs it reads).
pub trait Worker {
    /// Run the ops of one scheduler block.
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats);
    /// Called once every worker has finished its blocks and before any
    /// handle is dropped.
    fn finish(&mut self, _st: &mut ThreadStats) {}
}

/// Run the op indices `ops` on `threads` workers built by `setup`.
/// Workers are built (handles registered) before the start barrier, so
/// that is not timed.  Blocks stay aligned to `ops.start`.
pub fn run_parallel<W, Setup>(
    threads: usize,
    ops: std::ops::Range<usize>,
    setup: Setup,
) -> Vec<ThreadStats>
where
    W: Worker,
    Setup: Fn(usize) -> W + Sync,
{
    let base = ops.start;
    let sched = BlockScheduler::with_block(ops.len(), BLOCK);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (sched, barrier, setup) = (&sched, &barrier, &setup);
                scope.spawn(move || {
                    let mut worker = setup(t);
                    let mut stats = ThreadStats::default();
                    barrier.wait();
                    stats.start = Some(Instant::now());
                    while let Some(range) = sched.next_block() {
                        worker.block(base + range.start..base + range.end, &mut stats);
                    }
                    stats.end = Some(Instant::now());
                    barrier.wait();
                    worker.finish(&mut stats);
                    barrier.wait();
                    drop(worker);
                    stats
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    })
}

/// Wall seconds from the first worker's start to the last worker's end.
pub fn wall_s(stats: &[ThreadStats]) -> f64 {
    let start = stats.iter().filter_map(|s| s.start).min();
    let end = stats.iter().filter_map(|s| s.end).max();
    match (start, end) {
        (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
        _ => 0.0,
    }
}

/// Nanoseconds per `Clock` tick, recovered from `delta_ns` over a long
/// interval (1.0 when the clock counts nanoseconds).
pub fn ns_per_tick(clock: &Clock) -> f64 {
    const SPAN: u64 = 1 << 40;
    clock.delta_ns(0, SPAN) as f64 / SPAN as f64
}

/// Ticks between two `Clock::now` readings, saturated into a `u32`.
#[inline]
pub fn ticks(t0: u64, t1: u64) -> u32 {
    t1.saturating_sub(t0).min(u32::MAX as u64) as u32
}

/// The `q` quantile of `samples` (sorted in place), as the mean of the
/// order statistics within ±0.1% of ranks around `q·n`.  The local mean
/// keeps the estimate continuous where single order statistics sit on a
/// handful of integer tick values.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q * n as f64) as usize).min(n - 1);
    let w = (n / 1000).max(1);
    let lo = rank.saturating_sub(w);
    let hi = (rank + w + 1).min(n);
    let sum: u64 = samples[lo..hi].iter().map(|&s| s as u64).sum();
    sum as f64 / (hi - lo) as f64
}

/// Median of a list of measurements (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_a_local_mean() {
        let mut v: Vec<u32> = (0..10_000).rev().collect();
        let p50 = quantile(&mut v, 0.5);
        assert!((p50 - 5000.0).abs() < 1.0, "{p50}");
        let p99 = quantile(&mut v, 0.99);
        assert!((p99 - 9900.0).abs() < 1.0, "{p99}");
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    struct Count;
    impl Worker for Count {
        fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
            st.ops += range.len() as u64;
        }
    }

    #[test]
    fn every_op_runs_once() {
        let stats = run_parallel(2, 5..10 * BLOCK + 12, |_| Count);
        let total: u64 = stats.iter().map(|s| s.ops).sum();
        assert_eq!(total, 10 * BLOCK as u64 + 7);
    }
}
