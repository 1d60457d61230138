//! The three workloads: set-up, timed rounds, the correctness gate and
//! the guards.  Maps are driven only through `ConcurrentMap`/`MapHandle`
//! (u64 keys) and `GenericMap`/`GenericMapHandle` (string keys); the
//! [`Observed`] trait reads the table statistics the guards need.

use growt_core::{GrowMap, UaGrow};
use growt_iface::{ConcurrentMap, GenericMap, GenericMapHandle, InsertOrUpdate, MapHandle};
use growt_workloads::Clock;

use crate::driver::{
    run_parallel, ticks, ThreadStats, Worker, CLASSES, C_FIND, C_INSERT, C_UPDATE,
};
use crate::gen::{
    v0, v1, U64Plan, WordPlan, FIND_ANY, FIND_MISS, FIND_WORD, INSERT, SAMPLED, UPDATE, UPSERT,
};
use crate::trace::{worker_id_base, Span};

/// Table statistics read outside the op path.
pub trait Observed: Sync {
    /// Completed migrations.
    fn migrations(&self) -> u64;
    /// Cells of the current generation.
    fn cells(&self) -> usize;
    /// Exact element count; only valid while no op runs.
    fn exact_len(&self) -> usize;
    /// Retired allocations not yet reclaimed.
    fn pending_reclamation(&self) -> usize {
        0
    }
}

impl Observed for UaGrow {
    fn migrations(&self) -> u64 {
        self.inner().migrations_completed()
    }
    fn cells(&self) -> usize {
        self.inner().current_capacity()
    }
    fn exact_len(&self) -> usize {
        self.inner().size_exact_quiescent()
    }
}

impl Observed for GrowMap<String, u64> {
    fn migrations(&self) -> u64 {
        self.migrations_completed()
    }
    fn cells(&self) -> usize {
        self.current_capacity()
    }
    fn exact_len(&self) -> usize {
        self.size_exact_quiescent()
    }
    fn pending_reclamation(&self) -> usize {
        GrowMap::pending_reclamation(self)
    }
}

/// Per-round context of the timed ops.
#[derive(Clone, Copy)]
pub struct OpCtx {
    pub clock: Clock,
    pub threads: usize,
    /// Record op spans, stalls and backlog samples, and clock every op.
    pub traced: bool,
    /// Parent span of the op spans.
    pub parent: u64,
}

impl OpCtx {
    /// Run one op through `exec`, which checks it and returns its latency
    /// class.  Ops in the clocked subset record their latency; in traced
    /// rounds every op is clocked, and becomes a span when it is in the
    /// clocked subset or a migration completed while it ran.
    #[inline(always)]
    fn run_op(
        &self,
        kind: u8,
        st: &mut ThreadStats,
        next_id: &mut u64,
        migrations: impl Fn() -> u64,
        exec: impl FnOnce(&mut ThreadStats) -> usize,
    ) {
        let sampled = kind & SAMPLED != 0;
        if self.traced {
            let m0 = migrations();
            let t0 = self.clock.now();
            let class = exec(st);
            let t1 = self.clock.now();
            let migrated = migrations() != m0;
            if migrated {
                st.stalls.push(t1.saturating_sub(t0));
            }
            if sampled || migrated {
                st.spans.push(Span {
                    id: *next_id,
                    parent: self.parent,
                    name: CLASSES[class],
                    start: t0,
                    end: t1,
                });
                *next_id += 1;
            }
        } else if sampled {
            let t0 = self.clock.now();
            let class = exec(st);
            let t1 = self.clock.now();
            st.lat[class].push(ticks(t0, t1));
        } else {
            exec(st);
        }
    }
}

/// One workload, generic over the map it drives.
pub trait Bench: Sync {
    type Map: Observed;
    /// Construct the empty table (timed as set-up).
    fn build(&self) -> Self::Map;
    /// Insert the prefill (timed as set-up).  Every insert is checked.
    fn prefill(&self, map: &Self::Map, threads: usize) -> Vec<ThreadStats>;
    /// Run the timed ops `ops` (one segment of the stream).
    fn timed(&self, map: &Self::Map, ctx: OpCtx, ops: std::ops::Range<usize>) -> Vec<ThreadStats>;
    /// Checks that need every segment's results (default: none).
    fn check_timed(&self, _stats: &mut [ThreadStats]) {}
    /// Segments the op stream is timed in.
    fn segments(&self) -> usize {
        1
    }
    /// Compare the final contents with the sequential reference.
    fn verify(&self, map: &Self::Map, threads: usize) -> Vec<ThreadStats>;
    /// Number of timed ops per round.
    fn ops(&self) -> usize;
    /// Keys in the table after a correct round.
    fn live_keys(&self) -> usize;
    /// Keys inserted during the timed ops.
    fn new_keys(&self) -> usize;
}

// ---------------------------------------------------------------------
// u64 keys: insert_grow and mixed_presized
// ---------------------------------------------------------------------

/// A u64-key workload over map type `M`.
pub struct U64Bench<'p, M> {
    pub plan: &'p U64Plan,
    _map: std::marker::PhantomData<fn() -> M>,
}

impl<'p, M> U64Bench<'p, M> {
    pub fn new(plan: &'p U64Plan) -> Self {
        U64Bench {
            plan,
            _map: std::marker::PhantomData,
        }
    }
}

struct Prefill<'p, H> {
    h: H,
    keys: &'p [u64],
}

impl<H: MapHandle> Worker for Prefill<'_, H> {
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
        for &k in &self.keys[range.clone()] {
            if !self.h.insert(k, v0(k)) {
                st.fail(|| format!("prefill insert of fresh key {k:#x} returned false"));
            }
        }
        st.ops += range.len() as u64;
        self.h.quiesce();
    }
}

struct U64Ops<'p, 'm, M: ConcurrentMap + 'm> {
    h: M::Handle<'m>,
    map: &'m M,
    plan: &'p U64Plan,
    ctx: OpCtx,
    next_id: u64,
    worker: usize,
}

/// Run one u64 op and check its result; returns its latency class.
#[inline(always)]
fn exec_u64<H: MapHandle>(h: &mut H, kind: u8, key: u64, st: &mut ThreadStats) -> usize {
    match kind {
        INSERT => {
            if !h.insert(key, v0(key)) {
                st.fail(|| format!("insert of fresh key {key:#x} returned false"));
            }
            C_INSERT
        }
        UPDATE => {
            if !h.update_overwrite(key, v1(key)) {
                st.fail(|| format!("update of resident key {key:#x} found no element"));
            }
            C_UPDATE
        }
        FIND_MISS => {
            if let Some(v) = h.find(key) {
                st.fail(|| format!("absent key {key:#x} found with value {v:#x}"));
            }
            C_FIND
        }
        _ => {
            let got = h.find(key);
            let ok = got == Some(v0(key)) || (kind == FIND_ANY && got == Some(v1(key)));
            if !ok {
                st.fail(|| format!("find of resident key {key:#x} returned {got:?}"));
            }
            C_FIND
        }
    }
}

impl<'m, M: ConcurrentMap + Observed> Worker for U64Ops<'_, 'm, M> {
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
        let (plan, map, h) = (self.plan, self.map, &mut self.h);
        for i in range.clone() {
            let (kind, key) = (plan.kinds[i], plan.keys[i]);
            self.ctx.run_op(
                kind,
                st,
                &mut self.next_id,
                || map.migrations(),
                |st| exec_u64(h, kind & !SAMPLED, key, st),
            );
        }
        st.ops += range.len() as u64;
        h.quiesce();
    }

    fn finish(&mut self, st: &mut ThreadStats) {
        if self.worker == 0 {
            st.size_estimate = Some(self.h.size_estimate());
        }
    }
}

struct U64Verify<'p, H> {
    h: H,
    plan: &'p U64Plan,
}

impl<H: MapHandle> Worker for U64Verify<'_, H> {
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
        for i in range.clone() {
            let key = self.plan.resident[i];
            let want = self.plan.expected(i);
            let got = self.h.find(key);
            if got != Some(want) {
                st.fail(|| {
                    format!("final contents: key {key:#x} holds {got:?}, expected {want:#x}")
                });
            }
        }
        st.ops += range.len() as u64;
    }
}

impl<M: ConcurrentMap + Observed> Bench for U64Bench<'_, M> {
    type Map = M;

    fn build(&self) -> M {
        M::with_capacity(self.plan.capacity_hint)
    }

    fn prefill(&self, map: &M, threads: usize) -> Vec<ThreadStats> {
        let keys = &self.plan.resident[..self.plan.prefill];
        run_parallel(threads, 0..keys.len(), |_| Prefill {
            h: map.handle(),
            keys,
        })
    }

    fn timed(&self, map: &M, ctx: OpCtx, ops: std::ops::Range<usize>) -> Vec<ThreadStats> {
        run_parallel(ctx.threads, ops, |t| U64Ops::<M> {
            h: map.handle(),
            map,
            plan: self.plan,
            ctx,
            next_id: worker_id_base(t),
            worker: t,
        })
    }

    fn verify(&self, map: &M, threads: usize) -> Vec<ThreadStats> {
        let mut stats = run_parallel(threads, 0..self.plan.resident.len(), |_| U64Verify {
            h: map.handle(),
            plan: self.plan,
        });
        let (len, want) = (map.exact_len(), self.plan.resident.len());
        if len != want {
            stats[0].fail(|| format!("final contents: {len} elements, expected {want}"));
        }
        stats
    }

    fn ops(&self) -> usize {
        self.plan.keys.len()
    }

    fn segments(&self) -> usize {
        self.plan.segments
    }

    fn live_keys(&self) -> usize {
        self.plan.resident.len()
    }

    fn new_keys(&self) -> usize {
        self.plan.resident.len() - self.plan.prefill
    }
}

// ---------------------------------------------------------------------
// String keys: wordcount_string
// ---------------------------------------------------------------------

/// The word-count workload over map type `M`.
pub struct WordBench<'p, M> {
    pub plan: &'p WordPlan,
    _map: std::marker::PhantomData<fn() -> M>,
}

impl<'p, M> WordBench<'p, M> {
    pub fn new(plan: &'p WordPlan) -> Self {
        WordBench {
            plan,
            _map: std::marker::PhantomData,
        }
    }
}

fn add_one(c: &u64) -> u64 {
    c + 1
}

struct WordOps<'p, 'm, M: GenericMap<String, u64> + 'm> {
    h: M::Handle<'m>,
    map: &'m M,
    plan: &'p WordPlan,
    ctx: OpCtx,
    next_id: u64,
    worker: usize,
}

/// Run one word-count op and check its result; returns its latency class.
#[inline(always)]
fn exec_word<H: GenericMapHandle<String, u64>>(
    h: &mut H,
    plan: &WordPlan,
    kind: u8,
    w: u32,
    st: &mut ThreadStats,
) -> usize {
    let word = &plan.vocabulary[w as usize];
    if kind == FIND_WORD {
        let got = h.find(word);
        let max = plan.expected[w as usize];
        if !matches!(got, Some(c) if c >= 1 && c <= max) {
            st.fail(|| {
                format!("find of counted word {word:?} returned {got:?} (final count {max})")
            });
        }
        return C_FIND;
    }
    debug_assert_eq!(kind, UPSERT);
    match h.insert_or_update(word, &1, &add_one) {
        InsertOrUpdate::Inserted => {
            st.inserted.push(w);
            C_INSERT
        }
        InsertOrUpdate::Updated => C_UPDATE,
    }
}

impl<'m, M: GenericMap<String, u64> + Observed> Worker for WordOps<'_, 'm, M> {
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
        let (plan, map, h) = (self.plan, self.map, &mut self.h);
        for i in range.clone() {
            let (kind, w) = (plan.kinds[i], plan.words[i]);
            self.ctx.run_op(
                kind,
                st,
                &mut self.next_id,
                || map.migrations(),
                |st| exec_word(h, plan, kind & !SAMPLED, w, st),
            );
        }
        st.ops += range.len() as u64;
        h.quiesce();
        if self.ctx.traced && self.worker == 0 {
            st.pending_max = st.pending_max.max(map.pending_reclamation() as u64);
        }
    }

    fn finish(&mut self, st: &mut ThreadStats) {
        if self.worker == 0 {
            st.size_estimate = Some(self.h.size_estimate());
        }
    }
}

struct WordVerify<'p, H> {
    h: H,
    plan: &'p WordPlan,
}

impl<H: GenericMapHandle<String, u64>> Worker for WordVerify<'_, H> {
    fn block(&mut self, range: std::ops::Range<usize>, st: &mut ThreadStats) {
        for &w in &self.plan.canonical[range.clone()] {
            let i = w as usize;
            let want = self.plan.expected[i];
            let got = self.h.find(&self.plan.vocabulary[i]);
            if got != (want > 0).then_some(want) {
                let word = &self.plan.vocabulary[i];
                st.fail(|| format!("final count of {word:?} is {got:?}, expected {want}"));
            }
        }
        st.ops += range.len() as u64;
    }
}

impl<M: GenericMap<String, u64> + Observed> Bench for WordBench<'_, M> {
    type Map = M;

    fn build(&self) -> M {
        M::with_capacity(self.plan.capacity_hint)
    }

    fn prefill(&self, _map: &M, _threads: usize) -> Vec<ThreadStats> {
        Vec::new()
    }

    fn timed(&self, map: &M, ctx: OpCtx, ops: std::ops::Range<usize>) -> Vec<ThreadStats> {
        run_parallel(ctx.threads, ops, |t| WordOps::<M> {
            h: map.handle(),
            map,
            plan: self.plan,
            ctx,
            next_id: worker_id_base(t),
            worker: t,
        })
    }

    /// Each distinct word must be inserted by exactly one upsert.
    fn check_timed(&self, stats: &mut [ThreadStats]) {
        let mut inserts = vec![0u8; self.plan.vocabulary.len()];
        for st in stats.iter() {
            for &w in &st.inserted {
                inserts[w as usize] = inserts[w as usize].saturating_add(1);
            }
        }
        for (w, (&n, &want)) in inserts.iter().zip(&self.plan.expected).enumerate() {
            if n != u8::from(want > 0) {
                let word = &self.plan.vocabulary[w];
                stats[0]
                    .fail(|| format!("word {word:?} inserted {n} times (counted {want} times)"));
            }
        }
    }

    fn verify(&self, map: &M, threads: usize) -> Vec<ThreadStats> {
        let mut stats = run_parallel(threads, 0..self.plan.canonical.len(), |_| WordVerify {
            h: map.handle(),
            plan: self.plan,
        });
        let (len, want) = (map.exact_len(), self.plan.distinct);
        if len != want {
            stats[0].fail(|| format!("final contents: {len} words, expected {want}"));
        }
        stats
    }

    fn ops(&self) -> usize {
        self.plan.words.len()
    }

    fn live_keys(&self) -> usize {
        self.plan.distinct
    }

    fn new_keys(&self) -> usize {
        self.plan.distinct
    }
}
