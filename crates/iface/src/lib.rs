//! Common interface for every hash table in the reproduction of
//! *"Concurrent Hash Tables: Fast and General?(!)"* (Maier, Sanders,
//! Dementiev, PPoPP 2016).
//!
//! The paper compares many hash table implementations — the authors' own
//! *growt* family plus six competitor libraries — under one benchmark
//! driver.  This crate defines the trait surface that driver programs
//! against:
//!
//! * [`ConcurrentMap`] — a shared table object constructed once,
//! * [`MapHandle`]     — a per-thread access handle (the paper's §5.1
//!   "explicit handles"), through which all operations are performed,
//! * [`Capabilities`]  — the static functionality matrix reproduced as
//!   Table 1 of the paper.
//!
//! Keys and values are machine words (`u64`), matching the restriction of
//! the paper's fast tables.  Tables that internally support wider types
//! still expose this word-sized interface so that all implementations can
//! be driven by the same benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inflight;

/// Key type used throughout the reproduction: one machine word.
pub type Key = u64;
/// Value type used throughout the reproduction: one machine word.
pub type Value = u64;

/// Growing the table to make room for an operation failed.
///
/// Returned by the `try_`-variant handle methods when the table could not
/// allocate (or, after bounded retries, still could not allocate) the next
/// generation.  The table itself stays fully usable: the old generation
/// keeps serving reads and non-inserting updates, and a later `try_` call
/// retries the growth step.  The infallible methods never surface this —
/// they keep retrying with capped exponential backoff instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TryGrowError;

impl std::fmt::Display for TryGrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("growing the table failed: next generation could not be allocated")
    }
}

impl std::error::Error for TryGrowError {}

/// A bounded (non-growing) table has no free cell left for an insertion.
///
/// Returned by `try_`-variant methods of bounded tables; the panicking
/// wrappers keep their loud-failure behavior for callers that sized the
/// table correctly by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the bounded table is full")
    }
}

impl std::error::Error for TableFull {}

/// Outcome of an [`MapHandle::insert_or_update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOrUpdate {
    /// The key was not present; a new element was inserted.
    Inserted,
    /// The key was present; its value was updated.
    Updated,
}

impl InsertOrUpdate {
    /// `true` if the operation inserted a new element.
    #[inline]
    pub fn inserted(self) -> bool {
        matches!(self, InsertOrUpdate::Inserted)
    }
}

/// How (and whether) a table can adapt its capacity, for Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthSupport {
    /// Grows efficiently from a tiny initial size (paper §8.1.1).
    Full,
    /// Can only grow by a bounded factor or at a large cost (§8.1.2).
    Limited,
    /// Fixed capacity chosen at construction time (§8.1.3).
    None,
}

/// Which style of per-thread registration a table requires, for Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterfaceStyle {
    /// Plain shared-object interface; handles are trivial.
    Standard,
    /// Explicit per-thread handles carrying thread-local state (growt).
    Handles,
    /// The user must periodically signal quiescence (QSBR-style tables).
    QsbrFunction,
    /// Threads have to register/unregister with the table (urcu-style).
    RegisterThread,
    /// Operations of different kinds must not overlap (phase-concurrent).
    SyncPhases,
    /// Only a set interface (contains/put) is available (hopscotch, LeaHash).
    SetInterface,
}

/// Static functionality description of a table implementation.
///
/// This is the data behind the reproduction of the paper's **Table 1**
/// ("Overview over Table Functionalities").
#[derive(Debug, Clone)]
pub struct Capabilities {
    /// Display name used in figures and tables.
    pub name: &'static str,
    /// Interface style (std. interface column).
    pub interface: InterfaceStyle,
    /// Growing support.
    pub growing: GrowthSupport,
    /// Whether updates whose result depends on the current value can be
    /// performed atomically (e.g. insert-or-increment).
    pub atomic_updates: bool,
    /// Whether only overwriting updates are supported.
    pub overwrite_only: bool,
    /// Whether deletion (with eventual memory reclamation) is supported.
    pub deletion: bool,
    /// Whether arbitrary key/value types could be stored (not only words).
    pub arbitrary_types: bool,
    /// Free-form note shown in the table (e.g. "const factor" growth).
    pub note: &'static str,
}

impl Capabilities {
    /// Convenience constructor with all flags off and empty note.
    pub const fn new(name: &'static str) -> Self {
        Capabilities {
            name,
            interface: InterfaceStyle::Standard,
            growing: GrowthSupport::None,
            atomic_updates: false,
            overwrite_only: false,
            deletion: false,
            arbitrary_types: false,
            note: "",
        }
    }
}

/// A concurrent hash table that can be shared between threads.
///
/// The table object itself is cheap to share (`&self` across threads); all
/// operations go through a per-thread [`MapHandle`] obtained from
/// [`ConcurrentMap::handle`].  This mirrors the paper's handle-based design
/// (§5.1) and also accommodates competitors that need per-thread
/// registration or QSBR bookkeeping.
pub trait ConcurrentMap: Send + Sync + Sized + 'static {
    /// The per-thread handle type.
    type Handle<'a>: MapHandle
    where
        Self: 'a;

    /// Create a table able to hold roughly `capacity` elements.
    ///
    /// For non-growing tables this is the hard capacity bound (the
    /// constructor may round it up, e.g. to a power of two, and apply the
    /// implementation's own fill-factor headroom).  For growing tables it
    /// is only the initial size hint.
    fn with_capacity(capacity: usize) -> Self;

    /// Obtain a handle for the calling thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Static functionality description (Table 1).
    fn capabilities() -> Capabilities;

    /// Short display name (defaults to the capabilities name).
    fn table_name() -> &'static str {
        Self::capabilities().name
    }
}

/// Per-thread access handle of a [`ConcurrentMap`].
///
/// All methods take `&mut self`: a handle is owned by exactly one thread
/// and may carry thread-local state (approximate-size counters, cached
/// table pointers, QSBR epochs, …).  Handles of the same table may be used
/// concurrently from different threads.
pub trait MapHandle {
    /// Insert `⟨k, v⟩` if no element with key `k` is present.
    ///
    /// Returns `true` iff the element was inserted.  When several threads
    /// insert the same key concurrently exactly one succeeds.
    fn insert(&mut self, k: Key, v: Value) -> bool;

    /// Look up the value stored for `k`.
    fn find(&mut self, k: Key) -> Option<Value>;

    /// Update the element with key `k` to `up(current, d)`.
    ///
    /// Returns `true` iff an element was present and updated.  The update
    /// is applied atomically with respect to other modifications of the
    /// same element.
    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool;

    /// Insert `⟨k, d⟩` if `k` is absent, otherwise atomically update the
    /// stored value to `up(current, d)`.
    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate;

    /// Remove the element with key `k`.  Returns `true` iff an element was
    /// removed.
    fn erase(&mut self, k: Key) -> bool;

    /// Overwrite the value of an existing element (specialized update).
    ///
    /// Tables can override this with a plain atomic store where their
    /// consistency protocol allows it (paper §4, "partial template
    /// specialization"); the default goes through [`MapHandle::update`].
    fn update_overwrite(&mut self, k: Key, d: Value) -> bool {
        self.update(k, d, |_cur, new| new)
    }

    /// Insert-or-increment (the aggregation workload of Fig. 5).
    ///
    /// Default: `insert_or_update` with a wrapping add; tables with a
    /// fetch-and-add fast path override this.
    fn insert_or_increment(&mut self, k: Key, d: Value) -> InsertOrUpdate {
        self.insert_or_update(k, d, |cur, add| cur.wrapping_add(add))
    }

    // -----------------------------------------------------------------
    // Batched operations (paper §5.5)
    //
    // The tables are memory-bound: a single `find`/`insert` pays one cold
    // cache miss and stalls.  Processing a whole block of keys lets an
    // implementation hash every key up front, prefetch every home cell,
    // and only then run the probes — keeping many misses in flight per
    // thread.  The defaults below are plain per-op loops so that every
    // implementation keeps working unchanged; tables with a pipelined
    // fast path override them.  Semantically a batch call must return
    // EXACTLY what the per-op loop over the slice in order would return
    // (including duplicate keys inside one batch).  The equivalence is
    // about the batch's own results: while a table is migrating, distinct
    // keys of one batch may linearize out of slice order relative to
    // concurrent operations (an implementation may retry stragglers after
    // later elements already completed).
    // -----------------------------------------------------------------

    /// Look up a whole batch of keys; `out[i]` receives the result of
    /// `find(keys[i])`.  `keys` and `out` must have equal lengths.
    fn find_batch(&mut self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "find_batch: length mismatch");
        for (k, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = self.find(*k);
        }
    }

    /// Insert a batch of `⟨k, v⟩` pairs in slice order; returns the number
    /// of elements actually inserted (duplicates inside the batch count
    /// once, exactly as the per-op loop would report).
    fn insert_batch(&mut self, elements: &[(Key, Value)]) -> usize {
        let mut inserted = 0;
        for &(k, v) in elements {
            if self.insert(k, v) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Apply `update(k, d, up)` for every `⟨k, d⟩` pair in slice order;
    /// returns the number of elements that were present and updated.
    fn update_batch(&mut self, elements: &[(Key, Value)], up: fn(Value, Value) -> Value) -> usize {
        let mut updated = 0;
        for &(k, d) in elements {
            if self.update(k, d, up) {
                updated += 1;
            }
        }
        updated
    }

    /// Erase a batch of keys in slice order; returns the number of elements
    /// actually removed.
    fn erase_batch(&mut self, keys: &[Key]) -> usize {
        let mut erased = 0;
        for &k in keys {
            if self.erase(k) {
                erased += 1;
            }
        }
        erased
    }

    /// Report a quiescent state / perform deferred maintenance.
    ///
    /// The benchmark driver calls this between work blocks.  QSBR-based
    /// tables reclaim retired memory here; for most tables it is a no-op.
    fn quiesce(&mut self) {}

    /// An estimate of the number of elements currently stored.
    ///
    /// Accuracy follows the paper's §5.2: exact for sequential tables,
    /// approximate (±O(p²)) for the concurrent ones.
    fn size_estimate(&mut self) -> usize {
        0
    }

    // -----------------------------------------------------------------
    // Fallible variants (graceful degradation on allocation failure)
    //
    // The infallible operations above never report resource exhaustion:
    // a growing table that cannot allocate its next generation keeps
    // serving the old one and retries with capped exponential backoff
    // until the allocation succeeds.  The `try_` variants below bound
    // that retrying and surface `TryGrowError` instead, so callers that
    // want to shed load (or report the condition) can.  The defaults
    // delegate to the infallible operation — correct for every table
    // whose operations cannot fail on allocation.
    // -----------------------------------------------------------------

    /// Fallible [`MapHandle::insert`]: like `insert`, but when making
    /// room would require growing and the next generation cannot be
    /// allocated within a bounded number of retries, returns
    /// `Err(TryGrowError)` instead of blocking until memory appears.
    /// The element is **not** inserted on error; the table stays valid.
    fn try_insert(&mut self, k: Key, v: Value) -> Result<bool, TryGrowError> {
        Ok(self.insert(k, v))
    }

    /// Fallible [`MapHandle::insert_or_update`]; see
    /// [`MapHandle::try_insert`] for the error contract.
    fn try_insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        Ok(self.insert_or_update(k, d, up))
    }
}

// ---------------------------------------------------------------------------
// Typed (generic) keys and values — the `GrowMap<K, V>` facade
// ---------------------------------------------------------------------------

/// A concurrent hash map over arbitrary key and value types.
///
/// This is the fully general trait surface the paper's title promises
/// ("fast **and general**"): keys are any hashable type, values any
/// clonable type.  Word-sized keys and values are stored inline in the
/// cells (the same double-word-CAS fast path as [`ConcurrentMap`]
/// implementations); larger types are stored behind signature-packed
/// references with deferred reclamation (paper §5.7).  String-keyed
/// word counting is `GenericMap<String, u64>`.  Mirrors [`ConcurrentMap`]:
/// the shared table object is cheap to share and all operations go
/// through a per-thread handle.
pub trait GenericMap<K, V>: Send + Sync + Sized + 'static {
    /// The per-thread handle type.
    type Handle<'a>: GenericMapHandle<K, V>
    where
        Self: 'a;

    /// Create a table able to hold roughly `capacity` elements: a hard
    /// bound for bounded tables, an initial hint for growing ones.
    fn with_capacity(capacity: usize) -> Self;

    /// Obtain a handle for the calling thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Short display name used in figures and tables.
    fn map_name() -> &'static str;
}

/// Per-thread access handle of a [`GenericMap`].
///
/// All methods take `&mut self` for the same reason as [`MapHandle`]: a
/// handle is owned by one thread and may carry thread-local state (cached
/// table generations, QSBR participation, buffered counters).  Updates
/// take a *derivation closure* `Fn(&V) -> V` instead of [`MapHandle`]'s
/// word-level `fn` pointer: the closure is applied atomically with
/// respect to other modifications of the same element (internally a
/// read–derive–CAS loop), so no concurrent interleaving can lose an
/// update.
pub trait GenericMapHandle<K, V> {
    /// Insert `⟨k, v⟩` if no element with key `k` is present.  Returns
    /// `true` iff the element was inserted; concurrent inserters of the
    /// same key see exactly one winner.
    fn insert(&mut self, key: &K, value: &V) -> bool;

    /// Look up the value stored for `key`.  A returned value is always a
    /// fully published one — implementations must never expose the
    /// transient state of an in-flight insertion or update.
    fn find(&mut self, key: &K) -> Option<V>;

    /// Atomically replace the value of an existing `key` by `up(current)`.
    /// Returns `true` iff an element was present and updated.
    fn update(&mut self, key: &K, up: &dyn Fn(&V) -> V) -> bool;

    /// Insert `⟨k, v⟩` if `k` is absent, otherwise atomically replace the
    /// stored value by `up(current)` — the generalization of
    /// [`MapHandle::insert_or_update`].
    fn insert_or_update(&mut self, key: &K, value: &V, up: &dyn Fn(&V) -> V) -> InsertOrUpdate;

    /// Remove the element with `key`.  Returns `true` iff an element was
    /// removed.  Out-of-line key/value allocations are reclaimed through
    /// the implementation's deferred-reclamation scheme, never while
    /// another thread may still dereference them.
    fn erase(&mut self, key: &K) -> bool;

    // -----------------------------------------------------------------
    // Batched operations (paper §5.5). Defaults are plain per-op loops;
    // semantically a batch call must return exactly what the per-op loop
    // over the slice in order would return (see the batching contract on
    // [`MapHandle::find_batch`]).
    // -----------------------------------------------------------------

    /// Look up a whole batch of keys; `out[i]` receives the result of
    /// `find(&keys[i])`.  `keys` and `out` must have equal lengths.
    fn find_batch(&mut self, keys: &[K], out: &mut [Option<V>]) {
        assert_eq!(keys.len(), out.len(), "find_batch: length mismatch");
        for (k, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = self.find(k);
        }
    }

    /// Insert a batch of `⟨k, v⟩` pairs in slice order; returns the number
    /// of elements actually inserted.
    fn insert_batch(&mut self, elements: &[(K, V)]) -> usize {
        let mut inserted = 0;
        for (k, v) in elements {
            if self.insert(k, v) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Apply `insert_or_update(k, v, up)` for every pair in slice order;
    /// returns the number of elements newly inserted.
    fn insert_or_update_batch(&mut self, elements: &[(K, V)], up: &dyn Fn(&V) -> V) -> usize {
        let mut inserted = 0;
        for (k, v) in elements {
            if self.insert_or_update(k, v, up).inserted() {
                inserted += 1;
            }
        }
        inserted
    }

    /// Erase a batch of keys in slice order; returns the number of
    /// elements actually removed.
    fn erase_batch(&mut self, keys: &[K]) -> usize {
        let mut erased = 0;
        for k in keys {
            if self.erase(k) {
                erased += 1;
            }
        }
        erased
    }

    /// Report a quiescent state / perform deferred maintenance (QSBR
    /// reclamation of retired key/value allocations).
    fn quiesce(&mut self) {}

    /// Approximate number of live elements (§5.2 accuracy).
    fn size_estimate(&mut self) -> usize {
        0
    }

    /// Fallible [`GenericMapHandle::insert`]: when making room would
    /// require growing and the next generation cannot be allocated within
    /// a bounded number of retries, returns `Err(TryGrowError)` instead
    /// of blocking until memory appears.  The element is **not** inserted
    /// on error; the table stays valid.
    fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        Ok(self.insert(key, value))
    }

    /// Fallible [`GenericMapHandle::insert_or_update`]; see
    /// [`GenericMapHandle::try_insert`] for the error contract.
    fn try_insert_or_update(
        &mut self,
        key: &K,
        value: &V,
        up: &dyn Fn(&V) -> V,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        Ok(self.insert_or_update(key, value, up))
    }
}

/// Render one [`Capabilities`] record as the seven columns of Table 1.
pub fn capability_row(c: &Capabilities) -> [String; 7] {
    let growing = match c.growing {
        GrowthSupport::Full => "yes",
        GrowthSupport::Limited => "limited",
        GrowthSupport::None => "no",
    };
    let iface = match c.interface {
        InterfaceStyle::Standard => "std",
        InterfaceStyle::Handles => "handles",
        InterfaceStyle::QsbrFunction => "qsbr fn",
        InterfaceStyle::RegisterThread => "register",
        InterfaceStyle::SyncPhases => "sync phases",
        InterfaceStyle::SetInterface => "set iface",
    };
    [
        c.name.to_string(),
        iface.to_string(),
        growing.to_string(),
        if c.atomic_updates {
            "yes".into()
        } else if c.overwrite_only {
            "overwrite".into()
        } else {
            "no".into()
        },
        if c.deletion { "yes" } else { "no" }.to_string(),
        if c.arbitrary_types { "yes" } else { "no" }.to_string(),
        c.note.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_or_update_inspection() {
        assert!(InsertOrUpdate::Inserted.inserted());
        assert!(!InsertOrUpdate::Updated.inserted());
    }

    /// Minimal single-threaded `MapHandle` used to exercise the default
    /// batch implementations.
    struct VecHandle {
        pairs: Vec<(Key, Value)>,
    }

    impl MapHandle for VecHandle {
        fn insert(&mut self, k: Key, v: Value) -> bool {
            if self.pairs.iter().any(|&(pk, _)| pk == k) {
                return false;
            }
            self.pairs.push((k, v));
            true
        }
        fn find(&mut self, k: Key) -> Option<Value> {
            self.pairs.iter().find(|&&(pk, _)| pk == k).map(|&(_, v)| v)
        }
        fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
            for pair in self.pairs.iter_mut() {
                if pair.0 == k {
                    pair.1 = up(pair.1, d);
                    return true;
                }
            }
            false
        }
        fn insert_or_update(
            &mut self,
            k: Key,
            d: Value,
            up: fn(Value, Value) -> Value,
        ) -> InsertOrUpdate {
            if self.update(k, d, up) {
                InsertOrUpdate::Updated
            } else {
                self.insert(k, d);
                InsertOrUpdate::Inserted
            }
        }
        fn erase(&mut self, k: Key) -> bool {
            let before = self.pairs.len();
            self.pairs.retain(|&(pk, _)| pk != k);
            self.pairs.len() != before
        }
    }

    #[test]
    fn default_batch_ops_equal_per_op_loop() {
        let mut h = VecHandle { pairs: Vec::new() };
        // Duplicate key 10 inside one batch: only the first insert wins.
        let batch = [(10, 1), (11, 2), (10, 3), (12, 4)];
        assert_eq!(h.insert_batch(&batch), 3);
        assert_eq!(h.find(10), Some(1));

        let mut out = [None; 5];
        h.find_batch(&[10, 11, 12, 13, 10], &mut out);
        assert_eq!(out, [Some(1), Some(2), Some(4), None, Some(1)]);

        // Duplicate key inside one update batch: applied twice, in order.
        assert_eq!(
            h.update_batch(&[(10, 5), (13, 1), (10, 2)], |c, d| c + d),
            2
        );
        assert_eq!(h.find(10), Some(8));

        assert_eq!(h.erase_batch(&[10, 10, 13, 11]), 2);
        assert_eq!(h.find(10), None);
        assert_eq!(h.find(12), Some(4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn find_batch_rejects_length_mismatch() {
        let mut h = VecHandle { pairs: Vec::new() };
        let mut out = [None; 2];
        h.find_batch(&[1, 2, 3], &mut out);
    }

    /// Minimal single-threaded `GenericMap<String, u64>` exercising the
    /// trait defaults.
    struct VecStringMap {
        pairs: std::sync::Mutex<Vec<(String, u64)>>,
    }

    struct VecStringHandle<'a> {
        table: &'a VecStringMap,
    }

    impl GenericMap<String, u64> for VecStringMap {
        type Handle<'a> = VecStringHandle<'a>;
        fn with_capacity(_capacity: usize) -> Self {
            VecStringMap {
                pairs: std::sync::Mutex::new(Vec::new()),
            }
        }
        fn handle(&self) -> VecStringHandle<'_> {
            VecStringHandle { table: self }
        }
        fn map_name() -> &'static str {
            "vec-string-reference"
        }
    }

    impl GenericMapHandle<String, u64> for VecStringHandle<'_> {
        fn insert(&mut self, key: &String, value: &u64) -> bool {
            let mut m = self.table.pairs.lock().unwrap();
            if m.iter().any(|(k, _)| k == key) {
                return false;
            }
            m.push((key.clone(), *value));
            true
        }
        fn find(&mut self, key: &String) -> Option<u64> {
            let m = self.table.pairs.lock().unwrap();
            m.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
        }
        fn update(&mut self, key: &String, up: &dyn Fn(&u64) -> u64) -> bool {
            let mut m = self.table.pairs.lock().unwrap();
            m.iter_mut()
                .find(|(k, _)| k == key)
                .map(|pair| pair.1 = up(&pair.1))
                .is_some()
        }
        fn insert_or_update(
            &mut self,
            key: &String,
            value: &u64,
            up: &dyn Fn(&u64) -> u64,
        ) -> InsertOrUpdate {
            if self.update(key, up) {
                InsertOrUpdate::Updated
            } else {
                self.insert(key, value);
                InsertOrUpdate::Inserted
            }
        }
        fn erase(&mut self, key: &String) -> bool {
            let mut m = self.table.pairs.lock().unwrap();
            let before = m.len();
            m.retain(|(k, _)| k != key);
            m.len() != before
        }
    }

    #[test]
    fn string_map_round_trip_and_defaults() {
        let table = VecStringMap::with_capacity(8);
        let mut h = table.handle();
        let key = |k: &str| k.to_string();
        assert_eq!(VecStringMap::map_name(), "vec-string-reference");
        assert!(h.insert(&key("alpha"), &1));
        assert!(!h.insert(&key("alpha"), &9));
        assert_eq!(h.find(&key("alpha")), Some(1));
        assert!(h.update(&key("alpha"), &|v| v + 4));
        assert_eq!(h.find(&key("alpha")), Some(5));
        let add = |d: u64| move |v: &u64| v + d;
        assert!(!h.insert_or_update(&key("alpha"), &5, &add(5)).inserted());
        assert!(h.insert_or_update(&key("beta"), &2, &add(2)).inserted());
        assert_eq!(h.find(&key("alpha")), Some(10));
        assert_eq!(h.try_insert(&key("gamma"), &3), Ok(true));
        assert_eq!(
            h.try_insert_or_update(&key("gamma"), &3, &add(3)),
            Ok(InsertOrUpdate::Updated)
        );
        let mut out = [None; 3];
        h.find_batch(&[key("gamma"), key("delta"), key("beta")], &mut out);
        assert_eq!(out, [Some(6), None, Some(2)]);
        assert!(h.erase(&key("alpha")));
        assert!(!h.erase(&key("alpha")));
        assert_eq!(h.erase_batch(&[key("beta"), key("gamma"), key("beta")]), 2);
        h.quiesce();
        assert_eq!(h.size_estimate(), 0);
    }

    #[test]
    fn capability_defaults() {
        let c = Capabilities::new("x");
        assert_eq!(c.name, "x");
        assert_eq!(c.growing, GrowthSupport::None);
        assert!(!c.atomic_updates);
        let row = capability_row(&c);
        assert_eq!(row[0], "x");
        assert_eq!(row[2], "no");
    }
}
