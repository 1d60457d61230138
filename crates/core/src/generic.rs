//! The generic growing map: `GrowMap<K, V>` (DESIGN.md §14).
//!
//! The paper presents the growing table as a *general* concurrent hash
//! map.  The word table ([`crate::grow::GrowingTable`]) speaks only
//! `u64 → u64`; this module generalizes it with two representation axes
//! over the same 16-byte [`Cell`]s and the same shared §12 coordinator
//! ([`crate::coord`]).  `GrowMap<String, u64>` is the crate's growing,
//! deleting string table (`stringGrow` in the figures):
//!
//! * [`KeyRepr`] — how a key maps onto the cell's **key word**.  Word
//!   sized keys encode *inline* (the word-table fast path: the probe
//!   compares one integer, exactly the cell ops of `GrowingTable`);
//!   everything else is stored out of line behind the §5.7 packed
//!   reference `signature << 48 | pointer` ([`crate::complex`]), pointing
//!   at one `⟨hash, len, bytes⟩` allocation that holds the master hash and
//!   the bytes [`KeyRepr::key_bytes`] yields for the key.
//! * [`ValueRepr`] — how a value maps onto the cell's **value word**.
//!   Word-sized values encode inline (atomic updates are one full-cell
//!   CAS); larger values live in a plain heap box whose raw pointer is
//!   the value word.  Value boxes need no signature: the key word decides
//!   equality, the value word is only ever dereferenced after a key
//!   match.
//!
//! Both out-of-line representations lean on two guarantees:
//!
//! * **publication** is a double-word CAS of `⟨key word, value word⟩`
//!   into an empty cell, so there is no in-flight window at all;
//! * **reclamation** is QSBR-deferred: erased key allocations and
//!   replaced or erased value boxes are retired into the table's
//!   [`QsbrDomain`] and freed only after every handle has passed a
//!   quiescent state, so no concurrent probe can dereference freed memory.  Within one
//!   operation a handle never quiesces, which also makes the
//!   read–derive–CAS update loop ABA-safe: the old value pointer cannot
//!   be freed and reallocated while the updater still holds it.
//!
//! Growth is not reimplemented here: [`GenericInner`]'s [`GrowProtocol`]
//! impl instantiates the shared coordinator with a block copy that
//! re-derives each element's home cell from the master hash (stored in
//! the key allocation, or recomputed from the inline word) — a rehash
//! migration, correct for growth, cleanup and shrink steps alike.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use growt_iface::{GenericMap, GenericMapHandle, InsertOrUpdate, TryGrowError};
use growt_reclaim::{CachedArc, QsbrDomain, QsbrParticipant, VersionedArc};

use crate::cell::{is_marked, unmark, Cell, DEL_KEY, EMPTY_KEY, MAX_MARKABLE_KEY};
use crate::complex::{
    allocate_key, decode_keyref, free_key, key_matches, pack_keyref, signature_of, stored_hash,
    POINTER_BITS,
};
use crate::config::{capacity_for, hash_key, scale_to_capacity, GrowConfig, PROBE_LIMIT};
use crate::coord::{Coordinator, GrowProtocol, MigrationJob};
use crate::count::{flush_bound, GlobalCount, LocalCount};

// ---------------------------------------------------------------------------
// Representation axes
// ---------------------------------------------------------------------------

/// How a key type maps onto the cell's key word.
///
/// Implementations fall into two families:
///
/// * **inline** (`INLINE = true`): the key itself is the word.  The
///   encoding must be injective, land in `2..=`[`MAX_MARKABLE_KEY`]
///   (`0`/`1` are the empty/tombstone sentinels, bit 63 is the migration
///   mark), and round-trip through [`KeyRepr::decode`].  Provided for
///   `u64` (identity, reserved encodings rejected) and `u32` (shifted by
///   the two sentinels, so the full `u32` range is usable).
/// * **boxed** (`INLINE = false`, the default): the bytes of
///   [`KeyRepr::key_bytes`] are copied into one heap allocation behind a
///   header holding the master hash and the byte length, and the word is
///   the §5.7 packed reference `signature << 48 | pointer` to it
///   ([`crate::complex`] holds the layout, shared with the bounded string
///   table).  The map stores and compares only the bytes, so the encoding
///   must be injective: **two keys are equal exactly when their bytes
///   are**.  Provided for `String` (its UTF-8 bytes) and `(u32, u32)`
///   (the 8 little-endian bytes of its packed word).
///
/// The master hash must be **deterministic and process-wide consistent**
/// (every thread must agree on a key's home cell); the default goes
/// through [`std::collections::hash_map::DefaultHasher`], which is
/// seed-free.
pub trait KeyRepr: Clone + Eq + std::hash::Hash + Send + Sync + 'static {
    /// `true` when keys encode directly into the cell key word.
    const INLINE: bool = false;

    /// The master hash (§5.7): the scaled top bits choose the home cell;
    /// for boxed keys the low bits provide the signature and the full
    /// value is stored in the key allocation so migrations re-derive home
    /// cells without touching the key itself.
    fn hash64(&self) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Encode an inline key into its cell word (`2..=`[`MAX_MARKABLE_KEY`]).
    fn encode(&self) -> u64 {
        unreachable!("KeyRepr::encode is only called when INLINE is true")
    }

    /// Decode an inline cell word back into the key.
    fn decode(_word: u64) -> Self {
        unreachable!("KeyRepr::decode is only called when INLINE is true")
    }

    /// The bytes a boxed key is stored and compared as, without
    /// allocating.  Equal keys must yield equal bytes and distinct keys
    /// distinct bytes.
    fn key_bytes(&self) -> impl AsRef<[u8]> + '_ {
        unreachable!("KeyRepr::key_bytes is only called when INLINE is false") as &[u8]
    }
}

impl KeyRepr for u64 {
    const INLINE: bool = true;

    #[inline]
    fn hash64(&self) -> u64 {
        hash_key(*self)
    }

    #[inline]
    fn encode(&self) -> u64 {
        // Same key-space contract as the word tables: 0/1 are sentinels,
        // bit 63 is the migration mark (§5.6 describes how to win the
        // reserved encodings back; `crate::keyspace` implements it).
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(self),
            "key {self:#x} is reserved"
        );
        *self
    }

    #[inline]
    fn decode(word: u64) -> Self {
        word
    }
}

impl KeyRepr for u32 {
    const INLINE: bool = true;

    #[inline]
    fn hash64(&self) -> u64 {
        hash_key(u64::from(*self))
    }

    #[inline]
    fn encode(&self) -> u64 {
        // Shift past the two sentinels; the result stays far below the
        // mark bit, so the full u32 range is usable.
        u64::from(*self) + 2
    }

    #[inline]
    fn decode(word: u64) -> Self {
        (word - 2) as u32
    }
}

impl KeyRepr for String {
    /// The §5.7 FNV-1a master hash, so a `GrowMap<String, u64>` places
    /// keys exactly like the bounded [`crate::complex::StringKeyTable`].
    #[inline]
    fn hash64(&self) -> u64 {
        crate::complex::hash_str(self)
    }

    #[inline]
    fn key_bytes(&self) -> impl AsRef<[u8]> + '_ {
        self.as_bytes()
    }
}

impl KeyRepr for (u32, u32) {
    /// Pairs pack into one word for hashing (not for cell storage: 64 bits
    /// of payload cannot share a word with the sentinels and the mark
    /// bit, so pair keys are boxed as that word's bytes).
    #[inline]
    fn hash64(&self) -> u64 {
        hash_key(pair_word(*self))
    }

    #[inline]
    fn key_bytes(&self) -> impl AsRef<[u8]> + '_ {
        pair_word(*self).to_le_bytes()
    }
}

/// The word a pair key packs into: first half high, second half low.
#[inline]
fn pair_word((hi, lo): (u32, u32)) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// How a value type maps onto the cell's value word.
///
/// * **inline** (`INLINE = true`): the value is the word.  Any encoding
///   works — the value word carries no sentinel once the key word is
///   published (empty cells are claimed with the full `⟨EMPTY, 0⟩` pair
///   CAS, so a published key can never be paired with an unpublished
///   value).  Provided for `u64`, `u32` and `()`.
/// * **boxed** (`INLINE = false`, the default): the value is cloned into
///   a plain `Box<V>` and the word is the raw pointer.  Atomic updates
///   allocate the derived value first and swing the value word with a
///   full-cell CAS; the displaced box is QSBR-retired.
pub trait ValueRepr: Clone + Send + Sync + 'static {
    /// `true` when values encode directly into the cell value word.
    const INLINE: bool = false;

    /// Encode an inline value into its cell word.
    fn encode_inline(&self) -> u64 {
        unreachable!("ValueRepr::encode_inline is only called when INLINE is true")
    }

    /// Decode an inline cell word back into the value.
    fn decode_inline(_word: u64) -> Self {
        unreachable!("ValueRepr::decode_inline is only called when INLINE is true")
    }
}

impl ValueRepr for u64 {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        *self
    }

    #[inline]
    fn decode_inline(word: u64) -> Self {
        word
    }
}

impl ValueRepr for u32 {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn decode_inline(word: u64) -> Self {
        word as u32
    }
}

/// Unit values make the map a concurrent set.
impl ValueRepr for () {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        0
    }

    #[inline]
    fn decode_inline(_word: u64) -> Self {}
}

/// Fixed-size arrays are the canonical pointer-packed value: too wide for
/// the cell word, cheap to clone, no drop side effects.
impl<const N: usize> ValueRepr for [u64; N] {}

// ---------------------------------------------------------------------------
// Out-of-line allocations
// ---------------------------------------------------------------------------

/// `true` when an (unmarked) boxed-key word is a published packed
/// reference (sentinels are `< 2`, packed words are `≥ 2⁴⁸`).
#[inline]
fn is_packed(word: u64) -> bool {
    word >= (1 << POINTER_BITS)
}

/// Read the value behind a published value word.
///
/// # Safety
///
/// For boxed `V` the word must have been read from a cell of a live
/// generation and the calling handle must not have quiesced since.
#[inline]
unsafe fn read_value<V: ValueRepr>(word: u64) -> V {
    if V::INLINE {
        V::decode_inline(word)
    } else {
        // SAFETY: per the contract above the box is QSBR-protected.
        unsafe { (*(word as *const V)).clone() }
    }
}

/// An erased key allocation retired into the QSBR domain: dropping it
/// (after every handle quiesced, or at domain teardown) frees the
/// allocation exactly once.
struct RetiredKey(*const u8);

// SAFETY: the key allocation is plain immutable bytes; the wrapper is only
// dropped when no thread can still dereference the pointer.
unsafe impl Send for RetiredKey {}

impl Drop for RetiredKey {
    fn drop(&mut self) {
        // SAFETY: by construction the wrapper holds the only free right.
        unsafe { free_key(self.0) };
    }
}

/// A displaced or erased value box retired into the QSBR domain.
struct RetiredValue<V>(*mut V);

// SAFETY: see `RetiredKey`.
unsafe impl<V: Send> Send for RetiredValue<V> {}

impl<V> Drop for RetiredValue<V> {
    fn drop(&mut self) {
        // SAFETY: by construction the wrapper holds the only free right.
        unsafe { drop(Box::from_raw(self.0)) };
    }
}

// ---------------------------------------------------------------------------
// The per-operation probe context
// ---------------------------------------------------------------------------

/// The bytes of a boxed key, taken once per operation and borrowed by
/// its [`Probe`] (`None` for inline keys, which compare encoded words).
#[inline]
fn key_bytes_of<K: KeyRepr>(key: &K) -> Option<impl AsRef<[u8]> + '_> {
    (!K::INLINE).then(|| key.key_bytes())
}

/// Everything an operation derives from its key once, up front: the
/// master hash, and either the encoded inline word or the 15-bit packing
/// signature plus the key's bytes.  The `K::INLINE` branches below are
/// monomorphized away, so the inline instantiation probes with one integer
/// compare per cell — the same cell ops as the word table.
struct Probe<'k, K: KeyRepr> {
    hash: u64,
    /// Inline keys: the encoded cell word.  Boxed keys: the signature.
    word_or_sig: u64,
    /// Boxed keys: the key's bytes.  Inline keys: empty.
    bytes: &'k [u8],
    _key: PhantomData<fn(&K)>,
}

impl<'k, K: KeyRepr> Probe<'k, K> {
    /// `bytes` is [`key_bytes_of`]`(key)`.
    #[inline]
    fn new<B: AsRef<[u8]>>(key: &K, bytes: &'k Option<B>) -> Self {
        let hash = key.hash64();
        let word_or_sig = if K::INLINE {
            key.encode()
        } else {
            signature_of(hash)
        };
        Probe {
            hash,
            word_or_sig,
            bytes: bytes.as_ref().map_or(&[], AsRef::as_ref),
            _key: PhantomData,
        }
    }

    /// `true` when the published (unmarked, non-sentinel) key word `k`
    /// stores this probe's key.
    ///
    /// # Safety
    ///
    /// For boxed keys, `k` must have been read from a cell of a live
    /// generation and the calling handle must not have quiesced since.
    #[inline]
    unsafe fn matches(&self, k: u64) -> bool {
        if K::INLINE {
            k == self.word_or_sig
        } else {
            // SAFETY: QSBR-protected per the contract above.
            is_packed(k) && unsafe { key_matches(k, self.word_or_sig, self.hash, self.bytes) }
        }
    }
}

/// Owns the not-yet-published out-of-line allocations of an insertion
/// across operation retries, so a migration loop never allocates twice;
/// freed on drop — including an unwind out of a migration help call or an
/// injected fault — so a crashed operation never leaks them.  Publishing
/// the cell transfers ownership to the table ([`PendingCell::published`]).
struct PendingCell<K: KeyRepr, V: ValueRepr> {
    key_word: Option<u64>,
    value_word: Option<u64>,
    _marker: PhantomData<(K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> PendingCell<K, V> {
    fn new() -> Self {
        PendingCell {
            key_word: None,
            value_word: None,
            _marker: PhantomData,
        }
    }

    /// The key word to publish, allocating the key at most once.
    #[inline]
    fn key_word(&mut self, probe: &Probe<'_, K>) -> u64 {
        if K::INLINE {
            probe.word_or_sig
        } else {
            *self.key_word.get_or_insert_with(|| {
                pack_keyref(probe.word_or_sig, allocate_key(probe.hash, probe.bytes))
            })
        }
    }

    /// The value word to publish, allocating the value box at most once.
    #[inline]
    fn value_word(&mut self, value: &V) -> u64 {
        if V::INLINE {
            value.encode_inline()
        } else {
            *self
                .value_word
                .get_or_insert_with(|| Box::into_raw(Box::new(value.clone())) as u64)
        }
    }

    /// The claim CAS won: the table owns both allocations now.
    #[inline]
    fn published(&mut self) {
        self.key_word = None;
        self.value_word = None;
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for PendingCell<K, V> {
    fn drop(&mut self) {
        if let Some(word) = self.key_word.take() {
            // SAFETY: allocated by this operation and never published.
            unsafe { free_key(decode_keyref(word).1) };
        }
        if let Some(word) = self.value_word.take() {
            // SAFETY: allocated by this operation and never published.
            unsafe { drop(Box::from_raw(word as *mut V)) };
        }
    }
}

// ---------------------------------------------------------------------------
// The generic cell array (one table generation)
// ---------------------------------------------------------------------------

/// Per-element outcome of the array-level operations.
enum MapOutcome {
    /// A new element was inserted.
    Inserted,
    /// Plain insert: the key already exists.
    Present,
    /// The value was replaced; carries the displaced value box's word for
    /// QSBR retirement (`None` for inline values).
    Updated(Option<u64>),
    /// The key is absent.
    NotFound,
    /// Probe limit reached: grow, then retry.
    Full,
    /// A marked cell was encountered: help the migration, then retry.
    Migrating,
}

enum MapErase {
    /// The cell was tombstoned; carries the displaced words for QSBR
    /// retirement of their out-of-line allocations.
    Erased {
        key_word: u64,
        value_word: u64,
    },
    NotFound,
    Migrating,
}

/// One table generation: a power-of-two array of word-table cells whose
/// words are interpreted through `K`'s and `V`'s representations.  The
/// array never owns the out-of-line allocations (they outlive
/// generations); the subsystem frees live ones when the whole map drops
/// and displaced ones through the QSBR domain.
struct GenericArray<K: KeyRepr, V: ValueRepr> {
    cells: crate::mem::HugeBox<Cell>,
    capacity: usize,
    version: u64,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> GenericArray<K, V> {
    fn new(capacity: usize, version: u64) -> Self {
        Self::try_new(capacity, version).expect("initial generic-table allocation failed")
    }

    /// Fallible constructor used by migrations: an OOM while allocating
    /// the next generation degrades to "keep serving the old one".
    fn try_new(capacity: usize, version: u64) -> Result<Self, crate::mem::AllocError> {
        assert!(capacity.is_power_of_two());
        Ok(GenericArray {
            cells: crate::mem::HugeBox::try_zeroed(capacity)?,
            capacity,
            version,
            _marker: PhantomData,
        })
    }

    #[inline]
    fn home_cell(&self, hash: u64) -> usize {
        scale_to_capacity(hash, self.capacity)
    }

    #[inline]
    fn probe_limit(&self) -> usize {
        self.capacity.min(PROBE_LIMIT)
    }

    /// Look up the probe's key.  Reads tolerate marked (frozen) cells:
    /// the frozen contents are the linearizable state at freeze time.
    fn find(&self, probe: &Probe<'_, K>) -> Option<V> {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            // Key read before value (§4): the pair-CAS publication means
            // a torn read can only observe a newer value for this key.
            let (k, v) = self.cells[index].read();
            let plain = unmark(k);
            if plain == EMPTY_KEY {
                return None;
            }
            // SAFETY: out-of-line words observed through a live array are
            // QSBR-protected until this handle's next quiescent state.
            if plain != DEL_KEY && unsafe { probe.matches(plain) } {
                return Some(unsafe { read_value::<V>(v) });
            }
            index = (index + 1) & (self.capacity - 1);
        }
        None
    }

    /// Insert, or insert-or-update when `update` is given.  `pending`
    /// carries the (at most one) out-of-line allocation pair across
    /// retries; on `Inserted` it is consumed (published).
    fn upsert<F: Fn(&V) -> V>(
        &self,
        probe: &Probe<'_, K>,
        value: &V,
        update: Option<&F>,
        pending: &mut PendingCell<K, V>,
    ) -> MapOutcome {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return MapOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    let key_word = pending.key_word(probe);
                    let value_word = pending.value_word(value);
                    match cell.cas_pair((EMPTY_KEY, 0), (key_word, value_word)) {
                        Ok(()) => {
                            pending.published();
                            return MapOutcome::Inserted;
                        }
                        Err(_) => continue, // re-examine the claimed cell
                    }
                }
                if k == DEL_KEY {
                    break; // tombstone: reclaimed by the next migration
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    let Some(up) = update else {
                        return MapOutcome::Present;
                    };
                    return match self.update_cell(cell, k, v, up) {
                        Ok(outcome) => outcome,
                        Err(()) => continue, // CAS failed: re-read the cell
                    };
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapOutcome::Full
    }

    /// Replace the value of an existing key (no insertion).
    fn update<F: Fn(&V) -> V>(&self, probe: &Probe<'_, K>, up: &F) -> MapOutcome {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return MapOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    return MapOutcome::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    match self.update_cell(cell, k, v, up) {
                        Ok(outcome) => return outcome,
                        Err(()) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapOutcome::NotFound
    }

    /// One read–derive–CAS update attempt on a matched cell.  The
    /// full-cell CAS is mark-aware: it fails if a migration froze the
    /// cell (or an eraser tombstoned it, or another updater won) after
    /// the read, so no derived value can leak into an already-copied or
    /// deleted cell.  `Err(())` asks the caller to re-read.
    #[inline]
    fn update_cell<F: Fn(&V) -> V>(
        &self,
        cell: &Cell,
        k: u64,
        v: u64,
        up: &F,
    ) -> Result<MapOutcome, ()> {
        // SAFETY: `v` was read from a live cell; the handle has not
        // quiesced since (QSBR also makes this ABA-safe: the old box
        // cannot be freed and reallocated within the operation).
        let current = unsafe { read_value::<V>(v) };
        let derived = up(&current);
        let new_word = if V::INLINE {
            derived.encode_inline()
        } else {
            Box::into_raw(Box::new(derived)) as u64
        };
        match cell.cas_pair((k, v), (k, new_word)) {
            Ok(()) => Ok(MapOutcome::Updated((!V::INLINE).then_some(v))),
            Err(_) => {
                if !V::INLINE {
                    // SAFETY: just allocated above, never published.
                    unsafe { drop(Box::from_raw(new_word as *mut V)) };
                }
                Err(())
            }
        }
    }

    /// Tombstone the probe's key.  The value word is preserved in the
    /// tombstone CAS expectation so a racing value update cannot be
    /// silently dropped; the caller receives both displaced words for
    /// deferred reclamation.
    fn erase(&self, probe: &Probe<'_, K>) -> MapErase {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    let plain = unmark(k);
                    if plain == EMPTY_KEY {
                        return MapErase::NotFound;
                    }
                    // SAFETY: see `find`.
                    if plain != DEL_KEY && unsafe { probe.matches(plain) } {
                        return MapErase::Migrating;
                    }
                    break;
                }
                if k == EMPTY_KEY {
                    return MapErase::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    match cell.cas_pair((k, v), (DEL_KEY, v)) {
                        Ok(()) => {
                            return MapErase::Erased {
                                key_word: k,
                                value_word: v,
                            }
                        }
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapErase::NotFound
    }

    /// Count live elements (quiescent scan).
    fn scan_live(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| unmark(c.load_key()) > DEL_KEY)
            .count()
    }
}

/// Freeze the cells `[block_start, block_end)` of `src` and re-insert the
/// live elements into `dst`, re-deriving each home cell from the master
/// hash (stored in the key allocation for boxed keys, recomputed from the
/// decoded word for inline ones).  The rehash migration path — correct
/// for any capacity ratio, including cleanup and shrink steps.  Returns
/// the number of live elements moved.
///
/// **Idempotent**: marking is a one-way freeze, so every re-copy observes
/// the same frozen pairs, and the placement loop skips a target cell that
/// already holds the same key word — inline words identify the key
/// directly, packed words by allocation identity.  Only the copy that
/// claims the empty target cell counts the element, so `migrated` stays
/// exact.
fn migrate_generic_block<K: KeyRepr, V: ValueRepr>(
    src: &GenericArray<K, V>,
    dst: &GenericArray<K, V>,
    block_start: usize,
    block_end: usize,
) -> usize {
    let mut migrated = 0usize;
    for index in block_start..block_end {
        // Freeze: after the mark no writer can touch the cell, so the
        // returned pair is final.  Tombstones are dropped here (their
        // allocations were already retired at erase time).
        let (k, v) = src.cells[index].mark_for_migration();
        if k <= DEL_KEY {
            continue;
        }
        let hash = if K::INLINE {
            K::decode(k).hash64()
        } else {
            // SAFETY: the reference was live when frozen; erased keys
            // are only freed after all handles quiesce, and migrating
            // threads quiesce only between operations.
            unsafe { stored_hash(decode_keyref(k).1) }
        };
        let mut pos = dst.home_cell(hash);
        let mut walked = 0usize;
        loop {
            assert!(
                walked <= dst.capacity,
                "generic migration found no empty target cell"
            );
            let existing = dst.cells[pos].load_key();
            if existing == k {
                // An earlier copy of this block already placed the
                // element; nothing to do (and nothing to count).
                break;
            }
            if existing == EMPTY_KEY {
                match dst.cells[pos].cas_pair((EMPTY_KEY, 0), (k, v)) {
                    Ok(()) => {
                        migrated += 1;
                        break;
                    }
                    Err(_) => continue, // re-read the claimed cell
                }
            }
            pos = (pos + 1) & (dst.capacity - 1);
            walked += 1;
        }
    }
    migrated
}

// ---------------------------------------------------------------------------
// The shared inner + coordinator instantiation
// ---------------------------------------------------------------------------

/// Everything shared between handles and the owner.  The migration
/// machinery is the shared §12 coordinator ([`crate::coord`]),
/// instantiated with enslavement and asynchronous marking, no pool, no
/// synchronized quiescence, no degenerate-cluster recovery.
struct GenericInner<K: KeyRepr, V: ValueRepr> {
    current: VersionedArc<GenericArray<K, V>>,
    counts: GlobalCount,
    coordinator: Coordinator<GenericArray<K, V>>,
    grow: GrowConfig,
    threads_hint: usize,
    domain: Arc<QsbrDomain>,
    handle_seed: AtomicU64,
}

impl<K: KeyRepr, V: ValueRepr> GrowProtocol for GenericInner<K, V> {
    type Gen = GenericArray<K, V>;
    type Leader = ();

    const FP_PREPARE_ALLOC: &'static str = "generic.prepare.alloc";
    const FP_BLOCK_CLAIMED: &'static str = "generic.block.claimed";
    const FP_FINALIZE: &'static str = "generic.finalize";

    fn coord(&self) -> &Coordinator<GenericArray<K, V>> {
        &self.coordinator
    }

    fn generations(&self) -> &VersionedArc<GenericArray<K, V>> {
        &self.current
    }

    fn counts(&self) -> &GlobalCount {
        &self.counts
    }

    fn grow_config(&self) -> &GrowConfig {
        &self.grow
    }

    fn capacity_of(array: &GenericArray<K, V>) -> usize {
        array.capacity
    }

    fn alloc_generation(
        &self,
        _source: &GenericArray<K, V>,
        new_capacity: usize,
        version: u64,
    ) -> Result<GenericArray<K, V>, crate::mem::AllocError> {
        GenericArray::try_new(new_capacity, version)
    }

    fn copy_range(
        &self,
        job: &MigrationJob<GenericArray<K, V>>,
        start: usize,
        end: usize,
    ) -> usize {
        migrate_generic_block(&job.source, &job.target, start, end)
    }
}

// ---------------------------------------------------------------------------
// The public facade
// ---------------------------------------------------------------------------

/// A concurrent, transparently growing hash map over arbitrary key and
/// value types — the typed facade over the word-table machinery.
///
/// Word-sized keys and values ([`KeyRepr::INLINE`]/[`ValueRepr::INLINE`])
/// are stored inline in the 16-byte cells, so `GrowMap<u64, u64>`
/// performs the same cell operations as [`crate::grow::GrowingTable`];
/// larger types go behind §5.7 packed references with QSBR-deferred
/// reclamation.  The
/// growing strategy is enslavement with asynchronous marking (the
/// paper's default, uaGrow), run by the shared §12 coordinator.
///
/// ```
/// use growt_core::generic::GrowMap;
///
/// let map: GrowMap<String, u64> = GrowMap::new(16);
/// let mut h = map.handle();
/// h.insert(&"answer".to_string(), &42);
/// assert_eq!(h.find(&"answer".to_string()), Some(42));
/// h.insert_or_update(&"answer".to_string(), &1, |cur| cur + 1);
/// assert_eq!(h.find(&"answer".to_string()), Some(43));
/// ```
pub struct GrowMap<K: KeyRepr, V: ValueRepr> {
    inner: Arc<GenericInner<K, V>>,
}

impl<K: KeyRepr, V: ValueRepr> GrowMap<K, V> {
    /// Create a map with an initial capacity hint, the given growth
    /// policy and an expected thread count (sizes the randomized counter
    /// flush threshold).
    pub fn with_config(initial_capacity: usize, grow: GrowConfig, threads_hint: usize) -> Self {
        let capacity = capacity_for(initial_capacity.max(2));
        GrowMap {
            inner: Arc::new(GenericInner {
                current: VersionedArc::new(GenericArray::new(capacity, 1)),
                counts: GlobalCount::new(),
                coordinator: Coordinator::new(),
                grow,
                threads_hint: threads_hint.max(1),
                domain: Arc::new(QsbrDomain::new()),
                handle_seed: AtomicU64::new(0x9E3779B97F4A7C15),
            }),
        }
    }

    /// Create a map with the default growth policy.
    pub fn new(initial_capacity: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_config(initial_capacity, GrowConfig::default(), threads)
    }

    /// Obtain a per-thread handle (§5.1).
    pub fn handle(&self) -> GrowMapHandle<'_, K, V> {
        GrowMapHandle::new(&self.inner)
    }

    /// Number of completed migrations (growth, cleanup or shrink steps).
    pub fn migrations_completed(&self) -> u64 {
        self.inner
            .coordinator
            .migrations_completed
            .load(Ordering::Acquire)
    }

    /// Capacity of the current table generation.
    pub fn current_capacity(&self) -> usize {
        self.inner.current.with_current(|a| a.capacity)
    }

    /// Approximate number of live elements (`I − D`, §5.2).
    pub fn size_estimate(&self) -> usize {
        self.inner.counts.live_estimate() as usize
    }

    /// Exact number of live elements, valid only in the absence of
    /// concurrent modifications.
    pub fn size_exact_quiescent(&self) -> usize {
        self.inner.current.with_current(|a| a.scan_live())
    }

    /// Out-of-line allocations retired but not yet reclaimed by the QSBR
    /// domain.
    pub fn pending_reclamation(&self) -> usize {
        self.inner.domain.pending()
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for GrowMap<K, V> {
    fn drop(&mut self) {
        // All handles are gone (they borrow `self`), so the current array
        // holds the only reachable copy of every live out-of-line
        // allocation; retired generations alias a subset of them and are
        // never freed from.  Displaced allocations live solely in the
        // QSBR limbo list, whose deferred drops run when the domain drops
        // with the inner.
        if K::INLINE && V::INLINE {
            return;
        }
        self.inner.current.with_current(|array| {
            for cell in array.cells.iter() {
                let (k, v) = cell.read();
                let plain = unmark(k);
                if plain > DEL_KEY {
                    if !K::INLINE {
                        // SAFETY: exclusive access; live keys are owned
                        // by the subsystem and freed exactly here.
                        unsafe { free_key(decode_keyref(plain).1) };
                    }
                    if !V::INLINE {
                        // SAFETY: as above — tombstoned cells' value
                        // words were already retired at erase time and
                        // are skipped with their key words.
                        unsafe { drop(Box::from_raw(v as *mut V)) };
                    }
                }
            }
        });
    }
}

// SAFETY: the raw pointers inside cells reference heap allocations whose
// lifetime is managed by the subsystem (QSBR for displaced ones, map drop
// for live ones); all shared mutation goes through atomics, and the
// KeyRepr/ValueRepr bounds make K and V themselves Send + Sync.
unsafe impl<K: KeyRepr, V: ValueRepr> Send for GrowMap<K, V> {}
unsafe impl<K: KeyRepr, V: ValueRepr> Sync for GrowMap<K, V> {}

/// How many operations a handle performs between automatic quiescent-state
/// announcements.  Each announcement is a store to the participant's own
/// state plus an opportunistic reclamation attempt, so the cadence
/// amortizes the (mutex-protected) reclamation scan while keeping the
/// reclamation lag bounded by a few dozen operations per handle.
const QUIESCE_INTERVAL: u32 = 64;

/// Per-thread handle of a [`GrowMap`] (§5.1).
pub struct GrowMapHandle<'a, K: KeyRepr, V: ValueRepr> {
    inner: &'a GenericInner<K, V>,
    cached: CachedArc<GenericArray<K, V>>,
    local: LocalCount,
    qsbr: QsbrParticipant,
    since_quiesce: u32,
}

impl<'a, K: KeyRepr, V: ValueRepr> GrowMapHandle<'a, K, V> {
    fn new(inner: &'a GenericInner<K, V>) -> Self {
        let seed = inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let cached = CachedArc::new(&inner.current);
        let bound = flush_bound(inner.threads_hint, cached.cached().capacity);
        GrowMapHandle {
            cached,
            local: LocalCount::new(bound, seed),
            qsbr: inner.domain.register(),
            since_quiesce: 0,
            inner,
        }
    }

    /// The zero-shared-traffic operation prologue (§5.3.2): borrow the
    /// current generation from the handle-local cache — one version load,
    /// no `Arc::clone`, no shared refcount RMW.
    #[inline]
    fn array_ref<'t>(
        cached: &'t mut CachedArc<GenericArray<K, V>>,
        local: &mut LocalCount,
        inner: &GenericInner<K, V>,
    ) -> &'t GenericArray<K, V> {
        let (array, refreshed) = cached.get_ref(&inner.current);
        if refreshed {
            Self::reset_local_counts(local, inner, array.capacity);
        }
        array
    }

    /// Refresh epilogue, once per handle per migration: pending local
    /// counts belong to an already-migrated generation whose elements the
    /// migration counted exactly, and the flush threshold is re-sized for
    /// the new generation's capacity.
    #[cold]
    fn reset_local_counts(local: &mut LocalCount, inner: &GenericInner<K, V>, capacity: usize) {
        *local = LocalCount::new(
            flush_bound(inner.threads_hint, capacity),
            inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
        );
    }

    /// Operation epilogue: announce a quiescent state every
    /// [`QUIESCE_INTERVAL`] operations so the domain can free retired
    /// allocations.
    #[inline]
    fn op_done(&mut self) {
        self.since_quiesce += 1;
        if self.since_quiesce >= QUIESCE_INTERVAL {
            self.since_quiesce = 0;
            self.qsbr.quiescent();
        }
    }

    /// Handle a successful insertion: update the approximate count and
    /// trigger a migration when the fill threshold is reached (§5.2).
    #[inline]
    fn after_insert(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                self.inner.grow(version, &());
            }
        }
    }

    /// Best-effort variant for the `try_*` operations: a growth trigger
    /// that cannot allocate is dropped (a later insert re-triggers it).
    #[inline]
    fn after_insert_best_effort(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                let _ = self.inner.try_grow(version, &());
            }
        }
    }

    #[inline]
    fn after_delete(&mut self) {
        self.local.record_deletion(&self.inner.counts);
    }

    /// Retire the out-of-line allocations displaced by an erase.
    #[inline]
    fn retire_erased(&mut self, key_word: u64, value_word: u64) {
        if !K::INLINE {
            self.qsbr.retire(RetiredKey(decode_keyref(key_word).1));
        }
        if !V::INLINE {
            self.qsbr.retire(RetiredValue::<V>(value_word as *mut V));
        }
    }

    /// Retire the value box displaced by an update, if any.
    #[inline]
    fn retire_updated(&mut self, displaced: Option<u64>) {
        if let Some(word) = displaced {
            self.qsbr.retire(RetiredValue::<V>(word as *mut V));
        }
    }

    /// Insert `⟨key, value⟩`; returns `true` iff the key was not present.
    pub fn insert(&mut self, key: &K, value: &V) -> bool {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let mut pending = PendingCell::new();
        let inserted = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, None::<&fn(&V) -> V>, &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break true;
                }
                MapOutcome::Present => break false,
                MapOutcome::Full => self.inner.grow(version, &()),
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: plain upsert never updates and never reports
                // an absent key as anything but an insertion (or `Full`).
                MapOutcome::Updated(_) | MapOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        inserted
    }

    /// Fallible [`GrowMapHandle::insert`]: when making room would require
    /// growing and the next generation cannot be allocated within a
    /// bounded number of retries, returns `Err(TryGrowError)` instead of
    /// blocking until memory appears.  The element is **not** inserted on
    /// error; the map stays valid and keeps serving its current
    /// generation.
    pub fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let mut pending = PendingCell::new();
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, None::<&fn(&V) -> V>, &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(true);
                }
                MapOutcome::Present => break Ok(false),
                MapOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(TryGrowError);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::Updated(_) | MapOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Look up the value stored for `key`.  May run on a slightly stale
    /// (frozen, immutable) generation, which is linearizable exactly like
    /// the word table's stale reads.
    pub fn find(&mut self, key: &K) -> Option<V> {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
        let found = array.find(&probe);
        self.op_done();
        found
    }

    /// Atomically replace the value of an existing `key` by
    /// `up(current)`; returns `true` iff an element was present.  No
    /// concurrent interleaving with other updaters, erasers or migrations
    /// can lose an update.
    pub fn update<F: Fn(&V) -> V>(&mut self, key: &K, up: F) -> bool {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let updated = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.update(&probe, &up) {
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break true;
                }
                MapOutcome::NotFound => break false,
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: `update` never inserts and reports an
                // exhausted probe as `NotFound`, not `Full`.
                MapOutcome::Inserted | MapOutcome::Present | MapOutcome::Full => unreachable!(),
            }
        };
        self.op_done();
        updated
    }

    /// Insert `⟨key, value⟩` if absent, otherwise atomically replace the
    /// stored value by `up(current)` — the generalized aggregation
    /// primitive (`insert_or_update(&k, &1, |c| c + 1)` is the word-count
    /// loop of the paper's introduction).
    pub fn insert_or_update<F: Fn(&V) -> V>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
    ) -> InsertOrUpdate {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let mut pending = PendingCell::new();
        let outcome = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, Some(&up), &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break InsertOrUpdate::Inserted;
                }
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break InsertOrUpdate::Updated;
                }
                MapOutcome::Full => self.inner.grow(version, &()),
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: upsert reports an absent key by inserting it
                // (or `Full`), never as `NotFound` or `Present`.
                MapOutcome::NotFound | MapOutcome::Present => unreachable!(),
            }
        };
        self.op_done();
        outcome
    }

    /// Fallible [`GrowMapHandle::insert_or_update`]; see
    /// [`GrowMapHandle::try_insert`] for the error contract.  Neither the
    /// insertion nor the update is applied on error.
    pub fn try_insert_or_update<F: Fn(&V) -> V>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let mut pending = PendingCell::new();
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, Some(&up), &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(InsertOrUpdate::Inserted);
                }
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break Ok(InsertOrUpdate::Updated);
                }
                MapOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(TryGrowError);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::NotFound | MapOutcome::Present => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Delete `key`: tombstone the cell and retire its out-of-line
    /// allocations into the QSBR domain (freed once every handle has
    /// passed a quiescent state, §5.4 + §5.7).
    pub fn erase(&mut self, key: &K) -> bool {
        let bytes = key_bytes_of(key);
        let probe = Probe::new(key, &bytes);
        let erased = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.erase(&probe) {
                MapErase::Erased {
                    key_word,
                    value_word,
                } => {
                    self.retire_erased(key_word, value_word);
                    growt_failpoints::fire("generic.erase.retired");
                    self.after_delete();
                    break true;
                }
                MapErase::NotFound => break false,
                MapErase::Migrating => self.inner.help_or_wait(version),
            }
        };
        self.op_done();
        erased
    }

    /// Announce a quiescent state immediately (also runs automatically
    /// every [`QUIESCE_INTERVAL`] operations).
    pub fn quiesce(&mut self) {
        self.since_quiesce = 0;
        self.qsbr.quiescent();
    }

    /// Approximate number of live elements.
    pub fn size_estimate(&mut self) -> usize {
        self.inner.counts.live_estimate() as usize
    }

    /// Flush the handle's buffered counter contributions.  Counts buffered
    /// for a generation that has since been replaced are not flushed: the
    /// migration already counted those elements.
    pub fn flush_counts(&mut self) {
        if self.cached.cached_version() == self.inner.current.version() {
            self.local.flush(&self.inner.counts);
        }
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for GrowMapHandle<'_, K, V> {
    fn drop(&mut self) {
        self.flush_counts();
        // The participant's own Drop unregisters it from the domain and
        // runs a final reclamation attempt.
    }
}

impl<K: KeyRepr, V: ValueRepr> GenericMap<K, V> for GrowMap<K, V> {
    type Handle<'a> = GrowMapHandle<'a, K, V>;

    fn with_capacity(capacity: usize) -> Self {
        GrowMap::new(capacity)
    }

    fn handle(&self) -> GrowMapHandle<'_, K, V> {
        GrowMap::handle(self)
    }

    fn map_name() -> &'static str {
        "growMap"
    }
}

impl<K: KeyRepr, V: ValueRepr> GenericMapHandle<K, V> for GrowMapHandle<'_, K, V> {
    fn insert(&mut self, key: &K, value: &V) -> bool {
        GrowMapHandle::insert(self, key, value)
    }

    fn find(&mut self, key: &K) -> Option<V> {
        GrowMapHandle::find(self, key)
    }

    fn update(&mut self, key: &K, up: &dyn Fn(&V) -> V) -> bool {
        GrowMapHandle::update(self, key, up)
    }

    fn insert_or_update(&mut self, key: &K, value: &V, up: &dyn Fn(&V) -> V) -> InsertOrUpdate {
        GrowMapHandle::insert_or_update(self, key, value, up)
    }

    fn erase(&mut self, key: &K) -> bool {
        GrowMapHandle::erase(self, key)
    }

    fn quiesce(&mut self) {
        GrowMapHandle::quiesce(self)
    }

    fn size_estimate(&mut self) -> usize {
        GrowMapHandle::size_estimate(self)
    }

    fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        GrowMapHandle::try_insert(self, key, value)
    }

    fn try_insert_or_update(
        &mut self,
        key: &K,
        value: &V,
        up: &dyn Fn(&V) -> V,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        GrowMapHandle::try_insert_or_update(self, key, value, up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny<K: KeyRepr, V: ValueRepr>() -> GrowMap<K, V> {
        GrowMap::with_config(16, GrowConfig::default(), 4)
    }

    #[test]
    fn inline_map_round_trips_across_growth() {
        let map: GrowMap<u64, u64> = tiny();
        let mut h = map.handle();
        let n = 20_000u64;
        for i in 0..n {
            assert!(h.insert(&(i + 2), &(i * 3)));
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for i in 0..n {
            assert_eq!(h.find(&(i + 2)), Some(i * 3));
        }
        assert_eq!(map.size_exact_quiescent(), n as usize);
    }

    #[test]
    fn u32_keys_use_the_full_range() {
        let map: GrowMap<u32, u32> = tiny();
        let mut h = map.handle();
        for k in [0u32, 1, 2, u32::MAX - 1, u32::MAX] {
            assert!(h.insert(&k, &k.wrapping_add(7)));
        }
        for k in [0u32, 1, 2, u32::MAX - 1, u32::MAX] {
            assert_eq!(h.find(&k), Some(k.wrapping_add(7)));
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_inline_u64_keys_are_rejected() {
        let map: GrowMap<u64, u64> = tiny();
        map.handle().insert(&1, &1);
    }

    #[test]
    fn boxed_keys_and_values_round_trip_across_growth() {
        let map: GrowMap<String, [u64; 4]> = tiny();
        let mut h = map.handle();
        let n = 5_000u64;
        for i in 0..n {
            assert!(h.insert(&format!("k-{i}"), &[i, i + 1, i + 2, i + 3]));
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for i in 0..n {
            assert_eq!(h.find(&format!("k-{i}")), Some([i, i + 1, i + 2, i + 3]));
        }
        assert_eq!(map.size_exact_quiescent(), n as usize);
    }

    #[test]
    fn insert_or_update_aggregates_exactly_across_threads() {
        // The aggregation workload over a boxed value type: concurrent
        // read–derive–CAS updates must never lose an increment, even
        // while migrations freeze and re-place the cells.
        let map: GrowMap<u64, [u64; 4]> = tiny();
        let threads = 4u64;
        let per_thread = 5_000u64;
        let distinct = 100u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..per_thread {
                        let key = (i.wrapping_mul(t + 1)) % distinct + 2;
                        let lane = (i % 4) as usize;
                        let mut unit = [0u64; 4];
                        unit[lane] = 1;
                        h.insert_or_update(&key, &unit, |cur| {
                            let mut next = *cur;
                            next[lane] += 1;
                            next
                        });
                    }
                });
            }
        });
        let mut h = map.handle();
        let mut total = 0u64;
        for k in 0..distinct {
            let v = h.find(&(k + 2)).unwrap_or([0; 4]);
            total += v.iter().sum::<u64>();
        }
        assert_eq!(total, threads * per_thread, "lost increments");
        assert_eq!(map.size_exact_quiescent(), distinct as usize);
    }

    #[test]
    fn erase_and_reinsert_round_trip_with_boxed_values() {
        let map: GrowMap<String, [u64; 4]> = tiny();
        let mut h = map.handle();
        assert!(h.insert(&"transient".to_string(), &[5, 0, 0, 0]));
        assert!(h.update(&"transient".to_string(), |v| {
            let mut n = *v;
            n[0] += 3;
            n
        }));
        assert_eq!(h.find(&"transient".to_string()), Some([8, 0, 0, 0]));
        assert!(h.erase(&"transient".to_string()));
        assert!(!h.erase(&"transient".to_string()));
        assert_eq!(h.find(&"transient".to_string()), None);
        assert!(!h.update(&"transient".to_string(), |v| *v));
        assert!(h
            .insert_or_update(&"transient".to_string(), &[9, 9, 9, 9], |v| *v)
            .inserted());
        // Quiescing the only handle reclaims every retired allocation.
        h.quiesce();
        assert_eq!(map.pending_reclamation(), 0);
    }

    #[test]
    fn duplicate_inserts_have_one_winner_across_growth() {
        let map: GrowMap<String, u64> = tiny();
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let map = &map;
                let successes = &successes;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..3_000u64 {
                        if h.insert(&format!("dup-{i}"), &i) {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::Relaxed), 3_000);
        assert_eq!(map.size_exact_quiescent(), 3_000);
        assert!(map.migrations_completed() > 0);
    }

    #[test]
    fn grows_from_tiny_capacity_single_thread() {
        let map: GrowMap<String, u64> = tiny();
        let mut h = map.handle();
        let n = 20_000u64;
        for i in 0..n {
            assert!(h.insert(&format!("key-{i}"), &i), "insert key-{i}");
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        assert!(map.current_capacity() >= 2 * n as usize);
        for i in 0..n {
            assert_eq!(h.find(&format!("key-{i}")), Some(i), "find key-{i}");
        }
        assert_eq!(map.size_exact_quiescent(), n as usize);
        h.flush_counts();
        let estimate = h.size_estimate();
        assert!(
            (estimate as i64 - n as i64).abs() <= 64,
            "estimate {estimate} vs {n}"
        );
    }

    #[test]
    fn deletion_triggers_cleanup_and_bounds_capacity() {
        let map: GrowMap<String, u64> = GrowMap::with_config(1 << 10, GrowConfig::default(), 2);
        let mut h = map.handle();
        let window = 500u64;
        for i in 0..20_000u64 {
            assert!(h.insert(&format!("w-{i}"), &i));
            if i >= window {
                assert!(
                    h.erase(&format!("w-{}", i - window)),
                    "erase w-{}",
                    i - window
                );
            }
        }
        assert!(map.migrations_completed() > 0, "cleanup never ran");
        for i in 20_000 - window..20_000 {
            assert_eq!(h.find(&format!("w-{i}")), Some(i));
        }
        assert_eq!(h.find(&"w-0".to_string()), None);
        assert_eq!(map.size_exact_quiescent(), window as usize);
        assert!(
            map.current_capacity() <= 1 << 13,
            "capacity exploded: {}",
            map.current_capacity()
        );
        // Quiescing the only handle reclaims every retired allocation.
        h.quiesce();
        assert_eq!(map.pending_reclamation(), 0);
    }

    #[test]
    fn finds_remain_consistent_during_growth() {
        let map: GrowMap<String, u64> = tiny();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let (writer_map, stop_ref) = (&map, &stop);
            s.spawn(move || {
                let mut h = writer_map.handle();
                for i in 0..15_000u64 {
                    h.insert(&format!("c-{i}"), &i);
                }
                stop_ref.store(true, Ordering::Release);
            });
            for _ in 0..2 {
                let (map, stop_ref) = (&map, &stop);
                s.spawn(move || {
                    let mut h = map.handle();
                    let mut frontier = 0u64;
                    while !stop_ref.load(Ordering::Acquire) {
                        for i in 0..frontier {
                            assert_eq!(h.find(&format!("c-{i}")), Some(i), "lost c-{i}");
                        }
                        if h.find(&format!("c-{}", frontier + 500)).is_some() {
                            frontier += 500;
                        }
                    }
                });
            }
        });
        assert_eq!(map.size_exact_quiescent(), 15_000);
    }

    #[test]
    fn readers_race_erasers_safely() {
        // Readers dereference key allocations while an eraser concurrently
        // retires them into the QSBR domain; under the quiescence protocol
        // no probe may ever touch freed memory (any use-after-free
        // corrupts the key compare and fails the value assertions).
        let map: GrowMap<String, u64> = GrowMap::with_config(1 << 10, GrowConfig::default(), 4);
        let n = 2_000u64;
        {
            let mut h = map.handle();
            for i in 0..n {
                h.insert(&format!("re-{i}"), &(i + 1));
            }
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle();
                    for _ in 0..20 {
                        for i in 0..n {
                            if let Some(v) = h.find(&format!("re-{i}")) {
                                assert_eq!(v, i + 1, "corrupted value for re-{i}");
                            }
                        }
                    }
                });
            }
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                for i in 0..n {
                    assert!(h.erase(&format!("re-{i}")));
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(map.size_exact_quiescent(), 0);
    }

    #[test]
    fn pair_keys_work_as_a_dedup_set() {
        let map: GrowMap<(u32, u32), ()> = tiny();
        let mut h = map.handle();
        assert!(h.insert(&(1, 2), &()));
        assert!(!h.insert(&(1, 2), &()));
        assert!(h.insert(&(2, 1), &()));
        assert_eq!(h.find(&(1, 2)), Some(()));
        assert_eq!(h.find(&(3, 4)), None);
        assert!(h.erase(&(1, 2)));
        assert_eq!(h.find(&(1, 2)), None);
    }

    /// Drive every key through insert, find, update, erase and reinsert on
    /// a 16-cell map, with at least one growth migration between the steps.
    fn exercise_boxed_keys<K: KeyRepr + std::fmt::Debug>(keys: &[K], filler: impl Fn(u64) -> K) {
        let map: GrowMap<K, u64> = GrowMap::with_config(8, GrowConfig::default(), 1);
        assert_eq!(map.current_capacity(), 16);
        let mut h = map.handle();
        let mut fillers = 0u64;
        let mut migrate = |h: &mut GrowMapHandle<'_, K, u64>| {
            let before = map.migrations_completed();
            while map.migrations_completed() == before {
                assert!(h.insert(&filler(fillers), &u64::MAX));
                fillers += 1;
            }
        };
        let n = keys.len() as u64;
        for (i, key) in (0..n).zip(keys) {
            assert!(h.insert(key, &i), "insert {key:?}");
        }
        migrate(&mut h);
        for (i, key) in (0..n).zip(keys) {
            assert_eq!(h.find(key), Some(i), "find {key:?}");
            assert!(!h.insert(key, &u64::MAX), "duplicate insert {key:?}");
            assert!(h.update(key, |v| v + n), "update {key:?}");
        }
        migrate(&mut h);
        for (i, key) in (0..n).zip(keys) {
            assert_eq!(h.find(key), Some(i + n), "find updated {key:?}");
            assert!(h.erase(key), "erase {key:?}");
            assert_eq!(h.find(key), None, "find erased {key:?}");
            assert!(!h.erase(key), "erase erased {key:?}");
            assert!(!h.update(key, |v| v + 1), "update erased {key:?}");
        }
        migrate(&mut h);
        for (i, key) in (0..n).zip(keys) {
            assert_eq!(h.find(key), None, "erased {key:?} came back");
            let reinserted = h.insert_or_update(key, &(i + 2 * n), |v| v + 1);
            assert!(reinserted.inserted(), "reinsert {key:?}");
        }
        migrate(&mut h);
        for (i, key) in (0..n).zip(keys) {
            assert_eq!(h.find(key), Some(i + 2 * n), "find reinserted {key:?}");
        }
        assert!(map.migrations_completed() >= 4);
        assert_eq!(map.size_exact_quiescent(), keys.len() + fillers as usize);
    }

    #[test]
    fn boxed_string_edge_cases_survive_migrations() {
        // The empty key, a prefix chain (equal prefixes, different
        // lengths), a key far larger than a page, and multi-byte UTF-8.
        let keys: Vec<String> = [
            "",
            "a",
            "ab",
            "abc",
            "größe",
            "日本語",
            "🦀",
            "e\u{301}",
            "\u{e9}",
        ]
        .into_iter()
        .map(String::from)
        .chain([String::from_utf8(vec![b'x'; 100_000]).unwrap()])
        .collect();
        exercise_boxed_keys(&keys, |i| format!("filler-{i}"));
    }

    #[test]
    fn signature_collisions_resolved_by_full_compare() {
        // Two distinct keys with the same 15-bit signature and the same
        // home cell in a 16-cell table (equal top 4 hash bits), so one
        // probes past the other and only the full compare tells them apart.
        let home_and_sig = |k: &str| {
            let hash = crate::complex::hash_str(k);
            (hash >> 60, signature_of(hash))
        };
        let a = "collide-0".to_string();
        let b = (1..4_000_000)
            .map(|i| format!("collide-{i}"))
            .find(|c| home_and_sig(c) == home_and_sig(&a))
            .expect("no signature collision among 4M candidates");
        exercise_boxed_keys(&[a, b], |i| format!("filler-{i}"));
    }

    #[test]
    fn pair_key_edge_cases_survive_migrations() {
        // Swapped halves must stay distinct keys.
        let keys = [(1, 2), (2, 1), (0, u32::MAX), (u32::MAX, 0), (0, 0)];
        exercise_boxed_keys(&keys, |i| (i as u32 + 10, 7));
    }

    #[test]
    fn dropped_stale_handles_do_not_overcount() {
        // Counts buffered for a generation that a migration has replaced
        // were counted by the migration; flushing them again on drop would
        // overcount the estimate.
        let map: GrowMap<u64, u64> = GrowMap::with_config(4096, GrowConfig::default(), 64);
        let mut idle: Vec<_> = (0..16u64)
            .map(|i| {
                let mut h = map.handle();
                assert!(h.insert(&(2 + i), &i));
                h
            })
            .collect();
        let mut worker = map.handle();
        for k in 100..20_100u64 {
            assert!(worker.insert(&k, &k), "insert {k}");
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        worker.flush_counts();
        idle.clear();
        assert_eq!(map.size_estimate(), map.size_exact_quiescent());
    }

    #[test]
    fn growth_fires_between_the_trigger_and_the_flush_slack() {
        // Twin of the word table's test: a c-cell generation migrates after
        // at least ⌈0.6·c⌉ and fewer than ⌈0.6·c⌉ + flush_bound(p, c)
        // inserts of a single handle.
        for p in [1usize, 2] {
            let map: GrowMap<u64, u64> = GrowMap::with_config(32, GrowConfig::default(), p);
            let mut h = map.handle();
            let mut capacity = map.current_capacity();
            let mut migrations = 0;
            let mut inserted = 0u64;
            while migrations < 8 {
                inserted += 1;
                assert!(h.insert(&(1 + inserted), &inserted));
                if map.migrations_completed() > migrations {
                    let trigger = (0.6 * capacity as f64).ceil() as u64;
                    let slack = flush_bound(p, capacity) as u64;
                    assert!(
                        inserted >= trigger && inserted < trigger + slack,
                        "p={p}: {capacity} cells migrated after {inserted} inserts, \
                         trigger {trigger}, slack {slack}"
                    );
                    migrations += 1;
                    capacity = map.current_capacity();
                }
            }
        }
    }
}
