//! Complex (non-word) key support via indirection (paper §5.7).
//!
//! The fast tables of this crate restrict keys and values to machine words
//! so that cells can be manipulated with double-word CAS.  §5.7 outlines
//! how to lift the restriction for keys: store a *reference* to the actual
//! key in the key word and put a **signature** — spare bits of the master
//! hash function — into the unused high bits of the pointer, so that most
//! failed comparisons are decided without dereferencing.
//!
//! This module holds that packing — shared by both string-keyed tables —
//! and the bounded one:
//!
//! * [`StringKeyTable`] — a **bounded** lock-free linear-probing table
//!   (the folklore baseline of the complex-key world, `stringFolklore`).
//!   Its cells are two separate atomic words, so insertion publishes with
//!   the folly-style `INFLIGHT` discipline: the value is written *before*
//!   the key reference becomes visible, and probes spin out the (very
//!   short) in-flight window.  A `find` can therefore never observe an
//!   unpublished value and a concurrent `update` can never lose its
//!   result to a late value store.
//! * The growing, deleting string table is
//!   [`crate::generic::GrowMap`]`<String, u64>`: its keys live in the same
//!   key allocations behind the same packed reference, its cells are
//!   published with one double-word CAS, it grows through the shared §12
//!   coordinator, and erased keys are freed through a QSBR domain
//!   ([`growt_reclaim::QsbrDomain`]) so no concurrent reader can
//!   dereference freed key bytes.  Every boxed `KeyRepr` type
//!   (`(u32, u32)` too) is stored this way, as the bytes its
//!   `KeyRepr::key_bytes` yields.
//!
//! ## Key reference layout
//!
//! A published key word packs `signature << 48 | pointer`:
//!
//! * bits 0..48 — the virtual address of the key allocation (x86-64 /
//!   AArch64 user-space pointers fit in 48 bits; asserted on allocation);
//! * bits 48..63 — a 15-bit signature taken from the master hash, never 0
//!   so a published word is always `≥ 2⁴⁸`;
//! * bit 63 — kept clear, so `GrowMap` can reuse the word-table
//!   sentinels unchanged: [`crate::cell::EMPTY_KEY`],
//!   [`crate::cell::DEL_KEY`] and the migration [`crate::cell::MARK_BIT`]
//!   all live outside the packed range.
//!
//! ## Key allocation layout
//!
//! Each key is **one** heap block, written once by `allocate_key` and
//! never modified until `free_key`:
//!
//! ```text
//! offset 0   hash: u64   full master hash
//! offset 8   len:  u64   byte length of the key
//! offset 16  bytes: [u8; len]
//! ```
//!
//! The stored hash lets a migration *re-derive the target cell* of a
//! reference without re-hashing the key, and is a second pre-filter after
//! the signature: `key_matches` compares signature (no dereference),
//! then hash and length (one header read), then bytes.  The bytes are a
//! key's identity: a table stores only them, so two keys must be equal
//! exactly when their bytes are.

use std::alloc::Layout;

mod bounded;
#[cfg(test)]
mod growing;

pub use bounded::StringKeyTable;

/// Number of low bits of a packed key word that hold the pointer.
pub(crate) const POINTER_BITS: u32 = 48;
const POINTER_MASK: u64 = (1 << POINTER_BITS) - 1;
/// 15-bit signature (bit 63 stays clear for the migration mark bit).
const SIGNATURE_MASK: u64 = 0x7FFF;

/// FNV-1a over the key bytes: cheap, stable, and good enough to spread
/// string keys.  This is the **master hash** of §5.7: the scaled top bits
/// choose the cell and the low bits provide the signature.  `KeyRepr for
/// String` hashes with it too, so both string tables place a key alike.
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Signature of a master hash: low bits (the cell position comes from the
/// scaled high bits, so signature and position are nearly independent),
/// never 0 so a packed word is never mistaken for a sentinel.
#[inline]
pub(crate) fn signature_of(hash: u64) -> u64 {
    (hash & SIGNATURE_MASK).max(1)
}

/// Pack a signature and a key-allocation pointer into one key word.
#[inline]
pub(crate) fn pack_keyref(signature: u64, ptr: *const u8) -> u64 {
    let addr = ptr as u64;
    assert_eq!(
        addr & !POINTER_MASK,
        0,
        "key allocation outside the 48-bit address range"
    );
    (signature << POINTER_BITS) | addr
}

/// Split a packed key word into `(signature, pointer)`.
#[inline]
pub(crate) fn decode_keyref(keyref: u64) -> (u64, *const u8) {
    (keyref >> POINTER_BITS, (keyref & POINTER_MASK) as *const u8)
}

/// Bytes of a key allocation's header: the master hash, then the key's
/// byte length, both native-endian `u64`s.
const KEY_HEADER_BYTES: usize = 16;

/// Layout of the key allocation for a key of `len` bytes.
#[inline]
fn key_layout(len: usize) -> Layout {
    Layout::from_size_align(KEY_HEADER_BYTES + len, 8).expect("key too long to allocate")
}

/// Allocate a key as one `⟨hash, len, bytes⟩` block and leak it; the raw
/// pointer is what gets packed into the table.  Freed with [`free_key`].
pub(crate) fn allocate_key(hash: u64, key: &[u8]) -> *const u8 {
    let layout = key_layout(key.len());
    // SAFETY: the layout has a non-zero size (the header); the writes stay
    // inside the fresh allocation, whose 8-byte alignment covers the
    // header words.
    unsafe {
        let ptr = std::alloc::alloc(layout);
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        ptr.cast::<u64>().write(hash);
        ptr.cast::<u64>().add(1).write(key.len() as u64);
        std::ptr::copy_nonoverlapping(key.as_ptr(), ptr.add(KEY_HEADER_BYTES), key.len());
        ptr
    }
}

/// Master hash stored in the allocation header.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed.
#[inline]
pub(crate) unsafe fn stored_hash(ptr: *const u8) -> u64 {
    unsafe { ptr.cast::<u64>().read() }
}

/// Key length stored in the allocation header.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed.
#[inline]
unsafe fn stored_len(ptr: *const u8) -> usize {
    unsafe { ptr.cast::<u64>().add(1).read() as usize }
}

/// Key bytes stored in the allocation.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed; the
/// returned slice must not outlive the allocation.
#[inline]
unsafe fn stored_bytes<'a>(ptr: *const u8) -> &'a [u8] {
    unsafe { std::slice::from_raw_parts(ptr.add(KEY_HEADER_BYTES), stored_len(ptr)) }
}

/// Compare the stored key behind a packed word against the key with
/// master hash `hash` and bytes `key`.  The cheap checks go first: a
/// mismatching signature decides without dereferencing the pointer (the
/// §5.7 pre-filter), then the stored hash and length, read from the same
/// header, decide before the bytes are compared.
///
/// # Safety
///
/// `keyref` must be a packed word whose allocation is still alive.
#[inline]
pub(crate) unsafe fn key_matches(keyref: u64, signature: u64, hash: u64, key: &[u8]) -> bool {
    let (stored_sig, ptr) = decode_keyref(keyref);
    if stored_sig != signature {
        return false;
    }
    // SAFETY: the allocation is alive per the contract above.  Slice
    // equality compares the stored length before any byte.
    unsafe { stored_hash(ptr) == hash && stored_bytes(ptr) == key }
}

/// Free a key allocation created by [`allocate_key`].
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`], must not have been freed, and no
/// other thread may still dereference it (the bounded table frees only on
/// drop, `GrowMap` through its QSBR domain).
pub(crate) unsafe fn free_key(ptr: *const u8) {
    unsafe { std::alloc::dealloc(ptr as *mut u8, key_layout(stored_len(ptr))) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_stays_unmarked() {
        let hash = hash_str("round-trip");
        let ptr = allocate_key(hash, b"round-trip");
        let sig = signature_of(hash);
        let packed = pack_keyref(sig, ptr);
        assert!(packed >= 1 << POINTER_BITS, "packed word below 2^48");
        assert_eq!(packed & crate::cell::MARK_BIT, 0, "mark bit must be clear");
        let (s2, p2) = decode_keyref(packed);
        assert_eq!(s2, sig);
        assert_eq!(p2, ptr);
        // SAFETY: freshly allocated above, freed exactly once below.
        unsafe {
            assert_eq!(stored_hash(ptr), hash);
            assert_eq!(stored_bytes(ptr), b"round-trip");
            assert!(key_matches(packed, sig, hash, b"round-trip"));
            assert!(!key_matches(packed, sig ^ 1, hash, b"round-trip"));
            assert!(!key_matches(packed, sig, hash ^ 1, b"round-trip"));
            assert!(!key_matches(packed, sig, hash, b"round-trap"));
            assert!(!key_matches(packed, sig, hash, b"round-tri"));
            free_key(ptr);
        }
    }

    #[test]
    fn signatures_are_never_zero() {
        for h in [0u64, 1, SIGNATURE_MASK, u64::MAX, 0x8000] {
            let s = signature_of(h);
            assert!((1..=SIGNATURE_MASK).contains(&s));
        }
    }

    #[test]
    fn empty_and_long_keys_survive_allocation() {
        for key in ["", "x", &"y".repeat(100_000)] {
            let ptr = allocate_key(hash_str(key), key.as_bytes());
            // SAFETY: freshly allocated above, freed exactly once below.
            unsafe {
                assert_eq!(stored_hash(ptr), hash_str(key));
                assert_eq!(stored_bytes(ptr), key.as_bytes());
                free_key(ptr);
            }
        }
    }
}
