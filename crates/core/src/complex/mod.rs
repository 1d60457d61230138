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
//!   [`crate::generic::GrowMap`]`<String, u64>`: its keys live in
//!   `KeyBox<String>` allocations behind the same packed reference, its
//!   cells are published with one double-word CAS, it grows through the
//!   shared §12 coordinator, and erased keys are freed through a QSBR
//!   domain ([`growt_reclaim::QsbrDomain`]) so no concurrent reader can
//!   dereference freed key bytes.
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
//! [`StringKeyTable`]'s key allocation is a length-prefixed byte buffer
//! `⟨len: u64, bytes⟩`; `GrowMap`'s `KeyBox` additionally stores the full
//! master hash, which is what lets a migration *re-derive the target
//! cell* of a reference without re-hashing the key.  Probes skip the byte
//! comparison whenever the signature already disagrees.

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

/// Allocate a key as a `⟨len, bytes⟩` buffer and leak it; the raw pointer
/// is what gets packed into the table.  Freed with [`free_key`].
fn allocate_key(key: &str) -> *const u8 {
    let mut buf = Vec::with_capacity(8 + key.len());
    buf.extend_from_slice(&(key.len() as u64).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    let boxed: Box<[u8]> = buf.into_boxed_slice();
    Box::into_raw(boxed) as *const u8
}

/// Key length stored in the allocation header.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed.
#[inline]
unsafe fn stored_len(ptr: *const u8) -> usize {
    unsafe { u64::from_le_bytes(std::ptr::read(ptr as *const [u8; 8])) as usize }
}

/// Key bytes stored in the allocation.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed; the
/// returned slice must not outlive the allocation.
#[inline]
unsafe fn stored_bytes<'a>(ptr: *const u8) -> &'a [u8] {
    unsafe { std::slice::from_raw_parts(ptr.add(8), stored_len(ptr)) }
}

/// Compare the stored key behind a packed word against `key`, using the
/// signature as the cheap §5.7 pre-filter: a mismatching signature decides
/// the comparison without dereferencing the pointer.
///
/// # Safety
///
/// `keyref` must be a packed word whose allocation is still alive.
#[inline]
unsafe fn key_matches(keyref: u64, signature: u64, key: &str) -> bool {
    let (stored_sig, ptr) = decode_keyref(keyref);
    if stored_sig != signature {
        return false;
    }
    unsafe { stored_bytes(ptr) == key.as_bytes() }
}

/// Free a key allocation created by [`allocate_key`].
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`], must not have been freed, and no
/// other thread may still dereference it (the bounded table frees only on
/// drop).
unsafe fn free_key(ptr: *const u8) {
    unsafe {
        let slice = std::ptr::slice_from_raw_parts_mut(ptr as *mut u8, stored_len(ptr) + 8);
        drop(Box::from_raw(slice));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_stays_unmarked() {
        let ptr = allocate_key("round-trip");
        let sig = signature_of(hash_str("round-trip"));
        let packed = pack_keyref(sig, ptr);
        assert!(packed >= 1 << POINTER_BITS, "packed word below 2^48");
        assert_eq!(packed & crate::cell::MARK_BIT, 0, "mark bit must be clear");
        let (s2, p2) = decode_keyref(packed);
        assert_eq!(s2, sig);
        assert_eq!(p2, ptr);
        // SAFETY: freshly allocated above, freed exactly once below.
        unsafe {
            assert_eq!(stored_bytes(ptr), "round-trip".as_bytes());
            assert!(key_matches(packed, sig, "round-trip"));
            assert!(!key_matches(packed, sig ^ 1, "round-trip"));
            assert!(!key_matches(packed, sig, "round-trap"));
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
            let ptr = allocate_key(key);
            // SAFETY: freshly allocated above, freed exactly once below.
            unsafe {
                assert_eq!(stored_bytes(ptr), key.as_bytes());
                free_key(ptr);
            }
        }
    }
}
