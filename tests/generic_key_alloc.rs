//! Allocation accounting of the generic map's boxed keys.
//!
//! A boxed key is stored as one heap block: a 16-byte header (master hash
//! and byte length) followed by the key's bytes.  With the tracking
//! allocator installed as the global allocator, the test counts exactly
//! what the map allocates while no migration runs: one block of
//! `16 + len` bytes per new key, and nothing at all for an update of a
//! key that is already present.
//!
//! This file intentionally holds a single `#[test]` — a second
//! concurrently running test would pollute the allocator counters.

use growt_repro::growt_alloc_track::{allocation_count, current_bytes, TrackingAlloc};
use growt_repro::prelude::*;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Bytes of the key header: the master hash and the byte length.
const KEY_HEADER_BYTES: u64 = 16;

const KEYS: usize = 10_000;

/// Run `body` and return `(allocations, change in live bytes)` over it.
fn measure(body: impl FnOnce()) -> (u64, i64) {
    let (count, bytes) = (allocation_count(), current_bytes());
    body();
    (
        allocation_count() - count,
        current_bytes() as i64 - bytes as i64,
    )
}

#[test]
fn boxed_keys_cost_one_allocation_each() {
    // Keys are built before the measured window; the map is pre-sized so
    // no migration allocates a generation inside it.
    let keys: Vec<String> = (0..KEYS).map(|i| format!("word-{i}")).collect();
    let map: GrowMap<String, u64> = GrowMap::new(4 * KEYS);
    let mut h = map.handle();

    let (allocations, bytes) = measure(|| {
        for (i, key) in keys.iter().enumerate() {
            assert!(h.insert(key, &(i as u64)));
        }
    });
    assert_eq!(map.migrations_completed(), 0, "a migration ran");
    assert_eq!(allocations, KEYS as u64, "allocations for {KEYS} new keys");
    let expected: u64 = keys.iter().map(|k| KEY_HEADER_BYTES + k.len() as u64).sum();
    assert_eq!(bytes, expected as i64, "live bytes for {KEYS} new keys");

    let (allocations, bytes) = measure(|| {
        for key in &keys {
            assert!(!h.insert_or_update(key, &1, |v| v + 1).inserted());
        }
    });
    assert_eq!(
        (allocations, bytes),
        (0, 0),
        "updates of present keys allocate"
    );
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(h.find(key), Some(i as u64 + 1));
    }
    drop(h);
    drop(map);

    // A pair key is boxed as the 8 bytes of its packed word.
    let pairs: GrowMap<(u32, u32), ()> = GrowMap::new(4 * KEYS);
    let mut h = pairs.handle();
    let (allocations, bytes) = measure(|| {
        for i in 0..KEYS as u32 {
            assert!(h.insert(&(i, u32::MAX - i), &()));
        }
    });
    assert_eq!(pairs.migrations_completed(), 0, "a migration ran");
    assert_eq!(allocations, KEYS as u64, "allocations for {KEYS} pair keys");
    assert_eq!(bytes, (KEYS as u64 * (KEY_HEADER_BYTES + 8)) as i64);
}
