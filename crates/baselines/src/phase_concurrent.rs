//! Phase-concurrent linear probing (Shun & Blelloch 2014), paper §8.1.3.
//!
//! A *phase-concurrent* hash table allows many threads to operate
//! concurrently as long as all concurrent operations are of the same kind
//! (all inserts, all finds, or all deletes).  Within that discipline the
//! table can do things a fully concurrent table cannot:
//!
//! * deletions reclaim their cell immediately by locally rearranging the
//!   probe sequence (no tombstones at all) — the property that makes it the
//!   only table to beat the growt variants in the deletion benchmark
//!   (Fig. 6);
//! * insertions keep the probe sequences history-independent by always
//!   keeping the larger key earlier ("priority insertion"), which the
//!   original uses for determinism.
//!
//! The phase discipline itself is the caller's obligation (the paper's
//! benchmarks satisfy it); this implementation documents — but cannot
//! enforce — that obligation, exactly like the original library.
//!
//! Cells are the growt 16-byte [`Cell`]s: every insert writes ⟨key,
//! value⟩ with one double-word CAS, both when it claims an empty cell and
//! when it displaces a smaller key, so concurrent inserters displacing
//! through the same cells never pair a key with another key's value.

use growt_core::cell::Cell;
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::util::{assert_user_key, capacity_for, hash_key, scale};

const EMPTY: u64 = 0;

/// Phase-concurrent linear probing hash table.
pub struct PhaseConcurrent {
    cells: Vec<Cell>,
    capacity: usize,
}

/// Per-thread handle (stateless).
pub struct PhaseConcurrentHandle<'a> {
    table: &'a PhaseConcurrent,
}

impl PhaseConcurrent {
    #[inline]
    fn home(&self, key: u64) -> usize {
        scale(hash_key(key), self.capacity)
    }

    #[inline]
    fn next(&self, index: usize) -> usize {
        (index + 1) & (self.capacity - 1)
    }

    /// Overwrite the whole cell with one pair CAS (deletion phase moves).
    fn store_pair(&self, index: usize, key: u64, value: u64) {
        let cell = &self.cells[index];
        while cell.cas_pair(cell.read(), (key, value)).is_err() {}
    }
}

impl ConcurrentMap for PhaseConcurrent {
    type Handle<'a> = PhaseConcurrentHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity_for(capacity);
        PhaseConcurrent {
            cells: (0..capacity).map(|_| Cell::new()).collect(),
            capacity,
        }
    }

    fn handle(&self) -> PhaseConcurrentHandle<'_> {
        PhaseConcurrentHandle { table: self }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "phase-concurrent",
            interface: InterfaceStyle::SyncPhases,
            growing: GrowthSupport::None,
            atomic_updates: false,
            overwrite_only: true,
            deletion: true,
            arbitrary_types: false,
            note: "same-kind operations per phase; in-place deletion",
        }
    }
}

impl MapHandle for PhaseConcurrentHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        assert_user_key(k);
        let t = self.table;
        // Priority insertion: the element with the larger key always sits
        // earlier in the probe sequence; the displaced key continues probing.
        let mut key = k;
        let mut value = v;
        let mut index = t.home(key);
        for _ in 0..t.capacity {
            let cell = &t.cells[index];
            loop {
                let (stored, stored_value) = cell.read();
                if stored == key {
                    return false;
                }
                if stored == EMPTY {
                    match cell.cas_pair((EMPTY, stored_value), (key, value)) {
                        Ok(()) => return true,
                        Err(_) => continue, // re-examine the claimed cell
                    }
                }
                // Keep the larger key in the earlier cell (history
                // independence); the displaced pair moves on together.
                if stored < key {
                    match cell.cas_pair((stored, stored_value), (key, value)) {
                        Ok(()) => (key, value) = (stored, stored_value),
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = t.next(index);
        }
        false
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        assert_user_key(k);
        let t = self.table;
        let mut index = t.home(k);
        for _ in 0..t.capacity {
            let (stored, value) = t.cells[index].read();
            if stored == EMPTY {
                return None;
            }
            if stored == k {
                return Some(value);
            }
            // Priority order: once we see a smaller key, ours cannot follow.
            if stored < k {
                return None;
            }
            index = t.next(index);
        }
        None
    }

    fn update(&mut self, k: Key, d: Value, _up: fn(Value, Value) -> Value) -> bool {
        // Only overwrites are supported (Table 1); the update function is
        // applied non-atomically, mirroring the original's semantics.
        assert_user_key(k);
        let t = self.table;
        let mut index = t.home(k);
        for _ in 0..t.capacity {
            let (stored, cur) = t.cells[index].read();
            if stored == EMPTY || stored < k {
                return false;
            }
            if stored == k {
                t.cells[index].store_value(_up(cur, d));
                return true;
            }
            index = t.next(index);
        }
        false
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        // NOTE: this composition is only well-defined under the table's
        // phase contract (InterfaceStyle::SyncPhases): operations of
        // different kinds must not overlap, so concurrent upserts of the
        // same key — which internally mix an insert phase with an update
        // phase — are outside the modeled structure's guarantees (insert
        // publishes the key before the value, so a racing updater could
        // still read the transient zero).  Single-threaded and same-phase
        // use is exact.
        if self.update(k, d, up) {
            InsertOrUpdate::Updated
        } else if self.insert(k, d) {
            InsertOrUpdate::Inserted
        } else if self.update(k, d, up) {
            // Insert lost a race with another insert of the same key: apply
            // the update so the operation is never silently dropped.
            InsertOrUpdate::Updated
        } else {
            // Neither path made progress: the bounded table is full.
            // Surfacing it beats silently reporting a dropped update.
            panic!("phase-concurrent table full during insert_or_update")
        }
    }

    fn erase(&mut self, k: Key) -> bool {
        assert_user_key(k);
        let t = self.table;
        let mut index = t.home(k);
        // Find the element.
        loop {
            let stored = t.cells[index].load_key();
            if stored == EMPTY || stored < k {
                return false;
            }
            if stored == k {
                break;
            }
            index = t.next(index);
        }
        // Deletion by local rearrangement: pull suitable successors forward
        // so no hole breaks any probe sequence (legal because only deletes
        // run in this phase).
        let mut hole = index;
        loop {
            let mut candidate = t.next(hole);
            // Find the next element that may legally move into the hole: its
            // home position must be at or before the hole.
            loop {
                let (ck, cv) = t.cells[candidate].read();
                if ck == EMPTY {
                    // Nothing can fill the hole: clear it.
                    t.store_pair(hole, EMPTY, 0);
                    return true;
                }
                let home = t.home(ck);
                // `home ≤ hole` in circular order means the element's probe
                // path passes through the hole and it may be moved up.
                let passes = if home <= candidate {
                    home <= hole && hole <= candidate
                } else {
                    // wrapped probe path
                    home <= hole || hole <= candidate
                };
                if passes {
                    t.store_pair(hole, ck, cv);
                    hole = candidate;
                    break;
                }
                candidate = t.next(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_roundtrip() {
        let t = PhaseConcurrent::with_capacity(512);
        let mut h = t.handle();
        for k in 2..400u64 {
            assert!(h.insert(k, k + 7));
        }
        assert!(!h.insert(5, 0));
        for k in 2..400u64 {
            assert_eq!(h.find(k), Some(k + 7), "key {k}");
        }
        assert_eq!(h.find(100_000), None);
    }

    #[test]
    fn deletion_reclaims_cells_without_tombstones() {
        let t = PhaseConcurrent::with_capacity(64);
        let mut h = t.handle();
        // Insert phase.
        for k in 2..60u64 {
            assert!(h.insert(k, k));
        }
        // Delete phase.
        for k in 2..30u64 {
            assert!(h.erase(k), "erase {k}");
        }
        // Find phase: deleted keys gone, the rest intact and reachable even
        // though cells were physically reused (no tombstones).
        for k in 2..30u64 {
            assert_eq!(h.find(k), None, "key {k} still present");
        }
        for k in 30..60u64 {
            assert_eq!(h.find(k), Some(k), "key {k} lost by rearrangement");
        }
        // Re-insert phase into the reclaimed cells.
        for k in 2..30u64 {
            assert!(h.insert(k, k * 2));
        }
        for k in 2..30u64 {
            assert_eq!(h.find(k), Some(k * 2));
        }
    }

    #[test]
    fn concurrent_insert_phase_then_find_phase() {
        let t = PhaseConcurrent::with_capacity(40_000);
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..5_000u64 {
                        assert!(h.insert(start * 1_000_000 + i + 2, i));
                    }
                });
            }
        });
        let mut h = t.handle();
        for start in 0..4u64 {
            for i in 0..5_000u64 {
                assert_eq!(h.find(start * 1_000_000 + i + 2), Some(i));
            }
        }
    }

    #[test]
    fn sliding_window_insert_delete_phases() {
        let t = PhaseConcurrent::with_capacity(2048);
        let mut h = t.handle();
        let window = 500u64;
        for i in 0..20_000u64 {
            assert!(h.insert(i + 2, i));
            if i >= window {
                assert!(h.erase(i + 2 - window), "erase {}", i - window);
            }
        }
        for i in 20_000 - window..20_000 {
            assert_eq!(h.find(i + 2), Some(i));
        }
    }

    #[test]
    fn concurrent_displacements_keep_keys_paired_with_their_values() {
        // Two inserters of interleaved keys into a table at load 0.73:
        // priority displacements through the same cells race constantly,
        // and a displaced key must carry its own value onwards, never the
        // value of the key that displaced it.  A mis-pairing shows up in
        // about one round in a hundred when key and value move in two
        // steps.
        const PER_THREAD: u64 = 6_000;
        let value_of = |k: u64| k ^ 0xABCD;
        for round in 0..1_000 {
            let t = PhaseConcurrent::with_capacity(PER_THREAD as usize);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for lane in 0..2u64 {
                    let (t, start) = (&t, &start);
                    s.spawn(move || {
                        let mut h = t.handle();
                        start.wait();
                        for i in 0..PER_THREAD {
                            let k = 2 + 2 * i + lane;
                            assert!(h.insert(k, value_of(k)), "insert {k}");
                        }
                    });
                }
            });
            let mut h = t.handle();
            for k in 2..2 + 2 * PER_THREAD {
                assert_eq!(h.find(k), Some(value_of(k)), "round {round}: key {k}");
            }
        }
    }
}
