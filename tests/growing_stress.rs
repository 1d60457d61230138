//! Integration stress tests of the growing machinery across crates: heavy
//! concurrent growth, deletion-driven cleanup migrations, and the mixed /
//! deletion workloads of the paper driven through the generic drivers.

use std::time::Duration;

use growt_repro::prelude::*;
use growt_workloads::{deletion_workload, mixed_workload, uniform_distinct_keys, with_watchdog};

/// Generous liveness bound for one stress test: a healthy run finishes in
/// seconds, a wedged migration protocol would otherwise hang forever.
const LIVENESS: Duration = Duration::from_secs(300);

#[test]
fn growing_from_tiny_capacity_under_contention() {
    fn run<M: ConcurrentMap>() {
        with_watchdog(M::table_name(), LIVENESS, || {
            let keys = uniform_distinct_keys(60_000, 31);
            let table = M::with_capacity(64); // forces many migrations
            let m = insert_driver(&table, &keys, 4);
            assert_eq!(m.aux as usize, keys.len(), "{}", M::table_name());
            let m = find_driver(&table, &keys, 4);
            assert_eq!(m.aux as usize, keys.len(), "{}", M::table_name());
        });
    }
    run::<UaGrow>();
    run::<UsGrow>();
    run::<PaGrow>();
    run::<PsGrow>();
}

#[test]
fn panicking_update_closure_does_not_wedge_synchronized_growth() {
    // An update closure is user code; a panic inside it unwinds straight
    // through the handle operation while the handle's busy flag is raised.
    // The operation's guard must lower the flag on the way out — otherwise
    // the next synchronized (usGrow/psGrow) migration waits on this handle
    // forever and every writer wedges behind it.
    with_watchdog("panicking-up-closure", LIVENESS, || {
        let table = UsGrow::with_capacity(128);
        let mut victim = table.handle();
        victim.insert(2, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            victim.insert_or_update(2, 1, |_, _| panic!("injected user-closure panic"));
        }));
        assert!(result.is_err(), "closure must have panicked");
        // Keep `victim` registered (alive, idle) and force migrations from
        // another handle: growth must complete although `victim` never
        // performs another operation.
        let mut other = table.handle();
        for key in 3..30_000u64 {
            other.insert(key, key);
        }
        assert!(table.inner().migrations_completed() > 0, "never migrated");
        assert_eq!(other.find(2), Some(1), "panicked update must not apply");
        drop(victim);
    });
}

#[test]
fn deletion_workload_reclaims_memory() {
    // The sliding-window workload of Fig. 6: the table must stay at (about)
    // its window size even though it sees far more insertions than the
    // window.  A deletion may fail if the thread that owns the operation
    // block containing its matching insertion is stalled helping a
    // migration (execution skew); such keys are simply deleted "late", so
    // the invariant checked here is conservation: every inserted key is
    // either still live or was successfully deleted — nothing is lost.
    with_watchdog("deletion-workload", LIVENESS, || {
        let window = 40_000;
        let steps = 80_000;
        let wl = deletion_workload(steps, window, 77);
        let table = UaGrow::with_capacity(window + window / 2);
        prefill(&table, &wl.prefill);
        let m = deletion_driver(&table, &wl, 2);
        let deleted = m.aux as usize;
        let failed = steps - deleted;
        assert!(
            failed <= steps / 20,
            "too many deletions missed their target ({failed} of {steps})"
        );
        let mut handle = table.handle();
        handle.quiesce();
        drop(handle);
        // Conservation: prefill + steps insertions, `deleted` removals.
        let size = table.inner().size_exact_quiescent();
        assert_eq!(size, window + steps - deleted, "elements were lost");
        // Capacity must stay bounded by a small multiple of the window size
        // (tombstone cleanup happened), not by the total number of insertions.
        assert!(
            table.inner().current_capacity() <= 4 * (window + window / 2).next_power_of_two(),
            "capacity {} indicates tombstones were never cleaned",
            table.inner().current_capacity()
        );
        assert!(table.inner().migrations_completed() > 0);
    });
}

#[test]
fn mixed_workload_runs_on_growing_tables() {
    let threads = 4;
    let wl = mixed_workload(80_000, 30, 8192 * threads, 8192 * threads, 3);
    for run in 0..2 {
        let table = UaGrow::with_capacity(if run == 0 { 128 } else { 80_000 });
        prefill(&table, &wl.prefill);
        let m = mixed_driver(&table, &wl, threads);
        let finds = wl
            .ops
            .iter()
            .filter(|o| matches!(o, growt_workloads::MixedOp::Find(_)))
            .count();
        assert!(
            m.aux as usize >= finds - finds / 50,
            "too many failed finds: {} of {finds}",
            m.aux
        );
    }
}

#[test]
fn handles_can_be_created_and_dropped_concurrently() {
    let table = UsGrow::with_capacity(1024);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let table = &table;
            scope.spawn(move || {
                for round in 0..50u64 {
                    let mut handle = table.handle();
                    for i in 0..50u64 {
                        let key = 2 + t * 10_000 + round * 100 + i;
                        handle.insert(key, key);
                        assert_eq!(handle.find(key), Some(key));
                    }
                    // handle dropped here; registration must stay consistent
                }
            });
        }
    });
    let mut handle = table.handle();
    assert!(handle.find(2).is_some());
}

#[test]
fn full_keyspace_wrapper_accepts_all_keys_concurrently() {
    use growt_core::keyspace::FullKeyspaceTable;
    let table = FullKeyspaceTable::new(256);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let table = &table;
            scope.spawn(move || {
                let mut handle = table.handle();
                for i in 0..10_000u64 {
                    // Cover low keys, high keys and the sentinels.
                    let key = match i % 3 {
                        0 => t * 1_000_000 + i,
                        1 => (1 << 63) | (t * 1_000_000 + i),
                        _ => u64::MAX - (t * 1_000_000 + i),
                    };
                    handle.insert(key, i);
                    assert_eq!(handle.find(key), Some(i), "key {key:#x}");
                }
            });
        }
    });
}

#[test]
fn string_key_table_concurrent_wordcount() {
    use growt_core::complex::StringKeyTable;
    let table = StringKeyTable::with_capacity(10_000);
    let words: Vec<String> = (0..500).map(|i| format!("word-{i}")).collect();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let table = &table;
            let words = &words;
            scope.spawn(move || {
                for i in 0..20_000usize {
                    let word = &words[(i * (t + 1)) % words.len()];
                    table.insert_or_update(word, 1, |c| c + 1);
                }
            });
        }
    });
    let total: u64 = words.iter().map(|w| table.find(w).unwrap_or(0)).sum();
    assert_eq!(total, 4 * 20_000);
}

#[test]
fn bulk_build_and_bulk_insert() {
    use growt_core::bulk::{build_from, bulk_insert};
    let elements: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * 13 + 17, i)).collect();
    let bounded = build_from(&elements, 4);
    for &(k, v) in &elements {
        assert_eq!(bounded.find(k), Some(v));
    }

    let growing = growt_core::GrowingTable::new(64);
    bulk_insert(&growing, &elements, 4);
    let mut handle = growing.handle();
    for &(k, v) in &elements {
        assert_eq!(handle.find(k), Some(v));
    }
}
