//! Word-count acceptance test of the growing string table,
//! `GrowMap<String, u64>` (§5.7):
//! concurrent ingest across migrations and a deletion-triggered cleanup,
//! with allocation-exact reclamation asserted through `growt-alloc-track`.
//!
//! The tracking allocator is installed as the binary's global allocator
//! (the Fig. 10 methodology), so "no leaked key allocations" is checked
//! at the allocator level: after the table and all handles are dropped,
//! the live-byte counter must return to its pre-table baseline.  This
//! file intentionally holds a single `#[test]` — a second concurrently
//! running test would pollute the allocator counters.

use growt_repro::growt_alloc_track;
use growt_repro::prelude::*;

/// The word-count update: add one.
fn add_one(count: &u64) -> u64 {
    count + 1
}

#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

/// One-time lazy allocations (thread-local buffers, runtime statics) must
/// happen before the baseline is taken, so the leak check only sees the
/// table's own allocations.
fn warmup() {
    let table: GrowMap<String, u64> = GrowMap::new(16);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let table = &table;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..200u64 {
                    h.insert_or_update(&format!("warm-{i}"), &1, add_one);
                    if i % 2 == 0 {
                        h.erase(&format!("warm-{i}"));
                    }
                }
                h.quiesce();
            });
        }
    });
    drop(table);
}

#[test]
fn wordcount_exact_across_migrations_and_cleanup_without_leaks() {
    warmup();
    let baseline = growt_alloc_track::current_bytes();

    {
        // Tiny initial capacity: the ingest must cross several growth
        // migrations before reaching the vocabulary size.
        let table: GrowMap<String, u64> = GrowMap::new(64);
        let threads = 4usize;
        let corpus = word_corpus(80_000, 1_500, 1.0, 0xACCE97);
        let expected = corpus.expected_counts();

        // Phase 1: concurrent ingest.
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                let corpus = &corpus;
                s.spawn(move || {
                    let mut h = table.handle();
                    for (i, &w) in corpus.stream.iter().enumerate() {
                        if i % threads == t {
                            h.insert_or_update(&corpus.vocabulary[w as usize], &1, add_one);
                        }
                    }
                    h.quiesce();
                });
            }
        });
        let migrations_after_ingest = table.migrations_completed();
        assert!(
            migrations_after_ingest >= 1,
            "ingest from capacity 64 must cross at least one migration"
        );

        // Word-count exactness: count per word == occurrences, and the
        // counts sum to the number of words ingested.  Each distinct word
        // is a non-zero oracle entry; no other key was stored.
        let distinct = expected.iter().filter(|&&c| c > 0).count();
        {
            let mut h = table.handle();
            let mut total = 0u64;
            for (word, &count) in corpus.vocabulary.iter().zip(&expected) {
                if count > 0 {
                    assert_eq!(h.find(word), Some(count), "count for {word}");
                    total += count;
                }
            }
            assert_eq!(total as usize, corpus.total_words(), "sum of all counts");
            assert_eq!(table.size_exact_quiescent(), distinct, "stored keys");
        }

        // Phase 2: concurrently erase every even-ranked distinct word,
        // then keep inserting fresh keys so the insertion counter crosses
        // the threshold again and a cleanup migration reclaims the
        // tombstones.
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                let corpus = &corpus;
                let expected = &expected;
                s.spawn(move || {
                    let mut h = table.handle();
                    for (rank, word) in corpus.vocabulary.iter().enumerate() {
                        if rank % 2 == 0 && rank % threads == t && expected[rank] > 0 {
                            h.erase(word);
                        }
                    }
                    for i in 0..4_000u64 {
                        h.insert_or_update(&format!("fresh-{t}-{i}"), &1, add_one);
                    }
                    h.quiesce();
                });
            }
        });
        assert!(
            table.migrations_completed() > migrations_after_ingest,
            "the deletion phase must trigger a cleanup migration"
        );

        // Erased words are gone, surviving words keep their exact counts,
        // fresh keys are all present.
        {
            let mut h = table.handle();
            for (rank, (word, &count)) in corpus.vocabulary.iter().zip(&expected).enumerate() {
                if count == 0 {
                    continue;
                }
                let stored = h.find(word);
                if rank % 2 == 0 {
                    assert_eq!(stored, None, "erased word {word} resurrected");
                } else {
                    assert_eq!(stored, Some(count), "survivor {word}");
                }
            }
            for t in 0..threads {
                for i in 0..4_000u64 {
                    assert_eq!(h.find(&format!("fresh-{t}-{i}")), Some(1));
                }
            }
            // With every handle quiescent, the QSBR domain has reclaimed
            // all retired key allocations.
            h.quiesce();
        }
        assert_eq!(
            table.pending_reclamation(),
            0,
            "retired key allocations left in the QSBR limbo list"
        );
        drop(table);
    }

    // Allocation-exact teardown: everything the subsystem allocated —
    // live keys, erased keys, table generations, domain bookkeeping —
    // has been returned to the allocator.
    let after = growt_alloc_track::current_bytes();
    assert!(
        after <= baseline,
        "leaked {} bytes of key allocations (baseline {baseline}, after {after})",
        after - baseline
    );
}
