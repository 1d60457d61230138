//! String-key conformance suite over [`GenericMap`]`<String, u64>` (§5.7
//! complex keys).
//!
//! Both string tables — the bounded `stringFolklore` baseline
//! ([`StringKeyTable`]) and the growing, deleting `stringGrow`
//! (`GrowMap<String, u64>`) — are driven through one generic harness,
//! exactly like the word tables run through the [`ConcurrentMap`] suite
//! in `conformance.rs`:
//!
//! * a single-threaded round-trip over the full handle surface,
//! * publication-order checks (a found value is always fully published),
//! * concurrent word-count exactness: sum of all counts == number of
//!   words ingested, and count per word == occurrences,
//! * concurrent same-key insert races with exactly one winner,
//! * deletion round-trips (erase, reinsert, erase race single winner),
//! * signature-collision keys resolved by the full string compare,
//! * for growing tables, all of the above across live migrations.

use growt_repro::prelude::*;

fn threads() -> usize {
    4
}

fn key(s: &str) -> String {
    s.to_string()
}

/// The word-count update: add one.
fn add_one(count: &u64) -> u64 {
    count + 1
}

/// Single-threaded round-trip over the `GenericMapHandle` surface.
fn round_trip<M: GenericMap<String, u64>>() {
    let table = M::with_capacity(2048);
    let mut h = table.handle();
    let name = M::map_name();

    for i in 0..512u64 {
        assert!(
            h.insert(&format!("rt-{i}"), &(i + 1)),
            "{name}: insert rt-{i}"
        );
    }
    for i in 0..512u64 {
        assert!(
            !h.insert(&format!("rt-{i}"), &0),
            "{name}: dup insert rt-{i}"
        );
        assert_eq!(h.find(&format!("rt-{i}")), Some(i + 1), "{name}: find");
    }
    assert_eq!(h.find(&key("absent")), None, "{name}: absent key");

    assert!(h.update(&key("rt-0"), &|v| v + 5), "{name}: update present");
    assert_eq!(h.find(&key("rt-0")), Some(6), "{name}: update result");
    assert!(
        !h.update(&key("absent"), &|v| v + 5),
        "{name}: update absent"
    );
    assert_eq!(h.find(&key("absent")), None, "{name}: update inserted");

    let add = |d: u64| move |v: &u64| v + d;
    assert!(
        h.insert_or_update(&key("ioa"), &3, &add(3)).inserted(),
        "{name}: upsert absent"
    );
    assert!(
        !h.insert_or_update(&key("ioa"), &4, &add(4)).inserted(),
        "{name}: upsert present"
    );
    assert_eq!(h.find(&key("ioa")), Some(7), "{name}: upsert result");

    assert!(h.erase(&key("ioa")), "{name}: erase present");
    assert!(!h.erase(&key("ioa")), "{name}: erase absent");
    assert_eq!(h.find(&key("ioa")), None, "{name}: erased key gone");
    assert!(
        h.insert_or_update(&key("ioa"), &9, &add(9)).inserted(),
        "{name}: reinsert"
    );
    assert_eq!(h.find(&key("ioa")), Some(9), "{name}: reinsert value");

    // Empty, unicode and long keys are ordinary keys.
    assert!(h.insert(&key(""), &1), "{name}: empty key");
    assert!(
        h.insert(&key("wörter-zählen-🔢"), &2),
        "{name}: unicode key"
    );
    let long = "long-".repeat(4_000);
    assert!(h.insert(&long, &3), "{name}: long key");
    assert_eq!(h.find(&key("")), Some(1), "{name}");
    assert_eq!(h.find(&key("wörter-zählen-🔢")), Some(2), "{name}");
    assert_eq!(h.find(&long), Some(3), "{name}");

    h.quiesce();
}

/// Concurrent word-count exactness: after ingesting a Zipf word stream
/// with `insert_or_update(word, 1, +1)` from several threads, every
/// word's count equals its number of occurrences and the counts sum to
/// the stream length.  For growing tables the table starts tiny, so the
/// ingest crosses several migrations.
fn wordcount_exact<M: GenericMap<String, u64>>(initial_capacity: usize, ops: usize, vocab: usize) {
    let name = M::map_name();
    let corpus = word_corpus(ops, vocab, 1.0, 0xC0DE);
    let expected = corpus.expected_counts();
    let table = M::with_capacity(initial_capacity);
    let inserted = std::sync::atomic::AtomicU64::new(0);
    let p = threads();
    std::thread::scope(|s| {
        for t in 0..p {
            let table = &table;
            let corpus = &corpus;
            let inserted = &inserted;
            s.spawn(move || {
                let mut h = table.handle();
                let mut mine = 0u64;
                for (i, &w) in corpus.stream.iter().enumerate() {
                    if i % p == t {
                        let word = &corpus.vocabulary[w as usize];
                        if h.insert_or_update(word, &1, &add_one).inserted() {
                            mine += 1;
                        }
                    }
                }
                inserted.fetch_add(mine, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let distinct = expected.iter().filter(|&&c| c > 0).count() as u64;
    assert_eq!(
        inserted.load(std::sync::atomic::Ordering::Relaxed),
        distinct,
        "{name}: insertions != distinct words (duplicate or lost keys)"
    );
    // With the insertion count pinned to the distinct words, checking
    // every distinct word (a non-zero oracle entry) checks every key.
    let mut h = table.handle();
    let mut total = 0u64;
    for (word, &count) in corpus.vocabulary.iter().zip(&expected) {
        if count > 0 {
            let stored = h.find(word);
            assert_eq!(stored, Some(count), "{name}: count for {word}");
            total += count;
        }
    }
    assert_eq!(
        total as usize,
        corpus.total_words(),
        "{name}: sum of counts != words ingested"
    );
}

/// Concurrent same-key insert races have exactly one winner.
fn insert_race_single_winner<M: GenericMap<String, u64>>() {
    let name = M::map_name();
    let table = M::with_capacity(4_096);
    let wins = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads() {
            let table = &table;
            let wins = &wins;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..1_000u64 {
                    if h.insert(&format!("race-{i}"), &i) {
                        wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        wins.load(std::sync::atomic::Ordering::Relaxed),
        1_000,
        "{name}: same-key insert races must have exactly one winner"
    );
}

/// Racing erases of the same keys: every key is erased exactly once.
fn erase_race_single_winner<M: GenericMap<String, u64>>() {
    let name = M::map_name();
    let table = M::with_capacity(4_096);
    {
        let mut h = table.handle();
        for i in 0..1_000u64 {
            assert!(h.insert(&format!("del-{i}"), &i));
        }
    }
    let erased = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads() {
            let table = &table;
            let erased = &erased;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..1_000u64 {
                    if h.erase(&format!("del-{i}")) {
                        erased.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                h.quiesce();
            });
        }
    });
    assert_eq!(
        erased.load(std::sync::atomic::Ordering::Relaxed),
        1_000,
        "{name}: every key must be erased exactly once"
    );
    let mut h = table.handle();
    for i in 0..1_000u64 {
        assert_eq!(
            h.find(&format!("del-{i}")),
            None,
            "{name}: del-{i} resurrected"
        );
    }
}

/// Signature collisions (distinct strings with equal 15-bit signatures
/// colliding onto nearby cells) are resolved by the full key compare.
fn values_survive_dense_collisions<M: GenericMap<String, u64>>() {
    let name = M::map_name();
    // A small capacity forces long shared probe runs, so keys with equal
    // signatures and overlapping probe paths exercise the compare path.
    let table = M::with_capacity(2_048);
    let mut h = table.handle();
    for i in 0..1_500u64 {
        assert!(
            h.insert(&format!("col-{i}"), &(i * 3 + 1)),
            "{name}: col-{i}"
        );
    }
    for i in 0..1_500u64 {
        assert_eq!(
            h.find(&format!("col-{i}")),
            Some(i * 3 + 1),
            "{name}: col-{i} got another key's value"
        );
    }
}

macro_rules! string_conformance {
    ($module:ident, $table:ty, $growing_initial:expr) => {
        mod $module {
            use super::*;

            #[test]
            fn round_trip() {
                super::round_trip::<$table>();
            }

            #[test]
            fn wordcount_exact_concurrent() {
                // Capacity chosen so bounded tables hold the vocabulary and
                // growing tables cross several migrations ($growing_initial
                // is tiny for those).
                wordcount_exact::<$table>($growing_initial, 60_000, 700);
            }

            #[test]
            fn insert_race_single_winner() {
                super::insert_race_single_winner::<$table>();
            }

            #[test]
            fn erase_race_single_winner() {
                super::erase_race_single_winner::<$table>();
            }

            #[test]
            fn values_survive_dense_collisions() {
                super::values_survive_dense_collisions::<$table>();
            }
        }
    };
}

string_conformance!(string_folklore, StringKeyTable, 2_048);
string_conformance!(string_grow, GrowMap<String, u64>, 32);

#[test]
fn growing_table_reports_growth() {
    let table: GrowMap<String, u64> = GrowMap::new(16);
    let mut h = table.handle();
    for i in 0..10_000u64 {
        h.insert(&format!("g-{i}"), &i);
    }
    assert!(
        table.migrations_completed() > 0,
        "tiny growing table never migrated"
    );
    assert!(table.current_capacity() >= 20_000);
    for i in 0..10_000u64 {
        assert_eq!(h.find(&format!("g-{i}")), Some(i));
    }
}
