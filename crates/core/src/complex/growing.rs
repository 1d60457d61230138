//! Tests of the growing, deleting string table of §5.7, which is
//! [`crate::generic::GrowMap`]`<String, u64>`: string keys behind packed
//! key references, racing through migrations and erasures.

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::config::GrowConfig;
    use crate::generic::GrowMap;

    fn tiny_table() -> GrowMap<String, u64> {
        GrowMap::with_config(16, GrowConfig::default(), 4)
    }

    #[test]
    fn duplicate_inserts_have_one_winner_across_growth() {
        let table = tiny_table();
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = &table;
                let successes = &successes;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..3_000u64 {
                        if h.insert(&format!("dup-{i}"), &i) {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::Relaxed), 3_000);
        assert_eq!(table.size_exact_quiescent(), 3_000);
        assert!(table.migrations_completed() > 0);
    }

    #[test]
    fn word_aggregation_is_exact_across_growth() {
        let table = tiny_table();
        let threads = 4u64;
        let per_thread = 10_000u64;
        let distinct = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..per_thread {
                        let word = format!("word-{}", (i.wrapping_mul(t + 1)) % distinct);
                        h.insert_or_update(&word, &1, |v| v + 1);
                    }
                });
            }
        });
        let mut h = table.handle();
        let mut total = 0u64;
        for w in 0..distinct {
            total += h.find(&format!("word-{w}")).unwrap_or(0);
        }
        assert_eq!(
            table.size_exact_quiescent(),
            distinct as usize,
            "duplicate keys survived a migration"
        );
        assert_eq!(total, threads * per_thread, "lost increments");
        assert!(table.migrations_completed() > 0, "no migration exercised");
    }

    #[test]
    fn erase_and_reinsert_round_trip() {
        let table = tiny_table();
        let mut h = table.handle();
        let key = "transient".to_string();
        assert!(h.insert(&key, &5));
        assert!(h.update(&key, |v| v + 3));
        assert_eq!(h.find(&key), Some(8));
        assert!(h.erase(&key));
        assert!(!h.erase(&key));
        assert_eq!(h.find(&key), None);
        assert!(!h.update(&key, |v| v + 1));
        assert!(h.insert_or_update(&key, &9, |v| v + 9).inserted());
        assert_eq!(h.find(&key), Some(9));
    }

    #[test]
    fn concurrent_erase_has_single_winner() {
        let table = tiny_table();
        {
            let mut h = table.handle();
            for i in 0..2_000u64 {
                h.insert(&format!("e-{i}"), &i);
            }
        }
        let erased = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = &table;
                let erased = &erased;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..2_000u64 {
                        if h.erase(&format!("e-{i}")) {
                            erased.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            erased.load(Ordering::Relaxed),
            2_000,
            "double-counted erase"
        );
        assert_eq!(table.size_exact_quiescent(), 0);
    }
}
