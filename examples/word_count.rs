//! Word count — the use case that opens the paper's introduction
//! ("count the number of occurrences of every word in a text"), on real
//! string keys through the §5.7 complex-key subsystem.
//!
//! Every thread streams Zipf-distributed synthetic text into a
//! `GrowMap<String, u64>` with `insert_or_update(word, 1, +1)`.  The map starts
//! tiny and grows transparently (the number of distinct words is unknown
//! in advance); the run reports the migrations crossed, the most frequent
//! words, and verifies the exactness invariant — the counts sum to the
//! number of words ingested.
//!
//! Run with: `cargo run --release --example word_count`

use growt_repro::prelude::*;

fn main() {
    let operations = 1_000_000usize;
    let vocabulary = 50_000usize;
    let skew = 1.0;
    let threads = 4usize;

    // Pre-generate the text, as the paper does for key streams (§8.3).
    let corpus = word_corpus(operations, vocabulary, skew, 42);

    let table: GrowMap<String, u64> = GrowMap::new(4096);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let table = &table;
            let corpus = &corpus;
            scope.spawn(move || {
                let mut handle = table.handle();
                for &w in corpus.stream.iter().skip(t).step_by(threads) {
                    handle.insert_or_update(&corpus.vocabulary[w as usize], &1, |c| c + 1);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut handle = table.handle();
    println!(
        "counted {operations} words (zipf s = {skew}, vocabulary {vocabulary}) in {elapsed:.3}s \
         ({:.2} MOps/s) across {} migrations, final capacity {}",
        operations as f64 / elapsed / 1e6,
        table.migrations_completed(),
        table.current_capacity(),
    );

    println!("most frequent words (rank -> word -> count):");
    for rank in 0..5 {
        let word = &corpus.vocabulary[rank];
        println!(
            "  {:>2} -> {word:<12} -> {}",
            rank + 1,
            handle.find(word).unwrap_or(0)
        );
    }

    // The exactness invariant of the word-count workload: the per-word
    // counts sum to the number of words ingested.  A vocabulary text can
    // repeat, so each distinct text (a non-zero oracle entry) is read once.
    let expected = corpus.expected_counts();
    let total: u64 = corpus
        .vocabulary
        .iter()
        .zip(&expected)
        .filter(|&(_, &count)| count > 0)
        .filter_map(|(w, _)| handle.find(w))
        .sum();
    assert_eq!(total as usize, operations, "lost or double-counted words");
    println!("exactness check passed: counts sum to {total}");
}
