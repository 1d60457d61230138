//! Synthetic text for the word-count workload (the `SELECT … COUNT(*) …
//! GROUP BY word` use case that motivates the paper's introduction, on
//! string keys via §5.7).
//!
//! Like every other workload of the harness (§8.3), the text is generated
//! **before** the timed region: a vocabulary of distinct pseudo-words and
//! a Zipf-distributed stream of indices into it, so word frequencies
//! follow the natural-language-like power law the aggregation benchmarks
//! assume.  Keeping the stream as indices (rather than materialized
//! `&str`s per occurrence) makes the pre-generated workload compact and
//! lets exactness tests recompute per-word ground truth cheaply.

use std::collections::HashMap;

use crate::mt64::{Mt64, SplitMix64};
use crate::zipf::ZipfSampler;

/// A pre-generated word-count workload: `stream[i]` indexes into
/// `vocabulary`.  Zipf rank 1 (the most frequent word) is
/// `vocabulary[0]`.
pub struct WordCorpus {
    /// Words ordered by Zipf rank (most frequent first); a text can
    /// repeat at a later rank (see [`word_vocabulary`]).
    pub vocabulary: Vec<String>,
    /// The word stream, as indices into `vocabulary`.
    pub stream: Vec<u32>,
}

impl WordCorpus {
    /// Number of words in the stream.
    pub fn total_words(&self) -> usize {
        self.stream.len()
    }

    /// Ground-truth occurrence count per vocabulary index (the exactness
    /// oracle).  A table counts texts, not ranks, so every occurrence of
    /// a repeated text is counted at the first index holding that text
    /// and its later indices read 0.  After ingestion, the table's count
    /// for `vocabulary[i]` must equal `expected_counts()[i]` wherever that
    /// is non-zero, and the non-zero entries are exactly the distinct
    /// words stored.
    pub fn expected_counts(&self) -> Vec<u64> {
        let mut first = HashMap::with_capacity(self.vocabulary.len());
        let canonical: Vec<usize> = self
            .vocabulary
            .iter()
            .enumerate()
            .map(|(i, word)| *first.entry(word.as_str()).or_insert(i))
            .collect();
        let mut counts = vec![0u64; self.vocabulary.len()];
        for &index in &self.stream {
            counts[canonical[index as usize]] += 1;
        }
        counts
    }
}

/// Syllables used to shape pseudo-words (readable, letter-only bodies of
/// varying length, like tokenized natural text).
const SYLLABLES: [&str; 16] = [
    "ka", "ro", "mi", "ta", "shi", "lor", "ven", "da", "pu", "ne", "gra", "ol", "tem", "is", "ba",
    "zu",
];

/// Generate `size` pseudo-words.  The word body is built from hash-chosen
/// syllables (1–4 of them, so lengths vary like real tokens), followed by
/// a base-26 letter suffix encoding the rank.  The suffix makes repeats
/// rare but does not rule them out: a body plus its suffix can spell
/// another rank's body plus suffix (`word_vocabulary(65_536, 1)` repeats
/// a text at rank 4066).  [`WordCorpus::expected_counts`] accounts for
/// that.
pub fn word_vocabulary(size: usize, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    (0..size)
        .map(|rank| {
            let mut h = rng.next_u64();
            let mut word = String::new();
            for _ in 0..=(h % 4) {
                h = h.rotate_right(13).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                word.push_str(SYLLABLES[(h >> 32) as usize % SYLLABLES.len()]);
            }
            // Distinctness suffix: the rank in base-26 letters.
            let mut r = rank;
            loop {
                word.push((b'a' + (r % 26) as u8) as char);
                r /= 26;
                if r == 0 {
                    break;
                }
            }
            word
        })
        .collect()
}

/// Pre-generate a word-count workload: `ops` words drawn Zipf(`s`) from a
/// vocabulary of `vocabulary_size` distinct words.
pub fn word_corpus(ops: usize, vocabulary_size: usize, s: f64, seed: u64) -> WordCorpus {
    assert!(vocabulary_size >= 1, "vocabulary must be non-empty");
    assert!(
        vocabulary_size <= u32::MAX as usize,
        "vocabulary too large for u32 stream indices"
    );
    let vocabulary = word_vocabulary(vocabulary_size, seed ^ 0x5743_5953);
    let sampler = ZipfSampler::new(vocabulary_size as u64, s);
    let mut rng = Mt64::new(seed);
    let stream = (0..ops)
        .map(|_| (sampler.sample(&mut rng) - 1) as u32)
        .collect();
    WordCorpus { vocabulary, stream }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vocabulary_is_distinct_and_nonempty() {
        let vocab = word_vocabulary(10_000, 7);
        assert_eq!(vocab.len(), 10_000);
        let distinct: HashSet<&String> = vocab.iter().collect();
        assert_eq!(distinct.len(), vocab.len(), "duplicate words generated");
        assert!(vocab.iter().all(|w| !w.is_empty()));
        // Lengths vary (syllable count 1–4 plus suffix).
        let lens: HashSet<usize> = vocab.iter().map(|w| w.len()).collect();
        assert!(lens.len() > 3, "word lengths are degenerate: {lens:?}");
    }

    #[test]
    fn expected_counts_fold_repeated_texts_onto_their_first_index() {
        let vocabulary = word_vocabulary(65_536, 1);
        let corpus = WordCorpus {
            stream: (0..vocabulary.len() as u32).collect(),
            vocabulary,
        };
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut occurrences: HashMap<&str, u64> = HashMap::new();
        for (i, word) in corpus.vocabulary.iter().enumerate() {
            first.entry(word).or_insert(i);
            *occurrences.entry(word).or_default() += 1;
        }
        assert!(
            first.len() < corpus.vocabulary.len(),
            "this vocabulary is known to repeat a text"
        );
        let counts = corpus.expected_counts();
        for (i, word) in corpus.vocabulary.iter().enumerate() {
            let want = if first[word.as_str()] == i {
                occurrences[word.as_str()]
            } else {
                0
            };
            assert_eq!(counts[i], want, "rank {i} ({word})");
        }
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), first.len());
    }

    #[test]
    fn corpus_counts_sum_to_stream_length() {
        let corpus = word_corpus(50_000, 500, 1.0, 42);
        assert_eq!(corpus.total_words(), 50_000);
        let counts = corpus.expected_counts();
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
        // Zipf head: rank 1 must dominate.
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 1 is not the most frequent word");
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = word_corpus(5_000, 100, 0.9, 3);
        let b = word_corpus(5_000, 100, 0.9, 3);
        assert_eq!(a.vocabulary, b.vocabulary);
        assert_eq!(a.stream, b.stream);
        let c = word_corpus(5_000, 100, 0.9, 4);
        assert_ne!(a.stream, c.stream);
    }

    #[test]
    fn uniform_exponent_spreads_counts() {
        let corpus = word_corpus(64_000, 64, 0.0, 11);
        let counts = corpus.expected_counts();
        let expected = 1_000.0;
        for (i, &c) in counts.iter().enumerate() {
            let c = c as f64;
            assert!(
                c > expected * 0.75 && c < expected * 1.25,
                "word {i}: count {c}"
            );
        }
    }
}
