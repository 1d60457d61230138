//! Input generation.  Everything here runs before any set-up timing
//! starts; the library only ever sees the vectors built here.
//!
//! u64 keys come from a seeded bijection of the index range, so keys
//! drawn from disjoint index ranges are distinct without a dedup set, and
//! "absent" keys are guaranteed absent by construction.

use std::collections::HashMap;

use growt_workloads::{word_corpus, Mt64, SplitMix64, ZipfSampler};

/// Op kinds of the timed streams (low bits of a kind byte).
pub const INSERT: u8 = 0;
/// Find that must return the key's initial value.
pub const FIND_V0: u8 = 1;
/// Find that may return the initial or the updated value (the key is
/// overwritten somewhere in the stream, possibly by the other thread).
pub const FIND_ANY: u8 = 2;
/// Find of a key that is never inserted.
pub const FIND_MISS: u8 = 3;
/// `update_overwrite` of a resident key to its updated value.
pub const UPDATE: u8 = 4;
/// `insert_or_update(+1)` of a word (word-count stream).
pub const UPSERT: u8 = 5;
/// Find of a word this thread counted earlier in the same block.
pub const FIND_WORD: u8 = 6;
/// Kind-byte flag: the op belongs to the deterministic clocked subset.
pub const SAMPLED: u8 = 0x80;

/// One op in `1 << SAMPLE_SHIFT` is clocked, chosen by a hash of its index.
pub const SAMPLE_SHIFT: u32 = 5;

/// Length of the op pattern of `insert_grow` and `wordcount_string`.  The
/// scheduler deals aligned blocks of 4096 ops, so a pattern group never
/// straddles two threads and a find at position `FIND_POS` may rely on
/// the op at `FIND_POS - FIND_LAG` of its own group having completed.
pub const GROUP: usize = 16;
const FIND_POS: usize = 9;
const FIND_LAG: usize = 5;
const UPDATE_POS: usize = 13;
const UPDATE_LAG: usize = 7;

/// Whether op `i` is in the clocked subset.
fn sampled(i: usize, seed: u64) -> bool {
    growt_workloads::mix64((i as u64) ^ seed.rotate_left(17)) & ((1 << SAMPLE_SHIFT) - 1) == 0
}

fn tag(kind: u8, i: usize, seed: u64) -> u8 {
    if sampled(i, seed) {
        kind | SAMPLED
    } else {
        kind
    }
}

/// Value a key is inserted with.
#[inline]
pub fn v0(key: u64) -> u64 {
    key ^ 0x5555_0000_0000_5555
}

/// Value an `UPDATE` writes.
#[inline]
pub fn v1(key: u64) -> u64 {
    key ^ 0x0000_aaaa_aaaa_0000
}

/// Seeded bijection from indices `0..2^62` onto keys `16..2^62 + 16`
/// (below the migration mark bit and above the reserved sentinels).
#[derive(Clone, Copy)]
pub struct KeySpace {
    k0: u64,
    k1: u64,
}

const MASK62: u64 = (1 << 62) - 1;

impl KeySpace {
    /// Key space for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6b65_7973);
        KeySpace {
            k0: rng.next_u64() & MASK62,
            k1: rng.next_u64() & MASK62,
        }
    }

    /// The key of index `i` (`i < 2^62`).
    #[inline]
    pub fn key(&self, i: u64) -> u64 {
        // Each step is a bijection of the 62-bit range: xor with a
        // constant, multiplication by an odd number, xor-shift right.
        let mut x = (i ^ self.k0) & MASK62;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & MASK62;
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & MASK62;
        x ^= x >> 32;
        x = (x ^ self.k1).wrapping_mul(0x94D0_49BB_1331_11EB) & MASK62;
        x ^= x >> 31;
        x + 16
    }
}

/// A u64 workload: optional prefill, a timed op stream, and the
/// sequential reference of the final contents.
pub struct U64Plan {
    /// Capacity hint handed to `ConcurrentMap::with_capacity`.
    pub capacity_hint: usize,
    /// Keys expected in the table at the end.  The first `prefill` of
    /// them are inserted during set-up.
    pub resident: Vec<u64>,
    /// Number of leading `resident` keys inserted during set-up.
    pub prefill: usize,
    /// `updated[i]`: `resident[i]` is overwritten by the stream, so its
    /// final value is `v1` (otherwise `v0`).
    pub updated: Vec<bool>,
    /// Timed op stream: keys and kind bytes.
    pub keys: Vec<u64>,
    pub kinds: Vec<u8>,
    /// Keys absent from the table (for miss probes).
    pub absent: Vec<u64>,
    /// Segments the stream is timed in (each a throughput sample).
    pub segments: usize,
}

impl U64Plan {
    /// Expected final value of `resident[i]`.
    pub fn expected(&self, i: usize) -> u64 {
        let k = self.resident[i];
        if self.updated[i] {
            v1(k)
        } else {
            v0(k)
        }
    }
}

/// Index where absent keys start; far above every resident index.
const ABSENT_BASE: u64 = 1 << 60;

/// `insert_grow`: 2 threads insert distinct uniform keys into a table
/// that starts at `initial_cells`.  In each group of 16 ops, 14 insert,
/// one finds a key its own thread inserted 5 ops earlier and one
/// overwrites a key inserted 7 ops earlier, so reads and writes of
/// resident keys run during every migration.
pub fn insert_grow(ops: usize, initial_cells: usize, seed: u64) -> U64Plan {
    let space = KeySpace::new(seed);
    let ops = ops / GROUP * GROUP;
    let mut keys = Vec::with_capacity(ops);
    let mut kinds = Vec::with_capacity(ops);
    let mut resident = Vec::with_capacity(ops);
    let mut updated = Vec::with_capacity(ops);
    for i in 0..ops {
        let pos = i % GROUP;
        let (kind, key) = match pos {
            FIND_POS => (FIND_V0, keys[i - FIND_LAG]),
            UPDATE_POS => (UPDATE, keys[i - UPDATE_LAG]),
            _ => {
                let k = space.key(resident.len() as u64);
                resident.push(k);
                updated.push(pos == UPDATE_POS - UPDATE_LAG);
                (INSERT, k)
            }
        };
        keys.push(key);
        kinds.push(tag(kind, i, seed));
    }
    let absent = (0..resident.len().min(1 << 20) as u64)
        .map(|i| space.key(ABSENT_BASE + i))
        .collect();
    U64Plan {
        capacity_hint: initial_cells / 2,
        resident,
        prefill: 0,
        updated,
        keys,
        kinds,
        absent,
        segments: 1,
    }
}

/// `mixed_presized`: a table pre-sized for every key it will hold,
/// prefilled with `prefill` keys, then a mix of 52.5% finds of resident
/// keys, 17.5% finds of absent keys, 25% Zipf(1) overwrites of resident
/// keys and 5% fresh inserts.
pub fn mixed_presized(prefill: usize, ops: usize, segments: usize, seed: u64) -> U64Plan {
    let space = KeySpace::new(seed);
    let mut rng = Mt64::new(seed ^ 0x006d_6978_6564);
    let zipf = ZipfSampler::new(prefill as u64, 1.0);
    let mut updated = vec![false; prefill];
    let mut fresh = 0usize;
    // First pass: kinds and resident indices (fresh inserts get indices
    // past the prefill range).
    let mut kinds = Vec::with_capacity(ops);
    let mut index = Vec::with_capacity(ops);
    for _ in 0..ops {
        let r = rng.next_below(40);
        let (kind, idx) = if r < 2 {
            fresh += 1;
            (INSERT, (prefill + fresh - 1) as u64)
        } else if r < 12 {
            let i = zipf.sample(&mut rng) - 1;
            updated[i as usize] = true;
            (UPDATE, i)
        } else if r < 19 {
            (FIND_MISS, ABSENT_BASE + rng.next_below(ABSENT_BASE))
        } else {
            (FIND_V0, rng.next_below(prefill as u64))
        };
        kinds.push(kind);
        index.push(idx);
    }
    // Second pass: a find of a key overwritten anywhere in the stream may
    // see either value.
    let mut keys = Vec::with_capacity(ops);
    for (i, (kind, idx)) in kinds.iter_mut().zip(index).enumerate() {
        if *kind == FIND_V0 && updated[idx as usize] {
            *kind = FIND_ANY;
        }
        keys.push(space.key(idx));
        *kind = tag(*kind, i, seed);
    }
    let total = prefill + fresh;
    updated.resize(total, false);
    let resident = (0..total as u64).map(|i| space.key(i)).collect();
    let absent = (0..(1usize << 20).min(total) as u64)
        .map(|i| space.key(ABSENT_BASE + (1 << 59) + i))
        .collect();
    U64Plan {
        capacity_hint: total,
        resident,
        prefill,
        updated,
        keys,
        kinds,
        absent,
        segments,
    }
}

/// `wordcount_string`: `insert_or_update(+1)` over a Zipf(1.0) word
/// stream, with one op in 16 a find of a word its own thread counted 5
/// ops earlier.
pub struct WordPlan {
    /// Capacity hint handed to `GenericMap::with_capacity`.
    pub capacity_hint: usize,
    pub vocabulary: Vec<String>,
    /// Vocabulary indices whose text is distinct (the first index of each
    /// text); the stream only uses these.
    pub canonical: Vec<u32>,
    /// Word index of each op.
    pub words: Vec<u32>,
    pub kinds: Vec<u8>,
    /// Sequential reference: the number of `UPSERT`s of each word.
    pub expected: Vec<u64>,
    /// Number of distinct words counted.
    pub distinct: usize,
}

/// Build the word-count plan.
pub fn wordcount(ops: usize, vocabulary: usize, initial_cells: usize, seed: u64) -> WordPlan {
    let ops = ops / GROUP * GROUP;
    let upserts = ops - ops / GROUP;
    let corpus = word_corpus(upserts, vocabulary, 1.0, seed);
    // `word_vocabulary` can repeat a text (a syllable body plus a letter
    // suffix can spell another rank's body plus suffix), so the stream is
    // mapped onto the first index of each text before counting, and the
    // reference counts texts, not ranks.
    let mut first: HashMap<&str, u32> = HashMap::with_capacity(corpus.vocabulary.len());
    let canon: Vec<u32> = corpus
        .vocabulary
        .iter()
        .enumerate()
        .map(|(i, w)| *first.entry(w.as_str()).or_insert(i as u32))
        .collect();
    drop(first);
    let canonical = (0..canon.len() as u32)
        .filter(|&i| canon[i as usize] == i)
        .collect();
    let mut expected = vec![0u64; corpus.vocabulary.len()];
    let mut stream = corpus.stream.iter().map(|&w| canon[w as usize]);
    let mut words = Vec::with_capacity(ops);
    let mut kinds = Vec::with_capacity(ops);
    for i in 0..ops {
        let (kind, w) = if i % GROUP == FIND_POS {
            (FIND_WORD, words[i - FIND_LAG])
        } else {
            let w = stream.next().expect("corpus holds every upsert");
            expected[w as usize] += 1;
            (UPSERT, w)
        };
        words.push(w);
        kinds.push(tag(kind, i, seed));
    }
    let distinct = expected.iter().filter(|&&c| c > 0).count();
    WordPlan {
        capacity_hint: initial_cells / 2,
        vocabulary: corpus.vocabulary,
        canonical,
        words,
        kinds,
        expected,
        distinct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_space_is_injective_and_in_range() {
        let space = KeySpace::new(3);
        let mut keys: Vec<u64> = (0..100_000).map(|i| space.key(i)).collect();
        keys.extend((0..1000).map(|i| space.key(MASK62 - i)));
        assert!(keys.iter().all(|&k| (16..(1 << 62) + 16).contains(&k)));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 101_000);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = mixed_presized(1000, 5000, 1, 9);
        let b = mixed_presized(1000, 5000, 1, 9);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.kinds, b.kinds);
        assert_ne!(a.keys, mixed_presized(1000, 5000, 1, 10).keys);
        let w = wordcount(4096, 512, 256, 1);
        assert_eq!(w.expected.iter().sum::<u64>() as usize, 4096 - 4096 / GROUP);
    }

    #[test]
    fn insert_grow_reads_only_its_own_earlier_keys() {
        let plan = insert_grow(4096, 4096, 5);
        let base = |i: usize| i / GROUP * GROUP;
        for (i, &kind) in plan.kinds.iter().enumerate() {
            if kind & !SAMPLED != INSERT {
                let j = plan.keys[..i]
                    .iter()
                    .rposition(|&k| k == plan.keys[i])
                    .unwrap();
                assert!(j >= base(i), "op {i} reads a key from another group");
            }
        }
        assert_eq!(plan.resident.len(), 4096 / GROUP * 14);
        assert_eq!(plan.updated.iter().filter(|&&u| u).count(), 4096 / GROUP);
    }
}
