//! Workload generation and measurement infrastructure for the reproduction
//! of *"Concurrent Hash Tables: Fast and General?(!)"* (PPoPP 2016).
//!
//! The paper's evaluation (§8.3/§8.4) is built from a small number of
//! ingredients that this crate provides as reusable pieces:
//!
//! * [`mt64`] — the MT19937-64 random number generator used for all key
//!   generation, plus a small splitmix64 helper generator;
//! * [`hash`] — the CRC32-C pair hash of the paper and the
//!   multiply–xorshift default hash of the tables;
//! * [`zipf`] — Zipf(s) samplers for the contention benchmarks;
//! * [`keys`] — pre-generated key sets for every benchmark (uniform,
//!   skewed, mixed, sliding-window deletions);
//! * [`words`] — Zipf-distributed synthetic text over a configurable
//!   vocabulary for the word-count workload (§5.7 complex keys);
//! * [`scheduler`] — the shared block-of-4096 work-dealing counter;
//! * [`driver`] — the generic multi-threaded measurement loop;
//! * [`stats`] — timing, repetition averaging and figure/TSV output.

#![warn(missing_docs)]

pub mod driver;
pub mod hash;
pub mod keys;
pub mod latency;
pub mod mt64;
pub mod scheduler;
pub mod stats;
pub mod watchdog;
pub mod words;
pub mod zipf;

pub use driver::{
    aggregate_driver, deletion_driver, erase_batch_driver, find_batch_driver, find_driver,
    generic_aggregate_driver, generic_wordcount_driver, insert_batch_driver, insert_driver,
    mixed_driver, prefill, run_parallel, run_parallel_batched, run_parallel_batched_latency,
    run_parallel_generic, run_parallel_latency, update_batch_driver, update_driver,
    zipf_mixed_latency_driver, LatencyMeasurement, LAT_CLASS_FIND, LAT_CLASS_INSERT,
    LAT_CLASS_UPDATE,
};
pub use hash::{crc32c_hw_available, crc32c_u64, crc32c_u64_sw, crc64_pair, mix64, HashKind};
pub use keys::{
    deletion_workload, dense_prefill_keys, mixed_workload, uniform_distinct_keys, uniform_keys,
    zipf_keys, zipf_mixed_workload, DeletionWorkload, MixedOp, MixedWorkload, ZipfMixedOp,
    ZipfMixedWorkload,
};
pub use latency::{Clock, LatencyHistogram};
pub use mt64::{Mt64, SplitMix64};
pub use scheduler::BlockScheduler;
pub use stats::{Figure, Measurement, Repetitions, Series};
pub use watchdog::with_watchdog;
pub use words::{word_corpus, word_vocabulary, WordCorpus};
pub use zipf::{top_key_probability, ZipfSampler};
