//! Layer probes of the traced run.  Each probe drives one layer's public
//! functions from a single thread over the workload's own keys, at the
//! capacity and load the workload ends with, inside its own phase span.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use growt_core::config::{hash_key, scale_to_capacity, MIGRATION_BLOCK};
use growt_core::mem::HugeBox;
use growt_core::migrate::migrate_block_marking;
use growt_core::table::{InsertOutcome, UpdateOutcome};
use growt_core::{BoundedTable, GrowMap, KeyRepr, UaGrow};
use growt_iface::{ConcurrentMap, GenericMap, GenericMapHandle, MapHandle};

use crate::driver::median;
use crate::run::CELL_BYTES;
use crate::trace::Tracer;

/// Keys handed to the probes.
pub struct ProbeKeys<'a> {
    /// Live u64 keys of the workload (word ids for the word count).
    pub keys: &'a [u64],
    /// u64 keys absent from the table.
    pub absent: &'a [u64],
    /// String keys (the decimal text of the u64 keys for u64 workloads).
    pub strings: &'a [String],
    /// Cell count of the workload's final generation.
    pub cells: usize,
}

/// Named probe results, in the units of `BENCHMARK.json`.
pub type Values = Vec<(&'static str, f64)>;

/// Most keys a find/update/load probe times (inserts always cover every
/// key, so the load matches the workload).
const PROBE_OPS: usize = 1 << 21;
/// Most source cells the copy probe migrates.
const COPY_CELLS: usize = 1 << 23;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn fail(what: String) -> String {
    format!("layer probe: {what}")
}

/// `hash.u64_ns` and `hash.string_ns`: `KeyRepr::hash64` per key, median
/// of five passes.
pub fn hash(t: &mut Tracer, k: &ProbeKeys) -> Values {
    t.phase("probe.hash", |_| {
        let keys = &k.keys[..k.keys.len().min(PROBE_OPS)];
        let pass_u64 = || {
            let start = Instant::now();
            let mut acc = 0u64;
            for key in keys {
                acc ^= black_box(key).hash64();
            }
            black_box(acc);
            ns_per(start, keys.len())
        };
        let pass_str = || {
            let start = Instant::now();
            let mut acc = 0u64;
            for s in k.strings {
                acc ^= black_box(s).hash64();
            }
            black_box(acc);
            ns_per(start, k.strings.len())
        };
        let u: Vec<f64> = (0..5).map(|_| pass_u64()).collect();
        let s: Vec<f64> = (0..5).map(|_| pass_str()).collect();
        vec![("hash.u64_ns", median(&u)), ("hash.string_ns", median(&s))]
    })
}

/// `table.*`: a standalone `BoundedTable` with the workload's final
/// capacity and keys; then `migrate.copy_*` and `migrate.memcpy_gbps`
/// from copying that table into one of twice the size.
pub fn table(t: &mut Tracer, k: &ProbeKeys) -> Result<Values, String> {
    t.phase("probe.table", |t| {
        let table = BoundedTable::with_cells(k.cells, 0);
        let start = Instant::now();
        for &key in k.keys {
            if !matches!(table.insert(key, key), InsertOutcome::Inserted { .. }) {
                return Err(fail(format!("table insert of {key:#x} failed")));
            }
        }
        let insert_ns = ns_per(start, k.keys.len());
        let hits = &k.keys[..k.keys.len().min(PROBE_OPS)];
        let start = Instant::now();
        for &key in hits {
            if table.find(key) != Some(key) {
                return Err(fail(format!("table find of {key:#x} missed")));
            }
        }
        let find_hit_ns = ns_per(start, hits.len());
        let start = Instant::now();
        for &key in k.absent {
            if table.find(key).is_some() {
                return Err(fail(format!("table found absent {key:#x}")));
            }
        }
        let find_miss_ns = ns_per(start, k.absent.len());
        let start = Instant::now();
        for &key in hits {
            if table.update_with(key, key, |_, new| new) != UpdateOutcome::Updated {
                return Err(fail(format!("table update of {key:#x} missed")));
            }
        }
        let update_ns = ns_per(start, hits.len());
        let floor_load_ns = floor_load(k.cells, hits);
        let mut out = vec![
            ("table.insert_ns", insert_ns),
            ("table.find_hit_ns", find_hit_ns),
            ("table.find_miss_ns", find_miss_ns),
            ("table.update_ns", update_ns),
            ("table.floor_load_ns", floor_load_ns),
        ];
        out.extend(t.phase("probe.migrate_copy", |_| copy(&table)));
        Ok(out)
    })
}

/// A word array backed like a cell array (hugepage-hinted mapping).
fn words(len: usize) -> HugeBox<AtomicU64> {
    let w = HugeBox::<AtomicU64>::zeroed(len);
    // Fault every page in, with a value the compiler cannot see.
    let fill = black_box(0u64);
    for x in w.iter() {
        x.store(fill, Relaxed);
    }
    w
}

/// One dependent random load per key over a plain array of the table's
/// bytes: the memory floor of a find.
fn floor_load(cells: usize, keys: &[u64]) -> f64 {
    // Two words per 16-byte cell.  The loaded value (0 at run time) feeds
    // the next address, so the loads cannot overlap.
    let w = words(cells * 2);
    let start = Instant::now();
    let mut prev = 0u64;
    for &key in keys {
        let home = scale_to_capacity(hash_key(key ^ prev), cells);
        prev = w[2 * home].load(Relaxed);
    }
    black_box(prev);
    ns_per(start, keys.len())
}

fn copy(src: &BoundedTable) -> Values {
    let cells = src.capacity().min(COPY_CELLS);
    let dst = BoundedTable::with_cells(src.capacity() * 2, 1);
    let start = Instant::now();
    let mut moved = 0usize;
    for block in (0..cells).step_by(MIGRATION_BLOCK) {
        moved += migrate_block_marking(src, &dst, block, (block + MIGRATION_BLOCK).min(cells));
    }
    let copy_s = start.elapsed().as_secs_f64();
    // The roofline: the same bytes copied between arrays backed like the
    // cell arrays, the destination fresh as a migration target is.
    let len = cells * CELL_BYTES / 8;
    let from = words(len);
    let to = HugeBox::<AtomicU64>::zeroed(len);
    let start = Instant::now();
    // SAFETY: both boxes hold `len` AtomicU64s, which have the layout of
    // u64; they do not overlap and nothing else accesses them during the
    // copy.  AtomicU64 has interior mutability, so writing through a
    // pointer derived from a shared reference is allowed.
    unsafe {
        std::ptr::copy_nonoverlapping(from.as_ptr().cast::<u64>(), to.as_ptr() as *mut u64, len);
    }
    black_box(&to);
    let memcpy_s = start.elapsed().as_secs_f64();
    let bytes = (cells * CELL_BYTES) as f64;
    vec![
        (
            "migrate.copy_ns_per_elem",
            copy_s * 1e9 / moved.max(1) as f64,
        ),
        ("migrate.copy_gbps", bytes / copy_s / 1e9),
        ("migrate.memcpy_gbps", bytes / memcpy_s / 1e9),
    ]
}

/// `grow.*`: the same keys through a pre-sized `UaGrow` handle (prologue,
/// `LocalCount` and the cell kernel), one thread.
pub fn grow(t: &mut Tracer, k: &ProbeKeys) -> Result<Values, String> {
    t.phase("probe.grow", |_| {
        let map = UaGrow::with_capacity(k.cells / 2);
        let mut h = map.handle();
        let start = Instant::now();
        for &key in k.keys {
            if !h.insert(key, key) {
                return Err(fail(format!("grow insert of {key:#x} returned false")));
            }
        }
        let insert_ns = ns_per(start, k.keys.len());
        let hits = &k.keys[..k.keys.len().min(PROBE_OPS)];
        let start = Instant::now();
        for &key in hits {
            if h.find(key) != Some(key) {
                return Err(fail(format!("grow find of {key:#x} missed")));
            }
        }
        let find_ns = ns_per(start, hits.len());
        let start = Instant::now();
        for &key in hits {
            if !h.update_overwrite(key, key) {
                return Err(fail(format!("grow update of {key:#x} missed")));
            }
        }
        let update_ns = ns_per(start, hits.len());
        Ok(vec![
            ("grow.insert_ns", insert_ns),
            ("grow.find_ns", find_ns),
            ("grow.update_ns", update_ns),
        ])
    })
}

fn add_one(c: &u64) -> u64 {
    c + 1
}

/// `generic.*`: a pre-sized `GrowMap<K, u64>` over `keys`: upserts of new
/// keys, upserts of existing keys, then a timed verification pass.
pub fn generic<K: KeyRepr>(t: &mut Tracer, keys: &[K]) -> Result<Values, String> {
    t.phase("probe.generic", |_| {
        let map = <GrowMap<K, u64> as GenericMap<K, u64>>::with_capacity(keys.len());
        let mut h = map.handle();
        let start = Instant::now();
        for key in keys {
            if !h.insert_or_update(key, &1, &add_one).inserted() {
                return Err(fail("generic upsert of a new key updated".into()));
            }
        }
        let new_ns = ns_per(start, keys.len());
        let start = Instant::now();
        for key in keys {
            if h.insert_or_update(key, &1, &add_one).inserted() {
                return Err(fail("generic upsert of an existing key inserted".into()));
            }
        }
        let existing_ns = ns_per(start, keys.len());
        let start = Instant::now();
        for key in keys {
            if GenericMapHandle::find(&mut h, key) != Some(2) {
                return Err(fail("generic verification found a wrong count".into()));
            }
        }
        let find_ns = ns_per(start, keys.len());
        Ok(vec![
            ("generic.upsert_new_ns", new_ns),
            ("generic.upsert_existing_ns", existing_ns),
            ("generic.find_ns", find_ns),
        ])
    })
}
