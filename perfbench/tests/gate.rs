//! Self-test of the correctness gate and the guards at tiny sizes, on two
//! seeds: a map that silently drops one write must be caught, and a
//! workload sized outside its guards must be refused.

use std::sync::atomic::{AtomicU64, Ordering};

use growt_core::{GrowMap, UaGrow};
use growt_iface::{
    Capabilities, ConcurrentMap, GenericMap, GenericMapHandle, InsertOrUpdate, MapHandle,
};
use growt_perfbench::bench::{Observed, U64Bench, WordBench};
use growt_perfbench::run::{single_round, u64_plan, word_plan, Config, Sizes, Workload};

const SEEDS: [u64; 2] = [1, 2];
/// The write the broken maps drop (by global call order).
const DROP_AT: u64 = 1000;

fn cfg(workload: Workload, seed: u64) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.1,
        trace: false,
        threads: 2,
        sizes: Sizes::tiny(),
    }
}

/// `UaGrow` whose `DROP_AT`-th insert reports success without inserting.
struct DropOneInsert {
    inner: UaGrow,
    inserts: AtomicU64,
}

struct DropOneInsertHandle<'a> {
    map: &'a DropOneInsert,
    h: <UaGrow as ConcurrentMap>::Handle<'a>,
}

impl ConcurrentMap for DropOneInsert {
    type Handle<'a> = DropOneInsertHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        DropOneInsert {
            inner: UaGrow::with_capacity(capacity),
            inserts: AtomicU64::new(0),
        }
    }

    fn handle(&self) -> DropOneInsertHandle<'_> {
        DropOneInsertHandle {
            map: self,
            h: self.inner.handle(),
        }
    }

    fn capabilities() -> Capabilities {
        UaGrow::capabilities()
    }
}

impl MapHandle for DropOneInsertHandle<'_> {
    fn insert(&mut self, k: u64, v: u64) -> bool {
        if self.map.inserts.fetch_add(1, Ordering::Relaxed) == DROP_AT {
            return true;
        }
        self.h.insert(k, v)
    }
    fn find(&mut self, k: u64) -> Option<u64> {
        self.h.find(k)
    }
    fn update(&mut self, k: u64, d: u64, up: fn(u64, u64) -> u64) -> bool {
        self.h.update(k, d, up)
    }
    fn insert_or_update(&mut self, k: u64, d: u64, up: fn(u64, u64) -> u64) -> InsertOrUpdate {
        self.h.insert_or_update(k, d, up)
    }
    fn erase(&mut self, k: u64) -> bool {
        self.h.erase(k)
    }
}

impl Observed for DropOneInsert {
    fn migrations(&self) -> u64 {
        self.inner.migrations()
    }
    fn cells(&self) -> usize {
        self.inner.cells()
    }
    fn exact_len(&self) -> usize {
        self.inner.exact_len()
    }
}

/// `GrowMap<String, u64>` whose `DROP_AT`-th upsert is lost.
struct DropOneCount {
    inner: GrowMap<String, u64>,
    upserts: AtomicU64,
}

struct DropOneCountHandle<'a> {
    map: &'a DropOneCount,
    h: <GrowMap<String, u64> as GenericMap<String, u64>>::Handle<'a>,
}

impl GenericMap<String, u64> for DropOneCount {
    type Handle<'a> = DropOneCountHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        DropOneCount {
            inner: GenericMap::with_capacity(capacity),
            upserts: AtomicU64::new(0),
        }
    }

    fn handle(&self) -> DropOneCountHandle<'_> {
        DropOneCountHandle {
            map: self,
            h: GenericMap::handle(&self.inner),
        }
    }

    fn map_name() -> &'static str {
        "dropOneCount"
    }
}

impl GenericMapHandle<String, u64> for DropOneCountHandle<'_> {
    fn insert(&mut self, key: &String, value: &u64) -> bool {
        self.h.insert(key, value)
    }
    fn find(&mut self, key: &String) -> Option<u64> {
        self.h.find(key)
    }
    fn update(&mut self, key: &String, up: &dyn Fn(&u64) -> u64) -> bool {
        self.h.update(key, up)
    }
    fn insert_or_update(
        &mut self,
        key: &String,
        value: &u64,
        up: &dyn Fn(&u64) -> u64,
    ) -> InsertOrUpdate {
        if self.map.upserts.fetch_add(1, Ordering::Relaxed) == DROP_AT {
            return InsertOrUpdate::Updated;
        }
        self.h.insert_or_update(key, value, up)
    }
    fn erase(&mut self, key: &String) -> bool {
        self.h.erase(key)
    }
}

impl Observed for DropOneCount {
    fn migrations(&self) -> u64 {
        self.inner.migrations()
    }
    fn cells(&self) -> usize {
        self.inner.cells()
    }
    fn exact_len(&self) -> usize {
        self.inner.exact_len()
    }
}

#[test]
fn correct_maps_pass_the_gate() {
    for seed in SEEDS {
        for w in [Workload::InsertGrow, Workload::MixedPresized] {
            let c = cfg(w, seed);
            let plan = u64_plan(&c);
            let (checked, failed) = single_round(&U64Bench::<UaGrow>::new(&plan), &c).unwrap();
            assert!(checked > 0);
            assert_eq!(failed, 0, "{w:?} seed {seed}");
        }
        let c = cfg(Workload::WordcountString, seed);
        let plan = word_plan(&c);
        let bench = WordBench::<GrowMap<String, u64>>::new(&plan);
        assert_eq!(single_round(&bench, &c).unwrap().1, 0, "seed {seed}");
    }
}

#[test]
fn gate_trips_on_a_map_that_drops_one_write() {
    for seed in SEEDS {
        for w in [Workload::InsertGrow, Workload::MixedPresized] {
            let c = cfg(w, seed);
            let plan = u64_plan(&c);
            let (_, failed) = single_round(&U64Bench::<DropOneInsert>::new(&plan), &c).unwrap();
            assert!(failed >= 1, "{w:?} seed {seed}: dropped insert not caught");
        }
        let c = cfg(Workload::WordcountString, seed);
        let plan = word_plan(&c);
        let (_, failed) = single_round(&WordBench::<DropOneCount>::new(&plan), &c).unwrap();
        assert!(failed >= 1, "seed {seed}: lost count not caught");
    }
}

fn guard_error(r: Result<(u64, u64), String>) -> String {
    match r {
        Err(e) => e,
        Ok(_) => panic!("mis-sized workload passed its guards"),
    }
}

#[test]
fn guards_trip_on_mis_sized_workloads() {
    for seed in SEEDS {
        // Too few keys to cross the migration minimum.
        let mut c = cfg(Workload::InsertGrow, seed);
        c.sizes.grow_ops = 1 << 10;
        let plan = u64_plan(&c);
        let e = guard_error(single_round(&U64Bench::<UaGrow>::new(&plan), &c));
        assert!(e.contains("migrations"), "{e}");

        let mut c = cfg(Workload::WordcountString, seed);
        c.sizes.word_ops = 1 << 10;
        let plan = word_plan(&c);
        let e = guard_error(single_round(
            &WordBench::<GrowMap<String, u64>>::new(&plan),
            &c,
        ));
        assert!(e.contains("migrations"), "{e}");

        // Cell array not larger than the cache it must exceed.
        let mut c = cfg(Workload::MixedPresized, seed);
        c.sizes.l3_bytes = Some(64 << 20);
        let plan = u64_plan(&c);
        let e = guard_error(single_round(&U64Bench::<UaGrow>::new(&plan), &c));
        assert!(e.contains("L3"), "{e}");

        // Under-sized, so the "pre-sized" table migrates.
        let c = cfg(Workload::MixedPresized, seed);
        let mut plan = u64_plan(&c);
        plan.capacity_hint = 1024;
        let e = guard_error(single_round(&U64Bench::<UaGrow>::new(&plan), &c));
        assert!(e.contains("migrated"), "{e}");
    }
}
