//! One benchmark run: rounds of set-up → timed ops → verification until
//! `--seconds` of timed ops are measured, then the metrics.

use std::time::Instant;

use growt_alloc_track as alloc;
use growt_core::{GrowMap, UaGrow};
use growt_workloads::Clock;

use crate::bench::{Bench, Observed, OpCtx, U64Bench, WordBench};
use crate::driver::{median, ns_per_tick, quantile, ThreadStats, BLOCK, CLASSES};
use crate::gen::{self, U64Plan, WordPlan};
use crate::layers::{self, ProbeKeys};
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InsertGrow,
    MixedPresized,
    WordcountString,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::InsertGrow,
        Workload::MixedPresized,
        Workload::WordcountString,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InsertGrow => "insert_grow",
            Workload::MixedPresized => "mixed_presized",
            Workload::WordcountString => "wordcount_string",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and the guard thresholds that go with them.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `insert_grow`: timed ops per round (7/8 of them insert).
    pub grow_ops: usize,
    /// Initial cells of the growing tables.
    pub initial_cells: usize,
    /// `mixed_presized`: keys inserted during set-up.
    pub mixed_prefill: usize,
    /// `mixed_presized`: timed ops per round, timed in this many segments.
    pub mixed_ops: usize,
    pub mixed_segments: usize,
    /// `wordcount_string`: vocabulary size and timed ops per round.
    pub vocabulary: usize,
    pub word_ops: usize,
    /// Guard: fewest migrations per round of the growing workloads.
    pub min_migrations: u64,
    /// Guard: the `mixed_presized` cell array must exceed this many bytes
    /// (`None`: the L3 size read from `/sys`).
    pub l3_bytes: Option<u64>,
    /// Fewest rounds per run.
    pub min_rounds: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn full() -> Self {
        Sizes {
            grow_ops: 4 << 20,
            initial_cells: 4096,
            mixed_prefill: 10_000_000,
            mixed_ops: 16 << 20,
            mixed_segments: 8,
            vocabulary: 1 << 20,
            word_ops: 7 << 20,
            min_migrations: 8,
            l3_bytes: None,
            min_rounds: 3,
        }
    }

    /// Small sizes for the self-test (same shapes, scaled-down guards).
    pub fn tiny() -> Self {
        Sizes {
            grow_ops: 1 << 16,
            initial_cells: 256,
            mixed_prefill: 20_000,
            mixed_ops: 1 << 16,
            mixed_segments: 2,
            vocabulary: 1 << 13,
            word_ops: 1 << 16,
            min_migrations: 4,
            l3_bytes: Some(256 << 10),
            min_rounds: 2,
        }
    }
}

/// Everything a run is told.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub sizes: Sizes,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Checked library calls (prefill, timed ops, verification lookups).
    pub attempted: u64,
    /// Checked calls whose result differed from the sequential reference.
    pub failed: u64,
    /// The first wrong result, if any.
    pub first_failure: Option<String>,
    /// Extra record fields: (key, JSON value).
    pub info: Vec<(String, String)>,
    /// Traced runs: every span, for writing out.
    pub trace: Option<Tracer>,
    /// Nanoseconds per span clock tick.
    pub ns_per_tick: f64,
}

impl Report {
    fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Unit of each per-layer metric.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ns") || name.ends_with("_ns_per_elem") {
        "ns"
    } else if name.ends_with("_gbps") {
        "GB/s"
    } else if name.ends_with("_ms_total") || name.ends_with("_ms_max") {
        "ms"
    } else if name.ends_with("bytes_total") {
        "B"
    } else if name.ends_with("_share") || name.ends_with("_frac") || name.ends_with("_error") {
        "ratio"
    } else if name.ends_with("imbalance") {
        "x"
    } else {
        "count"
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    /// Timed wall seconds and ops per segment.
    seg_wall_s: Vec<f64>,
    seg_ops: Vec<u64>,
    migrations: u64,
    size_error: f64,
    alloc_count: u64,
    alloc_bytes: u64,
    busy_s: Vec<f64>,
    thread_ops: Vec<u64>,
    stall_ticks: Vec<u64>,
    pending_max: u64,
    pending_end: u64,
    cells: usize,
}

impl Round {
    fn wall_s(&self) -> f64 {
        self.seg_wall_s.iter().sum()
    }

    /// Throughput of each timed segment.
    fn seg_mops(&self) -> impl Iterator<Item = f64> + '_ {
        self.seg_ops
            .iter()
            .zip(&self.seg_wall_s)
            .map(|(&n, &s)| n as f64 / s / 1e6)
    }
}

/// Median segment throughput of `rounds`.
fn mops<'r>(rounds: impl IntoIterator<Item = &'r Round>) -> f64 {
    median(
        &rounds
            .into_iter()
            .flat_map(Round::seg_mops)
            .collect::<Vec<_>>(),
    )
}

/// Latency samples and correctness tallies across rounds.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    lat: [Vec<u32>; 3],
}

impl Totals {
    fn absorb(&mut self, stats: &mut [ThreadStats]) {
        for st in stats {
            self.attempted += st.ops;
            self.failed += st.failures;
            if self.first_failure.is_none() {
                self.first_failure = st.first_failure.take();
            }
            for (all, mine) in self.lat.iter_mut().zip(&mut st.lat) {
                all.append(mine);
            }
        }
    }
}

/// The L3 size reported by `/sys` (the largest level-3 cache of cpu0).
pub fn l3_bytes_from_sys() -> Result<u64, String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let dirs = std::fs::read_dir(base).map_err(|e| format!("cannot read {base}: {e}"))?;
    let mut best = None;
    for d in dirs.flatten() {
        let level = std::fs::read_to_string(d.path().join("level")).unwrap_or_default();
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(d.path().join("size")).unwrap_or_default();
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        if let Ok(n) = num.parse::<u64>() {
            best = best.max(Some(n * mult));
        }
    }
    best.ok_or_else(|| format!("no level-3 cache size under {base}"))
}

/// Bytes per cell of the u64 tables (`growt_core::cell::Cell`).
pub const CELL_BYTES: usize = std::mem::size_of::<growt_core::cell::Cell>();

/// The guard limits one workload must keep.
struct Guard {
    workload: Workload,
    min_migrations: u64,
    l3: u64,
}

impl Guard {
    fn check(&self, migrations_after_setup: u64, r: &Round) -> Result<(), String> {
        let name = self.workload.name();
        match self.workload {
            Workload::MixedPresized => {
                if migrations_after_setup + r.migrations > 0 {
                    return Err(format!(
                        "guard: {name} migrated ({} during set-up, {} timed); it must stay pre-sized",
                        migrations_after_setup, r.migrations
                    ));
                }
                let bytes = (r.cells * CELL_BYTES) as u64;
                if bytes <= self.l3 {
                    return Err(format!(
                        "guard: {name} cell array is {bytes} B, not larger than the {} B L3",
                        self.l3
                    ));
                }
            }
            _ => {
                if r.migrations < self.min_migrations {
                    return Err(format!(
                        "guard: {name} crossed {} migrations, fewer than {}",
                        r.migrations, self.min_migrations
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Wall-clock budget after which a run stops adding rounds.
const WALL_BUDGET_S: f64 = 100.0;

fn one_round<B: Bench>(
    bench: &B,
    cfg: &Config,
    t: &mut Tracer,
    totals: &mut Totals,
    traced: bool,
    guard: &Guard,
) -> Result<Round, String> {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let (map, setup_migrations) = t.phase("setup", |_| {
        let start = Instant::now();
        let map = bench.build();
        let mut stats = bench.prefill(&map, cfg.threads);
        r.setup_s = start.elapsed().as_secs_f64();
        totals.absorb(&mut stats);
        let m = map.migrations();
        (map, m)
    });
    let (count0, bytes0) = (alloc::allocation_count(), alloc::total_allocated_bytes());
    let mut stats = t.phase("timed", |t| {
        let ctx = OpCtx {
            clock: t.clock,
            threads: cfg.threads,
            traced,
            parent: t.current(),
        };
        let (n, segs) = (bench.ops(), bench.segments());
        let mut all = Vec::new();
        for s in 0..segs {
            // Segment bounds stay block-aligned (op patterns never straddle).
            let edge = |s: usize| (n * s / segs) / BLOCK * BLOCK;
            let end = if s + 1 == segs { n } else { edge(s + 1) };
            let mut stats = bench.timed(&map, ctx, edge(s)..end);
            r.seg_wall_s.push(crate::driver::wall_s(&stats));
            r.seg_ops.push(stats.iter().map(|st| st.ops).sum());
            for (t, st) in stats.iter().enumerate() {
                if r.busy_s.len() <= t {
                    r.busy_s.push(0.0);
                    r.thread_ops.push(0);
                }
                r.busy_s[t] += st.busy_s();
                r.thread_ops[t] += st.ops;
            }
            all.append(&mut stats);
        }
        bench.check_timed(&mut all);
        all
    });
    r.alloc_count = alloc::allocation_count() - count0;
    r.alloc_bytes = alloc::total_allocated_bytes() - bytes0;
    r.migrations = map.migrations() - setup_migrations;
    r.pending_max = stats.iter().map(|s| s.pending_max).max().unwrap_or(0);
    r.pending_end = map.pending_reclamation() as u64;
    let live = bench.live_keys() as f64;
    if let Some(est) = stats.iter().rev().find_map(|st| st.size_estimate) {
        r.size_error = (est as f64 - live).abs() / live;
    }
    for st in &mut stats {
        r.stall_ticks.append(&mut st.stalls);
        t.extend(&mut st.spans);
    }
    if traced {
        // Traced rounds clock every op; their latencies are not reported.
        for st in &mut stats {
            st.lat.iter_mut().for_each(Vec::clear);
        }
    }
    totals.absorb(&mut stats);
    let mut vstats = t.phase("verify", |_| bench.verify(&map, cfg.threads));
    totals.absorb(&mut vstats);
    r.cells = map.cells();
    drop(map);
    guard.check(setup_migrations, &r)?;
    Ok(r)
}

fn rounds<B: Bench>(
    bench: &B,
    cfg: &Config,
    t: &mut Tracer,
    totals: &mut Totals,
    guard: &Guard,
) -> Result<Vec<Round>, String> {
    let started = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    let mut timed_s = 0.0;
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is a paired comparison.
    let min_rounds = cfg.sizes.min_rounds * if cfg.trace { 2 } else { 1 };
    while out.len() < min_rounds
        || (timed_s < cfg.seconds && started.elapsed().as_secs_f64() < WALL_BUDGET_S)
    {
        let traced = cfg.trace && out.len() % 2 == 1;
        let r = t.phase("round", |t| one_round(bench, cfg, t, totals, traced, guard))?;
        timed_s += r.wall_s();
        out.push(r);
    }
    Ok(out)
}

/// One untraced round of `bench` with the guards of `cfg.workload`:
/// `(checked results, wrong results)`.  The self-test drives it with
/// deliberately broken maps and mis-sized plans.
pub fn single_round<B: Bench>(bench: &B, cfg: &Config) -> Result<(u64, u64), String> {
    let guard = Guard {
        workload: cfg.workload,
        min_migrations: cfg.sizes.min_migrations,
        l3: match cfg.sizes.l3_bytes {
            Some(b) => b,
            None => l3_bytes_from_sys()?,
        },
    };
    let mut t = Tracer::new(Clock::calibrated(), false);
    let mut totals = Totals::default();
    one_round(bench, cfg, &mut t, &mut totals, false, &guard)?;
    Ok((totals.attempted, totals.failed))
}

/// Peak tracked bytes per live key over one round (set-up included).
/// Run in a process where every cell array goes through the tracking
/// allocator (`GROWT_NO_HUGEPAGES` set; see `main.rs`).
pub fn memory_pass(cfg: &Config) -> Result<f64, String> {
    let mut t = Tracer::new(Clock::calibrated(), false);
    let mut totals = Totals::default();
    let guard = Guard {
        workload: cfg.workload,
        min_migrations: 0,
        l3: 0,
    };
    let (peak, live) = match cfg.workload {
        Workload::WordcountString => {
            let plan = word_plan(cfg);
            let b = WordBench::<GrowMap<String, u64>>::new(&plan);
            let peak = peak_of(|| one_round(&b, cfg, &mut t, &mut totals, false, &guard))?;
            (peak, b.live_keys())
        }
        _ => {
            let plan = u64_plan(cfg);
            let b = U64Bench::<UaGrow>::new(&plan);
            let peak = peak_of(|| one_round(&b, cfg, &mut t, &mut totals, false, &guard))?;
            (peak, b.live_keys())
        }
    };
    if totals.failed > 0 {
        return Err(format!(
            "{} of {} results differ from the sequential reference; first: {}",
            totals.failed,
            totals.attempted,
            totals.first_failure.unwrap_or_default()
        ));
    }
    Ok(peak as f64 / live.max(1) as f64)
}

/// Peak live bytes above the level at the start of `f`.
fn peak_of(f: impl FnOnce() -> Result<Round, String>) -> Result<u64, String> {
    let base = alloc::current_bytes();
    alloc::reset_counters();
    f()?;
    Ok(alloc::peak_bytes().saturating_sub(base))
}

/// The u64 plan of `cfg` (`insert_grow` or `mixed_presized`).
pub fn u64_plan(cfg: &Config) -> U64Plan {
    let s = &cfg.sizes;
    match cfg.workload {
        Workload::InsertGrow => gen::insert_grow(s.grow_ops, s.initial_cells, cfg.seed),
        _ => gen::mixed_presized(s.mixed_prefill, s.mixed_ops, s.mixed_segments, cfg.seed),
    }
}

/// The `wordcount_string` plan of `cfg`.
pub fn word_plan(cfg: &Config) -> WordPlan {
    let s = &cfg.sizes;
    gen::wordcount(s.word_ops, s.vocabulary, s.initial_cells, cfg.seed)
}

/// Run the configured workload.  `peak_bytes_per_key` comes from
/// [`memory_pass`] and is appended by the caller.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let gen_start = Instant::now();
    let l3 = match cfg.sizes.l3_bytes {
        Some(b) => b,
        None => l3_bytes_from_sys()?,
    };
    let guard = Guard {
        workload: cfg.workload,
        min_migrations: cfg.sizes.min_migrations,
        l3,
    };
    let clock = Clock::calibrated();
    let mut t = Tracer::new(clock, cfg.trace);
    let mut totals = Totals::default();
    let mut report = Report::default();
    report.info("l3_bytes", l3);
    let (rounds, probes, new_keys) = match cfg.workload {
        Workload::WordcountString => {
            let plan = word_plan(cfg);
            report.info("generate_s", gen_start.elapsed().as_secs_f64());
            let b = WordBench::<GrowMap<String, u64>>::new(&plan);
            let rounds = rounds(&b, cfg, &mut t, &mut totals, &guard)?;
            let probes = if cfg.trace {
                let ids: Vec<u64> = (0..plan.vocabulary.len() as u64)
                    .filter(|&w| plan.expected[w as usize] > 0)
                    .map(|w| w + 16)
                    .collect();
                let words: Vec<String> = ids
                    .iter()
                    .map(|&w| plan.vocabulary[(w - 16) as usize].clone())
                    .collect();
                let vocab = plan.vocabulary.len() as u64;
                let absent: Vec<u64> = (vocab..vocab + vocab.min(1 << 20))
                    .map(|w| w + 16)
                    .collect();
                let keys = ProbeKeys {
                    keys: &ids,
                    absent: &absent,
                    strings: &words,
                    cells: rounds.last().map_or(0, |r| r.cells),
                };
                probe_all(&mut t, &keys, &words)?
            } else {
                Vec::new()
            };
            report.info("keys", b.live_keys());
            (rounds, probes, b.new_keys())
        }
        _ => {
            let plan = u64_plan(cfg);
            report.info("generate_s", gen_start.elapsed().as_secs_f64());
            let b = U64Bench::<UaGrow>::new(&plan);
            let rounds = rounds(&b, cfg, &mut t, &mut totals, &guard)?;
            let probes = if cfg.trace {
                let strings: Vec<String> = plan
                    .resident
                    .iter()
                    .take(1 << 20)
                    .map(|k| k.to_string())
                    .collect();
                let keys = ProbeKeys {
                    keys: &plan.resident,
                    absent: &plan.absent,
                    strings: &strings,
                    cells: rounds.last().map_or(0, |r| r.cells),
                };
                probe_all(&mut t, &keys, &plan.resident)?
            } else {
                Vec::new()
            };
            report.info("keys", b.live_keys());
            (rounds, probes, b.new_keys())
        }
    };
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    report.first_failure = totals.first_failure.take();
    let cells = rounds.last().map_or(0, |r| r.cells);
    report.info("table_bytes", cells * CELL_BYTES);
    report.info("rounds", rounds.len());
    report.info(
        "migrations_per_round",
        rounds.iter().map(|r| r.migrations).min().unwrap_or(0),
    );
    let list = |f: &dyn Fn(&Round) -> f64| {
        let v: Vec<String> = rounds.iter().map(|r| format!("{:.4}", f(r))).collect();
        format!("[{}]", v.join(", "))
    };
    report.info("round_mops", list(&|r| mops([r])));
    report.info("round_setup_s", list(&|r| r.setup_s));
    let ns_tick = ns_per_tick(&clock);
    if cfg.trace {
        layer_metrics(
            &mut report,
            &rounds,
            probes,
            ns_tick,
            cfg.workload,
            new_keys,
        );
        let summary = t.summary(ns_tick);
        let fields: Vec<String> = summary
            .iter()
            .map(|(name, count, total, own)| {
                format!(
                    "\"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                    total / 1e6,
                    own / 1e6
                )
            })
            .collect();
        report.info("spans", format!("{{{}}}", fields.join(", ")));
        report.trace = Some(t);
    } else {
        end_to_end_metrics(&mut report, &rounds, &mut totals, ns_tick);
    }
    report.info("clock_tsc", clock.is_tsc());
    report.ns_per_tick = ns_tick;
    Ok(report)
}

fn probe_all<K: growt_core::KeyRepr>(
    t: &mut Tracer,
    keys: &ProbeKeys,
    generic_keys: &[K],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = layers::hash(t, keys);
    out.extend(layers::table(t, keys)?);
    out.extend(layers::grow(t, keys)?);
    out.extend(layers::generic(t, generic_keys)?);
    Ok(out)
}

fn end_to_end_metrics(report: &mut Report, rounds: &[Round], totals: &mut Totals, ns_tick: f64) {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    report.metric("throughput_mops", mops(rounds), "Mops/s");
    report.metric("setup_s", median(&setup), "s");
    const NAMES: [[&str; 2]; 3] = [
        ["insert_p50_ns", "insert_p99_ns"],
        ["find_p50_ns", "find_p99_ns"],
        ["update_p50_ns", "update_p99_ns"],
    ];
    let mut samples = Vec::new();
    for (c, names) in NAMES.iter().enumerate() {
        let lat = &mut totals.lat[c];
        report.metric(names[0], quantile(lat, 0.50) * ns_tick, "ns");
        report.metric(names[1], quantile(lat, 0.99) * ns_tick, "ns");
        samples.push(format!("\"{}\": {}", CLASSES[c], lat.len()));
    }
    report.info("samples", format!("{{{}}}", samples.join(", ")));
}

fn layer_metrics(
    report: &mut Report,
    rounds: &[Round],
    probes: Vec<(&'static str, f64)>,
    ns_tick: f64,
    workload: Workload,
    new_keys: usize,
) {
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let med = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let stall_ms = |r: &Round| r.stall_ticks.iter().sum::<u64>() as f64 * ns_tick / 1e6;
    let mut put = |name: &'static str, value: f64| report.metric(name, value, layer_unit(name));
    for (name, value) in probes {
        put(name, value);
    }
    put("migrate.count", med(&traced, &|r| r.migrations as f64));
    put(
        "migrate.stalled_ops",
        med(&traced, &|r| r.stall_ticks.len() as f64),
    );
    put("migrate.stall_ms_total", med(&traced, &stall_ms));
    put(
        "migrate.stall_ms_max",
        med(&traced, &|r| {
            r.stall_ticks.iter().max().copied().unwrap_or(0) as f64 * ns_tick / 1e6
        }),
    );
    put(
        "migrate.stall_share",
        med(&traced, &|r| {
            stall_ms(r) / 1e3 / r.busy_s.iter().sum::<f64>()
        }),
    );
    put("count.size_estimate_error", med(&traced, &|r| r.size_error));
    let (pmax, pend) = if workload == Workload::WordcountString {
        (
            traced.iter().map(|r| r.pending_max).max().unwrap_or(0) as f64,
            med(&traced, &|r| r.pending_end as f64),
        )
    } else {
        (0.0, 0.0)
    };
    put("qsbr.pending_max", pmax);
    put("qsbr.pending_end", pend);
    put("alloc.count", med(&traced, &|r| r.alloc_count as f64));
    put("alloc.bytes_total", med(&traced, &|r| r.alloc_bytes as f64));
    put(
        "alloc.count_per_new_key",
        med(&traced, &|r| r.alloc_count as f64) / new_keys.max(1) as f64,
    );
    let spread =
        |r: &Round, f: fn(f64, f64) -> f64| r.busy_s.iter().copied().reduce(f).unwrap_or(0.0);
    put(
        "driver.busy_imbalance",
        med(&plain, &|r| spread(r, f64::max) / spread(r, f64::min)),
    );
    let ops = |r: &Round, f: fn(u64, u64) -> u64| {
        r.thread_ops.iter().copied().reduce(f).unwrap_or(0) as f64
    };
    put(
        "driver.ops_per_thread_min",
        med(&plain, &|r| ops(r, u64::min)),
    );
    put(
        "driver.ops_per_thread_max",
        med(&plain, &|r| ops(r, u64::max)),
    );
    put(
        "trace.overhead_frac",
        1.0 - mops(traced.iter().copied()) / mops(plain.iter().copied()),
    );
}
