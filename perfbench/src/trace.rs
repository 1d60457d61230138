//! In-memory spans of the traced run.  Spans are recorded by the
//! benchmark around its own calls into the library (phases, layer probes
//! and single ops), kept in memory, and written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use growt_workloads::Clock;

/// One span: `start`/`end` are `Clock` ticks, `parent` is 0 for a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Id space of worker `t`'s op spans (the main thread uses `1..`).
pub fn worker_id_base(t: usize) -> u64 {
    (t as u64 + 1) << 40
}

/// Phase spans of the main thread plus every worker span merged in.
pub struct Tracer {
    pub clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    next: u64,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            next: 1,
        }
    }

    /// Id of the innermost open phase (0 when none).
    pub fn current(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].id)
    }

    /// Run `f` inside a phase span named `name`, nested in the innermost
    /// open phase.
    pub fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next;
        self.next += 1;
        let parent = self.current();
        self.spans.push(Span {
            id,
            parent,
            name,
            start: self.clock.now(),
            end: 0,
        });
        self.open.push(self.spans.len() - 1);
        let r = f(self);
        let i = self.open.pop().expect("phase stack is balanced");
        self.spans[i].end = self.clock.now();
        r
    }

    /// Merge spans recorded by a worker.
    pub fn extend(&mut self, spans: &mut Vec<Span>) {
        if self.enabled {
            self.spans.append(spans);
        }
    }

    /// Per span name: (count, total ns, self ns), where self time is the
    /// duration minus the part of it covered by the span's children.
    pub fn summary(&self, ns_per_tick: f64) -> Vec<(&'static str, u64, f64, f64)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_name: HashMap<&'static str, (u64, f64, f64)> = HashMap::new();
        for s in &self.spans {
            let dur = s.end.saturating_sub(s.start);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ticks(c, s.start, s.end));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * ns_per_tick;
            e.2 += dur.saturating_sub(covered) as f64 * ns_per_tick;
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Write every span as a tab-separated line: id, parent, name, start
    /// ns and end ns relative to the first span.
    pub fn write(&self, path: &Path, ns_per_tick: f64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let epoch = self.spans.iter().map(|s| s.start).min().unwrap_or(0);
        let ns = |t: u64| (t.saturating_sub(epoch) as f64 * ns_per_tick) as u64;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

/// Ticks of `[start, end)` covered by the union of `intervals`.
fn covered_ticks(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered_ticks(&mut iv, 0, 100), 20 + 10 + 5);
    }

    #[test]
    fn phases_nest() {
        let mut t = Tracer::new(Clock::calibrated(), true);
        t.phase("outer", |t| {
            t.phase("inner", |_| std::hint::black_box(0));
        });
        let s = t.summary(1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        let (outer, inner) = (s[1], s[0]);
        assert!(outer.3 <= outer.2 - inner.2 + 1.0);
    }
}
