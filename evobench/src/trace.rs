//! In-memory spans recorded from the benchmark's own code around each
//! public call, and the self-time arithmetic over them.
//!
//! A span has a name (its layer), a start, an end, a parent, and a group
//! id shared by every span of one campaign, cycle or session. Calls the
//! benchmark cannot see inside (a profiled campaign, a whole service
//! session) get *derived* children: durations the program reports
//! itself (`PhaseProfiler` phases) or that a layer probe measured per
//! unit of work times an exact count, laid end to end from the parent's
//! start and clipped to it. A layer's self time is its spans' duration
//! minus the part of each interval their children cover, so the self
//! times of a trace whose children nest inside their parents sum to the
//! root's duration — nothing is counted twice.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer name (`campaign.propose`, `wire.decode`, …).
    pub name: &'static str,
    /// Campaign, cycle or session id shared by the spans of one unit.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Whether the interval was derived from a reported duration rather
    /// than clocked around a call.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Spans live in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Where the next derived child of each parent starts.
    cursor: BTreeMap<usize, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cursor: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, group: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns: now,
            end_ns: now,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Clock `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, group, parent);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Add a derived child of `parent` lasting `dur_ns`, placed after the
    /// parent's previous derived child and clipped to the parent's end.
    pub fn derived(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let p = &self.spans[parent];
        let (group, p_start, p_end) = (p.group, p.start_ns, p.end_ns);
        let start = *self.cursor.get(&parent).unwrap_or(&p_start);
        let end = start.saturating_add(dur_ns).min(p_end);
        self.cursor.insert(parent, end);
        self.spans.push(Span {
            name,
            group,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span by index.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer (span name), summed over spans.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.name).or_insert(0) += own;
    }
    by_layer
}

/// Total duration of the root spans.
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// The layer table a traced run prints: each layer's self time and share
/// of the traced wall, largest first, plus a check line that the shares
/// add up to the wall.
pub fn layer_table(spans: &[Span]) -> Vec<String> {
    let wall = root_wall_ns(spans).max(1);
    let mut rows: Vec<(&str, u64)> = self_by_layer(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut lines: Vec<String> = rows
        .iter()
        .map(|(name, ns)| {
            format!(
                "self {name:<22} {:>12.3} ms {:>6.2}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / wall as f64
            )
        })
        .collect();
    let sum: u64 = rows.iter().map(|(_, ns)| ns).sum();
    lines.push(format!(
        "self sum {:.3} ms of traced wall {:.3} ms",
        sum as f64 / 1e6,
        wall as f64 / 1e6
    ));
    lines
}

/// Directory, relative to the working directory, traced runs write to.
pub const TRACE_DIR: &str = ".evobench";

/// Write every span of a traced run, with each span's self time, to
/// `.evobench/trace-<workload>-<seed>.json`. Returns a line naming the
/// file.
pub fn write_trace(workload: &str, seed: u64, t: &Tracer) -> Result<String, String> {
    #[derive(Serialize)]
    struct Row {
        id: usize,
        span: Span,
        self_ns: u64,
    }
    let spans = t.spans();
    let rows: Vec<Row> = spans
        .iter()
        .zip(self_times(spans))
        .enumerate()
        .map(|(id, (span, self_ns))| Row {
            id,
            span: span.clone(),
            self_ns,
        })
        .collect();
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{workload}-{seed}.json");
    let json = serde_json::to_string(&rows).map_err(|e| format!("encode trace: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(format!("trace {} spans written to {path}", spans.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns: start,
            end_ns: end,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // root [0,100] ⊃ a [10,40] ⊃ g [15,20]; root ⊃ b [30,60], which
        // overlaps a: root's children cover [10,60] once, not 60 ns.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("g", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn nested_self_times_sum_to_the_root_wall() {
        let spans = vec![
            span("run", None, 0, 1_000),
            span("unit", Some(0), 100, 900),
            span("call", Some(1), 150, 700),
            span("call", Some(1), 720, 880),
            span("inner", Some(2), 200, 300),
        ];
        let total: u64 = self_by_layer(&spans).values().sum();
        assert_eq!(total, root_wall_ns(&spans));
        assert_eq!(self_by_layer(&spans)["call"], 450 + 160);
    }

    #[test]
    fn derived_children_are_laid_end_to_end_and_clipped() {
        let mut t = Tracer::new();
        let root = t.open("root", 7, None);
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        let a = t.derived(root, "a", 30);
        let b = t.derived(root, "b", 50);
        let c = t.derived(root, "c", 50);
        assert_eq!((t.get(a).start_ns, t.get(a).end_ns), (0, 30));
        assert_eq!((t.get(b).start_ns, t.get(b).end_ns), (30, 80));
        assert_eq!((t.get(c).start_ns, t.get(c).end_ns), (80, 100));
        assert!(t.spans().iter().skip(1).all(|s| s.derived && s.group == 7));
        assert_eq!(self_times(t.spans()), vec![0, 30, 50, 20]);
    }
}
