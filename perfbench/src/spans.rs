//! Spans recorded around each layer call of a traced run, kept in memory
//! and written out when the run ends.
//!
//! A span has a name (`layer.operation`), a start and an end (nanoseconds
//! since the tracer was created), the span that was open when it began,
//! and the sweep cell it belongs to. A span's *self time* is its duration
//! minus the part of its interval its child spans cover; the root span's
//! self time is the explicit `unattributed` remainder, so the self times
//! of all spans tile the traced wall time exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `engine.simulate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
    /// Sweep cell the span belongs to; `None` outside any cell.
    pub cell: Option<usize>,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. Spans must close in the order they opened, which
/// holds for the benchmark's traced passes: they run one layer call at a
/// time, even when a call is made from a sweep worker thread.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn open(&self, name: &'static str, cell: Option<usize>) -> usize {
        let mut state = self.state.lock().expect("no span holder panicked");
        let start_ns = self.now_ns();
        let id = state.spans.len();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        state.open.push(id);
        id
    }

    fn close(&self, id: usize) {
        let mut state = self.state.lock().expect("no span holder panicked");
        let end_ns = self.now_ns();
        assert_eq!(state.open.pop(), Some(id), "spans close in LIFO order");
        state.spans[id].end_ns = end_ns;
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        let state = self.state.into_inner().expect("no span holder panicked");
        assert!(state.open.is_empty(), "every span was closed");
        state.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Checks that the spans form one well-nested tree — a single root, each
/// child inside its parent, siblings disjoint — and that the self times
/// of all spans sum to the root's duration, the traced wall time.
///
/// # Errors
///
/// A description of the first broken condition.
pub fn check_tiling(spans: &[Span]) -> Result<(), String> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    let [root] = roots[..] else {
        return Err(format!("expected one root span, found {}", roots.len()));
    };
    let mut last_end: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        let Some(parent) = span.parent else { continue };
        let outer = &spans[parent];
        if span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {parent} ({})",
                span.name, outer.name
            ));
        }
        // Spans are stored in opening order, so siblings arrive sorted.
        let previous = last_end.entry(parent).or_insert(outer.start_ns);
        if span.start_ns < *previous {
            return Err(format!("span {i} ({}) overlaps a sibling", span.name));
        }
        *previous = span.end_ns;
    }
    let tiled: u64 = self_times(spans).iter().sum();
    let wall = spans[root].duration_ns();
    if tiled != wall {
        return Err(format!(
            "self times sum to {tiled} ns but the traced wall time is {wall} ns"
        ));
    }
    Ok(())
}

/// Per-name totals: `(Σ duration, Σ self time)` in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += span.duration_ns();
        entry.1 += own;
    }
    totals
}

/// The spans as JSON lines, after one header line of `stamp` fields.
pub fn to_jsonl(spans: &[Span], stamp: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in stamp.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{key}\": \"{value}\"").expect("writing to a String");
    }
    out.push_str("}\n");
    for (i, span) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or_else(|| "null".into(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            opt(span.parent),
            opt(span.cell)
        )
        .expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    /// root [0, 100): a [10, 40) holding b [15, 25); c [50, 90).
    fn tree() -> Vec<Span> {
        vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_times(&tree()), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn nested_spans_tile_the_wall_time() {
        assert_eq!(check_tiling(&tree()), Ok(()));
        let totals = totals_by_name(&tree());
        assert_eq!(totals["a"], (30, 20));
        assert_eq!(totals["root"], (100, 30));
    }

    #[test]
    fn broken_trees_are_rejected() {
        let mut escaped = tree();
        escaped[2].end_ns = 45; // b outlives a
        assert!(check_tiling(&escaped).is_err());
        let mut overlapping = tree();
        overlapping[3].start_ns = 30; // c overlaps a
        assert!(check_tiling(&overlapping).is_err());
        let mut two_roots = tree();
        two_roots[3].parent = None;
        assert!(check_tiling(&two_roots).is_err());
    }

    #[test]
    fn tracer_records_parents_and_closes_in_order() {
        let tracer = Tracer::new();
        tracer.span("root", None, || {
            tracer.span("a", Some(3), || tracer.span("b", Some(3), || ()));
            tracer.span("c", None, || ());
        });
        let spans = tracer.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!(spans[1].cell, Some(3));
        assert_eq!(check_tiling(&spans), Ok(()));
        let jsonl = to_jsonl(&spans, &[("seed", "7".into())]);
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.starts_with("{\"seed\": \"7\"}"));
    }
}
