//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a layer
//! of the program (kernel constructors, machine builds, `Machine::run`,
//! kernel runs, the analyzers), under one root span per operation. Spans
//! stay in memory until the run ends; a layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (e.g. `machine.run`).
    pub name: &'static str,
    /// Operation the span belongs to (its index in the workload).
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds.
    pub start: f64,
    /// End, in seconds.
    pub end: f64,
}

/// Records nested spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (ignored when the recorder is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Recorder {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name` for operation `op`, nested in the
    /// innermost open span.
    pub fn enter(&mut self, name: &'static str, op: usize) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        Open(id)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span), so overlapping children
/// are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per layer name.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.name).or_insert(0.0) += t;
    }
    by_layer
}

/// The spans as Chrome trace-event JSON (complete events, microseconds),
/// loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}{}",
            s.name,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.op,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = [
            span("op", None, 0.0, 10.0),
            span("setup", Some(0), 1.0, 3.0),
            span("run", Some(0), 4.0, 9.0),
            span("inner", Some(2), 5.0, 6.5),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![3.0, 2.0, 3.5, 1.5]);
        assert_eq!(t.iter().sum::<f64>(), 10.0, "self times tile the root");
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["run"], 3.5);
        assert_eq!(by_layer.len(), 4);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 8.0, 12.0),
        ];
        // Covered: [1, 6] and [8, 10] (c is clipped to the parent).
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn recorder_nests_and_can_be_off() {
        let mut rec = Recorder::new(true);
        let op = rec.enter("op", 7);
        let inner = rec.enter("machine.run", 7);
        rec.exit(inner);
        rec.exit(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 7));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let json = chrome_json(spans);
        assert!(json.contains("\"name\":\"machine.run\"") && json.contains("\"parent\":0"));

        let mut off = Recorder::new(false);
        let s = off.enter("op", 0);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
