//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is (name, workload item, parent, start, end). Spans are kept
//! in memory and written out once, when the run ends. A span's self time
//! is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `core.dp_mapping`.
    pub name: &'static str,
    /// Which request / data set / pass of the workload this belongs to.
    pub item: u64,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
}

/// Count, summed duration and summed self time of the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that times calls but records nothing (untraced passes).
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span; spans opened by `f` through the tracer it
    /// is handed become children. Returns `f`'s result and its wall time,
    /// which is measured whether or not spans are being recorded.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        item: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            item,
            parent: self.stack.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_s = self.now_s();
        self.spans[id].end_s = end_s;
        (r, end_s - start_s)
    }

    /// [`scope`](Self::scope) for a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.scope(name, item, |_| f())
    }

    /// Record a span measured elsewhere (another thread's own clock
    /// readings, taken against [`epoch`](Self::epoch)) under `parent`.
    pub fn add_child(
        &mut self,
        parent: usize,
        name: &'static str,
        item: u64,
        start_s: f64,
        end_s: f64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                item,
                parent: Some(parent),
                start_s,
                end_s,
            });
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Index the next span will get — lets a caller name the span it is
    /// about to open as the parent of spans recorded on other threads.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.end_s - s.start_s;
            e.self_s += self_s;
        }
        out
    }

    /// Summed duration of the spans called `name` (0 when there are none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// The trace file: every span with its self time, then per-name sums.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"s\",\"spans\":["
        );
        for (i, (s, self_s)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{}}}",
                s.name, s.item, s.start_s, s.end_s, self_s
            );
        }
        out.push_str("\n],\"layers\":{");
        for (i, (name, t)) in self.by_name().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
                t.count, t.total_s, t.self_s
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span. The union, not the
/// sum, so children that ran side by side on two threads are not counted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_s, spans[p].end_s);
            let (a, b) = (s.start_s.clamp(lo, hi), s.end_s.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_s - s.start_s - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: "x",
            item: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(None, 0.0, 10.0),   // root
            span(Some(0), 1.0, 4.0), // child a
            span(Some(0), 5.0, 9.0), // child b, sibling of a
            span(Some(1), 2.0, 3.0), // grandchild under a
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 3.0); // 10 - (3 + 4); the grandchild is a's business
        assert_eq!(s[1], 2.0); // 3 - 1
        assert_eq!(s[2], 4.0);
        assert_eq!(s[3], 1.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 2.0, 6.0),
            span(Some(0), 4.0, 8.0),   // overlaps the previous: union is 2..8
            span(Some(0), 9.0, 12.0),  // runs past the parent: only 9..10 counts
            span(Some(0), -3.0, -1.0), // wholly outside: ignored
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn scopes_nest_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::on();
        let ((), outer) = t.scope("outer", 7, |t| {
            t.leaf("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf("inner", 8, || ());
        });
        assert!(outer >= 0.002);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.count("inner"), 2);
        let by = t.by_name();
        assert!(by["outer"].self_s <= by["outer"].total_s);
        assert!((by["outer"].total_s - by["outer"].self_s - by["inner"].total_s).abs() < 1e-9);
        let json = t.to_json("w", 1);
        assert!(
            json.contains("\"name\":\"inner\",\"item\":8,\"parent\":0"),
            "{json}"
        );

        let mut off = Tracer::off();
        let (v, dt) = off.leaf("inner", 0, || 5);
        assert_eq!(v, 5);
        assert!(dt >= 0.0);
        assert!(off.spans().is_empty());
    }
}
