//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! program's public functions: name, start, end, parent and request id.
//! They stay in memory until the run ends. A span's self time is its
//! duration minus the time its child spans cover.

use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.stage1`.
    pub name: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Replayed request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records nested spans; see the module docs.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags subsequent spans with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Records an interval measured elsewhere (e.g. a stage boundary
    /// seen from a solver hook) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: self.request,
        });
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(Instant, Instant)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach: Option<Instant> = None;
            for (a, b) in intervals {
                let a = reach.map_or(a, |r| a.max(r));
                if b > a {
                    covered += b - a;
                    reach = Some(b);
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Cost of recording one span, seconds, measured in each of `rounds`
/// rounds of `per_round` empty spans.
pub fn span_cost_s(rounds: usize, per_round: usize) -> Vec<f64> {
    (0..rounds)
        .map(|_| {
            let mut t = Tracer::new();
            let start = Instant::now();
            for _ in 0..per_round {
                t.span("calibrate", |_| std::hint::black_box(()));
            }
            start.elapsed().as_secs_f64() / per_round as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let span = |name, a, b, parent| Span {
            name,
            start: at(a),
            end: at(b),
            parent,
            request: 0,
        };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps `a`
            span("c", 50, 55, Some(1)),  // grandchild, outside `a`'s range
            span("d", 90, 120, Some(0)), // runs past the root
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], Duration::from_micros(100 - 50 - 10));
        assert_eq!(st[1], Duration::from_micros(30));
        assert_eq!(st[3], Duration::from_micros(5));
    }

    #[test]
    fn spans_nest_and_carry_the_request() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let now = Instant::now();
            t.record("hooked", now, now);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.request == 7 && x.end >= x.start));
        assert!(self_times(s)[0] <= s[0].duration());
    }
}
