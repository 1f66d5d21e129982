//! Spans recorded by the benchmark around its calls into each layer. They
//! are kept in memory and written out when the run ends; nothing inside
//! the program under test is instrumented.

use pardict_pram::{Cost, Pram};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.step1`.
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// PRAM ledger cost of the call, when it ran on a `Pram`.
    pub cost: Option<Cost>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Wall duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// In-memory span recorder with a stack of open spans, so spans opened
/// inside another span's closure nest under it.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cost: None,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize, cost: Option<Cost>) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        let now = self.now();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.cost = cost;
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's index.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, usize) {
        let id = self.begin(name);
        let r = f(self);
        self.end(id, None);
        (r, id)
    }

    /// Run `f` on `pram` inside a span that also records the ledger cost
    /// the call charged.
    pub fn span_cost<R>(
        &mut self,
        name: &str,
        pram: &Pram,
        f: impl FnOnce(&Pram) -> R,
    ) -> (R, usize) {
        let id = self.begin(name);
        let (r, cost) = pram.metered(f);
        self.end(id, Some(cost));
        (r, id)
    }

    /// Record a span measured elsewhere (a call timed on another thread),
    /// nested under the currently open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, cost: Option<Cost>) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            cost,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span at `id`.
    #[must_use]
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children that overlap each other (calls
/// timed on parallel threads) are merged first, so covered time is never
/// counted twice, and child time outside the parent is ignored.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Tab-separated dump of every span (id, parent, name, start, end, self
/// time, work, depth), written when the run ends.
#[must_use]
pub fn to_tsv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\twork\tdepth\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let (w, d) = s.cost.map_or(("-".to_string(), "-".to_string()), |c| {
            (c.work.to_string(), c.depth.to_string())
        });
        out.push_str(&format!(
            "{i}\t{parent}\t{}\t{}\t{}\t{own}\t{w}\t{d}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            cost: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [50,90).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("a1", 12, 20, Some(1)),
            sp("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 12, 8, 40]);
    }

    #[test]
    fn overlapping_children_are_merged_and_clipped() {
        // Two parallel children overlap on [20,30); one pokes past the end.
        let spans = vec![
            sp("p", 0, 50, None),
            sp("x", 10, 30, Some(0)),
            sp("y", 20, 40, Some(0)),
            sp("z", 45, 70, Some(0)),
        ];
        // covered: [10,40) + [45,50) = 35
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_by_closure_and_records_cost() {
        let mut r = Recorder::default();
        let pram = Pram::seq();
        let ((), outer) = r.span("outer", |r| {
            let (v, inner) = r.span_cost("inner", &pram, |p| p.tabulate(100, |i| i));
            assert_eq!(v.len(), 100);
            assert_eq!(r.get(inner).parent, Some(0));
        });
        let s = r.spans();
        assert_eq!(outer, 0);
        assert_eq!(s.len(), 2);
        assert!(s[1].cost.unwrap().work >= 100);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + s[1].dur_ns(), s[0].dur_ns());
        assert!(to_tsv(s).lines().count() == 3);
    }
}
