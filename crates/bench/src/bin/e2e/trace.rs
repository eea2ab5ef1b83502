//! The span recorder of the traced run: one [`Tracer`] per driving
//! thread, spans kept in memory and summarised when the run ends.
//!
//! A span covers one call the driver makes into a layer. Spans opened
//! while another is open on the same thread are its children; a layer's
//! *self time* is its span's duration minus what its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The request (driver op) this span belongs to.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Inner {
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
    req: u32,
}

/// Records spans when enabled and costs one branch when not, so the
/// traced and the untraced run share every line of driver code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Added to every id so several threads' spans stay distinct.
    id_base: u32,
    // Interior mutability: `IndexedHeap` takes `Fn` closures (it may
    // re-run them after a collection), and spans are opened inside them.
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            origin,
            id_base: thread << 26,
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                req: 0,
            }),
        }
    }

    /// A tracer that records nothing, for set-up and verification.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Starts the next request; spans opened until the next call carry
    /// its number.
    pub fn next_request(&self) {
        if self.enabled {
            self.inner.borrow_mut().req += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let at = {
            let mut inner = self.inner.borrow_mut();
            let at = inner.spans.len();
            let parent = inner.open.last().map_or(0, |&p| inner.spans[p].id);
            let req = inner.req;
            inner.spans.push(Span {
                id: self.id_base + at as u32 + 1,
                parent,
                req: self.id_base + req,
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            inner.open.push(at);
            at
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[at].end_ns = self.origin.elapsed().as_nanos() as u64;
        inner.open.pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums, per span name, the duration and the self time (duration minus
/// the part its direct children cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    totals
}

/// Mean duration of the spans named `name`, in nanoseconds (0 if none).
pub fn mean_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals
        .get(name)
        .filter(|t| t.count > 0)
        .map_or(0.0, |t| t.total_ns as f64 / t.count as f64)
}

/// Spans written in full are capped so the file stays a few megabytes.
const MAX_SPANS_IN_FILE: usize = 40_000;

/// The span file: per-name totals over every span, plus the full spans
/// of every `sample_every`-th request.
pub fn span_file(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let sample_every = spans.len().div_ceil(MAX_SPANS_IN_FILE).max(1) as u32;
    let totals = self_times(spans);
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("sample_every", Json::Num(f64::from(sample_every))),
        (
            "self_time",
            Json::Arr(
                totals
                    .iter()
                    .map(|(name, t)| {
                        Json::obj(vec![
                            ("name", Json::str(name)),
                            ("count", Json::Num(t.count as f64)),
                            ("total_ns", Json::Num(t.total_ns as f64)),
                            ("self_ns", Json::Num(t.self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .filter(|s| s.req % sample_every == 0)
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", Json::Num(f64::from(s.parent))),
                            ("req", Json::Num(f64::from(s.req))),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(1, 0, "core.txn", 0, 100),
            span(2, 1, "core.alloc", 10, 30),
            span(3, 1, "index.insert", 40, 90),
            span(4, 3, "core.alloc", 50, 60),
            span(5, 0, "core.txn", 200, 250),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["core.txn"],
            NameTotal {
                count: 2,
                total_ns: 150,
                self_ns: 30 + 50
            }
        );
        assert_eq!(
            t["index.insert"],
            NameTotal {
                count: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["core.alloc"].self_ns, 30);
        assert_eq!(mean_ns(&t, "core.txn"), 75.0);
        assert_eq!(mean_ns(&t, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_requests() {
        let tracer = Tracer::new(true, Instant::now(), 1);
        tracer.next_request();
        let out = tracer.span("outer", || tracer.span("inner", || 7));
        tracer.next_request();
        tracer.span("outer", || ());
        assert_eq!(out, 7);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].req + 1, spans[2].req);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn span_file_samples_whole_requests() {
        let spans: Vec<Span> = (0..100_000u32)
            .map(|i| Span {
                id: i + 1,
                parent: 0,
                req: i / 2,
                name: "op",
                start_ns: 0,
                end_ns: 1,
            })
            .collect();
        let file = span_file("w", 1, &spans);
        assert_eq!(file.get("sample_every").unwrap().as_f64(), Some(3.0));
        let written = file.get("spans").unwrap().as_arr().unwrap();
        // Both spans of every third request.
        assert!(written.len() > 33_000 && written.len() <= MAX_SPANS_IN_FILE);
        assert!(written
            .iter()
            .all(|s| s.get("req").unwrap().as_f64().unwrap() % 3.0 == 0.0));
    }
}
