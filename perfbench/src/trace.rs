//! In-memory span recorder for traced runs.
//!
//! Spans are opened and closed around calls into the engine's layers.
//! Each span has a kind, a start and end time, the span that caused it,
//! and the id of the query it belongs to. Self time (duration minus the
//! time covered by child spans) is accumulated per kind as spans close;
//! the raw spans are kept in memory up to a cap and written out when the
//! run ends.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole query, as the benchmark runs it.
    Query = 0,
    /// `MinimalSteinerProblem::prepare` (validation and preprocessing).
    Prepare,
    /// `MinimalSteinerProblem::classify`.
    Classify,
    /// `MinimalSteinerProblem::branch`; its self time is path generation
    /// (E-STP/F-STP) plus extend/retract of the partial solution.
    Branch,
    /// One `branch` child callback (the recursion into the child).
    Child,
    /// `MinimalSteinerProblem::solution` plus the canonical sort.
    Emit,
    /// A call into the solution sink: the Theorem-20 `OutputQueue`, or
    /// the pass-through `DirectSink`.
    Sink,
    /// The benchmark's consumer callback (timestamps, digest).
    Consumer,
}

/// Number of span kinds.
pub const KINDS: usize = 8;

/// Name of each kind, indexed by `Kind as usize`.
pub const KIND_NAMES: [&str; KINDS] = [
    "query", "prepare", "classify", "branch", "child", "emit", "sink", "consumer",
];

#[derive(Copy, Clone)]
struct Open {
    kind: Kind,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Copy, Clone)]
struct Span {
    query: u32,
    id: u32,
    parent: u32,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    stack: Vec<Open>,
    spans: Vec<Span>,
    next_id: u32,
    query: u32,
    self_ns: [u64; KINDS],
    total_ns: [u64; KINDS],
    count: [u64; KINDS],
}

/// The recorder. Methods take `&self` so the engine callbacks and the
/// consumer can share one recorder.
pub struct Tracer {
    t0: Instant,
    cap: usize,
    inner: RefCell<Inner>,
}

/// Per-kind totals of a traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Self time per kind, in nanoseconds.
    pub self_ns: [u64; KINDS],
    /// Total (inclusive) time per kind, in nanoseconds.
    pub total_ns: [u64; KINDS],
    /// Closed spans per kind.
    pub count: [u64; KINDS],
}

impl Totals {
    /// Self time of `kind` as a share of all query time.
    pub fn share(&self, kind: Kind) -> f64 {
        crate::stats::ratio(
            self.self_ns[kind as usize] as f64,
            self.total_ns[Kind::Query as usize] as f64,
        )
    }

    /// Share of query time covered by the spans inside the query.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share(Kind::Query)
    }
}

impl Tracer {
    /// A recorder keeping at most `cap` raw spans.
    pub fn new(cap: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            cap,
            inner: RefCell::new(Inner {
                stack: Vec::with_capacity(256),
                spans: Vec::with_capacity(cap.min(1 << 16)),
                next_id: 0,
                query: 0,
                self_ns: [0; KINDS],
                total_ns: [0; KINDS],
                count: [0; KINDS],
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span of `kind` as a child of the innermost open span.
    #[inline]
    pub fn open(&self, kind: Kind) {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        if kind == Kind::Query {
            inner.query += 1;
        }
        let id = inner.next_id;
        inner.next_id = inner.next_id.wrapping_add(1);
        inner.stack.push(Open {
            kind,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&self) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let open = inner.stack.pop().expect("close matches an open span");
        let dur = end_ns - open.start_ns;
        let k = open.kind as usize;
        inner.self_ns[k] += dur.saturating_sub(open.child_ns);
        inner.total_ns[k] += dur;
        inner.count[k] += 1;
        let parent = match inner.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        if inner.spans.len() < self.cap {
            let query = inner.query;
            inner.spans.push(Span {
                query,
                id: open.id,
                parent,
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        self.open(kind);
        let out = f();
        self.close();
        out
    }

    /// The per-kind totals so far.
    pub fn totals(&self) -> Totals {
        let inner = self.inner.borrow();
        Totals {
            self_ns: inner.self_ns,
            total_ns: inner.total_ns,
            count: inner.count,
        }
    }

    /// Writes the kept spans as tab-separated lines
    /// (`query id parent kind start_ns end_ns`) to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "query\tid\tparent\tkind\tstart_ns\tend_ns")?;
        for s in &inner.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.query, s.id, parent, KIND_NAMES[s.kind as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(inner.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(16);
        t.span(Kind::Query, || {
            t.span(Kind::Branch, || {
                t.span(Kind::Child, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let totals = t.totals();
        assert_eq!(totals.count[Kind::Child as usize], 1);
        assert!(totals.total_ns[Kind::Branch as usize] >= totals.total_ns[Kind::Child as usize]);
        assert!(totals.self_ns[Kind::Branch as usize] < 1_000_000);
        assert!(totals.coverage() > 0.9);
    }
}
