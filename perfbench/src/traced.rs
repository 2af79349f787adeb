//! The traced recursion: the benchmark's own copy of the engine's Algorithm-3
//! recursion (`run_prepared` and `recurse` in `steiner_core::solver`),
//! written against the public [`MinimalSteinerProblem`] contract and the
//! public [`OutputQueue`] / [`DirectSink`] sinks, with a span around every
//! call into a layer.
//!
//! It follows the engine step for step — same `prepare`, same node
//! analysis, same emission sort, same statistics calls — so its stream
//! and its [`EnumStats`] equal `Enumeration::for_each` with the same
//! queue. The workloads check the stream digest of every traced query
//! against the untraced engine.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Instant;

use steiner_core::{
    DirectSink, EnumStats, MinimalSteinerProblem, NodeStep, OutputQueue, Prepared, QueueConfig,
    SolutionSink, SteinerError,
};

use crate::stats::Hist;
use crate::trace::{Kind, Tracer};

/// What one traced query reports besides its spans.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// The problem's statistics, finished exactly as the engine does.
    pub stats: EnumStats,
    /// Most solutions the output queue held at once (0 without a queue).
    pub peak_buffered: usize,
    /// Per-solution hold time in the output queue, in nanoseconds:
    /// release time minus emission time, paired in FIFO order.
    pub hold_ns: Hist,
}

struct Ctx<'a> {
    tr: &'a Tracer,
    /// Emission times of solutions pushed into the queue and not yet
    /// released (queued runs only).
    emitted: Option<&'a RefCell<VecDeque<Instant>>>,
}

/// Prepares and runs `p` with spans, delivering each solution to
/// `consumer` through the output queue with the paper's parameters
/// (`queued`, as `Enumeration::with_default_queue`) or directly.
/// `consumer` returns `Break` to stop, as with `Enumeration::for_each`.
pub fn run<P: MinimalSteinerProblem>(
    p: &mut P,
    queued: bool,
    tr: &Tracer,
    consumer: &mut dyn FnMut(&[P::Item]) -> ControlFlow<()>,
) -> Result<TracedRun, SteinerError> {
    tr.open(Kind::Query);
    let out = run_query(p, queued, tr, consumer);
    tr.close();
    out
}

fn run_query<P: MinimalSteinerProblem>(
    p: &mut P,
    queued: bool,
    tr: &Tracer,
    consumer: &mut dyn FnMut(&[P::Item]) -> ControlFlow<()>,
) -> Result<TracedRun, SteinerError> {
    let prepared = tr.span(Kind::Prepare, || p.prepare())?;
    // The engine sizes the default queue after preprocessing, too.
    let queue = queued.then(|| {
        let (n, m) = p.instance_size();
        QueueConfig::for_graph(n, m)
    });
    let emitted = RefCell::new(VecDeque::<Instant>::new());
    let mut hold_ns = Hist::new();
    let mut traced_consumer = |items: &[P::Item]| {
        tr.span(Kind::Consumer, || {
            if queue.is_some() {
                if let Some(at) = emitted.borrow_mut().pop_front() {
                    hold_ns.push(at.elapsed().as_nanos() as u64);
                }
            }
            consumer(items)
        })
    };
    let ctx = Ctx {
        tr,
        emitted: queue.is_some().then_some(&emitted),
    };
    let peak_buffered = match queue {
        None => {
            let mut sink = DirectSink {
                sink: &mut traced_consumer,
            };
            drive(p, prepared, &mut sink, &ctx);
            0
        }
        Some(config) => {
            let mut sink = OutputQueue::new(config, &mut traced_consumer);
            drive(p, prepared, &mut sink, &ctx);
            sink.peak_buffered
        }
    };
    Ok(TracedRun {
        stats: *p.stats(),
        peak_buffered,
        hold_ns,
    })
}

/// `run_prepared`: dispatch on the preprocessing outcome, flush the sink
/// on normal completion, finish the statistics.
fn drive<P: MinimalSteinerProblem>(
    p: &mut P,
    prepared: Prepared<P::Item>,
    sink: &mut dyn SolutionSink<P::Item>,
    ctx: &Ctx<'_>,
) {
    let flow = match prepared {
        Prepared::Empty => ControlFlow::Continue(()),
        Prepared::Single(mut items) => {
            items.sort_unstable();
            emit(p, sink, &items, ctx)
        }
        Prepared::Search => {
            let (n, _) = p.instance_size();
            let mut scratch = Vec::with_capacity(n + 1);
            recurse(p, 0, sink, &mut scratch, ctx)
        }
    };
    if flow.is_continue() {
        let _ = ctx.tr.span(Kind::Sink, || sink.finish());
    }
    p.seal_stats();
    p.stats_mut().note_end();
}

/// `recurse`: classify the node, emit leaves, branch internal nodes.
fn recurse<P: MinimalSteinerProblem>(
    p: &mut P,
    depth: u32,
    sink: &mut dyn SolutionSink<P::Item>,
    scratch: &mut Vec<P::Item>,
    ctx: &Ctx<'_>,
) -> ControlFlow<()> {
    let tr = ctx.tr;
    let work = p.stats().work;
    tr.span(Kind::Sink, || sink.tick(work))?;
    scratch.clear();
    match tr.span(Kind::Classify, || p.classify(scratch)) {
        NodeStep::Complete => {
            p.stats_mut().note_node(0, depth);
            tr.span(Kind::Emit, || {
                scratch.clear();
                p.solution(scratch);
                if !P::SORTED_SOLUTIONS {
                    scratch.sort_unstable();
                }
            });
            emit(p, sink, scratch, ctx)
        }
        NodeStep::Unique => {
            p.stats_mut().note_node(0, depth);
            tr.span(Kind::Emit, || scratch.sort_unstable());
            emit(p, sink, scratch, ctx)
        }
        NodeStep::Branch(at) => {
            tr.open(Kind::Branch);
            let (children, flow) = p.branch(at, &mut |q| {
                tr.span(Kind::Child, || recurse(q, depth + 1, sink, scratch, ctx))
            });
            tr.close();
            p.stats_mut().note_node(children, depth);
            flow
        }
    }
}

/// `emit`: account the emission and hand the sorted solution to the sink.
fn emit<P: MinimalSteinerProblem>(
    p: &mut P,
    sink: &mut dyn SolutionSink<P::Item>,
    items: &[P::Item],
    ctx: &Ctx<'_>,
) -> ControlFlow<()> {
    p.stats_mut().note_emission();
    if let Some(emitted) = ctx.emitted {
        emitted.borrow_mut().push_back(Instant::now());
    }
    let work = p.stats().work;
    ctx.tr.span(Kind::Sink, || sink.solution(items, work))
}
