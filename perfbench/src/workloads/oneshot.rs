//! Shared machinery of the one-shot workloads (`keyword-topk`,
//! `full-enum-queued`, `sharded-bulk`): a pool of generated instances, a
//! closed loop that runs them round-robin through an `Enumeration`
//! front-end, the consumer that timestamps each delivered solution, the
//! traced phase, and the output checks.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use steiner_core::{
    verify, DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, SteinerError,
    SteinerForest, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::{ArcId, DiGraph, EdgeId, UndirectedGraph, VertexId};

use crate::digest::{Digest, ItemId};
use crate::report::Report;
use crate::stats::{ratio, Dist, Hist};
use crate::trace::{Kind, Totals, Tracer};
use crate::traced;

/// Raw spans kept per traced run (about 40 bytes each).
const SPAN_CAP: usize = 1 << 18;

/// Delivered solutions kept for the minimality check: one in this many.
const SAMPLE_EVERY: u64 = 97;

/// Upper bound on solutions kept for the minimality check per run.
const MAX_SAMPLES: usize = 3000;

/// Instances per run whose stream is re-run through the reference engine.
const MAX_REFERENCE: usize = 40;

/// Leading pool instances the exact work-unit counts are taken over.
pub const COUNT_SET: usize = 40;

/// One query of a one-shot workload: a problem and its instance.
pub enum Instance {
    /// Minimal Steiner trees.
    Tree {
        /// The graph.
        g: Arc<UndirectedGraph>,
        /// The terminals.
        w: Vec<VertexId>,
    },
    /// Minimal terminal Steiner trees.
    Terminal {
        /// The graph.
        g: Arc<UndirectedGraph>,
        /// The terminals.
        w: Vec<VertexId>,
    },
    /// Minimal Steiner forests.
    Forest {
        /// The graph.
        g: Arc<UndirectedGraph>,
        /// The terminal sets.
        sets: Vec<Vec<VertexId>>,
    },
    /// Minimal directed Steiner trees.
    Directed {
        /// The digraph.
        d: Arc<DiGraph>,
        /// The root.
        root: VertexId,
        /// The terminals.
        w: Vec<VertexId>,
    },
}

/// How a workload runs its queries.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Solutions delivered per query at most.
    pub limit: u64,
    /// Route emissions through the Theorem-20 output queue.
    pub queued: bool,
    /// Shard workers (`1` = sequential). Sharded runs steal subtrees.
    pub threads: usize,
    /// Use the pull iterator (`into_iter().take(limit)`) instead of the
    /// push front-end.
    pub pull: bool,
}

impl Spec {
    /// The sequential, direct, push configuration with the same limit:
    /// the reference every other front-end must match.
    pub fn reference(self) -> Spec {
        Spec {
            queued: false,
            threads: 1,
            pull: false,
            ..self
        }
    }

    /// The sequential configuration the traced recursion reproduces.
    pub fn sequential(self) -> Spec {
        Spec {
            threads: 1,
            pull: false,
            ..self
        }
    }
}

/// What the consumer observed of one query.
#[derive(Clone, Debug)]
pub struct Observed {
    /// Query start to first solution (query start when none arrived).
    pub ttfs: Duration,
    /// Query start to last solution.
    pub last: Duration,
    /// Digest of the delivered stream.
    pub digest: Digest,
    /// Sampled delivered solutions (item ids), for the minimality check.
    pub samples: Vec<Vec<u32>>,
}

/// The benchmark's consumer: timestamps each solution as it arrives,
/// records the gap to the previous one, and folds it into the stream
/// digest. Cheap on purpose — heavier checks run after the measured phase.
pub struct Consumer<'a> {
    start: Instant,
    first: Option<Instant>,
    last: Option<Instant>,
    gaps: Option<&'a mut Hist>,
    digest: Digest,
    samples: Vec<Vec<u32>>,
    sample: bool,
    stop_at: Option<u64>,
}

impl<'a> Consumer<'a> {
    /// A consumer whose query starts now. Gaps go to `gaps` (in ns) when
    /// given; `stop_at` makes it return `Break` after that many solutions.
    pub fn new(gaps: Option<&'a mut Hist>, sample: bool, stop_at: Option<u64>) -> Self {
        Consumer {
            start: Instant::now(),
            first: None,
            last: None,
            gaps,
            digest: Digest::default(),
            samples: Vec::new(),
            sample,
            stop_at,
        }
    }

    /// Takes delivery of one solution.
    #[inline]
    pub fn on<I: ItemId>(&mut self, items: &[I]) -> ControlFlow<()> {
        let now = Instant::now();
        match self.last {
            None => self.first = Some(now),
            Some(prev) => {
                if let Some(g) = self.gaps.as_deref_mut() {
                    g.push((now - prev).as_nanos() as u64);
                }
            }
        }
        self.last = Some(now);
        self.digest.add(items);
        if self.sample && self.digest.solutions % SAMPLE_EVERY == 1 {
            self.samples
                .push(items.iter().map(|i| i.id() as u32).collect());
        }
        if Some(self.digest.solutions) == self.stop_at {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// What was observed.
    pub fn finish(self) -> Observed {
        let since = |t: Option<Instant>| t.map_or(Duration::ZERO, |t| t - self.start);
        Observed {
            ttfs: since(self.first),
            last: since(self.last),
            digest: self.digest,
            samples: self.samples,
        }
    }
}

fn configure<P: MinimalSteinerProblem>(e: Enumeration<P>, spec: Spec) -> Enumeration<P> {
    let mut e = e.with_limit(spec.limit);
    if spec.queued {
        e = e.with_default_queue();
    }
    if spec.threads > 1 {
        e = e.with_threads(spec.threads).with_stealing(true);
    }
    e
}

fn push_run<P>(p: P, spec: Spec, c: &mut Consumer<'_>) -> Result<EnumStats, SteinerError>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + ItemId,
{
    configure(Enumeration::new(p), spec).for_each(|items| c.on(items))
}

/// Timings of the pull front-end's own calls.
#[derive(Default)]
pub struct PullTimes {
    /// `Enumeration::into_iter()` call time, in microseconds.
    pub into_iter_us: Dist,
    /// Time blocked in `Solutions::next()`, in nanoseconds.
    pub next_wait_ns: Hist,
}

impl Instance {
    /// `(n, m)` of the instance graph.
    pub fn size(&self) -> (usize, usize) {
        match self {
            Instance::Tree { g, .. }
            | Instance::Terminal { g, .. }
            | Instance::Forest { g, .. } => (g.num_vertices(), g.num_edges()),
            Instance::Directed { d, .. } => (d.num_vertices(), d.num_arcs()),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        let (n, m) = self.size();
        let kind = match self {
            Instance::Tree { .. } => "tree",
            Instance::Terminal { .. } => "terminal",
            Instance::Forest { .. } => "forest",
            Instance::Directed { .. } => "directed",
        };
        format!("{kind} n={n} m={m}")
    }

    /// Whether the solution with these item ids is a minimal solution of
    /// the instance (the `steiner_core::verify` oracles).
    pub fn verify(&self, ids: &[u32]) -> bool {
        let edges = || ids.iter().map(|&i| EdgeId(i)).collect::<Vec<_>>();
        match self {
            Instance::Tree { g, w } => verify::is_minimal_steiner_tree(g, w, &edges()),
            Instance::Terminal { g, w } => verify::is_minimal_terminal_steiner_tree(g, w, &edges()),
            Instance::Forest { g, sets } => verify::is_minimal_steiner_forest(g, sets, &edges()),
            Instance::Directed { d, root, w } => {
                let arcs: Vec<ArcId> = ids.iter().map(|&i| ArcId(i)).collect();
                verify::is_minimal_directed_steiner_subgraph(d, *root, w, &arcs)
            }
        }
    }

    /// Runs the query through the push front-end configured by `spec`.
    pub fn push(&self, spec: Spec, c: &mut Consumer<'_>) -> Result<EnumStats, SteinerError> {
        match self {
            Instance::Tree { g, w } => push_run(SteinerTree::new(g, w), spec, c),
            Instance::Terminal { g, w } => push_run(TerminalSteinerTree::new(g, w), spec, c),
            Instance::Forest { g, sets } => push_run(SteinerForest::new(g, sets), spec, c),
            Instance::Directed { d, root, w } => {
                push_run(DirectedSteinerTree::new(d, *root, w), spec, c)
            }
        }
    }

    /// Runs a Steiner tree query through the pull front-end:
    /// `into_iter().take(limit)` on an owned instance, as a caller holding
    /// the graph would. `times` records the front-end's own calls.
    pub fn pull(
        &self,
        spec: Spec,
        c: &mut Consumer<'_>,
        times: Option<&mut PullTimes>,
    ) -> Result<EnumStats, SteinerError> {
        let Instance::Tree { g, w } = self else {
            unreachable!("the pull front-end runs Steiner tree queries only")
        };
        let t0 = Instant::now();
        let problem = SteinerTree::from_graph(UndirectedGraph::clone(g), w);
        let (e, stats) = Enumeration::new(problem).with_stats();
        let mut it = e.into_iter()?.take(spec.limit as usize);
        match times {
            None => {
                for sol in &mut it {
                    let _ = c.on(&sol);
                }
            }
            Some(times) => {
                times.into_iter_us.push_us(t0.elapsed());
                loop {
                    let t = Instant::now();
                    let Some(sol) = it.next() else { break };
                    times.next_wait_ns.push(t.elapsed().as_nanos() as u64);
                    let _ = c.on(&sol);
                }
            }
        }
        // Dropping the iterator stops and joins the producer thread, which
        // publishes the statistics.
        drop(it);
        Ok(stats.get())
    }

    /// Runs the query in the traced recursion (sequential; the output queue
    /// when `spec.queued`), stopping after `spec.limit` solutions.
    pub fn traced(
        &self,
        spec: Spec,
        tr: &Tracer,
        c: &mut Consumer<'_>,
    ) -> Result<traced::TracedRun, SteinerError> {
        let q = spec.queued;
        match self {
            Instance::Tree { g, w } => {
                traced::run(&mut SteinerTree::new(g, w), q, tr, &mut |i| c.on(i))
            }
            Instance::Terminal { g, w } => {
                traced::run(&mut TerminalSteinerTree::new(g, w), q, tr, &mut |i| c.on(i))
            }
            Instance::Forest { g, sets } => {
                traced::run(&mut SteinerForest::new(g, sets), q, tr, &mut |i| c.on(i))
            }
            Instance::Directed { d, root, w } => traced::run(
                &mut DirectedSteinerTree::new(d, *root, w),
                q,
                tr,
                &mut |i| c.on(i),
            ),
        }
    }

    /// Runs the query through the front-end `spec` names.
    pub fn run(&self, spec: Spec, c: &mut Consumer<'_>) -> Result<EnumStats, SteinerError> {
        if spec.pull {
            self.pull(spec, c, None)
        } else {
            self.push(spec, c)
        }
    }
}

/// Runs every pool instance once, untimed, so lazy set-up (allocator
/// arenas, page faults, thread stacks) is paid before measuring.
pub fn warm_up(pool: &[Instance], spec: Spec) {
    let warm = Spec {
        limit: spec.limit.min(50),
        ..spec
    };
    for inst in pool {
        let mut c = Consumer::new(None, false, None);
        let _ = inst.run(warm, &mut c);
    }
}

/// Checks kept after a measured phase: per-instance digests and sampled
/// solutions.
#[derive(Default)]
struct Checks {
    digests: Vec<Option<Digest>>,
    samples: Vec<(usize, Vec<u32>)>,
}

impl Checks {
    fn new(pool: usize) -> Self {
        Checks {
            digests: vec![None; pool],
            samples: Vec::new(),
        }
    }

    /// Every run of one instance must deliver the same stream.
    fn observe(&mut self, idx: usize, obs: Observed, report: &mut Report, what: &str) {
        match self.digests[idx] {
            None => self.digests[idx] = Some(obs.digest),
            Some(d) if d != obs.digest => report.mismatch(format!(
                "{what}: instance {idx} delivered two different streams"
            )),
            Some(_) => {}
        }
        for s in obs.samples {
            if self.samples.len() < MAX_SAMPLES {
                self.samples.push((idx, s));
            }
        }
    }

    /// Minimality of the sampled solutions, and each instance's stream
    /// against the sequential direct push engine.
    fn finish(self, pool: &[Instance], spec: Spec, report: &mut Report) {
        let mut bad = 0;
        for (idx, ids) in &self.samples {
            if !pool[*idx].verify(ids) {
                bad += 1;
            }
        }
        if bad > 0 {
            report.mismatch(format!("{bad} sampled solutions are not minimal solutions"));
        }
        let stride = pool.len().div_ceil(MAX_REFERENCE).max(1);
        let mut referenced = 0;
        for (idx, digest) in self.digests.iter().enumerate().step_by(stride) {
            let Some(digest) = digest else { continue };
            referenced += 1;
            let mut c = Consumer::new(None, false, None);
            let reference = pool[idx].push(spec.reference(), &mut c);
            let obs = c.finish();
            if reference.is_err() || obs.digest != *digest {
                report.mismatch(format!(
                    "instance {idx} ({}): stream differs from the sequential direct engine",
                    pool[idx].label()
                ));
            }
        }
        report.line(format!(
            "checks: {} sampled solutions verified minimal, {} instance streams matched the reference engine",
            self.samples.len(),
            referenced
        ));
    }
}

/// The best figures one pool instance reached over its passes.
#[derive(Clone, Copy)]
struct Best {
    ttfs_us: f64,
    last_us: f64,
    /// Mean gap between consecutive solutions of one query, ns; `None`
    /// for an instance with a single solution.
    gap_ns: Option<f64>,
    solutions: u64,
}

impl Best {
    fn fold(&mut self, other: Best) {
        self.ttfs_us = self.ttfs_us.min(other.ttfs_us);
        self.last_us = self.last_us.min(other.last_us);
        self.gap_ns = match (self.gap_ns, other.gap_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// The untraced measured phase: a closed loop with one consumer running
/// pool instances round-robin for `seconds`.
///
/// A shared host changes speed by tens of percent from second to second
/// as other tenants come and go, and that noise only ever slows a query
/// down. Each instance therefore keeps its best time to first solution,
/// to last solution and mean solution gap over its passes, and the
/// figures are medians of those bests over the whole pool. The same
/// instances decide the figures whatever the host did, and a change that
/// slows the program slows every pass and still shows.
///
/// The gap is a query's mean, `(last - ttfs) / (solutions - 1)`, not the
/// median of its single gaps: the pull iterator hands over solutions in
/// bursts, so within one query short and long gaps each make up about half
/// of the gaps, and the median of one query flips between them from run to
/// run. The single gaps are pooled for the tails line. Sets every
/// end-to-end metric except `setup_s` and `peak_rss_mb`.
pub fn measure(pool: &[Instance], spec: Spec, seconds: f64, report: &mut Report) {
    let mut best: Vec<Option<Best>> = vec![None; pool.len()];
    let mut all_gaps = Hist::new();
    let mut all_last = Dist::new();
    let mut checks = Checks::new(pool.len());
    let (mut solutions, mut busy) = (0u64, 0.0f64);
    let t0 = Instant::now();
    let mut q = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let idx = q % pool.len();
        q += 1;
        report.attempted += 1;
        let mut c = Consumer::new(Some(&mut all_gaps), true, None);
        let result = pool[idx].run(spec, &mut c);
        let obs = c.finish();
        if let Err(e) = result {
            report.mismatch(format!("instance {idx}: {e}"));
        } else if obs.digest.solutions == 0 {
            report.mismatch(format!("instance {idx}: no solutions delivered"));
        } else {
            let pass = Best {
                ttfs_us: obs.ttfs.as_secs_f64() * 1e6,
                last_us: obs.last.as_secs_f64() * 1e6,
                gap_ns: (obs.digest.solutions > 1).then(|| {
                    (obs.last - obs.ttfs).as_secs_f64() * 1e9 / (obs.digest.solutions - 1) as f64
                }),
                solutions: obs.digest.solutions,
            };
            solutions += pass.solutions;
            busy += obs.last.as_secs_f64();
            all_last.push(pass.last_us);
            match &mut best[idx] {
                Some(b) => b.fold(pass),
                slot => *slot = Some(pass),
            }
            checks.observe(idx, obs, report, "measured phase");
        }
    }
    let best: Vec<Best> = best.into_iter().flatten().collect();
    let (mut ttfs, mut last, mut gap) = (Dist::new(), Dist::new(), Dist::new());
    let (mut best_solutions, mut best_s) = (0u64, 0.0f64);
    for b in &best {
        ttfs.push(b.ttfs_us);
        last.push(b.last_us);
        if let Some(g) = b.gap_ns {
            gap.push(g);
        }
        best_solutions += b.solutions;
        best_s += b.last_us / 1e6;
    }
    report.set("ttfs_p50_us", ttfs.p50());
    report.set("last_p50_us", last.p50());
    report.set("delay_p50_ns", gap.p50());
    report.set("solutions_per_s", ratio(best_solutions as f64, best_s));
    report.line(format!(
        "tails (all queries): last_p95_us={:.1} last_p99_us={:.1} delay_p95_ns={:.1} delay_p99_ns={:.1}",
        all_last.quantile(0.95),
        all_last.p99(),
        all_gaps.quantile(0.95),
        all_gaps.quantile(0.99)
    ));
    report.line(format!(
        "samples: {q} queries, best of {:.1} passes for each of {} instances; all queries: {:.0} solutions/s",
        q as f64 / pool.len() as f64,
        best.len(),
        ratio(solutions as f64, busy)
    ));
    checks.finish(pool, spec, report);
}

/// Exact work-unit counts of one pass over `pool` through the sequential
/// engine (deterministic for a given pool), folded with `EnumStats::merge`.
pub fn count_pass(pool: &[Instance], spec: Spec) -> (EnumStats, f64) {
    let mut total = EnumStats::default();
    let mut max_gap_nm = 0.0f64;
    for inst in pool {
        let mut c = Consumer::new(None, false, None);
        let s = inst
            .push(spec.sequential(), &mut c)
            .expect("pool instances are valid");
        let (n, m) = inst.size();
        max_gap_nm = max_gap_nm.max(s.max_emission_gap as f64 / (n + m) as f64);
        total.merge(&s);
    }
    (total, max_gap_nm)
}

/// The work-unit line the package's determinism test compares.
pub fn count_line(pool: &[Instance], spec: Spec) -> String {
    let (s, max_gap_nm) = count_pass(pool, spec);
    format_counts(pool.len(), &s, max_gap_nm)
}

fn format_counts(queries: usize, s: &EnumStats, max_gap_nm: f64) -> String {
    format!(
        "work-units: queries={} solutions={} work={} preprocessing_work={} nodes={} \
         internal_nodes={} deficient_internal_nodes={} max_gap_work_nm={:.6} scratch_allocs={} \
         path_gen_work={} fstp_cache_hits={} fstp_cache_misses={} classify_incremental={} \
         classify_rebuilds={}",
        queries,
        s.solutions,
        s.work,
        s.preprocessing_work,
        s.nodes,
        s.internal_nodes,
        s.deficient_internal_nodes,
        max_gap_nm,
        s.scratch_allocs,
        s.path_gen_work,
        s.fstp_cache_hits,
        s.fstp_cache_misses,
        s.classify_incremental,
        s.classify_rebuilds
    )
}

/// Sets the exact work-unit metrics from one pass over the pool.
pub fn set_counts(pool: &[Instance], spec: Spec, report: &mut Report) {
    let (s, max_gap_nm) = count_pass(pool, spec);
    let mean_nm: f64 = pool
        .iter()
        .map(|inst| {
            let (n, m) = inst.size();
            (n + m) as f64
        })
        .sum::<f64>()
        / pool.len() as f64;
    let sol = s.solutions as f64;
    report.set(
        "core.problem.preprocessing_work",
        s.preprocessing_work as f64 / pool.len() as f64,
    );
    report.set(
        "core.solver.work_per_solution_nm",
        ratio(s.work as f64, sol * mean_nm),
    );
    report.set("core.solver.max_gap_work_nm", max_gap_nm);
    report.set("core.solver.nodes_per_solution", ratio(s.nodes as f64, sol));
    report.set(
        "core.solver.deficient_internal_nodes",
        s.deficient_internal_nodes as f64,
    );
    report.set("core.trail.scratch_allocs", s.scratch_allocs as f64);
    report.set(
        "paths.path_gen_work_per_solution",
        ratio(s.path_gen_work as f64, sol),
    );
    report.set(
        "paths.fstp_cache_hit_ratio",
        ratio(
            s.fstp_cache_hits as f64,
            (s.fstp_cache_hits + s.fstp_cache_misses) as f64,
        ),
    );
    report.set(
        "core.problem.classify_incremental_ratio",
        ratio(
            s.classify_incremental as f64,
            (s.classify_incremental + s.classify_rebuilds) as f64,
        ),
    );
    report.line(format_counts(pool.len(), &s, max_gap_nm));
}

/// The traced phase: every query runs once through the untraced
/// sequential engine and once through the traced recursion, alternating, for
/// at least one full pass over the pool and until `seconds` have passed.
/// The two streams and statistics must be identical. Sets the span-based
/// per-layer metrics and the tracing overhead, and writes the raw spans to
/// `spans_path`.
pub fn trace(
    pool: &[Instance],
    spec: Spec,
    seconds: f64,
    report: &mut Report,
    spans_path: &std::path::Path,
) {
    let seq = spec.sequential();
    let tr = Tracer::new(SPAN_CAP);
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut solutions = 0u64;
    let mut prepare_us = Dist::new();
    let mut hold_ns = Hist::new();
    let mut max_buffered = 0usize;
    let t0 = Instant::now();
    let mut q = 0usize;
    while q < pool.len() || t0.elapsed().as_secs_f64() < seconds {
        let idx = q % pool.len();
        q += 1;
        let inst = &pool[idx];
        report.attempted += 1;

        let mut c = Consumer::new(None, false, None);
        let start = Instant::now();
        let plain = inst.push(seq, &mut c);
        untraced_s += start.elapsed().as_secs_f64();
        let plain_obs = c.finish();

        let before = tr.totals();
        let mut c = Consumer::new(None, false, Some(spec.limit));
        let start = Instant::now();
        let run = inst.traced(seq, &tr, &mut c);
        traced_s += start.elapsed().as_secs_f64();
        let traced_obs = c.finish();
        let after = tr.totals();
        prepare_us.push(
            (after.total_ns[Kind::Prepare as usize] - before.total_ns[Kind::Prepare as usize])
                as f64
                / 1e3,
        );

        match (plain, run) {
            (Ok(plain), Ok(run)) => {
                if traced_obs.digest != plain_obs.digest
                    || (run.stats.solutions, run.stats.work, run.stats.nodes)
                        != (plain.solutions, plain.work, plain.nodes)
                {
                    report.mismatch(format!(
                        "instance {idx} ({}): traced recursion diverged from the engine",
                        inst.label()
                    ));
                }
                solutions += run.stats.solutions;
                max_buffered = max_buffered.max(run.peak_buffered);
                hold_ns.merge(&run.hold_ns);
            }
            (a, b) => report.mismatch(format!(
                "instance {idx}: engine {:?}, traced {:?}",
                a.err(),
                b.err()
            )),
        }
    }
    let totals = tr.totals();
    set_span_metrics(&totals, solutions, report);
    report.set("core.problem.prepare_us_p50", prepare_us.p50());
    if spec.queued {
        report.set("core.queue.hold_p99_us", hold_ns.quantile(0.99) / 1e3);
        report.set("core.queue.max_buffered", max_buffered as f64);
        report.set("core.queue.self_share", totals.share(Kind::Sink));
    }
    report.set("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
    report.set("bench.trace_coverage", totals.coverage());
    report.set("bench.sent", q as f64);
    report.set(
        "bench.succeeded",
        (q as u64 - report.failed.min(q as u64)) as f64,
    );
    report.set("bench.failed", report.failed as f64);
    report.set("bench.failed_frac", ratio(report.failed as f64, q as f64));
    let shares: Vec<String> = (1..crate::trace::KINDS)
        .map(|k| {
            format!(
                "{}={:.3}",
                crate::trace::KIND_NAMES[k],
                ratio(totals.self_ns[k] as f64, totals.total_ns[0] as f64)
            )
        })
        .collect();
    report.line(format!(
        "traced self-time shares ({} queries, {:.3} s traced, {:.3} s untraced): {} unattributed={:.3}",
        q,
        traced_s,
        untraced_s,
        shares.join(" "),
        totals.share(Kind::Query)
    ));
    match tr.write_spans(spans_path) {
        Ok(n) => report.line(format!("spans: {n} written to {}", spans_path.display())),
        Err(e) => report.line(format!("spans: not written ({e})")),
    }
    set_counts(&pool[..pool.len().min(COUNT_SET)], spec, report);
}

/// Sets the span-based layer metrics from the totals of a traced phase
/// that delivered `solutions`.
pub fn set_span_metrics(t: &Totals, solutions: u64, report: &mut Report) {
    let count = |k: Kind| t.count[k as usize] as f64;
    report.set("core.problem.prepare_share", t.share(Kind::Prepare));
    report.set("core.problem.classify_share", t.share(Kind::Classify));
    report.set(
        "core.problem.classify_ns_per_call",
        ratio(
            t.self_ns[Kind::Classify as usize] as f64,
            count(Kind::Classify),
        ),
    );
    report.set(
        "core.problem.classify_calls_per_solution",
        ratio(count(Kind::Classify), solutions as f64),
    );
    report.set("paths.branch_self_share", t.share(Kind::Branch));
    report.set(
        "paths.branch_ns_per_child",
        ratio(t.self_ns[Kind::Branch as usize] as f64, count(Kind::Child)),
    );
    report.set(
        "core.solver.emit_ns_per_solution",
        ratio(t.total_ns[Kind::Emit as usize] as f64, count(Kind::Emit)),
    );
    report.set("core.solver.emit_share", t.share(Kind::Emit));
}
