//! `served-mix`: an open-loop generator feeding one `EnumerationEngine`
//! (two workers, the default, with the admission window widened to
//! [`ADMISSION`]).
//!
//! The serving graph has [`REGIONS`] disjoint regions (random sparse
//! graphs). Three weighted tenants send Zipf-popular queries from fixed
//! catalogues — Steiner trees, terminal Steiner trees and Steiner forests,
//! each inside one region and capped at [`LIMIT`] solutions — so popular
//! keys repeat and the result cache replays them. About 2% of operations
//! are mutation batches that insert or remove one chord in one region,
//! which invalidates that region's cache entries.
//!
//! Arrivals are Poisson at a fixed offered rate and are sent on schedule
//! whatever the engine's state (open loop). Every latency runs from the
//! operation's due time, so generator lateness and queueing count. A
//! ticket resolves with all its solutions at once, so time to first and
//! to last solution coincide, and the per-solution delay is the ticket
//! latency divided by its solution count.
//!
//! The untraced run serves at [`NOMINAL_QPS`]. The traced run serves at
//! the same rate for the service and cache metrics, then climbs the
//! offered-rate ladder [`LADDER_QPS`] to find the highest rate whose p99
//! latency stays under [`LATENCY_LIMIT_US`] without rejections or a
//! growing backlog, and finally re-runs each distinct query one-shot in
//! the traced recursion for the layer shares and the service overhead.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use steiner_core::{
    EnumStats, Enumeration, SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::epoch::EpochGraph;
use steiner_graph::{EdgeId, UndirectedGraph, VertexId};
use steiner_service::{
    EngineConfig, EnumerationEngine, GraphMutation, Query, QueryOptions, QueryOutcome, Session,
    Ticket,
};

use super::oneshot::{self, Consumer, Instance, Spec};
use crate::digest::Digest;
use crate::inputs;
use crate::report::Report;
use crate::stats::{peak_rss_mb, ratio, timed_setup, Dist};
use crate::trace::{Kind, Tracer};

/// Disjoint regions of the serving graph.
pub const REGIONS: usize = 4;
/// Vertices per region.
pub const REGION_N: usize = 150;
/// Solutions per served query at most.
pub const LIMIT: u64 = 50;
/// Distinct queries in each tenant's catalogue.
pub const CATALOG: usize = 40;
/// Tenants: name, scheduling weight. Arrival shares follow the weights.
pub const TENANTS: [(&str, u32); 3] = [("search", 3), ("layout", 2), ("multicast", 1)];
/// Share of operations that are mutation batches.
pub const MUTATION_SHARE: f64 = 0.02;
/// Offered rate of the untraced run, operations per second.
pub const NOMINAL_QPS: f64 = 200.0;
/// Offered-rate ladder of the traced run, operations per second.
pub const LADDER_QPS: [f64; 5] = [200.0, 400.0, 800.0, 1600.0, 3200.0];
/// p99 latency limit of the ladder, microseconds.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// Deadline given to every served query.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// Admission window: the engine's `max_in_flight` and per-tenant
/// `tenant_queue_depth`. The generator applies mutation batches itself, so
/// the arrivals due during a fence go out in one burst after it; fences
/// took up to 100 ms at the 99th percentile on a shared 2-CPU host. With
/// the defaults (32 and 8), a fence or a worker stall of about 80 ms is
/// enough to reject queries at the nominal rate; at 128 it takes over half
/// a second.
pub const ADMISSION: usize = 128;
/// Ticket waiter threads: one per admissible ticket, so every admitted
/// ticket has a thread blocked on it and its completion time is observed
/// as it happens.
const WAITERS: usize = ADMISSION;
/// Delivered solutions kept for the minimality check: one in this many
/// queries contributes its first solution.
const SAMPLE_EVERY: usize = 7;
/// Distinct (query, region state) keys re-run one-shot after a run.
const MAX_RECHECK: usize = 400;

/// One catalogue entry.
struct Entry {
    tenant: usize,
    region: usize,
    query: Query,
}

/// The generated inputs: serving graph and query catalogues.
struct World {
    graph: UndirectedGraph,
    catalog: Vec<Entry>,
}

fn build_world(seed: u64) -> World {
    let mut graph = UndirectedGraph::new(REGIONS * REGION_N);
    for r in 0..REGIONS {
        let mut rng = inputs::rng(seed, 5000 + r as u64);
        let part =
            steiner_graph::generators::random_connected_graph(REGION_N, REGION_N * 3 / 2, &mut rng);
        for e in part.edges() {
            let (u, v) = part.endpoints(e);
            graph
                .add_edge(
                    VertexId::new(base(r) + u.index()),
                    VertexId::new(base(r) + v.index()),
                )
                .expect("region vertices are in range");
        }
    }
    let mut rng = inputs::rng(seed, 6000);
    let mut catalog = Vec::new();
    for tenant in 0..TENANTS.len() {
        let mut k = 0;
        while k < CATALOG {
            let region = rng.gen_range(0..REGIONS);
            let pick = |count: usize, rng: &mut StdRng| -> Vec<VertexId> {
                inputs::pick_vertices(REGION_N, count, rng)
                    .into_iter()
                    .map(|v| VertexId::new(base(region) + v.index()))
                    .collect()
            };
            let query = match tenant {
                0 => Query::SteinerTree {
                    terminals: pick(rng.gen_range(3..5), &mut rng),
                },
                1 => Query::TerminalSteinerTree {
                    terminals: pick(3, &mut rng),
                },
                _ => {
                    let w = pick(4, &mut rng);
                    Query::SteinerForest {
                        sets: vec![vec![w[0], w[1]], vec![w[2], w[3]]],
                    }
                }
            };
            let entry = Entry {
                tenant,
                region,
                query,
            };
            // Keep only queries with at least one solution; chord inserts
            // and removals of inserted chords keep that true.
            let mut c = Consumer::new(None, false, None);
            if matches!(one_shot(&entry.query, &graph, &mut c), Ok(s) if s.solutions > 0) {
                catalog.push(entry);
                k += 1;
            }
        }
    }
    World { graph, catalog }
}

fn base(region: usize) -> usize {
    region * REGION_N
}

/// The one-shot configuration equal to a served query's.
const SPEC: Spec = Spec {
    limit: LIMIT,
    queued: false,
    threads: 1,
    pull: false,
};

/// `query` as a one-shot instance on `g`.
fn instance(query: &Query, g: Arc<UndirectedGraph>) -> Instance {
    match query {
        Query::SteinerTree { terminals } => Instance::Tree {
            g,
            w: terminals.clone(),
        },
        Query::TerminalSteinerTree { terminals } => Instance::Terminal {
            g,
            w: terminals.clone(),
        },
        Query::SteinerForest { sets } => Instance::Forest {
            g,
            sets: sets.clone(),
        },
        Query::DirectedSteinerTree { .. } => unreachable!("served-mix sends undirected queries"),
    }
}

/// Runs `query` one-shot on `graph` (borrowed, no copy) with the served
/// limit.
fn one_shot(
    query: &Query,
    graph: &UndirectedGraph,
    c: &mut Consumer<'_>,
) -> Result<EnumStats, SteinerError> {
    match query {
        Query::SteinerTree { terminals } => Enumeration::new(SteinerTree::new(graph, terminals))
            .with_limit(LIMIT)
            .for_each(|i| c.on(i)),
        Query::TerminalSteinerTree { terminals } => {
            Enumeration::new(TerminalSteinerTree::new(graph, terminals))
                .with_limit(LIMIT)
                .for_each(|i| c.on(i))
        }
        Query::SteinerForest { sets } => Enumeration::new(SteinerForest::new(graph, sets))
            .with_limit(LIMIT)
            .for_each(|i| c.on(i)),
        Query::DirectedSteinerTree { .. } => unreachable!("served-mix sends undirected queries"),
    }
}

/// One scheduled operation.
#[derive(Clone, Copy)]
enum Op {
    Query { entry: usize },
    Mutation,
}

/// The seeded open-loop schedule: Poisson arrivals at `qps`, 2% mutation
/// batches, tenants in proportion to their weights, Zipf-popular queries
/// within each tenant's catalogue.
struct Schedule {
    rng: StdRng,
    qps: f64,
    at: f64,
}

impl Schedule {
    fn new(seed: u64, salt: u64, qps: f64) -> Self {
        Schedule {
            rng: inputs::rng(seed, salt),
            qps,
            at: 0.0,
        }
    }

    /// The next operation and its due offset in seconds.
    fn next(&mut self) -> (f64, Op) {
        let u = (self.rng.gen_range(1..1u64 << 53) as f64) / (1u64 << 53) as f64;
        self.at += -u.ln() / self.qps;
        if self.rng.gen_bool(MUTATION_SHARE) {
            return (self.at, Op::Mutation);
        }
        let total: u32 = TENANTS.iter().map(|t| t.1).sum();
        let mut pick = self.rng.gen_range(0..total);
        let mut tenant = 0;
        while pick >= TENANTS[tenant].1 {
            pick -= TENANTS[tenant].1;
            tenant += 1;
        }
        let entry = tenant * CATALOG + inputs::zipf(CATALOG, &mut self.rng);
        (self.at, Op::Query { entry })
    }
}

/// The serving state: engine, sessions, and the benchmark's own record of
/// the mutations it applied.
struct Service {
    engine: EnumerationEngine,
    sessions: Vec<Session>,
    /// Mutation batches applied so far, in order (replayed after the run
    /// to rebuild the graph each query saw).
    log: Vec<Vec<GraphMutation>>,
    /// Chords inserted and not yet removed: (edge id, region).
    chords: Vec<(EdgeId, usize)>,
    /// Mutation batches applied per region.
    version: [u64; REGIONS],
    /// Edges of the initial graph; chords get the ids after it.
    edges: usize,
    rng: StdRng,
}

impl Service {
    fn new(world: &World, seed: u64) -> Self {
        let engine = EnumerationEngine::with_config(world.graph.clone(), engine_config());
        let sessions = TENANTS
            .iter()
            .map(|&(name, weight)| engine.session_with_weight(name, weight))
            .collect();
        Service {
            engine,
            sessions,
            log: Vec::new(),
            chords: Vec::new(),
            version: [0; REGIONS],
            edges: world.graph.num_edges(),
            rng: inputs::rng(seed, 7000),
        }
    }

    /// The next mutation batch: remove the most recent chord (the last
    /// edge, so no edge is renumbered) or insert a chord in a random
    /// region. Returns the batch and the region it touches.
    fn next_batch(&mut self) -> (Vec<GraphMutation>, usize) {
        if !self.chords.is_empty() && self.rng.gen_bool(0.5) {
            let (e, region) = *self.chords.last().expect("non-empty");
            return (vec![GraphMutation::RemoveEdge(e)], region);
        }
        let region = self.rng.gen_range(0..REGIONS);
        let u = self.rng.gen_range(0..REGION_N);
        let v = (u + 1 + self.rng.gen_range(0..REGION_N - 1)) % REGION_N;
        let batch = vec![GraphMutation::InsertEdge {
            u: VertexId::new(base(region) + u),
            v: VertexId::new(base(region) + v),
        }];
        (batch, region)
    }

    fn commit(&mut self, batch: Vec<GraphMutation>, region: usize) {
        match batch[0] {
            GraphMutation::RemoveEdge(_) => {
                self.chords.pop();
            }
            GraphMutation::InsertEdge { .. } => {
                let id = EdgeId::new(self.edges + self.chords.len());
                self.chords.push((id, region));
            }
        }
        self.version[region] += 1;
        self.log.push(batch);
    }
}

/// The engine configuration: the default, two workers, with the
/// admission window widened to [`ADMISSION`].
fn engine_config() -> EngineConfig {
    EngineConfig {
        max_in_flight: ADMISSION,
        tenant_queue_depth: ADMISSION,
        ..EngineConfig::default()
    }
}

/// What the benchmark knows about one submitted query.
#[derive(Clone, Copy)]
struct Meta {
    entry: usize,
    /// Mutation batches applied before submission (the query's epoch).
    epoch: usize,
    /// Version of the query's region at submission.
    version: u64,
    due: Instant,
}

/// One resolved query, as its waiter observed it.
struct Done {
    meta: Meta,
    latency_us: f64,
    solutions: u64,
    digest: Digest,
    hit: bool,
    status: Result<(), SteinerError>,
    sample: Option<Vec<u32>>,
}

/// Figures of one open-loop phase.
#[derive(Default)]
struct Phase {
    sent: u64,
    rejected: u64,
    mutations: u64,
    mutation_failures: u64,
    done: Vec<Done>,
    late_us: Dist,
    submit_us: Dist,
    mutation_us: Dist,
    in_flight: Vec<usize>,
    wall_s: f64,
}

impl Phase {
    fn succeeded(&self) -> u64 {
        self.done.iter().filter(|d| d.status.is_ok()).count() as u64
    }

    fn failed(&self) -> u64 {
        self.rejected
            + self.mutation_failures
            + self.done.iter().filter(|d| d.status.is_err()).count() as u64
    }

    fn latency(&self) -> Dist {
        let mut d = Dist::new();
        for x in self.done.iter().filter(|d| d.status.is_ok()) {
            d.push(x.latency_us);
        }
        d
    }

    /// Whether the backlog grew across the phase: the median in-flight
    /// count of the second half exceeds the first half's by more than 2.
    fn backlog_grew(&self) -> bool {
        let half = self.in_flight.len() / 2;
        let med =
            |s: &[usize]| crate::stats::median(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
        half > 0 && med(&self.in_flight[half..]) > med(&self.in_flight[..half]) + 2.0
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

fn waiter(rx: &Mutex<mpsc::Receiver<(Ticket, Meta)>>, out: &mpsc::Sender<Done>) {
    loop {
        let job = rx.lock().expect("no waiter panics holding the lock").recv();
        let Ok((ticket, meta)) = job else { return };
        let outcome: QueryOutcome = ticket.wait();
        let latency_us = meta.due.elapsed().as_secs_f64() * 1e6;
        let solutions = outcome.solutions.edges().unwrap_or(&[]);
        let mut digest = Digest::default();
        for s in solutions {
            digest.add(s);
        }
        let sample = (meta.epoch.wrapping_add(meta.entry) % SAMPLE_EVERY == 0)
            .then(|| solutions.first().map(|s| s.iter().map(|e| e.0).collect()))
            .flatten();
        let _ = out.send(Done {
            meta,
            latency_us,
            solutions: digest.solutions,
            digest,
            hit: outcome.stats.cache_hits > 0,
            status: outcome.status,
            sample,
        });
    }
}

/// Drives one open-loop phase at `qps` for `seconds`.
fn drive(
    svc: &mut Service,
    world: &World,
    schedule: &mut Schedule,
    seconds: f64,
    sample_in_flight: bool,
) -> Phase {
    let mut phase = Phase::default();
    let (ticket_tx, ticket_rx) = mpsc::channel::<(Ticket, Meta)>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let ticket_rx = Mutex::new(ticket_rx);
    let opts = QueryOptions::default().limit(LIMIT);
    let start = Instant::now() + Duration::from_millis(2);
    let offset = schedule.at;
    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            let (rx, tx) = (&ticket_rx, done_tx.clone());
            scope.spawn(move || waiter(rx, &tx));
        }
        drop(done_tx);
        loop {
            let (at, op) = schedule.next();
            if at - offset >= seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(at - offset);
            wait_until(due);
            phase.late_us.push_us(due.elapsed());
            match op {
                Op::Query { entry } => {
                    let e = &world.catalog[entry];
                    phase.sent += 1;
                    let t = Instant::now();
                    let submitted = svc.sessions[e.tenant]
                        .submit(e.query.clone(), opts.deadline(due + DEADLINE));
                    phase.submit_us.push_us(t.elapsed());
                    let meta = Meta {
                        entry,
                        epoch: svc.log.len(),
                        version: svc.version[e.region],
                        due,
                    };
                    match submitted {
                        Ok(ticket) => ticket_tx
                            .send((ticket, meta))
                            .expect("waiters outlive the generator"),
                        Err(_) => phase.rejected += 1,
                    }
                    if sample_in_flight {
                        phase.in_flight.push(svc.engine.in_flight());
                    }
                }
                Op::Mutation => {
                    let (batch, region) = svc.next_batch();
                    phase.mutations += 1;
                    match svc.engine.apply_mutations(&batch) {
                        Ok(outcome) if outcome.touched_regions == [base(region) as u32] => {
                            phase.mutation_us.push_us(due.elapsed());
                            svc.commit(batch, region);
                        }
                        Ok(outcome) => {
                            phase.mutation_failures += 1;
                            phase.mutation_us.push_us(due.elapsed());
                            svc.commit(batch, region);
                            eprintln!(
                                "mutation touched {:?}, expected region {}",
                                outcome.touched_regions,
                                base(region)
                            );
                        }
                        Err(e) => {
                            phase.mutation_failures += 1;
                            eprintln!("mutation failed: {e}");
                        }
                    }
                }
            }
        }
        drop(ticket_tx);
        phase.done = done_rx.iter().collect();
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Timings of the one-shot re-runs made by [`check`].
#[derive(Default)]
struct Rerun {
    /// Traced one-shot time per re-run key, microseconds.
    traced_us: HashMap<(usize, u64), f64>,
    /// Per-key `prepare` time in the traced recursion, microseconds.
    prepare_us: Dist,
    traced_s: f64,
    untraced_s: f64,
}

/// Output checks after the run: cache hits equal the cold recording of
/// the same key at the same region state; a sample of keys equals a
/// one-shot run on the graph as the query saw it; sampled solutions are
/// minimal on that graph. With `tracer`, each re-run key also runs in the
/// traced recursion, which must match too.
fn check(
    world: &World,
    svc: &Service,
    done: &[&Done],
    report: &mut Report,
    tracer: Option<&Tracer>,
) -> Rerun {
    // (entry, region version) -> digest of the first complete answer,
    // cold recordings first so every hit is compared against one.
    let mut ok: Vec<&Done> = done.iter().copied().filter(|d| d.status.is_ok()).collect();
    ok.sort_by_key(|d| (d.hit, d.meta.epoch));
    let mut reference: HashMap<(usize, u64), (Digest, usize)> = HashMap::new();
    let mut hit_checks = 0;
    for d in &ok {
        let key = (d.meta.entry, d.meta.version);
        if d.solutions == 0 {
            report.mismatch(format!("catalogue entry {} delivered no solutions", key.0));
        }
        match reference.get(&key) {
            None => {
                reference.insert(key, (d.digest, d.meta.epoch));
            }
            Some((digest, _)) if *digest != d.digest => report.mismatch(format!(
                "served answer for catalogue entry {} at region version {} differs from its cold recording",
                key.0, key.1
            )),
            Some(_) => hit_checks += usize::from(d.hit),
        }
    }
    // Re-run a spread of keys one-shot, each on the graph of an epoch it
    // was served at, and check sampled solutions on their own epoch's
    // graph; the graph is rebuilt by replaying the mutation log.
    let mut keys: Vec<((usize, u64), usize)> =
        reference.iter().map(|(&k, &(_, e))| (k, e)).collect();
    keys.sort_by_key(|&(k, e)| (e, k));
    let stride = keys.len().div_ceil(MAX_RECHECK).max(1);
    // Per epoch: keys to re-run and sampled solutions to verify.
    type EpochWork<'a> = (Vec<(usize, u64)>, Vec<&'a Done>);
    let mut work: BTreeMap<usize, EpochWork> = BTreeMap::new();
    for &(key, epoch) in keys.iter().step_by(stride) {
        work.entry(epoch).or_default().0.push(key);
    }
    for d in ok.iter().filter(|d| d.sample.is_some()) {
        work.entry(d.meta.epoch).or_default().1.push(d);
    }
    let mut graph = EpochGraph::new(world.graph.clone());
    let mut applied = 0usize;
    let mut rerun = Rerun::default();
    let (mut verified, mut bad, mut rechecked) = (0usize, 0usize, 0usize);
    for (epoch, (keys, samples)) in work {
        while applied < epoch {
            graph
                .batch_apply(&svc.log[applied])
                .expect("logged batches applied once already");
            applied += 1;
        }
        for d in samples {
            let inst = instance(
                &world.catalog[d.meta.entry].query,
                Arc::new(graph.graph().clone()),
            );
            verified += 1;
            if !inst.verify(d.sample.as_deref().expect("filtered on sample")) {
                bad += 1;
            }
        }
        for key in keys {
            rechecked += 1;
            let query = &world.catalog[key.0].query;
            let mut c = Consumer::new(None, false, None);
            let start = Instant::now();
            let mut ok = one_shot(query, graph.graph(), &mut c).is_ok()
                && c.finish().digest == reference[&key].0;
            rerun.untraced_s += start.elapsed().as_secs_f64();
            if let Some(tr) = tracer {
                let inst = instance(query, Arc::new(graph.graph().clone()));
                let before = tr.totals();
                let mut c = Consumer::new(None, false, Some(LIMIT));
                let start = Instant::now();
                ok &=
                    inst.traced(SPEC, tr, &mut c).is_ok() && c.finish().digest == reference[&key].0;
                let secs = start.elapsed().as_secs_f64();
                rerun.traced_s += secs;
                rerun.traced_us.insert(key, secs * 1e6);
                let prepare_ns = tr.totals().total_ns[Kind::Prepare as usize]
                    - before.total_ns[Kind::Prepare as usize];
                rerun.prepare_us.push(prepare_ns as f64 / 1e3);
            }
            if !ok {
                report.mismatch(format!(
                    "served answer for catalogue entry {} at region version {} differs from a one-shot run",
                    key.0, key.1
                ));
            }
        }
    }
    if bad > 0 {
        report.mismatch(format!(
            "{bad} of {verified} sampled served solutions are not minimal"
        ));
    }
    report.line(format!(
        "checks: {hit_checks} cache hits matched their cold recording, {rechecked} keys matched a one-shot run, {verified} sampled solutions verified minimal"
    ));
    rerun
}

fn warm(svc: &Service, world: &World) {
    for e in &world.catalog {
        let _ = svc.sessions[e.tenant].run(e.query.clone(), QueryOptions::default().limit(LIMIT));
    }
}

/// Runs the workload.
pub fn run(opts: &crate::Options) -> Report {
    let mut report = Report::default();
    let mut build_ms = Dist::new();
    let (setup_s, (world, mut svc)) = timed_setup(if opts.trace { 1 } else { 3 }, || {
        let t = Instant::now();
        let world = build_world(opts.seed);
        let svc = Service::new(&world, opts.seed);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        warm(&svc, &world);
        (world, svc)
    });
    report.set("setup_s", setup_s);
    report.line(format!(
        "inputs: {REGIONS} regions of G({REGION_N}, {}), {} catalogue queries, limit {LIMIT}",
        REGION_N * 3 / 2,
        world.catalog.len()
    ));
    let cache0 = svc.engine.cache_stats().0;
    let mut schedule = Schedule::new(opts.seed, 8000, NOMINAL_QPS);
    let seconds = if opts.trace {
        opts.seconds * 0.4
    } else {
        opts.seconds
    };
    let nominal = drive(&mut svc, &world, &mut schedule, seconds, opts.trace);
    report.attempted += nominal.sent + nominal.mutations;
    report.failed += nominal.failed();
    if nominal.failed() > 0 {
        report.problems.push(format!(
            "{} of {} operations failed at the nominal rate",
            nominal.failed(),
            nominal.sent + nominal.mutations
        ));
    }
    // Latency figures pool the queries the cache could not answer. A
    // replay takes about 150 µs, most of it two thread wake-ups, so the
    // median of all queries (three in four are replays) follows the host's
    // scheduler: across seeds its quartile spread was about 25%, against
    // 11% for the cold queries, whose 3 ms are engine work. Replays have
    // their own per-layer figure, `core.cache.replay_last_p50_us`.
    let mut latency = Dist::new();
    let mut delay = Dist::new();
    for d in nominal.done.iter().filter(|d| d.status.is_ok() && !d.hit) {
        latency.push(d.latency_us);
        for _ in 0..d.solutions {
            delay.push(d.latency_us * 1e3 / d.solutions as f64);
        }
    }
    report.set("ttfs_p50_us", latency.p50());
    report.set("last_p50_us", latency.p50());
    report.set("delay_p50_ns", delay.p50());
    let solutions: u64 = nominal.done.iter().map(|d| d.solutions).sum();
    report.set("solutions_per_s", solutions as f64 / nominal.wall_s);
    report.line(format!(
        "tails: last_p95_us={:.1} last_p99_us={:.1} delay_p95_ns={:.1} delay_p99_ns={:.1}",
        latency.quantile(0.95),
        latency.p99(),
        delay.quantile(0.95),
        delay.p99()
    ));
    let mut all_latency = nominal.latency();
    report.line(format!(
        "samples: {} cold queries (ttfs, last), {} of their solutions (delay); \
         all {} queries: last_p50_us={:.1} last_p99_us={:.1}; {} mutation batches at {NOMINAL_QPS} ops/s offered",
        latency.len(),
        delay.len(),
        all_latency.len(),
        all_latency.p50(),
        all_latency.p99(),
        nominal.mutations
    ));
    let mut all: Vec<&Done> = nominal.done.iter().collect();
    if !opts.trace {
        check(&world, &svc, &all, &mut report, None);
        report.set("peak_rss_mb", peak_rss_mb());
        return report;
    }

    // Traced run: service and cache figures of the nominal phase.
    report.set("graph.build_ms", build_ms.p50());
    let cache1 = svc.engine.cache_stats().0;
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    report.set(
        "core.cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let mut replay = Dist::new();
    let mut cold = Dist::new();
    for d in nominal.done.iter().filter(|d| d.status.is_ok()) {
        if d.hit {
            replay.push(d.latency_us)
        } else {
            cold.push(d.latency_us)
        }
    }
    report.set("core.cache.replay_last_p50_us", replay.p50());
    report.set("core.cache.cold_last_p50_us", cold.p50());
    report.set(
        "core.cache.evicted_entries",
        (cache1.evictions - cache0.evictions) as f64,
    );
    report.set(
        "core.cache.interned_mb",
        cache1.bytes as f64 / (1 << 20) as f64,
    );
    report.set("service.last_p99_us", all_latency.p99());
    let mut submit = nominal.submit_us.clone();
    report.set("service.submit_p99_us", submit.p99());
    report.set(
        "service.in_flight_max",
        nominal.in_flight.iter().copied().max().unwrap_or(0) as f64,
    );
    report.set("service.rejected", nominal.rejected as f64);
    let mut late = nominal.late_us.clone();
    report.set("bench.gen_late_p99_us", late.p99());
    report.set("bench.sent", nominal.sent as f64);
    report.set("bench.succeeded", nominal.succeeded() as f64);
    report.set("bench.failed", nominal.failed() as f64);
    report.set(
        "bench.failed_frac",
        ratio(
            nominal.failed() as f64,
            (nominal.sent + nominal.mutations) as f64,
        ),
    );
    let mut mutation_us = nominal.mutation_us.clone();

    // The offered-rate ladder.
    let tenants0 = svc.engine.tenants();
    let step_s = opts.seconds * 0.4 / LADDER_QPS.len() as f64;
    let mut max_qps = 0.0;
    let mut ladder = Vec::new();
    for (i, &qps) in LADDER_QPS.iter().enumerate() {
        let mut schedule = Schedule::new(opts.seed, 9000 + i as u64, qps);
        let step = drive(&mut svc, &world, &mut schedule, step_s, true);
        let mut lat = step.latency();
        let mut late = step.late_us.clone();
        let grew = step.backlog_grew();
        let meets = step.failed() == 0 && !grew && lat.p99() < LATENCY_LIMIT_US;
        // The highest step of an unbroken run of steps meeting the limit.
        if meets && (i == 0 || max_qps == LADDER_QPS[i - 1]) {
            max_qps = qps;
        }
        report.line(format!(
            "ladder {qps} ops/s: sent={} succeeded={} rejected={} failed={} last_p99_us={:.0} gen_late_p99_us={:.0} backlog_grew={grew} meets_limit={meets}",
            step.sent,
            step.succeeded(),
            step.rejected,
            step.failed(),
            lat.p99(),
            late.p99()
        ));
        mutation_us.extend(&step.mutation_us);
        ladder.push(step);
    }
    report.set("service.max_qps_at_limit", max_qps);
    report.set("service.mutation_p50_us", mutation_us.p50());
    report.set("service.mutation_p99_us", mutation_us.p99());
    let tenants1 = svc.engine.tenants();
    let shares: Vec<f64> = tenants1
        .iter()
        .zip(&tenants0)
        .map(|(t1, t0)| (t1.completed - t0.completed) as f64 / f64::from(t1.weight))
        .collect();
    let (lo, hi) = shares
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    report.set("service.weighted_share_min_over_max", ratio(lo, hi));
    let epoch = svc.engine.mutation_stats();
    report.set(
        "graph.epoch.entries_invalidated",
        epoch.entries_invalidated as f64,
    );
    report.set(
        "graph.epoch.entries_retained",
        epoch.entries_retained as f64,
    );
    report.set(
        "graph.epoch.retain_ratio",
        ratio(
            epoch.entries_retained as f64,
            (epoch.entries_retained + epoch.entries_invalidated) as f64,
        ),
    );

    // Checks, with the one-shot re-runs traced: layer shares and the
    // service overhead over a one-shot run of the same key.
    for step in &ladder {
        all.extend(step.done.iter());
    }
    let tr = Tracer::new(1 << 18);
    let rerun = check(&world, &svc, &all, &mut report, Some(&tr));
    let path = format!(".bench_out/spans-served-mix-seed{}.tsv", opts.seed);
    match tr.write_spans(std::path::Path::new(&path)) {
        Ok(n) => report.line(format!("spans: {n} written to {path}")),
        Err(e) => report.line(format!("spans: not written ({e})")),
    }
    let mut overhead = Dist::new();
    for d in nominal.done.iter().filter(|d| d.status.is_ok() && !d.hit) {
        if let Some(us) = rerun.traced_us.get(&(d.meta.entry, d.meta.version)) {
            overhead.push(d.latency_us - us);
        }
    }
    report.set("service.overhead_p50_us", overhead.p50());
    let mut prepare_us = rerun.prepare_us;
    report.set("core.problem.prepare_us_p50", prepare_us.p50());
    let totals = tr.totals();
    oneshot::set_span_metrics(&totals, totals.count[Kind::Consumer as usize], &mut report);
    report.set(
        "bench.trace_overhead_frac",
        rerun.traced_s / rerun.untraced_s - 1.0,
    );
    report.set("bench.trace_coverage", totals.coverage());
    oneshot::set_counts(&catalog_pool(&world), SPEC, &mut report);
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// The catalogue as one-shot instances on the initial graph.
fn catalog_pool(world: &World) -> Vec<Instance> {
    let g = Arc::new(world.graph.clone());
    world
        .catalog
        .iter()
        .map(|e| instance(&e.query, Arc::clone(&g)))
        .collect()
}

/// The work-unit line for `seed`: one cold pass over the catalogue on the
/// initial graph.
pub fn work_units(seed: u64) -> String {
    oneshot::count_line(&catalog_pool(&build_world(seed)), SPEC)
}
