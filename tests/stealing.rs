//! Determinism and coverage for second-level work stealing in the
//! sharded front-end (`Enumeration::with_threads`, which always steals,
//! and `Enumeration::with_steal_schedule`).
//!
//! The contract under test: with subtrees migrating between workers,
//! the delivered stream stays **byte-identical to the sequential run**
//! for every problem
//! type, thread count, and front-end (direct, queued, limited, early
//! break, pull iterator, cached) — no matter which worker executed
//! which subtree, and no matter how pathological the steal
//! interleaving. Scripted [`StealSchedule`]s make the pathological
//! cases deterministic: the spawned-subtree *set* depends only on the
//! enumeration tree, so these tests replay identically on a single-core
//! CI container.

use minimal_steiner::graph::{generators, EdgeId, VertexId};
use minimal_steiner::steiner::problem::{NodeStep, Prepared, SubtreeRecord};
use minimal_steiner::{
    DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, ResultCache, StealObserver,
    StealSchedule, SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use steiner_bench::workloads;

/// Collects the full ordered stream of an enumeration.
fn ordered<P>(e: Enumeration<P>) -> Vec<Vec<P::Item>>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    e.collect_vec().expect("valid instance")
}

/// Collects the stream and the final merged statistics.
fn ordered_with_stats<P>(e: Enumeration<P>) -> (Vec<Vec<P::Item>>, EnumStats)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let (e, handle) = e.with_stats();
    let stream = e.collect_vec().expect("valid instance");
    (stream, handle.get())
}

/// Asserts that adaptive stealing reproduces the sequential stream
/// exactly on the direct and the queued chain for k ∈ {1, 2, 4}, and
/// that `with_limit` under stealing delivers exactly the sequential
/// prefix.
fn assert_stealing_matches<P, F>(make: F)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + std::fmt::Debug + PartialEq,
    F: Fn() -> P,
{
    let sequential = ordered(Enumeration::new(make()));
    for k in [1usize, 2, 4] {
        let stealing = ordered(Enumeration::new(make()).with_threads(k));
        assert_eq!(stealing, sequential, "threads({k}) stealing direct");
        let queued = ordered(
            Enumeration::new(make())
                .with_threads(k)
                .with_default_queue(),
        );
        assert_eq!(queued, sequential, "threads({k}) stealing queued");
    }
    let total = sequential.len() as u64;
    let cuts: Vec<u64> = if total <= 6 {
        (0..=total + 1).collect()
    } else {
        vec![0, 1, 2, total / 2, total - 1, total, total + 1]
    };
    for k in [2usize, 4] {
        for &limit in &cuts {
            let capped = ordered(Enumeration::new(make()).with_threads(k).with_limit(limit));
            let want = &sequential[..(limit.min(total)) as usize];
            assert_eq!(capped, want, "threads({k}) stealing with_limit({limit})");
        }
    }
}

/// Runs `make()` under a scripted schedule and asserts the stream is
/// byte-identical to `sequential`; returns the merged stats so callers
/// can assert on steal counters.
fn scripted_run<P, F>(
    make: &F,
    k: usize,
    schedule: StealSchedule,
    sequential: &[Vec<P::Item>],
    label: &str,
) -> EnumStats
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + std::fmt::Debug + PartialEq,
    F: Fn() -> P,
{
    let (stream, stats) = ordered_with_stats(
        Enumeration::new(make())
            .with_threads(k)
            .with_steal_schedule(schedule),
    );
    assert_eq!(stream, sequential, "threads({k}) scripted {label}");
    stats
}

// ---------------------------------------------------------------------
// Adaptive stealing: stream equality across all four problems.
// ---------------------------------------------------------------------

#[test]
fn steiner_tree_stealing_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57ea_0001);
    for case in 0..6 {
        let n = 4 + case % 5;
        let m = (n + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 2 + rng.gen_range(0..3usize).min(n - 2);
        let w = generators::random_terminals(n, t, &mut rng);
        assert_stealing_matches(|| SteinerTree::new(&g, &w));
    }
    // Deep and solution-dense: many stealable branch children.
    let g = generators::theta_chain(5, 3);
    let w = [VertexId(0), VertexId(5)];
    assert_stealing_matches(|| SteinerTree::new(&g, &w));
}

#[test]
fn steiner_forest_stealing_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57ea_0002);
    for case in 0..5 {
        let n = 4 + case % 4;
        let m = (n + rng.gen_range(0..4)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let num_sets = 1 + rng.gen_range(0..3usize);
        let sets: Vec<Vec<VertexId>> = (0..num_sets)
            .map(|_| {
                let k = 2 + rng.gen_range(0..2usize).min(n - 2);
                generators::random_terminals(n, k, &mut rng)
            })
            .collect();
        assert_stealing_matches(|| SteinerForest::new(&g, &sets));
    }
}

#[test]
fn terminal_steiner_tree_stealing_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57ea_0003);
    for case in 0..5 {
        let n = 5 + case % 4;
        let m = (n + 1 + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 2 + rng.gen_range(0..3usize).min(n - 2);
        let w = generators::random_terminals(n, t, &mut rng);
        assert_stealing_matches(|| TerminalSteinerTree::new(&g, &w));
    }
}

#[test]
fn directed_steiner_tree_stealing_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57ea_0004);
    let mut cases = 0;
    while cases < 5 {
        let n = 4 + cases % 4;
        let m = (n + rng.gen_range(0..6)).min(n * (n - 1) / 2);
        let (d, root) = generators::random_rooted_dag(n, m, &mut rng);
        let t = 1 + rng.gen_range(0..3usize).min(n - 1);
        let mut w = generators::random_terminals(n, t, &mut rng);
        w.retain(|&v| v != root);
        if w.is_empty() {
            continue;
        }
        cases += 1;
        assert_stealing_matches(|| DirectedSteinerTree::new(&d, root, &w));
    }
}

// ---------------------------------------------------------------------
// Scripted schedules: forced steals at each depth on skewed workloads.
// ---------------------------------------------------------------------

#[test]
fn scripted_steals_at_each_depth_preserve_the_stream() {
    // Five terminals give the enumeration tree real depth (each branch
    // level connects one more terminal), so spawn points exist at every
    // depth in 1..=4; the pendant tails skew the subtree sizes.
    let inst = workloads::bridged_instance(3, 3, 4, 1);
    let make = || SteinerTree::new(&inst.graph, &inst.terminals);
    let sequential = ordered(Enumeration::new(make()));
    assert!(sequential.len() > 4, "instance must be solution-dense");
    for depth in 1..=4u32 {
        for k in [2usize, 4] {
            let schedule = StealSchedule::new().steal_at_depths(depth, depth);
            let stats = scripted_run(&make, k, schedule, &sequential, "depth-pinned");
            assert!(
                stats.subtrees_stolen > 0,
                "depth {depth}, threads({k}): the script must publish subtrees"
            );
        }
    }
    // A depth band crossing several levels at once.
    let stats = scripted_run(
        &make,
        4,
        StealSchedule::new().steal_at_depths(1, 4),
        &sequential,
        "depth band 1..=4",
    );
    assert!(stats.subtrees_stolen > 0);
}

#[test]
fn scripted_steals_preserve_streams_for_every_problem() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57ea_0005);
    let schedule = || StealSchedule::new().steal_at_depths(1, 3);

    let g = generators::random_connected_graph(7, 11, &mut rng);
    let w = generators::random_terminals(7, 3, &mut rng);
    let make = || SteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));
    scripted_run(&make, 4, schedule(), &sequential, "tree");

    let sets = vec![w.clone(), generators::random_terminals(7, 2, &mut rng)];
    let make = || SteinerForest::new(&g, &sets);
    let sequential = ordered(Enumeration::new(make()));
    scripted_run(&make, 4, schedule(), &sequential, "forest");

    let make = || TerminalSteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));
    scripted_run(&make, 4, schedule(), &sequential, "terminal");

    let (d, root) = generators::random_rooted_dag(8, 14, &mut rng);
    let mut dw = generators::random_terminals(8, 3, &mut rng);
    dw.retain(|&v| v != root);
    if !dw.is_empty() {
        let make = || DirectedSteinerTree::new(&d, root, &dw);
        let sequential = ordered(Enumeration::new(make()));
        scripted_run(&make, 4, schedule(), &sequential, "directed");
    }
}

#[test]
fn scripted_single_address_and_every_nth_schedules() {
    // Exactly one named subtree is published (an instance with branch
    // nodes below the root, so the address [1, 0] exists).
    let inst = workloads::bridged_instance(3, 3, 4, 1);
    let make = || SteinerTree::new(&inst.graph, &inst.terminals);
    let sequential = ordered(Enumeration::new(make()));
    let stats = scripted_run(
        &make,
        4,
        StealSchedule::new().steal_at(&[1, 0]),
        &sequential,
        "at [1,0]",
    );
    assert_eq!(
        stats.subtrees_stolen, 1,
        "an At schedule publishes exactly the named subtree"
    );

    // Every second opportunity across all depths.
    let g = generators::theta_chain(5, 3);
    let w = [VertexId(0), VertexId(5)];
    let make = || SteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));
    let stats = scripted_run(
        &make,
        2,
        StealSchedule::new().steal_every(2),
        &sequential,
        "every 2nd",
    );
    assert!(stats.subtrees_stolen > 0);
}

// ---------------------------------------------------------------------
// Front-end composition under forced steals.
// ---------------------------------------------------------------------

#[test]
fn stealing_composes_with_queue_limit_and_early_break() {
    // 80 solutions over a depth-4 enumeration tree: the depth band
    // publishes subtrees at every level while limits and breaks cut the
    // stream mid-subtree.
    let inst = workloads::bridged_instance(3, 3, 4, 1);
    let make = || SteinerTree::new(&inst.graph, &inst.terminals);
    let sequential = ordered(Enumeration::new(make()));
    let schedule = || StealSchedule::new().steal_at_depths(1, 4);

    // Queued chain under forced steals.
    let queued = ordered(
        Enumeration::new(make())
            .with_threads(4)
            .with_steal_schedule(schedule())
            .with_default_queue(),
    );
    assert_eq!(queued, sequential, "queued + scripted steals");

    // Limits cut the exact sequential prefix even when the cut lands
    // inside a stolen subtree.
    for limit in [1u64, 7, 40, 79] {
        let capped = ordered(
            Enumeration::new(make())
                .with_threads(4)
                .with_steal_schedule(schedule())
                .with_limit(limit),
        );
        assert_eq!(
            capped,
            sequential[..limit as usize],
            "with_limit({limit}) + scripted steals"
        );
    }

    // Early break from the sink mid-stolen-subtree.
    for stop_at in [1usize, 7, 40] {
        let mut got = Vec::new();
        Enumeration::new(make())
            .with_threads(4)
            .with_steal_schedule(schedule())
            .for_each(|tree| {
                got.push(tree.to_vec());
                if got.len() == stop_at {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .expect("valid instance");
        assert_eq!(got, sequential[..stop_at], "break after {stop_at}");
    }
}

#[test]
fn stealing_iterator_front_end_matches_and_stops_on_drop() {
    let g = generators::theta_chain(5, 3);
    let w = [VertexId(0), VertexId(5)];
    let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));

    let pulled: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g.clone(), &w))
        .with_threads(4)
        .with_steal_schedule(StealSchedule::new().steal_at_depths(1, 3))
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(pulled, sequential, "pull front-end + scripted steals");

    let adaptive: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g, &w))
        .with_threads(4)
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(adaptive, sequential, "pull front-end + adaptive stealing");

    // Dropping the iterator early must hang up the whole pool promptly
    // even with subtrees in flight.
    let big = generators::theta_chain(8, 3); // 3^8 solutions
    let mut iter = Enumeration::new(SteinerTree::from_graph(big, &[VertexId(0), VertexId(8)]))
        .with_threads(4)
        .with_steal_schedule(StealSchedule::new().steal_at_depths(2, 5))
        .into_iter()
        .expect("valid instance");
    assert!(iter.next().is_some());
    assert!(iter.next().is_some());
    drop(iter); // must not hang
}

#[test]
fn stealing_cached_runs_fill_and_replay_identically() {
    let g = generators::theta_chain(4, 3);
    let w = [VertexId(0), VertexId(4)];
    let make = || SteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));

    let cache = ResultCache::new();
    let cold = ordered(
        Enumeration::new(make())
            .with_threads(4)
            .with_steal_schedule(StealSchedule::new().steal_at_depths(1, 3))
            .cached(&cache),
    );
    assert_eq!(cold, sequential, "cold fill under forced steals");
    let warm = ordered(Enumeration::new(make()).cached(&cache));
    assert_eq!(warm, sequential, "warm replay of a steal-filled entry");
}

// ---------------------------------------------------------------------
// Skew-hazard regression: all workers work on a starved root.
// ---------------------------------------------------------------------

/// The starved-root instance: a lone terminal (vertex 0) behind a
/// two-path theta bottleneck into the corner (vertex 3) of a 3×3 grid
/// holding the remaining terminals. The root's first branch connects
/// terminal 3 across the bottleneck, so the root has exactly **two**
/// children — a root-residue split alone with k = 4 would starve workers
/// 2 and 3 — while the grid side branches richly at depths 2–3.
fn starved_root_instance() -> (minimal_steiner::graph::UndirectedGraph, Vec<VertexId>) {
    let g = minimal_steiner::graph::UndirectedGraph::from_edges(
        12,
        &[
            (0, 1),
            (1, 3),
            (0, 2),
            (2, 3), // theta bottleneck 0 ↔ 3
            (3, 4),
            (4, 5),
            (6, 7),
            (7, 8),
            (9, 10),
            (10, 11), // grid rows
            (3, 6),
            (6, 9),
            (4, 7),
            (7, 10),
            (5, 8),
            (8, 11), // grid columns
        ],
    )
    .unwrap();
    let w = vec![VertexId(0), VertexId(3), VertexId(7), VertexId(11)];
    (g, w)
}

#[test]
fn starved_root_with_stealing_keeps_every_worker_busy() {
    let (g, w) = starved_root_instance();
    let make = || SteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));
    assert!(sequential.len() > 16, "grid side must be solution-dense");

    let observer = StealObserver::new();
    let schedule = StealSchedule::new()
        .steal_at_depths(2, 3)
        .pin_claims(true)
        .observe(&observer);
    let (stream, stats) = ordered_with_stats(
        Enumeration::new(make())
            .with_threads(4)
            .with_steal_schedule(schedule),
    );
    assert_eq!(stream, sequential, "starved-root stream is exact");
    assert!(
        stats.subtrees_stolen >= 4,
        "enough subtrees published to cover every pinned residue \
         (got {})",
        stats.subtrees_stolen
    );
    let retired = observer.retired();
    assert_eq!(retired.len(), 4, "all four workers reported retirements");
    for (worker, &count) in retired.iter().enumerate() {
        assert!(
            count >= 1,
            "worker {worker} retired no subtree: {retired:?} — \
             stealing failed to spread a 2-child root across 4 workers"
        );
    }
}

#[test]
fn root_only_reference_starves_late_workers_on_a_two_child_root() {
    // The adaptive counterpart of the scripted regression above: workers
    // 2 and 3 own no root child, so they only ever run stolen subtrees
    // (which ones is timing-dependent, so this asserts the stream-level
    // contract alone).
    let (g, w) = starved_root_instance();
    let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    let adaptive = ordered(Enumeration::new(SteinerTree::new(&g, &w)).with_threads(4));
    assert_eq!(adaptive, sequential);
}

// ---------------------------------------------------------------------
// Stats: steal counters on skewed workloads, and failure accounting.
// ---------------------------------------------------------------------

#[test]
fn skewed_workload_records_steals_in_merged_stats() {
    let inst = workloads::bridged_instance(3, 3, 2, 2);
    let make = || SteinerTree::new(&inst.graph, &inst.terminals);
    let sequential = ordered(Enumeration::new(make()));
    let stats = scripted_run(
        &make,
        4,
        StealSchedule::new().steal_at_depths(1, 5),
        &sequential,
        "skewed stats",
    );
    assert!(
        stats.subtrees_stolen > 0,
        "skewed workload must publish subtrees under a depth-band script"
    );
    assert_eq!(
        stats.solutions,
        sequential.len() as u64,
        "solution count survives the steal-path merge"
    );
}

/// A test-only problem: a complete `fanout`-ary tree of the given depth
/// whose leaf at choice path `c₁…c_d` is the solution
/// `{level · fanout + c_level}`. It checkpoints a subtree as its choice
/// path, unless built [`without_checkpoints`](Self::without_checkpoints)
/// (then it keeps the default `record_subtree`, which declines), and
/// counts the `split_root` calls of an instance and all its copies.
struct FullTree {
    fanout: u32,
    depth: usize,
    checkpoints: bool,
    choices: Vec<u32>,
    splits: Arc<AtomicU64>,
    stats: EnumStats,
}

impl FullTree {
    fn new(fanout: u32, depth: usize) -> Self {
        FullTree {
            fanout,
            depth,
            checkpoints: true,
            choices: Vec::new(),
            splits: Arc::default(),
            stats: EnumStats::default(),
        }
    }

    fn without_checkpoints(self) -> Self {
        FullTree {
            checkpoints: false,
            ..self
        }
    }
}

impl MinimalSteinerProblem for FullTree {
    type Item = EdgeId;
    type Branch = ();

    const NAME: &'static str = "full-tree test problem";

    fn validate(&self) -> Result<(), SteinerError> {
        Ok(())
    }

    fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
        Ok(Prepared::Search)
    }

    fn instance_size(&self) -> (usize, usize) {
        let edges = self.fanout as usize * self.depth;
        (edges + 1, edges)
    }

    fn stats(&self) -> &EnumStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    fn classify(&mut self, _out: &mut Vec<EdgeId>) -> NodeStep<()> {
        if self.choices.len() == self.depth {
            NodeStep::Complete
        } else {
            NodeStep::Branch(())
        }
    }

    fn solution(&self, out: &mut Vec<EdgeId>) {
        let edge = |(level, &c): (usize, &u32)| EdgeId(level as u32 * self.fanout + c);
        out.extend(self.choices.iter().enumerate().map(edge));
    }

    fn branch(
        &mut self,
        _at: (),
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        for c in 0..self.fanout {
            self.stats.work += 1;
            self.choices.push(c);
            let flow = child(self);
            self.choices.pop();
            if flow.is_break() {
                return (u64::from(c) + 1, flow);
            }
        }
        (u64::from(self.fanout), ControlFlow::Continue(()))
    }

    fn split_root(&self) -> Option<Self> {
        self.splits.fetch_add(1, Ordering::Relaxed);
        Some(FullTree {
            choices: Vec::new(),
            splits: Arc::clone(&self.splits),
            stats: EnumStats::default(),
            ..*self
        })
    }

    fn record_subtree(&self) -> Option<SubtreeRecord<EdgeId>> {
        self.checkpoints.then(|| SubtreeRecord {
            vertices: Vec::new(),
            items: self.choices.iter().map(|&c| EdgeId(c)).collect(),
            meta: 0,
        })
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<EdgeId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.choices = record.items.iter().map(|e| e.0).collect();
        let flow = child(self);
        self.choices.clear();
        flow
    }
}

#[test]
fn nested_claims_replay_on_one_spare_per_level() {
    // Pinned claims, k = 2, and a script whose tasks are published one
    // after another: worker 1 publishes its root child [1] (task 0,
    // pinned to the coordinator), the coordinator claims it and, replaying
    // it on a spare, publishes [1, 0] (task 1, pinned to worker 1) and
    // drains it; worker 1, executing task 1, publishes [1, 0, 0] (task 2,
    // pinned to the coordinator) into that stream, so the coordinator
    // claims it while its first spare is still inside task 0 — on a
    // second spare.
    let sequential = ordered(Enumeration::new(FullTree::new(2, 3)));
    assert_eq!(sequential.len(), 8);
    let problem = FullTree::new(2, 3);
    let splits = Arc::clone(&problem.splits);
    let schedule = StealSchedule::new()
        .steal_at(&[1])
        .steal_at(&[1, 0])
        .steal_at(&[1, 0, 0])
        .pin_claims(true);
    let (stream, stats) = ordered_with_stats(
        Enumeration::new(problem)
            .with_threads(2)
            .with_steal_schedule(schedule),
    );
    assert_eq!(stream, sequential, "nested claims keep the stream");
    assert_eq!(stats.subtrees_stolen, 3, "every scripted address published");
    assert_eq!(
        splits.load(Ordering::Relaxed),
        3,
        "one worker copy and one spare for each of the two claim levels"
    );
}

#[test]
fn stealing_off_records_no_steals() {
    // A problem whose `record_subtree` declines still shards by root
    // residue through the work-stealing pool: the stream is the sequential
    // one and no subtree ever migrates, under the adaptive policy and
    // under a script that asks for a steal at every depth.
    let make = || FullTree::new(3, 5).without_checkpoints();
    let sequential = ordered(Enumeration::new(make()));
    assert_eq!(sequential.len(), 243);
    for k in [2usize, 4] {
        let runs = [
            ("adaptive", Enumeration::new(make()).with_threads(k)),
            (
                "scripted",
                Enumeration::new(make())
                    .with_threads(k)
                    .with_steal_schedule(StealSchedule::new().steal_at_depths(1, 5)),
            ),
        ];
        for (label, run) in runs {
            let (stream, stats) = ordered_with_stats(run);
            assert_eq!(stream, sequential, "threads({k}) {label} stream");
            assert_eq!(stats.subtrees_stolen, 0, "threads({k}) {label}");
            assert_eq!(stats.steal_failures, 0, "threads({k}) {label}");
        }
    }
}

// ---------------------------------------------------------------------
// Property-based sweep: random instances, every front-end.
// ---------------------------------------------------------------------

/// One randomized conformance check: sequential vs stealing (adaptive
/// and scripted) across direct / queued / limited front-ends.
fn prop_check_tree(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = 4 + (seed % 5) as usize;
    let m = (n + rng.gen_range(0..5)).min(n * (n - 1) / 2);
    let g = generators::random_connected_graph(n, m, &mut rng);
    let t = 2 + rng.gen_range(0..3usize).min(n - 2);
    let w = generators::random_terminals(n, t, &mut rng);
    let make = || SteinerTree::new(&g, &w);
    let sequential = ordered(Enumeration::new(make()));
    for k in [2usize, 4] {
        let adaptive = ordered(Enumeration::new(make()).with_threads(k));
        prop_assert_eq!(&adaptive, &sequential, "adaptive threads({})", k);
        let scripted = ordered(
            Enumeration::new(make())
                .with_threads(k)
                .with_steal_schedule(StealSchedule::new().steal_at_depths(1, 4)),
        );
        prop_assert_eq!(&scripted, &sequential, "scripted threads({})", k);
        let queued = ordered(
            Enumeration::new(make())
                .with_threads(k)
                .with_steal_schedule(StealSchedule::new().steal_every(2))
                .with_default_queue(),
        );
        prop_assert_eq!(&queued, &sequential, "queued threads({})", k);
    }
    let total = sequential.len() as u64;
    let limit = total / 2;
    let capped = ordered(
        Enumeration::new(make())
            .with_threads(4)
            .with_steal_schedule(StealSchedule::new().steal_at_depths(1, 3))
            .with_limit(limit),
    );
    prop_assert_eq!(&capped, &sequential[..limit as usize], "limited prefix");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stealing_streams_match_sequential_on_random_instances(seed in 0u64..1_000_000) {
        prop_check_tree(seed)?;
    }
}
