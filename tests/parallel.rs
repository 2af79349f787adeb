//! Determinism and conformance for the sharded front-end
//! (`Enumeration::with_threads`).
//!
//! The contract under test: for every problem type, every thread count,
//! and every front-end combination (direct, queued, limited, early
//! break, pull iterator), the sharded run delivers a solution stream
//! **identical to the sequential run** — same solutions, same order.
//! The calling thread (shard 0) and the k − 1 spawned workers split the
//! root's children round-robin and the calling thread re-interleaves
//! them deterministically, so this is an exact (not just set-wise)
//! equality.

use minimal_steiner::graph::{generators, EdgeId, VertexId};
use minimal_steiner::steiner::problem::{NodeStep, Prepared, SubtreeRecord};
use minimal_steiner::{
    DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, StealSchedule,
    SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Collects the full ordered stream of an enumeration.
fn ordered<P>(e: Enumeration<P>) -> Vec<Vec<P::Item>>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    e.collect_vec().expect("valid instance")
}

/// Asserts that `with_threads(k)` for k ∈ {1, 2, 4} reproduces the
/// sequential stream exactly, for both the direct and the queued sink
/// chain, and that `with_limit` delivers exactly the sequential prefix.
fn assert_sharded_matches<P, F>(make: F)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + std::fmt::Debug + PartialEq,
    F: Fn() -> P,
{
    let sequential = ordered(Enumeration::new(make()));
    for k in [1usize, 2, 4] {
        let sharded = ordered(Enumeration::new(make()).with_threads(k));
        assert_eq!(sharded, sequential, "threads({k}) direct stream");
        let queued = ordered(
            Enumeration::new(make())
                .with_threads(k)
                .with_default_queue(),
        );
        assert_eq!(queued, sequential, "threads({k}) queued stream");
    }
    // Limits deliver the exact sequential prefix, at every cut point of
    // a small stream and at a few cut points of a large one.
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
            assert_eq!(capped, want, "threads({k}) with_limit({limit})");
        }
    }
}

#[test]
fn steiner_tree_sharded_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a4d_0001);
    for case in 0..12 {
        let n = 4 + case % 5;
        let m = (n + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 2 + rng.gen_range(0..3usize).min(n - 2);
        let w = generators::random_terminals(n, t, &mut rng);
        assert_sharded_matches(|| SteinerTree::new(&g, &w));
    }
    // Solution-dense instances with many root children: 3^5 = 243 and
    // 3^6 = 729 (one root child per hub-to-hub path).
    for blocks in [5, 6] {
        let g = generators::theta_chain(blocks, 3);
        let w = [VertexId(0), VertexId::new(blocks)];
        assert_sharded_matches(|| SteinerTree::new(&g, &w));
    }
}

#[test]
fn steiner_forest_sharded_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a4d_0002);
    for case in 0..10 {
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
        assert_sharded_matches(|| SteinerForest::new(&g, &sets));
    }
}

#[test]
fn terminal_steiner_tree_sharded_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a4d_0003);
    for case in 0..10 {
        let n = 5 + case % 4;
        let m = (n + 1 + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 2 + rng.gen_range(0..3usize).min(n - 2);
        let w = generators::random_terminals(n, t, &mut rng);
        assert_sharded_matches(|| TerminalSteinerTree::new(&g, &w));
    }
}

#[test]
fn directed_steiner_tree_sharded_streams_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a4d_0004);
    let mut cases = 0;
    while cases < 10 {
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
        assert_sharded_matches(|| DirectedSteinerTree::new(&d, root, &w));
    }
}

#[test]
fn sharded_early_break_sees_the_sequential_prefix() {
    let g = generators::theta_chain(6, 3); // 3^6 = 729 solutions
    let w = [VertexId(0), VertexId(6)];
    let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    for k in [2usize, 4] {
        for stop_at in [1usize, 7, 100] {
            let mut got = Vec::new();
            Enumeration::new(SteinerTree::new(&g, &w))
                .with_threads(k)
                .for_each(|tree| {
                    got.push(tree.to_vec());
                    if got.len() == stop_at {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .expect("valid instance");
            assert_eq!(got.len(), stop_at);
            assert_eq!(
                got,
                sequential[..stop_at],
                "threads({k}) break after {stop_at}"
            );
        }
    }
}

#[test]
fn sharded_iterator_front_end_matches_and_stops_on_drop() {
    for blocks in [5, 6] {
        let g = generators::theta_chain(blocks, 3);
        let w = [VertexId(0), VertexId::new(blocks)];
        let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
        let pulled: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g, &w))
            .with_threads(4)
            .into_iter()
            .expect("valid instance")
            .collect();
        assert_eq!(
            pulled, sequential,
            "pull front-end, threads(4), {blocks} blocks"
        );
    }

    // Dropping the iterator early must hang up the whole pool promptly.
    let big = generators::theta_chain(8, 3); // 3^8 solutions
    let mut iter = Enumeration::new(SteinerTree::from_graph(big, &[VertexId(0), VertexId(8)]))
        .with_threads(4)
        .into_iter()
        .expect("valid instance");
    assert_eq!(iter.next().as_deref(), Some(&sequential_first(8)[..]));
    assert!(iter.next().is_some());
    drop(iter); // must not hang
}

/// First solution of the theta_chain(blocks, 3) instance, computed
/// sequentially (used to double-check the sharded iterator's head).
fn sequential_first(blocks: usize) -> Vec<minimal_steiner::graph::EdgeId> {
    let g = generators::theta_chain(blocks, 3);
    let mut first = None;
    Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId::new(blocks)]))
        .for_each(|t| {
            first = Some(t.to_vec());
            ControlFlow::Break(())
        })
        .unwrap();
    first.unwrap()
}

#[test]
fn sharded_stats_reflect_the_delivered_stream() {
    let g = generators::theta_chain(5, 3); // 243 solutions
    let w = [VertexId(0), VertexId(5)];
    let (run, handle) = Enumeration::new(SteinerTree::new(&g, &w))
        .with_threads(4)
        .with_stats();
    let stats = run.run().expect("valid instance");
    assert_eq!(stats.delivered, 243, "every solution is delivered");
    assert_eq!(stats.solutions, 243, "and emitted exactly once");
    assert_eq!(handle.get().delivered, 243, "handle agrees");
    // Each worker expands the root once and pays its own preprocessing.
    assert!(stats.nodes >= 243, "workers' node counts are merged");
    assert!(stats.work > 0 && stats.preprocessing_work > 0);
    // The ≥2-children invariant holds on every worker's slice.
    assert_eq!(stats.deficient_internal_nodes, 0);

    // Under a limit the delivered count matches what the sink saw; the
    // workers may have emitted ahead of the merge.
    let (run, handle) = Enumeration::new(SteinerTree::new(&g, &w))
        .with_threads(2)
        .with_limit(10)
        .with_stats();
    let stats = run.run().expect("valid instance");
    assert_eq!(stats.delivered, 10);
    assert!(stats.solutions >= 10, "emissions cover the deliveries");
    assert_eq!(handle.get().delivered, 10);
}

#[test]
fn sharded_single_solution_and_empty_instances() {
    // Unique completion at the root: only shard 0 owns the root leaf.
    let g = generators::path(30);
    let w = [VertexId(0), VertexId(29)];
    for k in [2usize, 4] {
        let got = ordered(Enumeration::new(SteinerTree::new(&g, &w)).with_threads(k));
        assert_eq!(got.len(), 1, "threads({k}): exactly one solution");
        assert_eq!(got[0].len(), 29);
    }
    // Prepared::Single (one terminal: the empty tree).
    let got = ordered(Enumeration::new(SteinerTree::new(&g, &[VertexId(3)])).with_threads(4));
    assert_eq!(got, vec![Vec::new()]);
    // Prepared::Empty (terminal Steiner tree with a single terminal).
    let got =
        ordered(Enumeration::new(TerminalSteinerTree::new(&g, &[VertexId(3)])).with_threads(4));
    assert!(got.is_empty());
    // Both trivial outcomes are delivered from the coordinator's prepared
    // instance, so push and pull publish the sequential run's counters.
    assert_trivial_outcome_matches_sequential(|| {
        Enumeration::new(SteinerTree::from_graph(g.clone(), &[VertexId(3)]))
    });
    assert_trivial_outcome_matches_sequential(|| {
        Enumeration::new(TerminalSteinerTree::from_graph(g.clone(), &[VertexId(3)]))
    });
}

/// Asserts that `make()` sharded over k ∈ {2, 4} workers publishes the
/// sequential run's `(solutions, work, preprocessing_work)` on the push
/// and the pull front-end alike.
fn assert_trivial_outcome_matches_sequential<P>(make: impl Fn() -> Enumeration<P>)
where
    P: MinimalSteinerProblem + Send + 'static,
    P::Item: Send + 'static,
{
    let counters = |s: EnumStats| (s.solutions, s.work, s.preprocessing_work);
    let sequential = counters(make().run().expect("valid instance"));
    for k in [2usize, 4] {
        let push = make().with_threads(k).run().expect("valid instance");
        assert_eq!(counters(push), sequential, "threads({k}) push");
        let (e, handle) = make().with_threads(k).with_stats();
        e.into_iter().expect("valid instance").for_each(drop);
        assert_eq!(counters(handle.get()), sequential, "threads({k}) pull");
    }
}

#[test]
fn sharded_errors_match_sequential_errors() {
    let g = minimal_steiner::graph::UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let w = [VertexId(0), VertexId(2)];
    let sequential = Enumeration::new(SteinerTree::new(&g, &w))
        .run()
        .unwrap_err();
    assert_eq!(sequential, SteinerError::DisconnectedTerminals { set: 0 });
    for k in [2usize, 4] {
        let sharded = Enumeration::new(SteinerTree::new(&g, &w))
            .with_threads(k)
            .run()
            .unwrap_err();
        assert_eq!(sharded, sequential, "threads({k}) reports the same error");
    }
    // Structural errors too (caught in the workers' validate).
    let dup = Enumeration::new(SteinerTree::new(&g, &[VertexId(1), VertexId(1)]))
        .with_threads(2)
        .run()
        .unwrap_err();
    assert_eq!(dup, SteinerError::DuplicateTerminal(VertexId(1)));
}

#[test]
fn sharded_limit_zero_delivers_nothing() {
    let g = generators::theta_chain(4, 3);
    let w = [VertexId(0), VertexId(4)];
    let stats = Enumeration::new(SteinerTree::new(&g, &w))
        .with_threads(4)
        .with_limit(0)
        .for_each(|_| panic!("nothing may be delivered"))
        .expect("valid instance");
    assert_eq!(stats.solutions, 0);
    // A zero limit runs no search, so push and pull publish the
    // sequential run's counters: the prepared instance's, not zeros.
    let sequential = Enumeration::new(SteinerTree::new(&g, &w))
        .with_limit(0)
        .run()
        .expect("valid instance");
    assert!(sequential.preprocessing_work > 0, "prepare did work");
    assert_trivial_outcome_matches_sequential(|| {
        Enumeration::new(SteinerTree::from_graph(g.clone(), &w)).with_limit(0)
    });
}

/// A test-only problem whose root has `fanout` leaf children: child `i`
/// is the one-edge solution `{i}`. Each instance counts the root
/// children its own `branch` generates, so a test can tell which
/// instance paid for the root's child generation; `split_root` copies
/// get counters of their own. The `split_root` and `prepare` calls of an
/// instance and all its copies go to one shared tally.
struct FanRoot {
    fanout: u32,
    /// The root child currently applied, if any.
    at: Option<u32>,
    /// Whether subtrees may be checkpointed (and so stolen).
    checkpoints: bool,
    root_children: Arc<AtomicU64>,
    calls: Arc<Calls>,
    stats: EnumStats,
}

/// `split_root` and `prepare` calls across one instance and its copies.
#[derive(Default)]
struct Calls {
    splits: AtomicU64,
    prepares: AtomicU64,
}

impl FanRoot {
    fn new(fanout: u32) -> Self {
        FanRoot {
            fanout,
            at: None,
            checkpoints: true,
            root_children: Arc::default(),
            calls: Arc::default(),
            stats: EnumStats::default(),
        }
    }

    /// The same instance with subtree checkpoints declined, so no subtree
    /// is ever stolen or claimed.
    fn without_checkpoints(self) -> Self {
        FanRoot {
            checkpoints: false,
            ..self
        }
    }
}

impl MinimalSteinerProblem for FanRoot {
    type Item = EdgeId;
    type Branch = ();

    const NAME: &'static str = "fan-root test problem";

    fn validate(&self) -> Result<(), SteinerError> {
        Ok(())
    }

    fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
        self.calls.prepares.fetch_add(1, Ordering::Relaxed);
        Ok(Prepared::Search)
    }

    fn instance_size(&self) -> (usize, usize) {
        (self.fanout as usize + 1, self.fanout as usize)
    }

    fn stats(&self) -> &EnumStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    fn classify(&mut self, _out: &mut Vec<EdgeId>) -> NodeStep<()> {
        match self.at {
            None => NodeStep::Branch(()),
            Some(_) => NodeStep::Complete,
        }
    }

    fn solution(&self, out: &mut Vec<EdgeId>) {
        out.extend(self.at.map(EdgeId));
    }

    fn branch(
        &mut self,
        _at: (),
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        for i in 0..self.fanout {
            self.root_children.fetch_add(1, Ordering::Relaxed);
            self.stats.work += 1;
            self.at = Some(i);
            let flow = child(self);
            self.at = None;
            if flow.is_break() {
                return (u64::from(i) + 1, flow);
            }
        }
        (u64::from(self.fanout), ControlFlow::Continue(()))
    }

    fn split_root(&self) -> Option<Self> {
        self.calls.splits.fetch_add(1, Ordering::Relaxed);
        Some(FanRoot {
            at: None,
            root_children: Arc::default(),
            stats: EnumStats::default(),
            calls: Arc::clone(&self.calls),
            ..*self
        })
    }

    fn record_subtree(&self) -> Option<SubtreeRecord<EdgeId>> {
        let at = self.at.filter(|_| self.checkpoints)?;
        Some(SubtreeRecord {
            vertices: Vec::new(),
            items: vec![EdgeId(at)],
            meta: 0,
        })
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<EdgeId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.at = Some(record.items[0].0);
        let flow = child(self);
        self.at = None;
        flow
    }
}

/// The full sequential stream of a fan root: child `i` is `{i}`.
fn fan_stream(fanout: u32) -> Vec<Vec<EdgeId>> {
    (0..fanout).map(|i| vec![EdgeId(i)]).collect()
}

#[test]
fn coordinator_generates_root_children_lazily() {
    // The calling thread runs shard 0: it classifies the root and
    // generates the root's children in engine order, so before the first
    // delivery the caller's instance has generated exactly one root
    // child, and the first solution is child 0's.
    let first = vec![vec![EdgeId(0)]];
    let root = FanRoot::new(300);
    let generated = Arc::clone(&root.root_children);
    let mut pushed = Vec::new();
    let mut at_first = None;
    Enumeration::new(root)
        .with_threads(2)
        .for_each(|items| {
            at_first = Some(generated.load(Ordering::Relaxed));
            pushed.push(items.to_vec());
            ControlFlow::Break(())
        })
        .expect("valid instance");
    assert_eq!(pushed, first, "push");
    assert_eq!(
        at_first,
        Some(1),
        "push front-end: root children generated before the first delivery"
    );

    // The pull front-end delivers on its own thread; a limit of one stops
    // the run at that delivery, so the count afterwards is the count then.
    let root = FanRoot::new(300);
    let generated = Arc::clone(&root.root_children);
    let pulled: Vec<Vec<EdgeId>> = Enumeration::new(root)
        .with_threads(2)
        .with_limit(1)
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(pulled, first, "pull");
    assert_eq!(
        generated.load(Ordering::Relaxed),
        1,
        "pull front-end: root children generated before the first delivery"
    );
}

#[test]
fn sharded_runs_use_k_threads_and_k_prepares() {
    // The calling thread is shard 0 and keeps the instance it prepared:
    // with no subtree claimed inline, `with_threads(k)` makes k − 1
    // copies and prepares k instances in all — also when k exceeds the
    // root's fanout, so some workers own no root child.
    for (fanout, k) in [(12u32, 2u32), (12, 3), (12, 4), (1, 4), (2, 4)] {
        let root = FanRoot::new(fanout).without_checkpoints();
        let calls = Arc::clone(&root.calls);
        let got = ordered(Enumeration::new(root).with_threads(k as usize));
        assert_eq!(got, fan_stream(fanout), "fanout {fanout}, threads({k})");
        assert_eq!(
            calls.splits.load(Ordering::Relaxed),
            u64::from(k - 1),
            "fanout {fanout}, threads({k}): split_root copies"
        );
        assert_eq!(
            calls.prepares.load(Ordering::Relaxed),
            u64::from(k),
            "fanout {fanout}, threads({k}): prepares"
        );
        // With checkpoints the adaptive policy may steal; the stream stays.
        let stolen = ordered(
            Enumeration::new(FanRoot::new(fanout))
                .with_threads(k as usize)
                .with_default_queue(),
        );
        assert_eq!(stolen, fan_stream(fanout), "fanout {fanout}, stealing");
    }

    // A subtree claimed inline replays on one more copy, prepared on the
    // claim: worker 1 publishes its child 1 as task 0, which a pinned
    // script gives to worker 0, the coordinator.
    let root = FanRoot::new(4);
    let calls = Arc::clone(&root.calls);
    let (e, handle) = Enumeration::new(root)
        .with_threads(2)
        .with_steal_schedule(StealSchedule::new().steal_at(&[1]).pin_claims(true))
        .with_stats();
    assert_eq!(ordered(e), fan_stream(4), "inline claim stream");
    assert_eq!(
        handle.get().subtrees_stolen,
        1,
        "the script publishes child 1"
    );
    assert_eq!(calls.splits.load(Ordering::Relaxed), 2, "one spare copy");
    assert_eq!(calls.prepares.load(Ordering::Relaxed), 3, "and its prepare");
}
