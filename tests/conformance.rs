//! Cross-problem conformance suite for the unified solver API.
//!
//! Every [`MinimalSteinerProblem`] implementation — [`SteinerTree`],
//! [`SteinerForest`], [`TerminalSteinerTree`], [`DirectedSteinerTree`] —
//! is run through the generic engine on random instances from
//! `generators`, through all three front-ends (push sink, pull iterator,
//! output queue), and its solution sets are checked for exact equality
//! against the exponential-time `brute` oracles. The limit front-end and
//! the stats handle are exercised as prefix/consistency checks.

use minimal_steiner::graph::{generators, DiGraph, UndirectedGraph, VertexId};
use minimal_steiner::steiner::brute;
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, SteinerForest, SteinerTree,
    TerminalSteinerTree,
};
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::ControlFlow;

/// Runs one problem instance through the push, queued, and iterator
/// front-ends, asserting all three produce the same solution set, and
/// returns it.
fn all_front_ends<P, Q>(borrowed: impl Fn() -> P, owned: Q) -> BTreeSet<Vec<P::Item>>
where
    P: MinimalSteinerProblem + Send,
    Q: MinimalSteinerProblem<Item = P::Item> + Send + 'static,
    P::Item: Send + 'static + Debug,
{
    let mut push = BTreeSet::new();
    let (run, handle) = Enumeration::new(borrowed()).with_stats();
    run.for_each(|items| {
        assert!(
            push.insert(items.to_vec()),
            "push front-end emitted a duplicate"
        );
        ControlFlow::Continue(())
    })
    .expect("valid instance");
    assert_eq!(
        handle.get().solutions,
        push.len() as u64,
        "stats handle agrees with the sink"
    );

    let mut queued = BTreeSet::new();
    Enumeration::new(borrowed())
        .with_default_queue()
        .for_each(|items| {
            assert!(
                queued.insert(items.to_vec()),
                "queued front-end emitted a duplicate"
            );
            ControlFlow::Continue(())
        })
        .expect("valid instance");
    assert_eq!(
        push, queued,
        "queued front-end must match the push front-end"
    );

    let pulled: BTreeSet<Vec<P::Item>> = Enumeration::new(owned)
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(
        push, pulled,
        "iterator front-end must match the push front-end"
    );

    // The limit front-end delivers a prefix of the full set.
    if push.len() > 1 {
        let capped = Enumeration::new(borrowed())
            .with_limit(push.len() as u64 - 1)
            .collect_vec()
            .expect("valid instance");
        assert_eq!(capped.len(), push.len() - 1);
        for sol in &capped {
            assert!(push.contains(sol), "limited run emitted a non-solution");
        }
    }

    push
}

#[test]
fn steiner_tree_conforms_to_brute_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xa11ce);
    for case in 0..40 {
        let n = 3 + case % 5;
        let m = (n - 1 + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 1 + rng.gen_range(0..n.min(4));
        let w = generators::random_terminals(n, t, &mut rng);
        let got = all_front_ends(
            || SteinerTree::new(&g, &w),
            SteinerTree::from_graph(g.clone(), &w),
        );
        assert_eq!(
            got,
            brute::minimal_steiner_trees(&g, &w),
            "graph {g:?} terminals {w:?}"
        );
    }
}

#[test]
fn steiner_forest_conforms_to_brute_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf0e57);
    for case in 0..40 {
        let n = 3 + case % 5;
        let m = (n - 1 + rng.gen_range(0..4)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let num_sets = 1 + rng.gen_range(0..3usize);
        let sets: Vec<Vec<VertexId>> = (0..num_sets)
            .map(|_| {
                let k = 2 + rng.gen_range(0..2usize).min(n - 2);
                generators::random_terminals(n, k, &mut rng)
            })
            .collect();
        let got = all_front_ends(
            || SteinerForest::new(&g, &sets),
            SteinerForest::from_graph(g.clone(), &sets),
        );
        assert_eq!(
            got,
            brute::minimal_steiner_forests(&g, &sets),
            "graph {g:?} sets {sets:?}"
        );
    }
}

#[test]
fn terminal_steiner_tree_conforms_to_brute_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e2a1);
    for case in 0..40 {
        let n = 4 + case % 5;
        let m = (n + rng.gen_range(0..5)).min(n * (n - 1) / 2);
        let g = generators::random_connected_graph(n, m, &mut rng);
        let t = 2 + rng.gen_range(0..3usize).min(n - 2);
        let w = generators::random_terminals(n, t, &mut rng);
        let got = all_front_ends(
            || TerminalSteinerTree::new(&g, &w),
            TerminalSteinerTree::from_graph(g.clone(), &w),
        );
        assert_eq!(
            got,
            brute::minimal_terminal_steiner_trees(&g, &w),
            "graph {g:?} terminals {w:?}"
        );
    }
}

#[test]
fn directed_steiner_tree_conforms_to_brute_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd12ec);
    for case in 0..40 {
        let n = 3 + case % 5;
        let m = (n + rng.gen_range(0..6)).min(n * (n - 1) / 2);
        let (d, root) = generators::random_rooted_dag(n, m, &mut rng);
        if d.num_arcs() > brute::MAX_BRUTE_EDGES {
            continue;
        }
        let t = 1 + rng.gen_range(0..3usize).min(n - 1);
        let mut w = generators::random_terminals(n, t, &mut rng);
        w.retain(|&v| v != root);
        if w.is_empty() {
            continue;
        }
        let got = all_front_ends(
            || DirectedSteinerTree::new(&d, root, &w),
            DirectedSteinerTree::from_graph(d.clone(), root, &w),
        );
        assert_eq!(
            got,
            brute::minimal_directed_steiner_trees(&d, root, &w),
            "digraph {d:?} root {root} terminals {w:?}"
        );
    }
}

/// The deprecated free-function shims are gone; what they wrapped stays
/// public. `run_with_sink` — the engine through a caller's own
/// [`SolutionSink`](minimal_steiner::SolutionSink) — delivers the
/// builder's stream, in order, on every problem.
#[test]
fn deprecated_shims_match_the_engine() {
    use minimal_steiner::steiner::solver::run_with_sink;
    use minimal_steiner::steiner::DirectSink;

    fn via_sink<P: MinimalSteinerProblem>(mut p: P) -> Vec<Vec<P::Item>> {
        let mut out = Vec::new();
        let mut sink = |items: &[P::Item]| {
            out.push(items.to_vec());
            ControlFlow::Continue(())
        };
        run_with_sink(&mut p, &mut DirectSink { sink: &mut sink }).expect("valid instance");
        out
    }

    let g: UndirectedGraph = generators::grid(3, 4);
    let w = [VertexId(0), VertexId(7), VertexId(11)];
    let via_builder = Enumeration::new(SteinerTree::new(&g, &w))
        .collect_vec()
        .unwrap();
    assert_eq!(via_builder, via_sink(SteinerTree::new(&g, &w)));

    let sets = vec![
        vec![VertexId(0), VertexId(11)],
        vec![VertexId(3), VertexId(8)],
    ];
    let via_builder = Enumeration::new(SteinerForest::new(&g, &sets))
        .collect_vec()
        .unwrap();
    assert_eq!(via_builder, via_sink(SteinerForest::new(&g, &sets)));

    let via_builder = Enumeration::new(TerminalSteinerTree::new(&g, &w))
        .collect_vec()
        .unwrap();
    assert_eq!(via_builder, via_sink(TerminalSteinerTree::new(&g, &w)));

    let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let (root, dw) = (VertexId(0), [VertexId(3)]);
    let via_builder = Enumeration::new(DirectedSteinerTree::new(&d, root, &dw))
        .collect_vec()
        .unwrap();
    assert_eq!(
        via_builder,
        via_sink(DirectedSteinerTree::new(&d, root, &dw))
    );
}

/// Dropping the pull iterator early must stop the worker without hanging
/// and without exhausting the enumeration.
#[test]
fn dropping_the_iterator_stops_the_worker() {
    let g = generators::theta_chain(8, 3); // 3^8 solutions
    let w = [VertexId(0), VertexId(8)];
    let mut iter = Enumeration::new(SteinerTree::from_graph(g, &w))
        .into_iter()
        .expect("valid instance");
    assert!(iter.next().is_some());
    assert!(iter.next().is_some());
    drop(iter); // must not hang
}
