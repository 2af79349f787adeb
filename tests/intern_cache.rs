//! The hash-consed solution interner and the query result cache, end to
//! end: interning from the sink never perturbs a delivered stream
//! (sequential or sharded), re-expanding interned streams reproduces the
//! original bytes for all four problems, and a cache hit is
//! indistinguishable from a cold run under every front-end and limit.

use minimal_steiner::graph::{generators, UndirectedGraph, VertexId};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, ResultCache, SolutionId,
    SolutionInterner, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Collects the full ordered stream of an enumeration.
fn ordered<P>(e: Enumeration<P>) -> Vec<Vec<P::Item>>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    e.collect_vec().expect("valid instance")
}

/// Interns one enumeration's stream into `interner` from the sink,
/// collecting the ids in delivery order.
fn intern_stream<P>(e: Enumeration<P>, interner: &mut SolutionInterner<P::Item>) -> Vec<SolutionId>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut ids = Vec::new();
    e.for_each(|items| {
        ids.push(interner.intern(items));
        ControlFlow::Continue(())
    })
    .expect("valid instance");
    ids
}

/// Interns one enumeration's stream into a fresh interner and re-expands
/// it from the ids: the delivered stream as the interner stored it, and
/// the number of distinct solutions stored.
fn interned<P>(e: Enumeration<P>) -> (Vec<Vec<P::Item>>, usize)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut interner = SolutionInterner::new();
    let ids = intern_stream(e, &mut interner);
    let stream = ids
        .iter()
        .map(|&id| interner.resolve(id).to_vec())
        .collect();
    (stream, interner.len())
}

/// The core tentpole property, checked for one problem: interning N
/// streams (the same instance enumerated N times, so the arena dedups
/// across them) and re-expanding every stream from its ids yields the
/// exact original byte streams.
fn check_intern_roundtrip<P, F>(make: F, n_streams: usize)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + PartialEq + std::fmt::Debug,
    F: Fn() -> P,
{
    let original = ordered(Enumeration::new(make()));
    let mut interner = SolutionInterner::new();
    let streams: Vec<Vec<SolutionId>> = (0..n_streams)
        .map(|_| intern_stream(Enumeration::new(make()), &mut interner))
        .collect();
    assert_eq!(
        interner.len(),
        original.len(),
        "N identical streams share one arena copy per solution"
    );
    for ids in &streams {
        let expanded: Vec<Vec<P::Item>> = ids
            .iter()
            .map(|&id| interner.resolve(id).to_vec())
            .collect();
        assert_eq!(expanded, original, "re-expansion reproduces the stream");
    }
}

/// The cache property, checked for one problem and one limit: a warm
/// `cached()` run delivers exactly what a cold run with the same
/// configuration delivers, which is exactly what an uncached run
/// delivers.
fn check_cache_roundtrip<P, F>(make: F, limit: Option<u64>)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + PartialEq + std::fmt::Debug,
    F: Fn() -> P,
{
    let cache: ResultCache<P::Item> = ResultCache::new();
    let plain = {
        let e = Enumeration::new(make());
        let e = match limit {
            Some(k) => e.with_limit(k),
            None => e,
        };
        ordered(e)
    };
    for round in 0..3 {
        let e = Enumeration::new(make()).cached(&cache);
        let e = match limit {
            Some(k) => e.with_limit(k),
            None => e,
        };
        let (e, handle) = e.with_stats();
        let got = ordered(e);
        assert_eq!(got, plain, "round {round} delivers the uncached stream");
        let stats = handle.get();
        if round == 0 {
            assert_eq!(
                (stats.cache_hits, stats.cache_misses),
                (0, 1),
                "cold run is a miss"
            );
        } else {
            assert_eq!(
                (stats.cache_hits, stats.cache_misses),
                (1, 0),
                "warm run is a hit"
            );
            assert_eq!(stats.work, 0, "a hit runs no search");
        }
        if !plain.is_empty() && !plain.iter().all(|s| s.is_empty()) {
            assert!(stats.interned_bytes > 0, "the store is accounted");
        }
    }
}

/// A connected test graph per case index, shared by the deterministic
/// tests below.
fn test_graph(case: usize) -> UndirectedGraph {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xca4e + case as u64);
    let n = 5 + case % 4;
    let m = (n + 2 + case % 4).min(n * (n - 1) / 2);
    generators::random_connected_graph(n, m, &mut rng)
}

#[test]
fn interned_sharded_streams_are_byte_identical_to_sequential() {
    // Interning from the sink composes with `with_threads` (the sink sees
    // the merged stream) without perturbing a single byte of it, for
    // k ∈ {1, 2, 4}, on all four problems.
    let g = generators::theta_chain(5, 3);
    let w = [VertexId(0), VertexId(5)];
    let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    for k in [1usize, 2, 4] {
        let (sharded, stored) =
            interned(Enumeration::new(SteinerTree::new(&g, &w)).with_threads(k));
        assert_eq!(sharded, sequential, "steiner tree, threads({k})");
        assert_eq!(stored, sequential.len(), "every solution interned");
    }

    let g2 = test_graph(1);
    let sets = vec![
        vec![VertexId(0), VertexId(2)],
        vec![VertexId(1), VertexId(3)],
    ];
    let seq_forest = ordered(Enumeration::new(SteinerForest::new(&g2, &sets)));
    let w2 = [VertexId(0), VertexId(2), VertexId(4)];
    let seq_terminal = ordered(Enumeration::new(TerminalSteinerTree::new(&g2, &w2)));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xd1a);
    let (d, root) = generators::random_rooted_dag(7, 14, &mut rng);
    let mut dw = vec![VertexId(5), VertexId(6)];
    dw.retain(|&v| v != root);
    let seq_directed = ordered(Enumeration::new(DirectedSteinerTree::new(&d, root, &dw)));
    for k in [1usize, 2, 4] {
        let (got, _) = interned(Enumeration::new(SteinerForest::new(&g2, &sets)).with_threads(k));
        assert_eq!(got, seq_forest, "forest, threads({k})");
        let (got, _) =
            interned(Enumeration::new(TerminalSteinerTree::new(&g2, &w2)).with_threads(k));
        assert_eq!(got, seq_terminal, "terminal, threads({k})");
        let (got, _) =
            interned(Enumeration::new(DirectedSteinerTree::new(&d, root, &dw)).with_threads(k));
        assert_eq!(got, seq_directed, "directed, threads({k})");
    }
}

#[test]
fn cached_composes_with_threads_and_queue() {
    let g = generators::theta_chain(5, 3); // 243 solutions
    let w = [VertexId(0), VertexId(5)];
    let sequential = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    // Record through a sharded, queued cold run; replay must still be the
    // sequential stream, and later front-end configurations with the same
    // (key, limit) are hits regardless of how the cold run executed.
    let cache = ResultCache::new();
    let cold = ordered(
        Enumeration::new(SteinerTree::new(&g, &w))
            .cached(&cache)
            .with_threads(4)
            .with_default_queue(),
    );
    assert_eq!(cold, sequential);
    assert_eq!(cache.stats().misses, 1);
    let warm_direct = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(warm_direct, sequential);
    let warm_sharded = ordered(
        Enumeration::new(SteinerTree::new(&g, &w))
            .cached(&cache)
            .with_threads(2),
    );
    assert_eq!(warm_sharded, sequential);
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(cache.stats().entries, 1);
}

#[test]
fn cached_iterator_front_end_hits_and_misses() {
    let g = generators::theta_chain(4, 3); // 81 solutions
    let w = [VertexId(0), VertexId(4)];
    let cache = ResultCache::new();
    let cold: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g.clone(), &w))
        .cached(&cache)
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().entries, 1, "the worker stored the stream");
    let warm: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g.clone(), &w))
        .cached(&cache)
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(warm, cold);
    assert_eq!(cache.stats().hits, 1);
    // Dropping a replaying iterator early releases its checkout cleanly.
    let mut iter = Enumeration::new(SteinerTree::from_graph(g.clone(), &w))
        .cached(&cache)
        .into_iter()
        .expect("valid instance");
    assert_eq!(iter.next(), Some(cold[0].clone()));
    drop(iter);
    // The push front-end still replays the full stream afterwards.
    let again = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(again, cold);
}

#[test]
fn aborted_runs_are_not_cached_but_limit_runs_are() {
    let g = generators::theta_chain(4, 3);
    let w = [VertexId(0), VertexId(4)];
    let cache = ResultCache::new();
    // A sink that bails after 5 of 81 solutions: an incomplete stream.
    let mut seen = 0u64;
    Enumeration::new(SteinerTree::new(&g, &w))
        .cached(&cache)
        .for_each(|_| {
            seen += 1;
            if seen == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("valid instance");
    assert_eq!(cache.stats().entries, 0, "aborted stream is discarded");
    assert_eq!(cache.bytes(), 0, "and its recording was rolled back");
    // The same truncation via `with_limit` is a complete stream *for that
    // key* and is stored — including when the sink also breaks on the
    // final delivery.
    let limited = ordered(
        Enumeration::new(SteinerTree::new(&g, &w))
            .cached(&cache)
            .with_limit(5),
    );
    assert_eq!(limited.len(), 5);
    assert_eq!(cache.stats().entries, 1);
    let replayed = ordered(
        Enumeration::new(SteinerTree::new(&g, &w))
            .cached(&cache)
            .with_limit(5),
    );
    assert_eq!(replayed, limited);
    assert_eq!(cache.stats().hits, 1);
    // A different limit is a different query: miss, then stored.
    let full = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(full.len(), 81);
    assert_eq!(cache.stats().entries, 2);
}

#[test]
fn cache_distinguishes_problem_kinds_and_queries() {
    let g = test_graph(2);
    let w = [VertexId(0), VertexId(3)];
    let cache = ResultCache::new();
    let trees = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    // Same graph, same terminals, different problem: must not collide.
    let terminal = ordered(Enumeration::new(TerminalSteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(cache.stats().misses, 2, "distinct kinds are distinct keys");
    // Same problem, different terminals: distinct too.
    let other =
        ordered(Enumeration::new(SteinerTree::new(&g, &[VertexId(1), VertexId(2)])).cached(&cache));
    assert_eq!(cache.stats().misses, 3);
    assert_eq!(cache.stats().entries, 3);
    // And all three replay independently.
    assert_eq!(
        ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache)),
        trees
    );
    assert_eq!(
        ordered(Enumeration::new(TerminalSteinerTree::new(&g, &w)).cached(&cache)),
        terminal
    );
    assert_eq!(
        ordered(Enumeration::new(SteinerTree::new(&g, &[VertexId(1), VertexId(2)])).cached(&cache)),
        other
    );
}

#[test]
fn permuted_queries_share_one_cache_entry() {
    // prepare() canonicalizes the query (sorted terminals; reduced pair
    // list for forests), so permuted repeats of the same logical query
    // must hit, not duplicate.
    let g = test_graph(3);
    let cache = ResultCache::new();
    let a =
        ordered(Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(3)])).cached(&cache));
    let b =
        ordered(Enumeration::new(SteinerTree::new(&g, &[VertexId(3), VertexId(0)])).cached(&cache));
    assert_eq!(a, b, "same logical query, same stream");
    assert_eq!(cache.stats().hits, 1, "the permutation is a hit");
    assert_eq!(cache.stats().entries, 1, "no duplicate entry");

    // Forests: regrouping sets with the same reduced pairs also hits.
    let cache = ResultCache::new();
    let grouped = vec![vec![VertexId(0), VertexId(1), VertexId(2)]];
    let split = vec![
        vec![VertexId(0), VertexId(2)],
        vec![VertexId(1), VertexId(0)],
    ];
    let a = ordered(Enumeration::new(SteinerForest::new(&g, &grouped)).cached(&cache));
    let b = ordered(Enumeration::new(SteinerForest::new(&g, &split)).cached(&cache));
    assert_eq!(a, b, "identical pair reductions, identical stream");
    assert_eq!(cache.stats().hits, 1);

    // But a *malformed* variant with the same canonical pairs must still
    // error exactly like a cold run — never be served from the cache.
    let dup = vec![vec![VertexId(0), VertexId(1), VertexId(1), VertexId(2)]];
    let err = Enumeration::new(SteinerForest::new(&g, &dup))
        .cached(&cache)
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        minimal_steiner::SteinerError::DuplicateTerminal(VertexId(1))
    );
}

#[test]
fn graph_mutation_changes_the_fingerprint() {
    let mut g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let w = [VertexId(0), VertexId(2)];
    let cache = ResultCache::new();
    let before = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(before.len(), 2);
    // Adding a chord changes the answer set; the stale entry must not be
    // served for the mutated graph.
    g.add_edge(VertexId(0), VertexId(2)).unwrap();
    let after = ordered(Enumeration::new(SteinerTree::new(&g, &w)).cached(&cache));
    assert_eq!(after.len(), 3, "the new direct edge is a third solution");
    assert_eq!(cache.stats().misses, 2, "mutated graph is a fresh key");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interned_streams_reexpand_exactly(case in 0usize..32, n_streams in 1usize..4) {
        let g = test_graph(case);
        let n = g.num_vertices();
        let w = [VertexId(0), VertexId::new(n - 1)];
        check_intern_roundtrip(|| SteinerTree::new(&g, &w), n_streams);
        check_intern_roundtrip(|| TerminalSteinerTree::new(&g, &w), n_streams);
        let sets = vec![
            vec![VertexId(0), VertexId::new(n - 1)],
            vec![VertexId(1), VertexId(2)],
        ];
        check_intern_roundtrip(|| SteinerForest::new(&g, &sets), n_streams);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(case as u64);
        let (d, root) = generators::random_rooted_dag(6, 12, &mut rng);
        let mut dw = vec![VertexId(4), VertexId(5)];
        dw.retain(|&v| v != root);
        if !dw.is_empty()
            && Enumeration::new(DirectedSteinerTree::new(&d, root, &dw)).run().is_ok()
        {
            check_intern_roundtrip(|| DirectedSteinerTree::new(&d, root, &dw), n_streams);
        }
    }

    #[test]
    fn cache_hit_equals_cold_run_under_limit(case in 0usize..32, k in 0u64..20) {
        let g = test_graph(case);
        let n = g.num_vertices();
        let w = [VertexId(0), VertexId::new(n - 1)];
        check_cache_roundtrip(|| SteinerTree::new(&g, &w), Some(k));
        check_cache_roundtrip(|| SteinerTree::new(&g, &w), None);
        check_cache_roundtrip(|| TerminalSteinerTree::new(&g, &w), Some(k));
        let sets = vec![
            vec![VertexId(0), VertexId::new(n - 1)],
            vec![VertexId(1), VertexId(2)],
        ];
        check_cache_roundtrip(|| SteinerForest::new(&g, &sets), Some(k));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(case as u64);
        let (d, root) = generators::random_rooted_dag(6, 12, &mut rng);
        let mut dw = vec![VertexId(4), VertexId(5)];
        dw.retain(|&v| v != root);
        if !dw.is_empty()
            && Enumeration::new(DirectedSteinerTree::new(&d, root, &dw)).run().is_ok()
        {
            check_cache_roundtrip(|| DirectedSteinerTree::new(&d, root, &dw), Some(k));
        }
    }
}
