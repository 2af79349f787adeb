//! Error-path tests for the typed [`SteinerError`] reporting of the
//! unified solver API: every variant is produced by the appropriate
//! invalid instance, for every problem type and front-end.

use minimal_steiner::graph::{DiGraph, UndirectedGraph, VertexId};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};

fn path3() -> UndirectedGraph {
    UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
}

#[test]
fn empty_instance_is_reported() {
    let g = path3();
    assert_eq!(
        Enumeration::new(SteinerTree::new(&g, &[]))
            .run()
            .unwrap_err(),
        SteinerError::EmptyInstance
    );
    assert_eq!(
        Enumeration::new(TerminalSteinerTree::new(&g, &[]))
            .run()
            .unwrap_err(),
        SteinerError::EmptyInstance
    );
    assert_eq!(
        Enumeration::new(SteinerForest::new(&g, &[]))
            .run()
            .unwrap_err(),
        SteinerError::EmptyInstance
    );
    let d = DiGraph::from_arcs(2, &[(0, 1)]).unwrap();
    assert_eq!(
        Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[]))
            .run()
            .unwrap_err(),
        SteinerError::EmptyInstance
    );
}

#[test]
fn duplicate_terminals_are_reported() {
    let g = path3();
    let dup = [VertexId(0), VertexId(2), VertexId(0)];
    assert_eq!(
        Enumeration::new(SteinerTree::new(&g, &dup))
            .run()
            .unwrap_err(),
        SteinerError::DuplicateTerminal(VertexId(0))
    );
    assert_eq!(
        Enumeration::new(TerminalSteinerTree::new(&g, &dup))
            .run()
            .unwrap_err(),
        SteinerError::DuplicateTerminal(VertexId(0))
    );
    assert_eq!(
        Enumeration::new(SteinerForest::new(
            &g,
            &[vec![VertexId(0), VertexId(0), VertexId(2)]]
        ))
        .run()
        .unwrap_err(),
        SteinerError::DuplicateTerminal(VertexId(0))
    );
    let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
    assert_eq!(
        Enumeration::new(DirectedSteinerTree::new(
            &d,
            VertexId(0),
            &[VertexId(2), VertexId(2)]
        ))
        .run()
        .unwrap_err(),
        SteinerError::DuplicateTerminal(VertexId(2))
    );
}

#[test]
fn out_of_range_terminals_are_reported() {
    let g = path3();
    assert_eq!(
        Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(9)]))
            .run()
            .unwrap_err(),
        SteinerError::TerminalOutOfRange {
            terminal: VertexId(9),
            num_vertices: 3
        }
    );
    assert_eq!(
        Enumeration::new(SteinerForest::new(&g, &[vec![VertexId(0), VertexId(9)]]))
            .run()
            .unwrap_err(),
        SteinerError::TerminalOutOfRange {
            terminal: VertexId(9),
            num_vertices: 3
        }
    );
    assert_eq!(
        Enumeration::new(TerminalSteinerTree::new(&g, &[VertexId(0), VertexId(9)]))
            .run()
            .unwrap_err(),
        SteinerError::TerminalOutOfRange {
            terminal: VertexId(9),
            num_vertices: 3
        }
    );
    let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
    assert_eq!(
        Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[VertexId(9)]))
            .run()
            .unwrap_err(),
        SteinerError::TerminalOutOfRange {
            terminal: VertexId(9),
            num_vertices: 3
        }
    );
}

#[test]
fn out_of_range_root_is_reported() {
    let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
    assert_eq!(
        Enumeration::new(DirectedSteinerTree::new(&d, VertexId(7), &[VertexId(2)]))
            .run()
            .unwrap_err(),
        SteinerError::RootOutOfRange {
            root: VertexId(7),
            num_vertices: 3
        }
    );
}

#[test]
fn disconnected_terminals_are_reported_with_the_set_index() {
    let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    assert_eq!(
        Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
            .run()
            .unwrap_err(),
        SteinerError::DisconnectedTerminals { set: 0 }
    );
    assert_eq!(
        Enumeration::new(TerminalSteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
            .run()
            .unwrap_err(),
        SteinerError::DisconnectedTerminals { set: 0 }
    );
    // Forests name the offending set: set 0 is fine, set 1 is not.
    let sets = vec![
        vec![VertexId(0), VertexId(1)],
        vec![VertexId(1), VertexId(3)],
    ];
    assert_eq!(
        Enumeration::new(SteinerForest::new(&g, &sets))
            .run()
            .unwrap_err(),
        SteinerError::DisconnectedTerminals { set: 1 }
    );
}

#[test]
fn unreachable_directed_terminal_is_reported() {
    // 2 -> 1 only: vertex 2 cannot be reached from 0.
    let d = DiGraph::from_arcs(3, &[(0, 1), (2, 1)]).unwrap();
    assert_eq!(
        Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[VertexId(2)]))
            .run()
            .unwrap_err(),
        SteinerError::UnreachableTerminal(VertexId(2))
    );
}

#[test]
fn iterator_front_end_reports_errors_synchronously() {
    let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let err = Enumeration::new(SteinerTree::from_graph(g, &[VertexId(0), VertexId(2)]))
        .into_iter()
        .err()
        .expect("disconnected instance must not spawn a worker");
    assert_eq!(err, SteinerError::DisconnectedTerminals { set: 0 });
}

#[test]
fn errors_display_and_propagate_as_std_error() {
    let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let err = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
        .run()
        .unwrap_err();
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("connected components"));
}

/// The deprecated shims, which treated some errors as "no solutions",
/// are gone. On the inputs they were lenient about, the builder returns
/// typed errors, and `means_no_solutions` separates the instances that
/// have no solution from the malformed ones.
#[test]
fn shims_keep_lenient_semantics() {
    let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let tree_error = |w: &[VertexId]| {
        Enumeration::new(SteinerTree::new(&g, w))
            .for_each(|_| panic!("an invalid instance delivers nothing"))
            .unwrap_err()
    };
    // Disconnected: no solutions.
    let err = tree_error(&[VertexId(0), VertexId(2)]);
    assert_eq!(err, SteinerError::DisconnectedTerminals { set: 0 });
    assert!(err.means_no_solutions());
    // Empty terminal list: no solutions.
    let err = tree_error(&[]);
    assert_eq!(err, SteinerError::EmptyInstance);
    assert!(err.means_no_solutions());
    // Duplicates, which the shim silently deduplicated: malformed.
    let err = tree_error(&[VertexId(0), VertexId(0)]);
    assert_eq!(err, SteinerError::DuplicateTerminal(VertexId(0)));
    assert!(!err.means_no_solutions());
    // Forest sets with duplicate members, also deduplicated by the shim.
    let err = Enumeration::new(SteinerForest::new(
        &g,
        &[vec![VertexId(0), VertexId(0), VertexId(1)]],
    ))
    .run()
    .unwrap_err();
    assert_eq!(err, SteinerError::DuplicateTerminal(VertexId(0)));
    assert!(!err.means_no_solutions());
}

/// The shims panicked on out-of-range ids; the builder rejects the same
/// input with a typed error, whose message is the one the shim panicked
/// with — so a caller that treats the error as fatal still sees it.
#[test]
#[should_panic(expected = "out of range")]
fn shims_still_panic_on_out_of_range_ids() {
    let g = path3();
    let err = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(9)]))
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        SteinerError::TerminalOutOfRange {
            terminal: VertexId(9),
            num_vertices: 3,
        }
    );
    assert!(!err.means_no_solutions());
    panic!("{err}");
}

// ---------------------------------------------------------------------
// Runtime conditions: deadlines and admission control. Unlike the
// instance-validation errors above, these do not mean "no solutions" —
// the instance may be fine; the *run* was bounded.

/// Every front-end must surface an expired deadline as
/// [`SteinerError::DeadlineExceeded`], and anything delivered before the
/// abort must be a valid prefix of the full deterministic stream.
fn check_deadline_surface<P>(make: impl Fn() -> P)
where
    P: minimal_steiner::MinimalSteinerProblem + Send + 'static,
    P::Item: Send + PartialEq + std::fmt::Debug + 'static,
{
    use std::ops::ControlFlow;
    let full = Enumeration::new(make()).collect_vec().unwrap();
    let past = std::time::Instant::now();

    // Push front-end: sequential and sharded, direct and queued.
    for threads in [1, 2] {
        for queued in [false, true] {
            let mut e = Enumeration::new(make())
                .with_deadline(past)
                .with_threads(threads);
            if queued {
                e = e.with_default_queue();
            }
            let mut prefix = Vec::new();
            let err = e
                .for_each(|s| {
                    prefix.push(s.to_vec());
                    ControlFlow::Continue(())
                })
                .unwrap_err();
            assert_eq!(err, SteinerError::DeadlineExceeded);
            assert!(!err.means_no_solutions());
            assert_eq!(
                &prefix[..],
                &full[..prefix.len()],
                "the delivered prefix stays valid"
            );
        }
    }

    // Sink-less runner.
    assert_eq!(
        Enumeration::new(make())
            .with_deadline(past)
            .run()
            .unwrap_err(),
        SteinerError::DeadlineExceeded
    );

    // Pull front-end: the stream ends early and the error is readable
    // after exhaustion.
    let mut it = Enumeration::new(make())
        .with_deadline(past)
        .into_iter()
        .unwrap();
    let prefix: Vec<_> = it.by_ref().collect();
    assert_eq!(it.error(), Some(SteinerError::DeadlineExceeded));
    assert_eq!(&prefix[..], &full[..prefix.len()]);

    // A cached run whose deadline expires is a counted miss that stores
    // nothing, and both front-ends publish the same cache fields.
    let cache_fields = |s: minimal_steiner::EnumStats| {
        (
            s.cache_hits,
            s.cache_misses,
            s.evicted_entries,
            s.compactions,
            s.interned_bytes,
        )
    };
    for threads in [1, 2] {
        let cache = minimal_steiner::ResultCache::new();
        let (e, push) = Enumeration::new(make())
            .cached(&cache)
            .with_deadline(past)
            .with_threads(threads)
            .with_stats();
        assert_eq!(
            e.for_each(|_| ControlFlow::Continue(())).unwrap_err(),
            SteinerError::DeadlineExceeded
        );
        let (e, pull) = Enumeration::new(make())
            .cached(&cache)
            .with_deadline(past)
            .with_threads(threads)
            .with_stats();
        let mut it = e.into_iter().unwrap();
        it.by_ref().for_each(drop);
        assert_eq!(it.error(), Some(SteinerError::DeadlineExceeded));
        for (front_end, stats) in [("push", push.get()), ("pull", pull.get())] {
            assert_eq!(
                (stats.cache_hits, stats.cache_misses),
                (0, 1),
                "threads({threads}) {front_end}: an expired cached run is one miss"
            );
        }
        assert_eq!(
            cache_fields(push.get()),
            cache_fields(pull.get()),
            "threads({threads}): push and pull publish the same cache fields"
        );
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(
            cache.stats().entries,
            0,
            "a deadline'd prefix is never stored"
        );
        assert_eq!(cache.bytes(), 0);
    }
}

#[test]
fn expired_deadline_is_reported_by_every_problem_and_front_end() {
    let g = path3();
    let w = [VertexId(0), VertexId(2)];
    check_deadline_surface({
        let g = g.clone();
        move || SteinerTree::from_graph(g.clone(), &w)
    });
    check_deadline_surface({
        let g = g.clone();
        move || SteinerForest::from_graph(g.clone(), &[w.to_vec()])
    });
    check_deadline_surface(move || TerminalSteinerTree::from_graph(g.clone(), &w));
    let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
    check_deadline_surface(move || {
        DirectedSteinerTree::from_graph(d.clone(), VertexId(0), &[VertexId(2)])
    });
}

#[test]
fn admission_rejection_is_typed_and_never_means_no_solutions() {
    use minimal_steiner::service::{EngineConfig, EnumerationEngine, Query, QueryOptions};
    let engine = EnumerationEngine::with_config(
        path3(),
        EngineConfig {
            workers: 1,
            max_in_flight: 8,
            tenant_queue_depth: 1,
            cache_capacity_bytes: None,
        },
    );
    engine.pause(); // keep the first submission queued deterministically
    let session = engine.session("tenant");
    let q = Query::SteinerTree {
        terminals: vec![VertexId(0), VertexId(2)],
    };
    let admitted = session.submit(q.clone(), QueryOptions::default()).unwrap();
    let err = session.submit(q, QueryOptions::default()).unwrap_err();
    assert_eq!(
        err,
        SteinerError::AdmissionRejected {
            in_flight: 1,
            capacity: 1
        }
    );
    assert!(!err.means_no_solutions());
    assert!(err.to_string().contains('1'), "display names the capacity");
    engine.resume();
    // The admitted query was unaffected by its sibling's rejection.
    let outcome = admitted.wait();
    assert!(outcome.is_complete());
    assert_eq!(outcome.solutions.len(), 1);
}

/// A timeout too long for an `Instant` to represent sets no deadline:
/// the run completes instead of panicking on the overflow, and delivers
/// what a run without a timeout delivers.
#[test]
fn unrepresentable_timeout_means_no_deadline() {
    let g = minimal_steiner::graph::generators::grid(3, 4);
    let w = [VertexId(0), VertexId(11)];
    let unbounded = Enumeration::new(SteinerTree::new(&g, &w)).count().unwrap();
    let timed = Enumeration::new(SteinerTree::new(&g, &w))
        .with_timeout(std::time::Duration::MAX)
        .count()
        .unwrap();
    assert!(unbounded > 1);
    assert_eq!(timed, unbounded);
}
