//! End-to-end tests of the `steiner-service` layer: byte-identity of
//! served streams against one-shot engine runs, admission control,
//! deadline'd queries, fair-share aggregation, and warm restarts.

use std::time::{Duration, Instant};

use minimal_steiner::graph::{generators, DiGraph, UndirectedGraph, VertexId};
use minimal_steiner::service::{
    EngineConfig, EnumerationEngine, Query, QueryOptions, SolutionItems,
};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};

fn undirected() -> (UndirectedGraph, Vec<VertexId>) {
    let g = generators::theta_chain(2, 3);
    let last = VertexId(g.num_vertices() as u32 - 1);
    (g, vec![VertexId(0), last])
}

fn directed() -> (DiGraph, VertexId, Vec<VertexId>) {
    let (d, root) = generators::layered_digraph(3, 2);
    let last = VertexId(d.num_vertices() as u32 - 1);
    (d, root, vec![last])
}

/// Acceptance criterion: for every paper problem, at least two
/// sessions, with and without per-query sharding (and with the
/// Theorem-20 queue), the service delivers exactly the stream a
/// one-shot [`Enumeration`] run of the same query delivers.
#[test]
fn served_streams_are_byte_identical_to_one_shot_runs() {
    let (g, w) = undirected();
    let (d, root, dw) = directed();
    let expected = [
        SolutionItems::Edges(
            Enumeration::new(SteinerTree::new(&g, &w))
                .collect_vec()
                .unwrap(),
        ),
        SolutionItems::Edges(
            Enumeration::new(SteinerForest::new(&g, std::slice::from_ref(&w)))
                .collect_vec()
                .unwrap(),
        ),
        SolutionItems::Edges(
            Enumeration::new(TerminalSteinerTree::new(&g, &w))
                .collect_vec()
                .unwrap(),
        ),
        SolutionItems::Arcs(
            Enumeration::new(DirectedSteinerTree::new(&d, root, &dw))
                .collect_vec()
                .unwrap(),
        ),
    ];
    let queries = [
        Query::SteinerTree {
            terminals: w.clone(),
        },
        Query::SteinerForest {
            sets: vec![w.clone()],
        },
        Query::TerminalSteinerTree { terminals: w },
        Query::DirectedSteinerTree {
            root,
            terminals: dw,
        },
    ];

    let engine = EnumerationEngine::with_graphs(g, Some(d), EngineConfig::default());
    let sessions = [engine.session("alpha"), engine.session("beta")];
    for (query, want) in queries.iter().zip(&expected) {
        for session in &sessions {
            for threads in [0, 2] {
                for queue in [false, true] {
                    let mut opts = QueryOptions::default().threads(threads);
                    if queue {
                        opts = opts.queued();
                    }
                    let outcome = session.run(query.clone(), opts).unwrap();
                    assert!(outcome.is_complete());
                    assert_eq!(
                        &outcome.solutions,
                        want,
                        "tenant {} threads {threads} queue {queue}",
                        session.name()
                    );
                }
            }
        }
    }
    // 4 queries × 2 sessions × 4 option combinations; the first run of
    // each query was the only miss, everything after replayed.
    let (edge_stats, arc_stats) = engine.cache_stats();
    assert_eq!(edge_stats.entries, 3);
    assert_eq!(arc_stats.entries, 1);
    assert_eq!(edge_stats.misses, 3);
    assert_eq!(arc_stats.misses, 1);
    assert_eq!(edge_stats.hits + arc_stats.hits, 4 * 2 * 4 - 4);
}

/// Pooled sharded queries steal subtrees and deliver the sequential
/// stream.
#[test]
fn pooled_queries_steal_by_default_and_match_the_reference() {
    // A multi-terminal grid: the enumeration tree has depth, so the
    // adaptive steal points are actually reachable.
    let g = generators::grid(3, 4);
    let w = vec![VertexId(0), VertexId(5), VertexId(11)];
    let want = Enumeration::new(SteinerTree::new(&g, &w))
        .collect_vec()
        .unwrap();
    let query = Query::SteinerTree { terminals: w };
    let engine = EnumerationEngine::new(g);
    let session = engine.session("ab-test");
    // The cache key ignores execution options, so only the *first* run
    // executes cold: that stealing run must reproduce the sequential
    // stream bit for bit, and the later runs replay its recording.
    let cold = session
        .run(query.clone(), QueryOptions::default().threads(4))
        .unwrap();
    assert_eq!(cold.stats.cache_hits, 0, "the first run is cold");
    assert_eq!(cold.solutions.edges().unwrap(), &want[..]);
    for opts in [
        QueryOptions::default().threads(4),
        QueryOptions::default().threads(2).queued(),
    ] {
        let outcome = session.run(query.clone(), opts).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.solutions.edges().unwrap(), &want[..]);
    }
}

/// Concurrent submissions from several tenants all complete, all match
/// the one-shot stream, and the engine drains to idle.
#[test]
fn concurrent_tenants_complete_with_identical_answers() {
    let (g, w) = undirected();
    let want = Enumeration::new(SteinerTree::new(&g, &w))
        .collect_vec()
        .unwrap();
    let engine = EnumerationEngine::with_config(
        g,
        EngineConfig {
            workers: 3,
            max_in_flight: 64,
            tenant_queue_depth: 16,
            cache_capacity_bytes: None,
        },
    );
    let query = Query::SteinerTree { terminals: w };
    let tickets: Vec<_> = ["a", "b", "c"]
        .iter()
        .flat_map(|name| {
            let session = engine.session(name);
            let query = query.clone();
            (0..5).map(move |_| {
                session
                    .submit(query.clone(), QueryOptions::default())
                    .unwrap()
            })
        })
        .collect();
    for ticket in tickets {
        let outcome = ticket.wait();
        assert!(outcome.is_complete());
        assert_eq!(outcome.solutions.edges().unwrap(), &want[..]);
    }
    engine.wait_idle();
    assert_eq!(engine.in_flight(), 0);
    let reports = engine.tenants();
    assert_eq!(reports.len(), 3);
    for report in reports {
        assert_eq!(report.completed, 5);
        assert_eq!(report.rejected, 0);
        // Per-tenant stats fold each completed run's counters.
        assert_eq!(report.stats.solutions, 5 * want.len() as u64);
    }
}

/// The global in-flight pool rejects what it cannot hold — typed, with
/// the observed occupancy — and admitted work is unaffected.
#[test]
fn global_pool_admission_control() {
    let (g, w) = undirected();
    let engine = EnumerationEngine::with_config(
        g,
        EngineConfig {
            workers: 1,
            max_in_flight: 3,
            tenant_queue_depth: 8,
            cache_capacity_bytes: None,
        },
    );
    engine.pause();
    let session = engine.session("tenant");
    let query = Query::SteinerTree { terminals: w };
    let admitted: Vec<_> = (0..3)
        .map(|_| {
            session
                .submit(query.clone(), QueryOptions::default())
                .unwrap()
        })
        .collect();
    for _ in 0..2 {
        assert_eq!(
            session
                .submit(query.clone(), QueryOptions::default())
                .unwrap_err(),
            SteinerError::AdmissionRejected {
                in_flight: 3,
                capacity: 3
            }
        );
    }
    assert_eq!(session.report().rejected, 2);
    engine.resume();
    for ticket in admitted {
        assert!(ticket.wait().is_complete());
    }
    // With the pool drained, submissions are admitted again.
    let outcome = session.run(query, QueryOptions::default()).unwrap();
    assert!(outcome.is_complete());
}

/// A timeout too long for an `Instant` to represent sets no deadline:
/// the served query resolves `Ok` with the one-shot stream.
#[test]
fn unrepresentable_timeout_resolves_ok() {
    let (g, w) = undirected();
    let engine = EnumerationEngine::new(g.clone());
    let session = engine.session("tenant");
    let outcome = session
        .run(
            Query::SteinerTree {
                terminals: w.clone(),
            },
            QueryOptions::default().timeout(Duration::MAX),
        )
        .unwrap();
    assert_eq!(outcome.status, Ok(()));
    assert_eq!(
        outcome.solutions.edges().unwrap(),
        &Enumeration::new(SteinerTree::new(&g, &w))
            .collect_vec()
            .unwrap()[..]
    );
}

/// A deadline'd query on an effectively inexhaustible instance
/// terminates within a bounded overshoot, reports
/// [`SteinerError::DeadlineExceeded`], and its partial stream is a
/// prefix of the deterministic full stream.
#[test]
fn deadline_terminates_with_bounded_overshoot_and_valid_prefix() {
    // 7×7 grid, opposite corners: the minimal Steiner trees between two
    // terminals are the corner-to-corner induced paths — far too many
    // to enumerate within the deadline.
    let g = generators::grid(7, 7);
    let w = vec![VertexId(0), VertexId(48)];
    let engine = EnumerationEngine::new(g.clone());
    let session = engine.session("tenant");
    let timeout = Duration::from_millis(40);
    let started = Instant::now();
    let outcome = session
        .run(
            Query::SteinerTree {
                terminals: w.clone(),
            },
            QueryOptions::default().timeout(timeout),
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(outcome.status, Err(SteinerError::DeadlineExceeded));
    // Generous CI slack; the engine's check granularity is a constant
    // number of node expansions, so the overshoot is far smaller.
    assert!(
        elapsed < timeout + Duration::from_secs(5),
        "query overshot its deadline by {:?}",
        elapsed - timeout
    );
    assert_eq!(session.report().deadline_exceeded, 1);
    // The timed-out query was a cache miss, in its own stats and in the
    // tenant's totals alike.
    assert_eq!(outcome.stats.cache_misses, 1);
    assert_eq!(session.report().stats.cache_misses, 1);
    assert_eq!(
        session.report().stats.cache_misses,
        engine.cache_stats().0.misses
    );

    // The delivered prefix is exactly the one-shot stream's prefix.
    let delivered = outcome.solutions.edges().unwrap();
    if !delivered.is_empty() {
        let reference = Enumeration::new(SteinerTree::new(&g, &w))
            .with_limit(delivered.len() as u64)
            .collect_vec()
            .unwrap();
        assert_eq!(delivered, &reference[..]);
    }

    // The incomplete run was never recorded: a bounded re-run misses.
    let again = session
        .run(
            Query::SteinerTree { terminals: w },
            QueryOptions::default().limit(5),
        )
        .unwrap();
    assert!(again.is_complete());
    assert_eq!(again.stats.cache_hits, 0);
}

/// Weighted tenants drain proportionally and their lifetime counters
/// fold every completed run.
#[test]
fn weighted_tenants_drain_and_aggregate() {
    let (g, w) = undirected();
    let want = Enumeration::new(SteinerTree::new(&g, &w))
        .collect_vec()
        .unwrap();
    let engine = EnumerationEngine::with_config(
        g,
        EngineConfig {
            workers: 1,
            max_in_flight: 32,
            tenant_queue_depth: 16,
            cache_capacity_bytes: None,
        },
    );
    engine.pause();
    let heavy = engine.session_with_weight("heavy", 3);
    let light = engine.session_with_weight("light", 1);
    let query = Query::SteinerTree { terminals: w };
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let session = if i % 2 == 0 { &heavy } else { &light };
            session
                .submit(query.clone(), QueryOptions::default())
                .unwrap()
        })
        .collect();
    engine.resume();
    for ticket in tickets {
        assert!(ticket.wait().is_complete());
    }
    let reports = engine.tenants();
    assert_eq!(reports.len(), 2);
    for report in &reports {
        assert_eq!(report.completed, 3);
        assert_eq!(report.queued, 0);
        assert_eq!(report.stats.solutions, 3 * want.len() as u64);
        // One of the six runs was the cache miss; its tenant's fold
        // shows it, every other run replayed.
        assert_eq!(
            report.stats.cache_hits + report.stats.cache_misses,
            3,
            "every run either hit or missed"
        );
    }
    let total_misses: u64 = reports.iter().map(|r| r.stats.cache_misses).sum();
    assert_eq!(total_misses, 1);
}

/// Warm restart end to end: snapshot a served engine, restore into a
/// fresh one over the same graphs, and the repeated queries replay as
/// cache hits with byte-identical streams.
#[test]
fn warm_restart_replays_identically() {
    let (g, w) = undirected();
    let (d, root, dw) = directed();
    let engine =
        EnumerationEngine::with_graphs(g.clone(), Some(d.clone()), EngineConfig::default());
    let session = engine.session("tenant");
    let queries = [
        Query::SteinerTree {
            terminals: w.clone(),
        },
        Query::SteinerForest {
            sets: vec![w.clone()],
        },
        Query::TerminalSteinerTree { terminals: w },
        Query::DirectedSteinerTree {
            root,
            terminals: dw,
        },
    ];
    let cold: Vec<_> = queries
        .iter()
        .map(|q| session.run(q.clone(), QueryOptions::default()).unwrap())
        .collect();
    let blob = engine.snapshot();
    assert_eq!(blob, engine.snapshot(), "snapshots are deterministic");
    drop(engine);

    let restarted = EnumerationEngine::with_graphs(g, Some(d), EngineConfig::default());
    assert_eq!(restarted.restore(&blob).unwrap(), 4);
    let session = restarted.session("tenant");
    for (query, cold) in queries.iter().zip(&cold) {
        let warm = session.run(query.clone(), QueryOptions::default()).unwrap();
        assert!(warm.is_complete());
        assert_eq!(warm.stats.cache_hits, 1, "restored entry served the query");
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.solutions, cold.solutions);
    }
    // And the restored engine's snapshot reproduces the original blob.
    assert_eq!(restarted.snapshot(), blob);
}

/// A snapshot taken over one graph is refused by an engine over another
/// — stale answers are never silently served.
#[test]
fn restore_refuses_snapshots_of_a_different_graph() {
    let (g, w) = undirected();
    let engine = EnumerationEngine::new(g);
    let session = engine.session("tenant");
    session
        .run(Query::SteinerTree { terminals: w }, QueryOptions::default())
        .unwrap();
    let blob = engine.snapshot();

    let other = EnumerationEngine::new(generators::cycle(5));
    assert!(other.restore(&blob).is_err());
    let (edge_stats, _) = other.cache_stats();
    assert_eq!(edge_stats.entries, 0, "nothing was committed");
}
