//! Regenerates the measured analogue of the paper's **Table 1**: for each
//! enumeration problem, the claimed delay bound next to measured totals,
//! mean/max delays, and the max work gap normalized by n + m.
//!
//! Usage: `cargo run --release -p steiner-bench --bin table1 [-- section] [--json path]`
//! where `section` ∈ {all, paths, st, forest, terminal, directed, induced,
//! hardness} (default: all). With `--json path`, a machine-readable
//! `BENCH_core.json` (per-row solutions/sec and observed delays) is also
//! written — CI uploads it as a per-PR perf artifact.

use std::ops::ControlFlow;
use steiner_bench::measure::{record_delays, render_json, render_markdown, Row};
use steiner_bench::workloads;
use steiner_core::simple::enumerate_minimal_steiner_trees_simple;
use steiner_core::{
    DirectedSteinerTree, Enumeration, ResultCache, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::{EdgeId, VertexId};
use steiner_service::{EnumerationEngine, GraphMutation, Query, QueryOptions};

const CAP: u64 = 20_000;

fn flow(more: bool) -> ControlFlow<()> {
    if more {
        ControlFlow::Continue(())
    } else {
        ControlFlow::Break(())
    }
}

fn paths_rows(rows: &mut Vec<Row>) {
    for (blocks, width) in [(8, 2), (6, 3), (10, 3)] {
        let inst = workloads::theta_instance(blocks, width);
        let (n, m) = (inst.graph.num_vertices(), inst.graph.num_edges());
        let (s, t) = (inst.terminals[0], inst.terminals[1]);
        let mut work_gap = None;
        let delays = record_delays(CAP, |emit| {
            let stats =
                steiner_paths::undirected::enumerate_st_paths(&inst.graph, s, t, None, &mut |_| {
                    flow(emit())
                });
            work_gap = Some(stats.work);
        });
        rows.push(Row {
            problem: "s-t Paths (§3)".into(),
            algorithm: "Algorithm 1".into(),
            claimed: "O(n+m) delay".into(),
            instance: inst.name.clone(),
            n,
            m,
            t: 2,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
        let delays = record_delays(CAP, |emit| {
            steiner_paths::undirected::enumerate_st_paths_naive(
                &inst.graph,
                s,
                t,
                None,
                &mut |_| flow(emit()),
            );
        });
        rows.push(Row {
            problem: "s-t Paths (§3)".into(),
            algorithm: "naive backtracking".into(),
            claimed: "(exponential delay)".into(),
            instance: inst.name,
            n,
            m,
            t: 2,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
    }
}

fn st_rows(rows: &mut Vec<Row>) {
    // |W| sweep at fixed n+m: the simple baseline's delay grows with |W|,
    // the improved enumerator's does not (Table 1's key contrast).
    for t in [2, 4, 8] {
        let inst = workloads::grid_instance(4, 8, t);
        let (n, m) = (inst.graph.num_vertices(), inst.graph.num_edges());
        let nm = (n + m) as f64;
        let (run, stats) =
            Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals)).with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: "improved (Thm 17)".into(),
            claimed: "O(n+m) amortized".into(),
            instance: inst.name.clone(),
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: None,
        });
        let mut stats_holder = None;
        let delays = record_delays(CAP, |emit| {
            let s =
                enumerate_minimal_steiner_trees_simple(&inst.graph, &inst.terminals, &mut |_| {
                    flow(emit())
                });
            stats_holder = Some(s);
        });
        let stats = stats_holder.expect("simple baseline keeps the free-function API");
        rows.push(Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: "simple Alg. 2 (≈[26])".into(),
            claimed: "O(t(n+m)) delay".into(),
            instance: inst.name.clone(),
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: None,
        });
        // The queue rows report the delivery gap: the Theorem-20 delay the
        // consumer sees behind the queue, on the engine's work counter.
        let (run, stats) = Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
            .with_default_queue()
            .with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: "improved + queue (Thm 20)".into(),
            claimed: "O(n+m) delay".into(),
            instance: inst.name,
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_delivery_gap),
            work_gap_over_nm: Some(stats.max_delivery_gap as f64 / nm),
            path_gen_fraction: None,
        });
    }
    // n+m sweep at fixed |W|: delay should grow roughly linearly. Each
    // size is also run through the sharded front-end (4 workers) — the
    // BENCH_core.json artifact carries both rows so CI tracks the
    // sequential-vs-sharded wall clock per PR.
    for (n, m) in [(60, 90), (120, 180), (240, 360)] {
        let inst = workloads::random_instance(n, m, 4, 42);
        let nm = (inst.graph.num_vertices() + inst.graph.num_edges()) as f64;
        // The row carries the share of work spent in path generation, so
        // the bottleneck claim lives in BENCH_core.json, not PR prose.
        let (run, stats) =
            Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals)).with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: "improved (Thm 17)".into(),
            claimed: "O(n+m) amortized".into(),
            instance: inst.name.clone(),
            n: inst.graph.num_vertices(),
            m: inst.graph.num_edges(),
            t: 4,
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: (stats.work > 0)
                .then(|| stats.path_gen_work as f64 / stats.work as f64),
        });
        let query = Query::SteinerTree {
            terminals: inst.terminals.clone(),
        };
        let opts = QueryOptions::default().limit(CAP);
        // Epoch engine (PR 8): the serving graph gains a disjoint
        // companion component, so the instance and the companion are
        // separate regions. A mutation confined to the companion leaves
        // the instance's cache entry live — replaying the query at the
        // new epoch is pure cache delivery ("epoch replay (untouched
        // region)"). Touching the instance's own region drops the entry;
        // an insert-then-remove pair of batches restores the identical
        // graph, so the forced re-enumeration ("cold after mutation")
        // answers exactly the same workload cold. The paired rows record
        // the gap exact invalidation buys.
        let epoch_row = |pass: &str, delays: steiner_bench::measure::DelayStats| Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: format!("epoch {pass}"),
            claimed: if pass.contains("replay") {
                "O(1)/solution replay".into()
            } else {
                "O(n+m) amortized + record".into()
            },
            instance: inst.name.clone(),
            n: inst.graph.num_vertices(),
            m: inst.graph.num_edges(),
            t: 4,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        };
        let mut live_graph = inst.graph.clone();
        let c0 = live_graph.add_vertex();
        let c1 = live_graph.add_vertex();
        let c2 = live_graph.add_vertex();
        live_graph.add_edge(c0, c1).expect("fresh vertices");
        live_graph.add_edge(c1, c2).expect("fresh vertices");
        let live = EnumerationEngine::new(live_graph);
        let session = live.session("bench");
        let outcome = session.run(query.clone(), opts).expect("admitted");
        assert!(outcome.is_complete(), "warm-up run populates the cache");
        let out = live
            .apply_mutation(GraphMutation::InsertEdge { u: c0, v: c2 })
            .expect("companion edit is valid");
        assert_eq!(
            out.touched_regions,
            vec![c0.0],
            "the edit stays inside the companion region"
        );
        assert!(out.entries_retained >= 1, "the instance's entry survives");
        // Both epoch rows take the fastest of several runs: each side is
        // a one-shot `session.run`, so a single sample is at the mercy
        // of transient scheduler/allocator noise. Replays are cheap, so
        // they get more samples than the cold re-enumerations.
        let min_of = |k: usize, mut one: Box<dyn FnMut() -> steiner_bench::measure::DelayStats>| {
            (1..k).fold(one(), |best, _| {
                let next = one();
                if next.total < best.total {
                    next
                } else {
                    best
                }
            })
        };
        let delays = min_of(
            5,
            Box::new(|| {
                record_delays(CAP, |emit| {
                    let outcome = session.run(query.clone(), opts).expect("admitted");
                    assert_eq!(
                        outcome.stats.cache_hits, 1,
                        "untouched-region replay is a pure cache hit"
                    );
                    for _ in 0..outcome.solutions.len() {
                        if !emit() {
                            break;
                        }
                    }
                })
            }),
        );
        rows.push(epoch_row("replay (untouched region)", delays));
        // Each cold sample re-invalidates first: an insert touching the
        // instance's region drops its entry, and retracting the newest
        // edge id (no renumbering) restores the identical graph, so the
        // measured re-enumeration answers the same workload cold.
        let delays = min_of(
            3,
            Box::new(|| {
                let probe = GraphMutation::InsertEdge {
                    u: inst.terminals[0],
                    v: inst.terminals[1],
                };
                let out = live.apply_mutation(probe).expect("instance edit is valid");
                assert!(out.entries_invalidated >= 1, "the instance's entry drops");
                let last = EdgeId(live.graph().num_edges() as u32 - 1);
                live.apply_mutation(GraphMutation::RemoveEdge(last))
                    .expect("retracting the newest edge is valid");
                record_delays(CAP, |emit| {
                    let outcome = session.run(query.clone(), opts).expect("admitted");
                    assert_eq!(
                        outcome.stats.cache_hits, 0,
                        "the touched-region entry was dropped, so this run is cold"
                    );
                    for _ in 0..outcome.solutions.len() {
                        if !emit() {
                            break;
                        }
                    }
                })
            }),
        );
        rows.push(epoch_row("cold after mutation", delays));
        // Release the live engine (and its churned cache arenas) before
        // the cached/service measurements below: holding them resident
        // pushes the later engines' interned streams onto fresh pages
        // and the page faults show up as per-solution replay cost.
        drop(session);
        drop(live);
        // Sharded run (4 workers, subtree stealing). On a 1-CPU host it
        // measures pure coordination overhead (BENCH_core.json carries
        // `host_logical_cpus` so readers can tell which regime applies).
        let run = Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals)).with_threads(4);
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        rows.push(Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: "improved, sharded x4".into(),
            claimed: "O(n+m) amortized".into(),
            instance: inst.name.clone(),
            n: inst.graph.num_vertices(),
            m: inst.graph.num_edges(),
            t: 4,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
        // Cached replay: the identical query twice through a ResultCache.
        // The cold run records its delivered stream (the `with_limit`
        // makes the capped stream complete for the cache key); the warm
        // run replays it from the interned store without running
        // Algorithm 3 at all — the paired rows measure exactly that gap.
        let cache: ResultCache<EdgeId> = ResultCache::new();
        for pass in ["cached (cold)", "cached (replay)"] {
            let run = Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
                .cached(&cache)
                .with_limit(CAP);
            let delays = record_delays(CAP, |emit| {
                run.for_each(|_| flow(emit())).expect("valid instance");
            });
            rows.push(Row {
                problem: "Steiner Tree (§4)".into(),
                algorithm: format!("improved, {pass}"),
                claimed: if pass.contains("replay") {
                    "O(1)/solution replay".into()
                } else {
                    "O(n+m) amortized + record".into()
                },
                instance: inst.name.clone(),
                n: inst.graph.num_vertices(),
                m: inst.graph.num_edges(),
                t: 4,
                solutions: delays.solutions,
                delays,
                max_work_gap: None,
                work_gap_over_nm: None,
                path_gen_fraction: None,
            });
        }
        assert_eq!(
            cache.stats().hits,
            1,
            "the second pass was served from the cache"
        );
        // Service warm restart: one engine answers the query cold and is
        // snapshotted; a *restarted* engine restores the snapshot and
        // serves the identical query as a pure cache replay — no search,
        // same bytes. The paired rows record the cold/replay wall-clock
        // gap in BENCH_core.json so CI tracks it per PR.
        let query = Query::SteinerTree {
            terminals: inst.terminals.clone(),
        };
        let opts = QueryOptions::default().limit(CAP);
        let service_row = |pass: &str, delays: steiner_bench::measure::DelayStats| Row {
            problem: "Steiner Tree (§4)".into(),
            algorithm: format!("service warm-restart ({pass})"),
            claimed: if pass == "replay" {
                "O(1)/solution replay".into()
            } else {
                "O(n+m) amortized + record".into()
            },
            instance: inst.name.clone(),
            n: inst.graph.num_vertices(),
            m: inst.graph.num_edges(),
            t: 4,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        };
        let cold_engine = EnumerationEngine::new(inst.graph.clone());
        let session = cold_engine.session("bench");
        let delays = record_delays(CAP, |emit| {
            let outcome = session.run(query.clone(), opts).expect("admitted");
            assert!(outcome.is_complete());
            for _ in 0..outcome.solutions.len() {
                if !emit() {
                    break;
                }
            }
        });
        rows.push(service_row("cold", delays));
        let blob = cold_engine.snapshot();
        drop(cold_engine);
        let restarted = EnumerationEngine::new(inst.graph.clone());
        restarted
            .restore(&blob)
            .expect("snapshot of the same graph restores");
        let session = restarted.session("bench");
        let delays = record_delays(CAP, |emit| {
            let outcome = session.run(query.clone(), opts).expect("admitted");
            assert!(outcome.is_complete());
            assert_eq!(
                outcome.stats.cache_hits, 1,
                "the restarted engine served the query from the snapshot"
            );
            for _ in 0..outcome.solutions.len() {
                if !emit() {
                    break;
                }
            }
        });
        rows.push(service_row("replay", delays));
    }
}

fn minimum_rows(rows: &mut Vec<Row>) {
    // The Table 1 "Minimum Steiner Tree [10]" baseline: Dreyfus–Wagner
    // preprocessing + optimum-size filtering of the minimal enumeration.
    for t in [3, 4, 5] {
        let inst = workloads::grid_instance(3, 6, t);
        let (n, m) = (inst.graph.num_vertices(), inst.graph.num_edges());
        let mut opt = 0usize;
        let delays = record_delays(CAP, |emit| {
            if let Some((o, _)) = steiner_core::minimum::enumerate_minimum_steiner_trees(
                &inst.graph,
                &inst.terminals,
                &mut |_| flow(emit()),
            ) {
                opt = o;
            }
        });
        rows.push(Row {
            problem: "Minimum Steiner Tree (≈[10])".into(),
            algorithm: format!("Dreyfus–Wagner + filter (opt={opt})"),
            claimed: "[10]: O(n) delay, exp(t) preproc".into(),
            instance: inst.name,
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
    }
}

fn forest_rows(rows: &mut Vec<Row>) {
    for pairs in [2, 3, 4] {
        let (g, sets) = workloads::forest_instance(3, 6, pairs);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let nm = (n + m) as f64;
        let (run, stats) = Enumeration::new(SteinerForest::new(&g, &sets)).with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Steiner Forest (§5)".into(),
            algorithm: "improved (Thm 25)".into(),
            claimed: "O(n+m) amortized".into(),
            instance: format!("grid 3x6, {} pairs", sets.len()),
            n,
            m,
            t: sets.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: None,
        });
        let (run, stats) = Enumeration::new(SteinerForest::new(&g, &sets))
            .with_default_queue()
            .with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Steiner Forest (§5)".into(),
            algorithm: "improved + queue (Thm 25)".into(),
            claimed: "O(n+m) delay".into(),
            instance: format!("grid 3x6, {} pairs", sets.len()),
            n,
            m,
            t: sets.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_delivery_gap),
            work_gap_over_nm: Some(stats.max_delivery_gap as f64 / nm),
            path_gen_fraction: None,
        });
    }
}

fn terminal_rows(rows: &mut Vec<Row>) {
    for t in [3, 4, 5] {
        let inst = workloads::grid_instance(4, 6, t);
        let (n, m) = (inst.graph.num_vertices(), inst.graph.num_edges());
        let nm = (n + m) as f64;
        let (run, stats) =
            Enumeration::new(TerminalSteinerTree::new(&inst.graph, &inst.terminals)).with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Terminal Steiner Tree (§5.1)".into(),
            algorithm: "improved (Thm 31)".into(),
            claimed: "O(n+m) amortized".into(),
            instance: inst.name.clone(),
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: None,
        });
        let (run, stats) = Enumeration::new(TerminalSteinerTree::new(&inst.graph, &inst.terminals))
            .with_default_queue()
            .with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Terminal Steiner Tree (§5.1)".into(),
            algorithm: "improved + queue (Thm 31)".into(),
            claimed: "O(n+m) delay".into(),
            instance: inst.name,
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_delivery_gap),
            work_gap_over_nm: Some(stats.max_delivery_gap as f64 / nm),
            path_gen_fraction: None,
        });
    }
}

fn directed_rows(rows: &mut Vec<Row>) {
    for (layers, width, t) in [(3, 3, 2), (3, 4, 3), (4, 3, 3)] {
        let (d, root, w) = workloads::directed_instance(layers, width, t);
        let (n, m) = (d.num_vertices(), d.num_arcs());
        let nm = (n + m) as f64;
        let (run, stats) = Enumeration::new(DirectedSteinerTree::new(&d, root, &w)).with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Directed Steiner Tree (§5.2)".into(),
            algorithm: "improved (Thm 36)".into(),
            claimed: "O(n+m) amortized".into(),
            instance: format!("layered {layers}x{width}"),
            n,
            m,
            t: w.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_emission_gap),
            work_gap_over_nm: Some(stats.max_emission_gap as f64 / nm),
            path_gen_fraction: None,
        });
        let (run, stats) = Enumeration::new(DirectedSteinerTree::new(&d, root, &w))
            .with_default_queue()
            .with_stats();
        let delays = record_delays(CAP, |emit| {
            run.for_each(|_| flow(emit())).expect("valid instance");
        });
        let stats = stats.get();
        rows.push(Row {
            problem: "Directed Steiner Tree (§5.2)".into(),
            algorithm: "improved + queue (Thm 36)".into(),
            claimed: "O(n+m) delay".into(),
            instance: format!("layered {layers}x{width}"),
            n,
            m,
            t: w.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: Some(stats.max_delivery_gap),
            work_gap_over_nm: Some(stats.max_delivery_gap as f64 / nm),
            path_gen_fraction: None,
        });
    }
}

fn induced_rows(rows: &mut Vec<Row>) {
    for (r, c) in [(2, 4), (2, 5), (3, 4)] {
        let inst = workloads::claw_free_instance(r, c);
        let (n, m) = (inst.graph.num_vertices(), inst.graph.num_edges());
        let delays = record_delays(2_000, |emit| {
            steiner_induced::supergraph::enumerate_minimal_induced_steiner_subgraphs(
                &inst.graph,
                &inst.terminals,
                &mut |_| flow(emit()),
            )
            .expect("claw-free instance");
        });
        rows.push(Row {
            problem: "Induced Steiner, claw-free (§7)".into(),
            algorithm: "supergraph (Thm 42)".into(),
            claimed: "poly delay, exp space".into(),
            instance: inst.name,
            n,
            m,
            t: inst.terminals.len(),
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
    }
}

fn hardness_rows(rows: &mut Vec<Row>) {
    use steiner_hardness::hypergraph::Hypergraph;
    use steiner_hardness::transversal::enumerate_minimal_transversals;
    for (nv, ne) in [(12, 8), (16, 10), (20, 12)] {
        let mut r = workloads::rng(7);
        let h = Hypergraph::random(nv, ne, 4, &mut r);
        let delays = record_delays(CAP, |emit| {
            enumerate_minimal_transversals(&h, &mut |_| flow(emit()));
        });
        rows.push(Row {
            problem: "Group Steiner ≡ Transversal (§6)".into(),
            algorithm: "MMCS-style".into(),
            claimed: "open (quasi-poly best known)".into(),
            instance: format!("random H({nv},{ne})"),
            n: nv,
            m: ne,
            t: 0,
            solutions: delays.solutions,
            delays,
            max_work_gap: None,
            work_gap_over_nm: None,
            path_gen_fraction: None,
        });
    }
    // The Theorem 38 star reduction, end to end.
    let mut r = workloads::rng(8);
    let h = Hypergraph::random(10, 6, 3, &mut r);
    let delays = record_delays(CAP, |emit| {
        let sols = steiner_hardness::group_steiner::star_group_steiner_via_transversals(&h);
        for _ in sols {
            if !emit() {
                break;
            }
        }
    });
    rows.push(Row {
        problem: "Group Steiner ≡ Transversal (§6)".into(),
        algorithm: "Thm 38 star reduction".into(),
        claimed: "transversal-equivalent".into(),
        instance: "star of H(10,6)".into(),
        n: 11,
        m: 10,
        t: 6,
        solutions: delays.solutions,
        delays,
        max_work_gap: None,
        work_gap_over_nm: None,
        path_gen_fraction: None,
    });
    let _ = VertexId(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut section = "all".to_string();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            json_path = Some(
                args.get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| "BENCH_core.json".to_string()),
            );
            i += 2;
        } else {
            section = args[i].clone();
            i += 1;
        }
    }
    let mut rows = Vec::new();
    let want = |s: &str| section == "all" || section == s;
    if want("paths") {
        paths_rows(&mut rows);
    }
    if want("st") || want("st-baseline") {
        st_rows(&mut rows);
    }
    if want("minimum") || want("st") {
        minimum_rows(&mut rows);
    }
    if want("forest") {
        forest_rows(&mut rows);
    }
    if want("terminal") {
        terminal_rows(&mut rows);
    }
    if want("directed") {
        directed_rows(&mut rows);
    }
    if want("induced") {
        induced_rows(&mut rows);
    }
    if want("hardness") {
        hardness_rows(&mut rows);
    }
    println!("# Table 1 (measured analogue)\n");
    println!(
        "Solutions capped at {CAP} per run; `max gap/(n+m)` is the largest\n\
         work-unit gap between consecutive emissions divided by n+m — the\n\
         empirical delay constant for the linear-delay claims.\n"
    );
    print!("{}", render_markdown(&rows));
    if let Some(path) = json_path {
        let json = render_json(&rows);
        std::fs::write(&path, json).expect("write BENCH_core.json");
        eprintln!("wrote {path}");
    }
}
