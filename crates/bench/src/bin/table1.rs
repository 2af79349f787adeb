//! Regenerates the measured analogue of the paper's **Table 1**: for each
//! enumeration problem, the claimed delay bound next to measured totals,
//! mean/max delays, and the max work gap normalized by n + m. Every row
//! runs [`SAMPLES`] times and reports its median run by total time, with
//! the quartiles of the runs' totals.
//!
//! Usage: `cargo run --release -p steiner-bench --bin table1 [-- section] [--json path]`
//! where `section` ∈ {all, paths, st, minimum, forest, terminal, directed,
//! induced, hardness} (default: all; `st` includes `minimum`). Any other
//! section exits with status 2 and lists these. With `--json path`, a
//! machine-readable `BENCH_core.json` (per-row solutions/sec, observed
//! delays and the spread of the totals) is also written — CI uploads it
//! as a per-PR perf artifact.

use std::ops::ControlFlow;
use steiner_bench::measure::{
    record_delays, render_json, render_markdown, sample, DelayStats, Row, Sampled, SAMPLES,
};
use steiner_bench::workloads;
use steiner_core::simple::enumerate_minimal_steiner_trees_simple;
use steiner_core::{
    DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, ResultCache, SteinerForest,
    SteinerTree, TerminalSteinerTree,
};
use steiner_graph::EdgeId;
use steiner_service::{EnumerationEngine, GraphMutation, Query, QueryOptions};

const CAP: u64 = 20_000;

/// The sections `table1` accepts.
const SECTIONS: [&str; 9] = [
    "all", "paths", "st", "minimum", "forest", "terminal", "directed", "induced", "hardness",
];

const ST: &str = "Steiner Tree (§4)";

fn flow(more: bool) -> ControlFlow<()> {
    if more {
        ControlFlow::Continue(())
    } else {
        ControlFlow::Break(())
    }
}

/// One push run of `run`, timed and capped at [`CAP`] solutions, with the
/// engine stats it returned.
fn timed<P>(run: Enumeration<P>) -> (DelayStats, EnumStats)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut stats = EnumStats::default();
    let delays = record_delays(CAP, |emit| {
        stats = run.for_each(|_| flow(emit())).expect("valid instance");
    });
    (delays, stats)
}

/// Samples [`timed`] runs of the enumeration `build` makes afresh for
/// each run. A sequential run's engine stats do not vary between runs;
/// the last run's are returned.
fn sample_runs<P>(build: impl Fn() -> Enumeration<P>) -> (Sampled, EnumStats)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut stats = EnumStats::default();
    let delays = sample(|| {
        let (delays, last) = timed(build());
        stats = last;
        delays
    });
    (delays, stats)
}

/// One served answer to `query` on a new session of `engine`, capped at
/// [`CAP`] solutions and timed from submission to the last delivered
/// solution. The run must report `cache_hits` (1 for a replay, 0 for a
/// cold run).
fn served(engine: &EnumerationEngine, query: &Query, cache_hits: u64) -> DelayStats {
    let session = engine.session("bench");
    record_delays(CAP, |emit| {
        let outcome = session
            .run(query.clone(), QueryOptions::default().limit(CAP))
            .expect("admitted");
        assert!(outcome.is_complete());
        assert_eq!(outcome.stats.cache_hits, cache_hits, "cache hits");
        for _ in 0..outcome.solutions.len() {
            if !emit() {
                break;
            }
        }
    })
}

fn paths_rows(rows: &mut Vec<Row>) {
    for (blocks, width) in [(8, 2), (6, 3), (10, 3)] {
        let inst = workloads::theta_instance(blocks, width);
        let size = (inst.graph.num_vertices(), inst.graph.num_edges(), 2);
        let (s, t) = (inst.terminals[0], inst.terminals[1]);
        let delays = sample(|| {
            record_delays(CAP, |emit| {
                steiner_paths::undirected::enumerate_st_paths(&inst.graph, s, t, None, &mut |_| {
                    flow(emit())
                });
            })
        });
        rows.push(Row::new(
            "s-t Paths (§3)",
            "Algorithm 1",
            "O(n+m) delay",
            inst.name.clone(),
            size,
            delays,
        ));
        let delays = sample(|| {
            record_delays(CAP, |emit| {
                steiner_paths::undirected::enumerate_st_paths_naive(
                    &inst.graph,
                    s,
                    t,
                    None,
                    &mut |_| flow(emit()),
                );
            })
        });
        rows.push(Row::new(
            "s-t Paths (§3)",
            "naive backtracking",
            "(exponential delay)",
            inst.name,
            size,
            delays,
        ));
    }
}

fn st_rows(rows: &mut Vec<Row>) {
    // |W| sweep at fixed n+m: the simple baseline's delay grows with |W|,
    // the improved enumerator's does not (Table 1's key contrast).
    for t in [2, 4, 8] {
        let inst = workloads::grid_instance(4, 8, t);
        let size = (
            inst.graph.num_vertices(),
            inst.graph.num_edges(),
            inst.terminals.len(),
        );
        let tree = || Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals));
        let (delays, stats) = sample_runs(tree);
        rows.push(
            Row::new(
                ST,
                "improved (Thm 17)",
                "O(n+m) amortized",
                inst.name.clone(),
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
        let mut stats = EnumStats::default();
        let delays = sample(|| {
            record_delays(CAP, |emit| {
                stats = enumerate_minimal_steiner_trees_simple(
                    &inst.graph,
                    &inst.terminals,
                    &mut |_| flow(emit()),
                );
            })
        });
        rows.push(
            Row::new(
                ST,
                "simple Alg. 2 (≈[26])",
                "O(t(n+m)) delay",
                inst.name.clone(),
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
        // The queue rows report the delivery gap: the Theorem-20 delay the
        // consumer sees behind the queue, on the engine's work counter.
        let (delays, stats) = sample_runs(|| tree().with_default_queue());
        rows.push(
            Row::new(
                ST,
                "improved + queue (Thm 20)",
                "O(n+m) delay",
                inst.name,
                size,
                delays,
            )
            .work_gap(stats.max_delivery_gap),
        );
    }
    // n+m sweep at fixed |W|: delay should grow roughly linearly. Each
    // size is also run through the sharded front-end (4 workers) — the
    // BENCH_core.json artifact carries both rows so CI tracks the
    // sequential-vs-sharded wall clock per PR.
    for (n, m) in [(60, 90), (120, 180), (240, 360)] {
        let inst = workloads::random_instance(n, m, 4, 42);
        let size = (inst.graph.num_vertices(), inst.graph.num_edges(), 4);
        let tree = || Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals));
        // The row carries the share of work spent in path generation, so
        // the bottleneck claim lives in BENCH_core.json, not PR prose.
        let (delays, stats) = sample_runs(tree);
        let mut row = Row::new(
            ST,
            "improved (Thm 17)",
            "O(n+m) amortized",
            inst.name.clone(),
            size,
            delays,
        )
        .work_gap(stats.max_emission_gap);
        row.path_gen_fraction =
            (stats.work > 0).then(|| stats.path_gen_work as f64 / stats.work as f64);
        rows.push(row);
        let query = Query::SteinerTree {
            terminals: inst.terminals.clone(),
        };
        // Epoch engine: the serving graph gains a disjoint companion
        // component, so the instance and the companion are separate
        // regions. A mutation confined to the companion leaves the
        // instance's cache entry live — replaying the query at the new
        // epoch is pure cache delivery ("epoch replay (untouched
        // region)"). Touching the instance's own region drops the entry;
        // an insert-then-remove pair of batches restores the identical
        // graph, so the forced re-enumeration ("cold after mutation")
        // answers exactly the same workload cold. The paired rows record
        // the gap exact invalidation buys.
        let epoch_row = |pass: &str, claimed: &str, delays: Sampled| {
            Row::new(
                ST,
                format!("epoch {pass}"),
                claimed,
                inst.name.clone(),
                size,
                delays,
            )
        };
        let mut live_graph = inst.graph.clone();
        let c0 = live_graph.add_vertex();
        let c1 = live_graph.add_vertex();
        let c2 = live_graph.add_vertex();
        live_graph.add_edge(c0, c1).expect("fresh vertices");
        live_graph.add_edge(c1, c2).expect("fresh vertices");
        // Every run gets a fresh engine whose cache holds the query's
        // entry, recorded by an untimed cold run.
        let warmed = || {
            let live = EnumerationEngine::new(live_graph.clone());
            served(&live, &query, 0);
            live
        };
        let delays = sample(|| {
            let live = warmed();
            let out = live
                .apply_mutation(GraphMutation::InsertEdge { u: c0, v: c2 })
                .expect("companion edit is valid");
            assert_eq!(
                out.touched_regions,
                vec![c0.0],
                "the edit stays inside the companion region"
            );
            assert!(out.entries_retained >= 1, "the instance's entry survives");
            served(&live, &query, 1)
        });
        rows.push(epoch_row(
            "replay (untouched region)",
            "O(1)/solution replay",
            delays,
        ));
        // An insert touching the instance's region drops its entry, and
        // retracting the newest edge id (no renumbering) restores the
        // identical graph, so the measured re-enumeration answers the
        // same workload cold.
        let delays = sample(|| {
            let live = warmed();
            let probe = GraphMutation::InsertEdge {
                u: inst.terminals[0],
                v: inst.terminals[1],
            };
            let out = live.apply_mutation(probe).expect("instance edit is valid");
            assert!(out.entries_invalidated >= 1, "the instance's entry drops");
            let last = EdgeId(live.graph().num_edges() as u32 - 1);
            live.apply_mutation(GraphMutation::RemoveEdge(last))
                .expect("retracting the newest edge is valid");
            served(&live, &query, 0)
        });
        rows.push(epoch_row(
            "cold after mutation",
            "O(n+m) amortized + record",
            delays,
        ));
        // Sharded run (4 workers, subtree stealing). On a 1-CPU host it
        // measures pure coordination overhead (BENCH_core.json carries
        // `host_logical_cpus` so readers can tell which regime applies).
        let (delays, _) = sample_runs(|| tree().with_threads(4));
        rows.push(Row::new(
            ST,
            "improved, sharded x4",
            "O(n+m) amortized",
            inst.name.clone(),
            size,
            delays,
        ));
        // Cached replay: the identical query twice through a fresh
        // ResultCache per run. The cold run records its delivered stream
        // (the `with_limit` makes the capped stream complete for the cache
        // key); the replay serves it from the interned store without
        // running Algorithm 3 at all — the paired rows measure exactly
        // that gap.
        let cached = |cache: &ResultCache<EdgeId>| tree().cached(cache).with_limit(CAP);
        let delays = sample(|| timed(cached(&ResultCache::new())).0);
        rows.push(Row::new(
            ST,
            "improved, cached (cold)",
            "O(n+m) amortized + record",
            inst.name.clone(),
            size,
            delays,
        ));
        let delays = sample(|| {
            let cache = ResultCache::new();
            cached(&cache).count().expect("valid instance");
            let (delays, _) = timed(cached(&cache));
            assert_eq!(
                cache.stats().hits,
                1,
                "the replay was served from the cache"
            );
            delays
        });
        rows.push(Row::new(
            ST,
            "improved, cached (replay)",
            "O(1)/solution replay",
            inst.name.clone(),
            size,
            delays,
        ));
        // Service warm restart: one engine answers the query cold and is
        // snapshotted; a *restarted* engine restores the snapshot and
        // serves the identical query as a pure cache replay — no search,
        // same bytes. The paired rows record the cold/replay wall-clock
        // gap in BENCH_core.json so CI tracks it per PR.
        let delays = sample(|| served(&EnumerationEngine::new(inst.graph.clone()), &query, 0));
        rows.push(Row::new(
            ST,
            "service warm-restart (cold)",
            "O(n+m) amortized + record",
            inst.name.clone(),
            size,
            delays,
        ));
        let delays = sample(|| {
            let cold = EnumerationEngine::new(inst.graph.clone());
            served(&cold, &query, 0);
            let blob = cold.snapshot();
            drop(cold);
            let restarted = EnumerationEngine::new(inst.graph.clone());
            restarted
                .restore(&blob)
                .expect("snapshot of the same graph restores");
            served(&restarted, &query, 1)
        });
        rows.push(Row::new(
            ST,
            "service warm-restart (replay)",
            "O(1)/solution replay",
            inst.name,
            size,
            delays,
        ));
    }
    // Bridge-rich instances (a grid core with pendant terminal paths):
    // the node mix is dominated by Unique-completion leaves, which the
    // incremental classifier answers from forced-path reads instead of a
    // per-leaf spanning-growth pass.
    for cols in [13, 27, 57] {
        let inst = workloads::bridged_instance(4, cols, 4, 3);
        let size = (
            inst.graph.num_vertices(),
            inst.graph.num_edges(),
            inst.terminals.len(),
        );
        let (delays, stats) =
            sample_runs(|| Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals)));
        rows.push(
            Row::new(
                ST,
                "improved (Thm 17)",
                "O(n+m) amortized",
                inst.name,
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
    }
}

fn minimum_rows(rows: &mut Vec<Row>) {
    // The Table 1 "Minimum Steiner Tree [10]" baseline: Dreyfus–Wagner
    // preprocessing + optimum-size filtering of the minimal enumeration.
    for t in [3, 4, 5] {
        let inst = workloads::grid_instance(3, 6, t);
        let size = (
            inst.graph.num_vertices(),
            inst.graph.num_edges(),
            inst.terminals.len(),
        );
        let mut opt = 0usize;
        let delays = sample(|| {
            record_delays(CAP, |emit| {
                if let Some((o, _)) = steiner_core::minimum::enumerate_minimum_steiner_trees(
                    &inst.graph,
                    &inst.terminals,
                    &mut |_| flow(emit()),
                ) {
                    opt = o;
                }
            })
        });
        rows.push(Row::new(
            "Minimum Steiner Tree (≈[10])",
            format!("Dreyfus–Wagner + filter (opt={opt})"),
            "[10]: O(n) delay, exp(t) preproc",
            inst.name,
            size,
            delays,
        ));
    }
}

fn forest_rows(rows: &mut Vec<Row>) {
    for pairs in [2, 3, 4] {
        let (g, sets) = workloads::forest_instance(3, 6, pairs);
        let size = (g.num_vertices(), g.num_edges(), sets.len());
        let instance = format!("grid 3x6, {} pairs", sets.len());
        let forest = || Enumeration::new(SteinerForest::new(&g, &sets));
        let (delays, stats) = sample_runs(forest);
        rows.push(
            Row::new(
                "Steiner Forest (§5)",
                "improved (Thm 25)",
                "O(n+m) amortized",
                instance.clone(),
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
        let (delays, stats) = sample_runs(|| forest().with_default_queue());
        rows.push(
            Row::new(
                "Steiner Forest (§5)",
                "improved + queue (Thm 25)",
                "O(n+m) delay",
                instance,
                size,
                delays,
            )
            .work_gap(stats.max_delivery_gap),
        );
    }
}

fn terminal_rows(rows: &mut Vec<Row>) {
    for t in [3, 4, 5] {
        let inst = workloads::grid_instance(4, 6, t);
        let size = (
            inst.graph.num_vertices(),
            inst.graph.num_edges(),
            inst.terminals.len(),
        );
        let tree = || Enumeration::new(TerminalSteinerTree::new(&inst.graph, &inst.terminals));
        let (delays, stats) = sample_runs(tree);
        rows.push(
            Row::new(
                "Terminal Steiner Tree (§5.1)",
                "improved (Thm 31)",
                "O(n+m) amortized",
                inst.name.clone(),
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
        let (delays, stats) = sample_runs(|| tree().with_default_queue());
        rows.push(
            Row::new(
                "Terminal Steiner Tree (§5.1)",
                "improved + queue (Thm 31)",
                "O(n+m) delay",
                inst.name,
                size,
                delays,
            )
            .work_gap(stats.max_delivery_gap),
        );
    }
}

fn directed_rows(rows: &mut Vec<Row>) {
    for (layers, width, t) in [(3, 3, 2), (3, 4, 3), (4, 3, 3)] {
        let (d, root, w) = workloads::directed_instance(layers, width, t);
        let size = (d.num_vertices(), d.num_arcs(), w.len());
        let instance = format!("layered {layers}x{width}");
        let tree = || Enumeration::new(DirectedSteinerTree::new(&d, root, &w));
        let (delays, stats) = sample_runs(tree);
        rows.push(
            Row::new(
                "Directed Steiner Tree (§5.2)",
                "improved (Thm 36)",
                "O(n+m) amortized",
                instance.clone(),
                size,
                delays,
            )
            .work_gap(stats.max_emission_gap),
        );
        let (delays, stats) = sample_runs(|| tree().with_default_queue());
        rows.push(
            Row::new(
                "Directed Steiner Tree (§5.2)",
                "improved + queue (Thm 36)",
                "O(n+m) delay",
                instance,
                size,
                delays,
            )
            .work_gap(stats.max_delivery_gap),
        );
    }
}

fn induced_rows(rows: &mut Vec<Row>) {
    for (r, c) in [(2, 4), (2, 5), (3, 4)] {
        let inst = workloads::claw_free_instance(r, c);
        let size = (
            inst.graph.num_vertices(),
            inst.graph.num_edges(),
            inst.terminals.len(),
        );
        let delays = sample(|| {
            record_delays(2_000, |emit| {
                steiner_induced::supergraph::enumerate_minimal_induced_steiner_subgraphs(
                    &inst.graph,
                    &inst.terminals,
                    &mut |_| flow(emit()),
                )
                .expect("claw-free instance");
            })
        });
        rows.push(Row::new(
            "Induced Steiner, claw-free (§7)",
            "supergraph (Thm 42)",
            "poly delay, exp space",
            inst.name,
            size,
            delays,
        ));
    }
}

fn hardness_rows(rows: &mut Vec<Row>) {
    use steiner_hardness::hypergraph::Hypergraph;
    use steiner_hardness::transversal::enumerate_minimal_transversals;
    for (nv, ne) in [(12, 8), (16, 10), (20, 12)] {
        let mut r = workloads::rng(7);
        let h = Hypergraph::random(nv, ne, 4, &mut r);
        let delays = sample(|| {
            record_delays(CAP, |emit| {
                enumerate_minimal_transversals(&h, &mut |_| flow(emit()));
            })
        });
        rows.push(Row::new(
            "Group Steiner ≡ Transversal (§6)",
            "MMCS-style",
            "open (quasi-poly best known)",
            format!("random H({nv},{ne})"),
            (nv, ne, 0),
            delays,
        ));
    }
    // The Theorem 38 star reduction, end to end.
    let mut r = workloads::rng(8);
    let h = Hypergraph::random(10, 6, 3, &mut r);
    let delays = sample(|| {
        record_delays(CAP, |emit| {
            let sols = steiner_hardness::group_steiner::star_group_steiner_via_transversals(&h);
            for _ in sols {
                if !emit() {
                    break;
                }
            }
        })
    });
    rows.push(Row::new(
        "Group Steiner ≡ Transversal (§6)",
        "Thm 38 star reduction",
        "transversal-equivalent",
        "star of H(10,6)",
        (11, 10, 6),
        delays,
    ));
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
    if !SECTIONS.contains(&section.as_str()) {
        eprintln!(
            "table1: unknown section `{section}`; valid sections: {}",
            SECTIONS.join(", ")
        );
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    let want = |s: &str| section == "all" || section == s;
    if want("paths") {
        paths_rows(&mut rows);
    }
    if want("st") {
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
        "Solutions capped at {CAP} per run; each row is the median of\n\
         {SAMPLES} runs by total time, with the 25th–75th percentile of the\n\
         totals beside it. `max gap/(n+m)` is the largest work-unit gap\n\
         between consecutive emissions divided by n+m — the empirical delay\n\
         constant for the linear-delay claims.\n"
    );
    print!("{}", render_markdown(&rows));
    if let Some(path) = json_path {
        let json = render_json(&rows);
        std::fs::write(&path, json).expect("write BENCH_core.json");
        eprintln!("wrote {path}");
    }
}
