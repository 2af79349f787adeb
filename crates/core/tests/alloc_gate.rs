//! The alloc-audit hard gate (feature `alloc-audit`).
//!
//! PR 2's Theorem-17 engine promises a zero-allocation steady state: after
//! `Prepared::new` builds the scratch pools, `classify`/`branch`/
//! `descend`/`retract_frame` reuse them and never touch the heap. The
//! engine self-reports this through [`EnumStats::scratch_allocs`] (scratch
//! growth observed by [`ScratchUsage`] accounting), and `steiner-lint`'s
//! `hotpath-alloc` pass enforces it statically. This test closes the loop
//! dynamically, two ways:
//!
//! 1. **Hard gate** — every conformance workload must finish with
//!    `scratch_allocs == 0`. Any regression that grows scratch mid-search
//!    fails the build.
//! 2. **Linear envelope** — a counting `#[global_allocator]` measures the
//!    *true* number of heap allocations across a full enumeration, which
//!    must stay within a generous linear budget in `n + m + solutions`
//!    (setup plus per-solution emission; anything super-linear means a
//!    hot-path allocation slipped past both the lint and the stats).
//! 3. **Byte envelope** — the same allocator sums the bytes requested; a
//!    short query on grids of growing size must request at most one
//!    constant times `n + m` bytes, `prepare` and its scratch
//!    reservations included.
//!
//! Gated behind `--features alloc-audit` because a counting global
//! allocator taxes every other test in the binary; CI runs it as a
//! dedicated step.

#![cfg(feature = "alloc-audit")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use steiner_core::{
    DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, SteinerForest, SteinerTree,
    TerminalSteinerTree,
};
use steiner_graph::digraph::DoubledDigraph;
use steiner_graph::{generators, VertexId};

/// Counts every heap allocation made while [`ARMED`], delegating the
/// actual memory management to [`System`] unchanged.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: every method delegates verbatim to the System allocator, so the
// GlobalAlloc contract (layout fidelity, uniqueness of live pointers) is
// exactly System's; the counter is a side effect on atomics and never
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's layout is forwarded unchanged to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: caller's layout forwarded unchanged to System.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: ptr/layout come from a matching System.alloc above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a matching System.alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: ptr/layout come from a matching System.alloc above;
    // new_size is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: ptr/layout come from a matching System.alloc above;
        // new_size forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the armed sections so the tests never count each other's
/// allocations.
static GATE: Mutex<()> = Mutex::new(());

/// Runs one problem to completion (or to `limit` solutions) and returns
/// its stats plus the number of true heap allocations the run performed
/// (builder included); [`BYTES`] then holds the bytes they requested.
fn audited_run<P: MinimalSteinerProblem + Send>(problem: P, limit: Option<u64>) -> (EnumStats, u64)
where
    P::Item: Send,
{
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut run = Enumeration::new(problem);
    if let Some(limit) = limit {
        run = run.with_limit(limit);
    }
    let result = run.for_each(|_| ControlFlow::Continue(()));
    ARMED.store(false, Ordering::SeqCst);
    let stats = result.expect("audit workloads are feasible instances");
    (stats, ALLOCS.load(Ordering::SeqCst))
}

struct Workload {
    name: &'static str,
    stats: EnumStats,
    allocs: u64,
    size: u64,
}

/// Solutions a deep-prefix workload runs for.
const DEEP_LIMIT: u64 = 3000;

/// The conformance workloads: one structured instance per paper problem,
/// each with a nontrivial solution count, plus one deep-prefix instance
/// per problem. On a 6×6 grid with corner terminals the path enumerator
/// nests long prefixes, so the descent holds one checkpoint frame per
/// prefix — far more than one per terminal.
fn run_workloads() -> Vec<Workload> {
    let mut out = Vec::new();

    let grid = generators::grid(4, 5);
    let corners: Vec<VertexId> = [0usize, 4, 15, 19]
        .iter()
        .map(|&v| VertexId::new(v))
        .collect();
    let (stats, allocs) = audited_run(SteinerTree::new(&grid, &corners), None);
    out.push(Workload {
        name: "steiner-tree/grid-4x5",
        stats,
        allocs,
        size: (grid.num_vertices() + grid.num_edges()) as u64,
    });

    let theta = generators::theta_chain(3, 3);
    let ends: Vec<VertexId> = vec![VertexId::new(0), VertexId::new(theta.num_vertices() - 1)];
    let (stats, allocs) = audited_run(SteinerTree::new(&theta, &ends), None);
    out.push(Workload {
        name: "steiner-tree/theta-chain-3x3",
        stats,
        allocs,
        size: (theta.num_vertices() + theta.num_edges()) as u64,
    });

    let g = generators::grid(3, 4);
    let sets: Vec<Vec<VertexId>> = vec![
        vec![VertexId::new(0), VertexId::new(3)],
        vec![VertexId::new(8), VertexId::new(11)],
    ];
    let (stats, allocs) = audited_run(SteinerForest::new(&g, &sets), None);
    out.push(Workload {
        name: "steiner-forest/grid-3x4",
        stats,
        allocs,
        size: (g.num_vertices() + g.num_edges()) as u64,
    });

    let corners34: Vec<VertexId> = [0usize, 3, 8, 11]
        .iter()
        .map(|&v| VertexId::new(v))
        .collect();
    let (stats, allocs) = audited_run(TerminalSteinerTree::new(&g, &corners34), None);
    out.push(Workload {
        name: "terminal-steiner-tree/grid-3x4",
        stats,
        allocs,
        size: (g.num_vertices() + g.num_edges()) as u64,
    });

    let (d, root) = generators::layered_digraph(3, 3);
    let last_layer: Vec<VertexId> = (7..10).map(VertexId::new).collect();
    let (stats, allocs) = audited_run(DirectedSteinerTree::new(&d, root, &last_layer), None);
    out.push(Workload {
        name: "directed-steiner-tree/layered-3x3",
        stats,
        allocs,
        size: (d.num_vertices() + d.num_arcs()) as u64,
    });

    let deep = generators::grid(6, 6);
    let deep_size = (deep.num_vertices() + deep.num_edges()) as u64;
    let deep_corners: Vec<VertexId> = [0usize, 5, 30, 35]
        .iter()
        .map(|&v| VertexId::new(v))
        .collect();
    let (stats, allocs) = audited_run(SteinerTree::new(&deep, &deep_corners), Some(DEEP_LIMIT));
    out.push(Workload {
        name: "steiner-tree/grid-6x6-deep",
        stats,
        allocs,
        size: deep_size,
    });
    let crossed = vec![
        vec![VertexId::new(0), VertexId::new(35)],
        vec![VertexId::new(5), VertexId::new(30)],
    ];
    let (stats, allocs) = audited_run(SteinerForest::new(&deep, &crossed), Some(DEEP_LIMIT));
    out.push(Workload {
        name: "steiner-forest/grid-6x6-deep",
        stats,
        allocs,
        size: deep_size,
    });
    let (stats, allocs) = audited_run(
        TerminalSteinerTree::new(&deep, &deep_corners),
        Some(DEEP_LIMIT),
    );
    out.push(Workload {
        name: "terminal-steiner-tree/grid-6x6-deep",
        stats,
        allocs,
        size: deep_size,
    });
    let deep_d = DoubledDigraph::new(&deep).digraph;
    let (stats, allocs) = audited_run(
        DirectedSteinerTree::new(&deep_d, deep_corners[0], &deep_corners[1..]),
        Some(DEEP_LIMIT),
    );
    out.push(Workload {
        name: "directed-steiner-tree/grid-6x6-deep",
        stats,
        allocs,
        size: (deep_d.num_vertices() + deep_d.num_arcs()) as u64,
    });

    // Multi-region: three 6×6 grids side by side, the first losing one
    // edge so the last edge's id moves into its range. Each query's
    // region is a proper, renumbered part of the graph.
    let mut regions = steiner_graph::UndirectedGraph::new(3 * deep.num_vertices());
    for r in 0..3 {
        for e in deep.edges() {
            let (u, v) = deep.endpoints(e);
            let offset = r * deep.num_vertices();
            regions
                .add_edge_indices(offset + u.index(), offset + v.index())
                .unwrap();
        }
    }
    regions.remove_edge(steiner_graph::EdgeId::new(7)).unwrap();
    let regions_size = (regions.num_vertices() + regions.num_edges()) as u64;
    let in_region = |r: usize, vs: &[VertexId]| -> Vec<VertexId> {
        vs.iter()
            .map(|v| VertexId::new(r * deep.num_vertices() + v.index()))
            .collect()
    };
    let (stats, allocs) = audited_run(
        SteinerTree::new(&regions, &in_region(2, &deep_corners)),
        Some(DEEP_LIMIT),
    );
    out.push(Workload {
        name: "steiner-tree/regions-3x6x6",
        stats,
        allocs,
        size: regions_size,
    });
    let (stats, allocs) = audited_run(
        SteinerForest::new(
            &regions,
            &[in_region(0, &crossed[0]), in_region(2, &crossed[1])],
        ),
        Some(DEEP_LIMIT),
    );
    out.push(Workload {
        name: "steiner-forest/regions-3x6x6",
        stats,
        allocs,
        size: regions_size,
    });
    let (stats, allocs) = audited_run(
        TerminalSteinerTree::new(&regions, &in_region(1, &deep_corners)),
        Some(DEEP_LIMIT),
    );
    out.push(Workload {
        name: "terminal-steiner-tree/regions-3x6x6",
        stats,
        allocs,
        size: regions_size,
    });

    out
}

/// Hard gate: the steady-state search never grows its scratch. A single
/// counted scratch allocation on any conformance workload fails the build.
#[test]
fn scratch_allocs_are_zero_on_conformance_workloads() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for w in run_workloads() {
        assert!(
            w.stats.solutions > 0,
            "{}: audit workload must exercise the search (no solutions found)",
            w.name
        );
        assert_eq!(
            w.stats.scratch_allocs, 0,
            "{}: Theorem-17 zero-allocation invariant violated ({} scratch allocs over {} solutions)",
            w.name, w.stats.scratch_allocs, w.stats.solutions
        );
    }
}

/// Linear envelope: true heap traffic for a whole run (preprocessing,
/// pool construction, emission) stays within a generous linear budget in
/// instance size + solution count. Catches hot-path allocations that
/// bypass the scratch accounting entirely.
#[test]
fn total_allocations_stay_linear() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for w in run_workloads() {
        let budget = 256 * (w.size + w.stats.solutions) + 4096;
        assert!(
            w.allocs <= budget,
            "{}: {} heap allocations exceeds the linear envelope {} \
             (size {}, solutions {}) — a per-node allocation has crept into the search",
            w.name,
            w.allocs,
            budget,
            w.size,
            w.stats.solutions
        );
    }
}

/// Bytes a short query may request per vertex or edge of its grid.
const BYTES_PER_ITEM: u64 = 2048;

/// Byte envelope: a `with_limit(10)` Steiner-tree query with four corner
/// terminals requests at most [`BYTES_PER_ITEM`] bytes per vertex or
/// edge, from `prepare` to the end of the run, on every grid size. Its
/// t + 1 path scratches are the largest reservation, so a per-scratch
/// term that grows faster than the graph fails here first.
#[test]
fn short_query_bytes_stay_linear_in_the_grid() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for side in [10usize, 20, 30, 45] {
        let g = generators::grid(side, side);
        let corners: Vec<VertexId> = [0, side - 1, side * (side - 1), side * side - 1]
            .into_iter()
            .map(VertexId::new)
            .collect();
        let size = (g.num_vertices() + g.num_edges()) as u64;
        let (stats, _) = audited_run(SteinerTree::new(&g, &corners), Some(10));
        let bytes = BYTES.load(Ordering::SeqCst);
        assert_eq!(stats.delivered, 10, "grid {side}x{side}: the query runs");
        println!(
            "grid {side}x{side}: {bytes} bytes requested, {} per (n + m)",
            bytes / size
        );
        assert!(
            bytes <= BYTES_PER_ITEM * size,
            "grid {side}x{side}: {bytes} bytes requested exceeds {} per (n + m = {size})",
            BYTES_PER_ITEM
        );
    }
}
