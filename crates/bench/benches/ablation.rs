//! Ablation bench: the value of the paper's §3 design choices.
//!
//! 1. **Lemma 11 sweep** vs per-prefix recomputation of extendibility —
//!    the key revision the paper makes to Read–Tarjan to get O(n + m)
//!    delay instead of O(n·(n + m)).
//! 2. **Improved branching** (§4.2, bridges + unique completion) vs the
//!    simple Algorithm 2 — the revision that makes per-solution time
//!    amortized O(n + m) instead of O(|W|(n + m)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use steiner_bench::workloads;
use steiner_graph::VertexId;
use steiner_paths::enumerate::{enumerate_directed_st_paths_with, EnumerateOptions};

const CAP: u64 = 5_000;

fn bench_lemma11(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lemma11");
    group.sample_size(10);
    for (rows, cols) in [(3, 4), (3, 5), (4, 4)] {
        let g = steiner_graph::generators::grid(rows, cols);
        let doubled = steiner_graph::digraph::DoubledDigraph::new(&g);
        let d = doubled.digraph;
        let t = VertexId::new(g.num_vertices() - 1);
        let label = format!("grid{rows}x{cols}");
        for (name, incremental) in [("incremental", true), ("per-prefix", false)] {
            group.bench_with_input(BenchmarkId::new(name, &label), &d, |b, d| {
                b.iter(|| {
                    let mut count = 0u64;
                    enumerate_directed_st_paths_with(
                        d,
                        VertexId(0),
                        t,
                        None,
                        EnumerateOptions {
                            incremental_extendibility: incremental,
                        },
                        &mut |_| {
                            count += 1;
                            if count < CAP {
                                ControlFlow::Continue(())
                            } else {
                                ControlFlow::Break(())
                            }
                        },
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_branching");
    group.sample_size(10);
    // A bridge-heavy instance where unique completions dominate: chains of
    // theta blocks interleaved with path segments produce long forced
    // stretches that the improved enumerator resolves in one step.
    for blocks in [6, 8] {
        let inst = workloads::theta_instance(blocks, 2);
        // Terminals at every hub maximize the depth of the simple tree.
        let w: Vec<VertexId> = (0..=blocks).map(VertexId::new).collect();
        group.bench_with_input(BenchmarkId::new("improved", blocks), &inst, |b, inst| {
            b.iter(|| {
                steiner_core::Enumeration::new(steiner_core::SteinerTree::new(&inst.graph, &w))
                    .with_limit(CAP)
                    .count()
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("simple", blocks), &inst, |b, inst| {
            b.iter(|| {
                let mut count = 0u64;
                steiner_core::simple::enumerate_minimal_steiner_trees_simple(
                    &inst.graph,
                    &w,
                    &mut |_| {
                        count += 1;
                        if count < CAP {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        }
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lemma11, bench_branching);
criterion_main!(benches);
