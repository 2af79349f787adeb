//! Criterion bench: Algorithm 1 (linear delay) vs naive backtracking
//! s-t path enumeration — the §3 engine that every Steiner enumerator
//! drives (implicit row of Table 1, Theorem 12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use steiner_bench::workloads;
use steiner_graph::VertexId;

const CAP: u64 = 5_000;

fn bench_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("st_paths");
    group.sample_size(10);
    for (blocks, width) in [(6, 2), (6, 3), (8, 3)] {
        let inst = workloads::theta_instance(blocks, width);
        let (s, t) = (inst.terminals[0], inst.terminals[1]);
        group.bench_with_input(
            BenchmarkId::new("algorithm1", &inst.name),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut count = 0u64;
                    steiner_paths::undirected::enumerate_st_paths(
                        &inst.graph,
                        s,
                        t,
                        None,
                        &mut |_| {
                            count += 1;
                            if count < CAP {
                                ControlFlow::Continue(())
                            } else {
                                ControlFlow::Break(())
                            }
                        },
                    );
                    count
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("naive", &inst.name), &inst, |b, inst| {
            b.iter(|| {
                let mut count = 0u64;
                steiner_paths::undirected::enumerate_st_paths_naive(
                    &inst.graph,
                    s,
                    t,
                    None,
                    &mut |_| {
                        count += 1;
                        if count < CAP {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        }
                    },
                );
                count
            })
        });
    }
    // Grid corner-to-corner: dead-end-rich, where pruning matters most.
    let g = steiner_graph::generators::grid(4, 4);
    let target = VertexId::new(g.num_vertices() - 1);
    group.bench_function("algorithm1/grid4x4", |b| {
        b.iter(|| {
            let mut count = 0u64;
            steiner_paths::undirected::enumerate_st_paths(
                &g,
                VertexId(0),
                target,
                None,
                &mut |_| {
                    count += 1;
                    ControlFlow::Continue(())
                },
            );
            count
        })
    });
    group.finish();
}

/// Subroutine-level `F-STP` bench: the enumerator on a fresh scratch
/// (its buffers sized by the first run) and rerunning the identical
/// query on a warm scratch — so regressions in the reverse-BFS core are
/// caught without running the full engine sweep.
fn bench_fstp(c: &mut Criterion) {
    use steiner_paths::enumerate::{enumerate_paths_view, EnumerateOptions, PathScratch};
    use steiner_paths::visit::WholePaths;

    let mut group = c.benchmark_group("paths_fstp");
    group.sample_size(10);
    for (blocks, width) in [(6, 3), (8, 3)] {
        let inst = workloads::theta_instance(blocks, width);
        let csr = steiner_graph::CsrDigraph::doubled(&inst.graph);
        let (s, t) = (inst.terminals[0], inst.terminals[1]);
        let n = csr.num_vertices();
        let run = |scratch: &mut PathScratch| {
            scratch.begin(n);
            let mut count = 0u64;
            let mut whole = WholePaths::new(s);
            enumerate_paths_view(
                &csr,
                s,
                t,
                EnumerateOptions::default(),
                scratch,
                &mut |delta| {
                    whole.apply(delta, &mut |_| {
                        count += 1;
                        if count < CAP {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        }
                    })
                },
            );
            count
        };
        group.bench_function(BenchmarkId::new("cold", &inst.name), |b| {
            // A fresh scratch per iteration: the run sizes every buffer.
            b.iter(|| run(&mut PathScratch::new()))
        });
        group.bench_function(BenchmarkId::new("warm", &inst.name), |b| {
            let mut scratch = PathScratch::new();
            scratch.preallocate(n, csr.num_arcs());
            // Each iteration reruns the identical query through `begin`
            // on the same preallocated scratch.
            b.iter(|| run(&mut scratch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_paths, bench_fstp);
criterion_main!(benches);
