//! Criterion bench: the Table 1 "Steiner Tree" rows — simple Algorithm 2
//! (the O(|W|(n+m))-delay baseline), the improved enumerator (Theorem 17),
//! and the output-queue variant (Theorem 20), swept over |W| and over n+m.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use steiner_bench::workloads;
use steiner_core::simple::enumerate_minimal_steiner_trees_simple;
use steiner_core::{Enumeration, SteinerTree};

const CAP: u64 = 3_000;

fn bench_terminal_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_tree_terminal_sweep");
    group.sample_size(10);
    for t in [2, 4, 6, 8] {
        let inst = workloads::grid_instance(4, 6, t);
        group.bench_with_input(BenchmarkId::new("improved", t), &inst, |b, inst| {
            b.iter(|| {
                Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
                    .with_limit(CAP)
                    .count()
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("simple", t), &inst, |b, inst| {
            b.iter(|| {
                let mut count = 0u64;
                enumerate_minimal_steiner_trees_simple(&inst.graph, &inst.terminals, &mut |_| {
                    count += 1;
                    if count < CAP {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    }
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("queued", t), &inst, |b, inst| {
            b.iter(|| {
                Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
                    .with_default_queue()
                    .with_limit(CAP)
                    .count()
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_tree_size_sweep");
    group.sample_size(10);
    for (n, m) in [(50, 75), (100, 150), (200, 300)] {
        let inst = workloads::random_instance(n, m, 4, 42);
        group.bench_with_input(
            BenchmarkId::new("improved", format!("n{n}m{m}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
                        .with_limit(CAP)
                        .count()
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_bridged_sweep(c: &mut Criterion) {
    // Bridge-rich instances (grid core + pendant terminals): the node mix
    // is dominated by Unique-completion leaves, which the incremental
    // classifier answers from forced-path reads instead of a per-leaf
    // spanning-growth pass.
    let mut group = c.benchmark_group("steiner_tree_bridged_sweep");
    group.sample_size(10);
    for (cols, label) in [(13, "n64"), (27, "n120"), (57, "n240")] {
        let inst = workloads::bridged_instance(4, cols, 4, 3);
        group.bench_with_input(BenchmarkId::new("improved", label), &inst, |b, inst| {
            b.iter(|| {
                Enumeration::new(SteinerTree::new(&inst.graph, &inst.terminals))
                    .with_limit(CAP)
                    .count()
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_terminal_sweep,
    bench_size_sweep,
    bench_bridged_sweep
);
criterion_main!(benches);
