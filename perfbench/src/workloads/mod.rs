//! The four workloads and their dispatch.
//!
//! | workload           | front-end                                   | stresses                              |
//! |--------------------|---------------------------------------------|---------------------------------------|
//! | `keyword-topk`     | pull iterator, `take(1000)`, Steiner trees  | `prepare`, path generation, streaming |
//! | `full-enum-queued` | push + `with_default_queue()`, 4 problems   | classify, emission sort, output queue |
//! | `served-mix`       | open loop into one `EnumerationEngine`      | admission, cache, epochs, dispatch    |
//! | `sharded-bulk`     | push + `with_threads(2)` and stealing       | shard merge, steal pool               |

pub mod oneshot;
pub mod served;

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use steiner_core::{Enumeration, SteinerForest, TerminalSteinerTree};

use crate::inputs;
use crate::report::Report;
use crate::stats::{peak_rss_mb, timed_setup, Dist, Hist};
use crate::Options;
use oneshot::{Instance, PullTimes, Spec};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "keyword-topk",
    "full-enum-queued",
    "served-mix",
    "sharded-bulk",
];

/// A one-shot workload: how its queries run and how its inputs are made.
pub struct OneShot {
    /// Front-end configuration.
    pub spec: Spec,
    /// Instances in the pool.
    pub pool_len: usize,
    /// Generates the pool from the seed.
    pub build: fn(u64, usize) -> Vec<Instance>,
}

/// `keyword-topk`: the paper's keyword-search use. The first 1000 minimal
/// Steiner trees of random sparse graphs G(n, 1.5n), n ∈ {200, …, 2000},
/// t ∈ {3, …, 6}, pulled through the iterator by one closed-loop consumer.
pub const KEYWORD_TOPK: OneShot = OneShot {
    spec: Spec {
        limit: 1000,
        queued: false,
        threads: 1,
        pull: true,
    },
    pool_len: 200,
    build: keyword_pool,
};

/// `full-enum-queued`: all four problems on classify-heavy inputs through
/// the Theorem-20 output queue, with a large per-query cap.
pub const FULL_ENUM_QUEUED: OneShot = OneShot {
    spec: Spec {
        limit: 2000,
        queued: true,
        threads: 1,
        pull: false,
    },
    pool_len: 400,
    build: full_enum_pool,
};

/// `sharded-bulk`: large random instances G(400, 600), t = 5, run by two
/// shard workers with subtree stealing.
pub const SHARDED_BULK: OneShot = OneShot {
    spec: Spec {
        limit: 5_000,
        queued: false,
        threads: 2,
        pull: false,
    },
    pool_len: 48,
    build: sharded_pool,
};

fn keyword_pool(seed: u64, len: usize) -> Vec<Instance> {
    (0..len)
        .map(|i| {
            let mut r = inputs::rng(seed, 1000 + i as u64);
            // n covers 200..2000 evenly across the pool, so percentiles
            // over the mix move smoothly with the inputs; the stride
            // spreads any run of consecutive queries over the whole range.
            let slot = (i * 73) % 200;
            let n = 200 + 9 * slot + r.gen_range(0..9);
            let t = 3 + i % 4;
            let (g, w) = inputs::random_instance(n, n * 3 / 2, t, &mut r);
            Instance::Tree { g: Arc::new(g), w }
        })
        .collect()
}

fn full_enum_pool(seed: u64, len: usize) -> Vec<Instance> {
    (0..len)
        .map(|i| {
            let mut r = inputs::rng(seed, 2000 + i as u64);
            match i % 4 {
                0 => {
                    let cols = r.gen_range(20..58);
                    let (g, w) = inputs::bridged_instance(4, cols, 4, 3, &mut r);
                    Instance::Tree { g: Arc::new(g), w }
                }
                1 => loop {
                    let cols = r.gen_range(6..13);
                    let (g, w) = inputs::grid_terminals(4, cols, 8, &mut r);
                    if has_solution(|| {
                        Enumeration::new(TerminalSteinerTree::new(&g, &w))
                            .with_limit(1)
                            .count()
                    }) {
                        break Instance::Terminal { g: Arc::new(g), w };
                    }
                },
                2 => loop {
                    let cols = r.gen_range(5..11);
                    let (g, sets) = inputs::grid_forest(5, cols, 3, &mut r);
                    if has_solution(|| {
                        Enumeration::new(SteinerForest::new(&g, &sets))
                            .with_limit(1)
                            .count()
                    }) {
                        break Instance::Forest {
                            g: Arc::new(g),
                            sets,
                        };
                    }
                },
                _ => {
                    let width = r.gen_range(3..7);
                    let (d, root, w) = inputs::layered_dag(5, width, 4, &mut r);
                    Instance::Directed {
                        d: Arc::new(d),
                        root,
                        w,
                    }
                }
            }
        })
        .collect()
}

fn has_solution(count: impl FnOnce() -> Result<u64, steiner_core::SteinerError>) -> bool {
    matches!(count(), Ok(n) if n > 0)
}

fn sharded_pool(seed: u64, len: usize) -> Vec<Instance> {
    (0..len)
        .map(|i| {
            let (g, w) =
                inputs::random_instance(400, 600, 5, &mut inputs::rng(seed, 3000 + i as u64));
            Instance::Tree { g: Arc::new(g), w }
        })
        .collect()
}

/// The one-shot workload called `name`.
pub fn one_shot(name: &str) -> Option<&'static OneShot> {
    match name {
        "keyword-topk" => Some(&KEYWORD_TOPK),
        "full-enum-queued" => Some(&FULL_ENUM_QUEUED),
        "sharded-bulk" => Some(&SHARDED_BULK),
        _ => None,
    }
}

/// Runs workload `name`.
pub fn run(name: &str, opts: &Options) -> Result<Report, String> {
    if name == "served-mix" {
        return Ok(served::run(opts));
    }
    let w = one_shot(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            NAMES.join(", ")
        )
    })?;
    let mut report = Report::default();
    // Set-up: generate the inputs, build the graphs, warm up. Repeated and
    // reported as the median so work moved into set-up shows.
    let mut build_ms = Dist::new();
    let (setup_s, pool) = timed_setup(if opts.trace { 1 } else { 3 }, || {
        let t = Instant::now();
        let pool = (w.build)(opts.seed, w.pool_len);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        oneshot::warm_up(&pool, w.spec);
        pool
    });
    report.set("setup_s", setup_s);
    report.line(format!(
        "inputs: {} instances, {}",
        pool.len(),
        pool.iter()
            .take(4)
            .map(Instance::label)
            .collect::<Vec<_>>()
            .join("; ")
    ));
    if !opts.trace {
        oneshot::measure(&pool, w.spec, opts.seconds, &mut report);
    } else {
        report.set("graph.build_ms", build_ms.p50());
        let mut rest = opts.seconds;
        if w.spec.pull {
            let phase = opts.seconds * 0.25;
            rest -= phase;
            streaming_phase(&pool, w.spec, phase, &mut report);
        }
        if w.spec.threads > 1 {
            let phase = opts.seconds * 0.35;
            rest -= phase;
            sharded_phase(&pool, w.spec, phase, &mut report);
        }
        let path =
            std::path::PathBuf::from(format!(".bench_out/spans-{name}-seed{}.tsv", opts.seed));
        oneshot::trace(&pool, w.spec, rest, &mut report, &path);
    }
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Traced run, pull workloads: time `into_iter()` and every
/// `Solutions::next()` from outside.
fn streaming_phase(pool: &[Instance], spec: Spec, seconds: f64, report: &mut Report) {
    let mut times = PullTimes::default();
    let t0 = Instant::now();
    let mut q = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let mut c = oneshot::Consumer::new(None, false, None);
        if let Err(e) = pool[q % pool.len()].pull(spec, &mut c, Some(&mut times)) {
            report.mismatch(format!("pull query failed: {e}"));
        }
        q += 1;
    }
    report.set("paths.streaming.into_iter_us_p50", times.into_iter_us.p50());
    report.set(
        "paths.streaming.next_wait_ns_p50",
        times.next_wait_ns.quantile(0.5),
    );
}

/// Traced run, sharded workloads: steal counters and the merge point's
/// delivery gaps, from untraced sharded runs.
fn sharded_phase(pool: &[Instance], spec: Spec, seconds: f64, report: &mut Report) {
    let mut gaps = Hist::new();
    let (mut stolen, mut failures, mut queries) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while queries == 0 || t0.elapsed().as_secs_f64() < seconds {
        let mut c = oneshot::Consumer::new(Some(&mut gaps), false, None);
        match pool[queries as usize % pool.len()].push(spec, &mut c) {
            Ok(s) => {
                stolen += s.subtrees_stolen;
                failures += s.steal_failures;
            }
            Err(e) => report.mismatch(format!("sharded query failed: {e}")),
        }
        queries += 1;
    }
    report.set("core.steal.subtrees_stolen", stolen as f64 / queries as f64);
    report.set(
        "core.steal.steal_failures",
        failures as f64 / queries as f64,
    );
    report.set("core.solver.merge_stall_p99_us", gaps.quantile(0.99) / 1e3);
    report.line(format!(
        "sharded phase: {queries} queries, {:.1} subtrees stolen and {:.1} steal offers refused per query",
        stolen as f64 / queries as f64,
        failures as f64 / queries as f64
    ));
}

/// The exact work-unit line of workload `name` on a pool of `pool_len`
/// instances generated from `seed`.
pub fn work_units(name: &str, seed: u64, pool_len: usize) -> Option<String> {
    if name == "served-mix" {
        return Some(served::work_units(seed));
    }
    let w = one_shot(name)?;
    let pool = (w.build)(seed, pool_len);
    Some(oneshot::count_line(&pool, w.spec))
}
