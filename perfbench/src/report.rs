//! Metric catalogue and the result line the command prints last.
//!
//! The two tables below are the benchmark's contract: `BENCHMARK.json`
//! lists the same names and units. An untraced run reports every
//! [`END_TO_END`] metric; a traced run reports every [`PER_LAYER`] metric,
//! with 0 where the workload does not exercise the layer.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the engine sees. Tail percentiles
/// are printed on the detail lines but not reported here: on a shared
/// host they follow other tenants more than the program (see
/// `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ttfs_p50_us", "us"),
    ("last_p50_us", "us"),
    ("delay_p50_ns", "ns"),
    ("solutions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<layer>.<metric>` after the repository's
/// modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.problem.prepare_share", "frac"),
    ("core.problem.prepare_us_p50", "us"),
    ("core.problem.preprocessing_work", "count"),
    ("core.problem.classify_share", "frac"),
    ("core.problem.classify_ns_per_call", "ns"),
    ("core.problem.classify_calls_per_solution", "count"),
    ("core.problem.classify_incremental_ratio", "frac"),
    ("paths.branch_self_share", "frac"),
    ("paths.branch_ns_per_child", "ns"),
    ("paths.path_gen_work_per_solution", "count"),
    ("paths.fstp_cache_hit_ratio", "frac"),
    ("paths.streaming.into_iter_us_p50", "us"),
    ("paths.streaming.next_wait_ns_p50", "ns"),
    ("core.solver.emit_ns_per_solution", "ns"),
    ("core.solver.emit_share", "frac"),
    ("core.solver.work_per_solution_nm", "ratio"),
    ("core.solver.max_gap_work_nm", "ratio"),
    ("core.solver.nodes_per_solution", "ratio"),
    ("core.solver.deficient_internal_nodes", "count"),
    ("core.solver.merge_stall_p99_us", "us"),
    ("core.trail.scratch_allocs", "count"),
    ("core.queue.hold_p99_us", "us"),
    ("core.queue.max_buffered", "count"),
    ("core.queue.self_share", "frac"),
    ("core.steal.subtrees_stolen", "count"),
    ("core.steal.steal_failures", "count"),
    ("core.cache.hit_ratio", "frac"),
    ("core.cache.replay_last_p50_us", "us"),
    ("core.cache.cold_last_p50_us", "us"),
    ("core.cache.evicted_entries", "count"),
    ("core.cache.interned_mb", "MB"),
    ("service.last_p99_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.overhead_p50_us", "us"),
    ("service.in_flight_max", "count"),
    ("service.rejected", "count"),
    ("service.weighted_share_min_over_max", "ratio"),
    ("service.mutation_p50_us", "us"),
    ("service.mutation_p99_us", "us"),
    ("service.max_qps_at_limit", "1/s"),
    ("graph.epoch.entries_invalidated", "count"),
    ("graph.epoch.entries_retained", "count"),
    ("graph.epoch.retain_ratio", "frac"),
    ("graph.build_ms", "ms"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.sent", "count"),
    ("bench.succeeded", "count"),
    ("bench.failed", "count"),
    ("bench.failed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.trace_coverage", "frac"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase (queries, mutation
    /// batches, verification checks).
    pub attempted: u64,
    /// Operations that failed: rejections, deadline overruns, wrong or
    /// mismatched output, failed mutations.
    pub failed: u64,
    /// Human-readable description of every correctness failure.
    pub problems: Vec<String>,
    /// Detail lines printed before the result line (sample counts,
    /// work-unit counts, per-step ladder figures).
    pub lines: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`. Panics on a name missing from the
    /// catalogue — that is a bug in the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Counts one failed operation with wrong output and remembers why.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Adds a detail line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// end-to-end (`trace == false`) or per-layer (`trace == true`)
    /// metrics. An end-to-end metric the workload failed to measure makes
    /// the run incorrect rather than silently reading 0.
    pub fn to_json(&mut self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn untraced_json_flags_missing_metrics() {
        let mut r = Report::default();
        let json = r.to_json(false);
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
