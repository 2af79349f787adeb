//! Measurement plumbing: delay recording, repeated samples and markdown
//! rows.

use std::time::{Duration, Instant};

/// Runs per row: every row's closure runs this many times and the row
/// reports the median run, with the quartiles of the runs' totals.
pub const SAMPLES: usize = 7;

/// Wall-clock delay statistics of one enumeration run.
#[derive(Clone, Debug, Default)]
pub struct DelayStats {
    /// Solutions observed (possibly capped).
    pub solutions: u64,
    /// Total wall-clock time of the run.
    pub total: Duration,
    /// Largest of the run's gaps, per the paper's delay definition: start
    /// to first solution, between consecutive solutions, and last
    /// solution to the end of the run.
    pub max_gap: Duration,
    /// Mean of those `solutions + 1` gaps.
    pub mean_gap: Duration,
}

/// Runs `run`, handing it a callback to invoke once per solution, stopping
/// after `cap` solutions. The run function receives a `&mut dyn FnMut() ->
/// bool` returning `false` when the cap is reached.
pub fn record_delays(cap: u64, run: impl FnOnce(&mut dyn FnMut() -> bool)) -> DelayStats {
    let start = Instant::now();
    let mut last = start;
    let mut max_gap = Duration::ZERO;
    let mut count = 0u64;
    run(&mut || {
        let now = Instant::now();
        max_gap = max_gap.max(now - last);
        last = now;
        count += 1;
        count < cap
    });
    let end = Instant::now();
    let total = end - start;
    DelayStats {
        solutions: count,
        total,
        max_gap: max_gap.max(end - last),
        mean_gap: Duration::from_nanos((total.as_nanos() / (u128::from(count) + 1)) as u64),
    }
}

/// One row's [`SAMPLES`] runs.
#[derive(Clone, Debug, Default)]
pub struct Sampled {
    /// The run with the median total time.
    pub median: DelayStats,
    /// 25th percentile of the runs' total times.
    pub total_p25: Duration,
    /// 75th percentile of the runs' total times.
    pub total_p75: Duration,
}

/// Calls `run` [`SAMPLES`] times, each call measuring one run from the
/// same starting state, and keeps the median run by total time.
pub fn sample(mut run: impl FnMut() -> DelayStats) -> Sampled {
    let mut runs: Vec<DelayStats> = (0..SAMPLES).map(|_| run()).collect();
    runs.sort_by_key(|r| r.total);
    let (total_p25, total_p75) = (runs[SAMPLES / 4].total, runs[3 * SAMPLES / 4].total);
    Sampled {
        median: runs.swap_remove(SAMPLES / 2),
        total_p25,
        total_p75,
    }
}

/// One measured row of the Table 1 analogue.
#[derive(Clone, Debug)]
pub struct Row {
    /// Problem name (Table 1's first column).
    pub problem: String,
    /// Algorithm variant.
    pub algorithm: String,
    /// The paper's claimed delay bound for this row.
    pub claimed: String,
    /// Instance description.
    pub instance: String,
    /// n, m, and |W| (or equivalent parameter).
    pub n: usize,
    /// Number of edges/arcs.
    pub m: usize,
    /// Number of terminals (or pairs/groups).
    pub t: usize,
    /// Measured statistics; the median run's `solutions` is the row's
    /// (capped) solution count.
    pub delays: Sampled,
    /// Max work-unit gap between emissions (algorithmic delay), if known.
    pub max_work_gap: Option<u64>,
    /// Share of `stats.work` attributed to the path-generation core
    /// (`path_gen_work / work`), if known — the bottleneck the packed
    /// frontiers target, recorded on the size-sweep rows so the claim is
    /// visible in `BENCH_core.json`.
    pub path_gen_fraction: Option<f64>,
}

impl Row {
    /// A row with no work-unit figures; `(n, m, t)` as in the fields.
    pub fn new(
        problem: &str,
        algorithm: impl Into<String>,
        claimed: &str,
        instance: impl Into<String>,
        (n, m, t): (usize, usize, usize),
        delays: Sampled,
    ) -> Row {
        Row {
            problem: problem.into(),
            algorithm: algorithm.into(),
            claimed: claimed.into(),
            instance: instance.into(),
            n,
            m,
            t,
            delays,
            max_work_gap: None,
            path_gen_fraction: None,
        }
    }

    /// Records the max work-unit gap.
    pub fn work_gap(mut self, gap: u64) -> Row {
        self.max_work_gap = Some(gap);
        self
    }

    /// Work-gap bound `c` such that max gap ≤ c·(n+m), if known.
    pub fn work_gap_over_nm(&self) -> Option<f64> {
        self.max_work_gap
            .map(|gap| gap as f64 / (self.n + self.m) as f64)
    }
}

/// Renders rows as a markdown table in the shape of the paper's Table 1,
/// with measured columns appended.
pub fn render_markdown(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| Problem | Algorithm | Claimed delay | Instance | n | m | t | #sols | total | total p25–p75 | mean delay | max delay | max gap/(n+m) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let d = &r.delays;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1?} | {:.1?}–{:.1?} | {:.1?} | {:.1?} | {} |\n",
            r.problem,
            r.algorithm,
            r.claimed,
            r.instance,
            r.n,
            r.m,
            r.t,
            d.median.solutions,
            d.median.total,
            d.total_p25,
            d.total_p75,
            d.median.mean_gap,
            d.median.max_gap,
            r.work_gap_over_nm()
                .map_or("-".to_string(), |v| format!("{v:.2}")),
        ));
    }
    out
}

/// Renders rows as the machine-readable `BENCH_core.json` document: one
/// object per row with solutions/second and the observed delays of its
/// median run, plus the quartiles of the runs' totals, so CI can archive
/// a perf trajectory per PR. Hand-rolled (no serde in this workspace).
pub fn render_json(rows: &[Row]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    // The host's logical CPU count qualifies the sequential-vs-sharded
    // rows: on a single-CPU builder the sharded rows measure pure
    // overhead; the parallel speedup only shows on multi-core runners.
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    out.push_str("{\n  \"schema\": \"BENCH_core/v2\",\n");
    out.push_str(&format!(
        "  \"host_logical_cpus\": {cpus},\n  \"samples\": {SAMPLES},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        let d = &r.delays.median;
        let secs = d.total.as_secs_f64();
        let sols_per_sec = if secs > 0.0 {
            d.solutions as f64 / secs
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"problem\": \"{}\", \"algorithm\": \"{}\", \"instance\": \"{}\", \
             \"n\": {}, \"m\": {}, \"t\": {}, \"solutions\": {}, \"total_secs\": {:.6}, \
             \"total_p25_secs\": {:.6}, \"total_p75_secs\": {:.6}, \
             \"solutions_per_sec\": {:.1}, \"mean_delay_us\": {:.3}, \"max_delay_us\": {:.3}, \
             \"max_work_gap\": {}, \"work_gap_over_nm\": {}, \"path_gen_fraction\": {}}}{}\n",
            esc(&r.problem),
            esc(&r.algorithm),
            esc(&r.instance),
            r.n,
            r.m,
            r.t,
            d.solutions,
            secs,
            r.delays.total_p25.as_secs_f64(),
            r.delays.total_p75.as_secs_f64(),
            sols_per_sec,
            d.mean_gap.as_secs_f64() * 1e6,
            d.max_gap.as_secs_f64() * 1e6,
            r.max_work_gap.map_or("null".to_string(), |v| v.to_string()),
            r.work_gap_over_nm()
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            r.path_gen_fraction
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        let mut delays = Sampled::default();
        delays.median.solutions = 5;
        Row::new(
            "Steiner Tree",
            "improved",
            "O(n+m)",
            "grid",
            (10, 20, 3),
            delays,
        )
        .work_gap(30)
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = row();
        r.path_gen_fraction = Some(0.5);
        let json = render_json(&[r]);
        assert!(json.contains("\"schema\": \"BENCH_core/v2\""));
        assert!(json.contains("\"samples\": 7"));
        assert!(json.contains("\"solutions\": 5"));
        assert!(json.contains("\"total_p75_secs\": 0.000000"));
        assert!(json.contains("\"work_gap_over_nm\": 1.000"));
        assert!(json.contains("\"path_gen_fraction\": 0.500"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn record_delays_counts_and_caps() {
        let stats = record_delays(3, |emit| {
            for _ in 0..10 {
                if !emit() {
                    break;
                }
            }
        });
        assert_eq!(stats.solutions, 3);
        assert!(stats.mean_gap <= stats.max_gap);
    }

    #[test]
    fn record_delays_counts_the_wait_after_the_last_solution() {
        let stats = record_delays(10, |emit| {
            emit();
            std::thread::sleep(Duration::from_millis(20));
        });
        assert_eq!(stats.solutions, 1);
        assert!(stats.max_gap >= Duration::from_millis(20), "{stats:?}");
        assert!(stats.mean_gap <= stats.max_gap);
    }

    #[test]
    fn sample_keeps_the_median_run_and_the_quartiles() {
        let mut calls = 0u64;
        let sampled = sample(|| {
            calls += 1;
            // Totals 7, 1, 6, 2, 5, 3, 4 ms; the run's count names it.
            let ms = [7, 1, 6, 2, 5, 3, 4][calls as usize - 1];
            DelayStats {
                solutions: calls,
                total: Duration::from_millis(ms),
                ..DelayStats::default()
            }
        });
        assert_eq!(calls, SAMPLES as u64);
        assert_eq!(sampled.median.total, Duration::from_millis(4));
        assert_eq!(sampled.median.solutions, 7);
        assert_eq!(sampled.total_p25, Duration::from_millis(2));
        assert_eq!(sampled.total_p75, Duration::from_millis(6));
    }

    #[test]
    fn markdown_has_one_line_per_row() {
        let md = render_markdown(&[row(), row()]);
        assert_eq!(md.lines().count(), 4);
        assert!(md.contains("Steiner Tree"));
    }
}
