//! Measurement plumbing: delay recording and markdown rows.

use std::time::{Duration, Instant};

/// Wall-clock delay statistics of one enumeration run.
#[derive(Clone, Debug, Default)]
pub struct DelayStats {
    /// Solutions observed (possibly capped).
    pub solutions: u64,
    /// Total wall-clock time of the run.
    pub total: Duration,
    /// Largest gap between consecutive solutions (including the start-to-
    /// first gap), per the paper's delay definition.
    pub max_gap: Duration,
    /// Mean gap.
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
        let gap = now - last;
        last = now;
        if gap > max_gap {
            max_gap = gap;
        }
        count += 1;
        count < cap
    });
    let total = start.elapsed();
    DelayStats {
        solutions: count,
        total,
        max_gap,
        mean_gap: if count > 0 {
            total / count as u32
        } else {
            Duration::ZERO
        },
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
    /// Solutions enumerated (capped).
    pub solutions: u64,
    /// Measured statistics.
    pub delays: DelayStats,
    /// Max work-unit gap between emissions (algorithmic delay), if known.
    pub max_work_gap: Option<u64>,
    /// Work-gap bound `c` such that max gap ≤ c·(n+m), if known.
    pub work_gap_over_nm: Option<f64>,
    /// Share of `stats.work` attributed to the path-generation core
    /// (`path_gen_work / work`), if known — the bottleneck the packed
    /// frontiers target, recorded on the size-sweep rows so the claim is
    /// visible in `BENCH_core.json`.
    pub path_gen_fraction: Option<f64>,
}

/// Renders rows as a markdown table in the shape of the paper's Table 1,
/// with measured columns appended.
pub fn render_markdown(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| Problem | Algorithm | Claimed delay | Instance | n | m | t | #sols | total | mean delay | max delay | max gap/(n+m) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1?} | {:.1?} | {:.1?} | {} |\n",
            r.problem,
            r.algorithm,
            r.claimed,
            r.instance,
            r.n,
            r.m,
            r.t,
            r.solutions,
            r.delays.total,
            r.delays.mean_gap,
            r.delays.max_gap,
            r.work_gap_over_nm
                .map_or("-".to_string(), |v| format!("{v:.2}")),
        ));
    }
    out
}

/// Renders rows as the machine-readable `BENCH_core.json` document: one
/// object per row with solutions/second and the observed delays, so CI can
/// archive a perf trajectory per PR. Hand-rolled (no serde in this
/// workspace); all strings are plain ASCII.
pub fn render_json(rows: &[Row]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    // The host's logical CPU count qualifies the sequential-vs-sharded
    // rows: on a single-CPU builder the sharded rows measure pure
    // overhead; the parallel speedup only shows on multi-core runners.
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    out.push_str("{\n  \"schema\": \"BENCH_core/v1\",\n");
    out.push_str(&format!(
        "  \"host_logical_cpus\": {cpus},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        let secs = r.delays.total.as_secs_f64();
        let sols_per_sec = if secs > 0.0 {
            r.solutions as f64 / secs
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"problem\": \"{}\", \"algorithm\": \"{}\", \"instance\": \"{}\", \
             \"n\": {}, \"m\": {}, \"t\": {}, \"solutions\": {}, \"total_secs\": {:.6}, \
             \"solutions_per_sec\": {:.1}, \"mean_delay_us\": {:.3}, \"max_delay_us\": {:.3}, \
             \"max_work_gap\": {}, \"work_gap_over_nm\": {}, \"path_gen_fraction\": {}}}{}\n",
            esc(&r.problem),
            esc(&r.algorithm),
            esc(&r.instance),
            r.n,
            r.m,
            r.t,
            r.solutions,
            secs,
            sols_per_sec,
            r.delays.mean_gap.as_secs_f64() * 1e6,
            r.delays.max_gap.as_secs_f64() * 1e6,
            r.max_work_gap.map_or("null".to_string(), |v| v.to_string()),
            r.work_gap_over_nm
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

    #[test]
    fn json_is_well_formed_enough() {
        let row = Row {
            problem: "Steiner Tree".into(),
            algorithm: "improved".into(),
            claimed: "O(n+m)".into(),
            instance: "grid".into(),
            n: 10,
            m: 20,
            t: 3,
            solutions: 5,
            delays: DelayStats::default(),
            max_work_gap: Some(30),
            work_gap_over_nm: Some(1.0),
            path_gen_fraction: Some(0.5),
        };
        let json = render_json(&[row]);
        assert!(json.contains("\"schema\": \"BENCH_core/v1\""));
        assert!(json.contains("\"solutions\": 5"));
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
        assert!(stats.max_gap >= Duration::ZERO);
    }

    #[test]
    fn markdown_has_one_line_per_row() {
        let row = Row {
            problem: "Steiner Tree".into(),
            algorithm: "improved".into(),
            claimed: "O(n+m)".into(),
            instance: "grid".into(),
            n: 10,
            m: 20,
            t: 3,
            solutions: 5,
            delays: DelayStats::default(),
            max_work_gap: Some(30),
            work_gap_over_nm: Some(1.0),
            path_gen_fraction: Some(0.5),
        };
        let md = render_markdown(&[row.clone(), row]);
        assert_eq!(md.lines().count(), 4);
        assert!(md.contains("Steiner Tree"));
    }
}
