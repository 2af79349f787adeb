//! The repository benchmark: four workloads that drive the minimal Steiner
//! enumeration engine through its public API, measure what a user sees
//! (time to first solution, per-solution delay, query latency, throughput,
//! served latency), check every output, and — in traced runs — attribute
//! the time to the engine's layers with spans recorded from outside the
//! program.
//!
//! `main.rs` is the command; this library holds the workloads so the
//! package's own tests can call them.

pub mod digest;
pub mod inputs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}
