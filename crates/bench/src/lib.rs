//! Benchmark harness regenerating the paper's Table 1 and Figure 1.
//!
//! The paper is analytical: Table 1 states delay/preprocessing/space
//! bounds, Figure 1 illustrates the improved enumeration tree. This crate
//! measures the implementation against those claims:
//!
//! * [`measure`] — runs an enumerator, recording wall-clock delay between
//!   consecutive solutions (max/mean); repeats every measurement
//!   [`measure::SAMPLES`] times and keeps the median run with the
//!   quartiles of the totals; renders markdown rows and `BENCH_core.json`;
//! * [`workloads`] — the instance families;
//! * `table1` binary — prints a measured analogue of every Table 1 row.
//!   It is the workspace's one wall-time harness; the stand-alone
//!   `perfbench` package gates end-to-end changes;
//! * `figure1` binary — prints the enumeration-tree shape and output-queue
//!   trace that Figure 1 illustrates.

#![deny(unsafe_code)]

pub mod measure;
pub mod workloads;
