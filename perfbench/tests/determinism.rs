//! The exact work-unit counts are a noise-free regression gate: two runs
//! with the same seed must print identical counts, on every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::workloads::{work_units, NAMES};

#[test]
fn same_seed_prints_identical_work_units() {
    for name in NAMES {
        let first = work_units(name, 7, 4).expect("known workload");
        let second = work_units(name, 7, 4).expect("known workload");
        assert!(first.starts_with("work-units: "), "{name}: {first}");
        assert_eq!(first, second, "{name}: work units differ between runs");
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    for name in NAMES {
        let a = work_units(name, 1, 4).expect("known workload");
        let b = work_units(name, 2, 4).expect("known workload");
        assert_ne!(a, b, "{name}: seeds 1 and 2 gave the same inputs");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(work_units("no-such-workload", 1, 4).is_none());
}
