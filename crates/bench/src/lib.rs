//! # polysi-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section 5); see
//! the README's "Experiment index". Binaries print the same rows/series the
//! paper plots and append machine-readable CSV under `bench_results/`.
//!
//! Shared infrastructure: a byte-counting global allocator (memory figures
//! 7/8b/11), checker runners with a uniform result row, and a scale knob
//! (`POLYSI_SCALE`, default `0.25`) that shrinks the paper's workload sizes
//! proportionally so every figure regenerates in minutes on a laptop.

pub mod alloc_counter;
pub mod runner;
pub mod sweeps;

pub use alloc_counter::CountingAllocator;
pub use runner::{
    csv_append, csv_field, measure, scale, scaled, Checker, CsvSink, Measurement, Timeout,
};
