//! # gea-bench — the thesis reproduction
//!
//! Shared workloads and experiment drivers behind the `repro` binary,
//! which regenerates every table and figure of the thesis's evaluation.
//! See `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record; performance is measured by the repo benchmark under
//! `benchmark/`.

#![warn(missing_docs)]

pub mod baselines;
pub mod populate_experiment;
pub mod workloads;

pub use populate_experiment::{table_3_2, Table32Config, Table32Row};
