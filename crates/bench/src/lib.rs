//! # gea-bench — the evaluation harness
//!
//! Shared workloads and experiment drivers behind the `repro` binary (which
//! regenerates every table and figure of the thesis's evaluation) and the
//! `parallel` / `hotpath` / `router` binaries. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record.

#![warn(missing_docs)]

pub mod baselines;
pub mod hotpath;
pub mod parallel;
pub mod populate_experiment;
pub mod router;
pub mod workloads;

pub use populate_experiment::{table_3_2, Table32Config, Table32Row};
