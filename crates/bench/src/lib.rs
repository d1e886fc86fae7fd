//! # bench — harnesses regenerating every table and figure of the paper
//!
//! Library pieces shared by the harness binaries (`src/bin/*.rs`):
//!
//! * [`workload`] — Table I benchmark specs, object commit routines and
//!   the fragmented-region allocator trace;
//! * [`fabric`] — topology-driven cluster construction and the A6
//!   multi-node workload replay with per-tier latency histograms;
//! * [`measure`] — summary statistics, text-table rendering and the
//!   `target/bench/` result-file writer;
//! * [`runner`] — the paper's retrieval/read measurement procedure;
//! * [`storeside`] — store-side latency report from the obs registries,
//!   appended to the figure output.
//!
//! See DESIGN.md §4 for the experiment index (which binary regenerates
//! which table/figure) and EXPERIMENTS.md for paper-vs-measured results.

pub mod cli;
pub mod fabric;
pub mod measure;
pub mod runner;
pub mod storeside;
pub mod workload;

pub use cli::HarnessOpts;
pub use fabric::{
    cluster_config, run_cluster_schedule, run_cluster_workload, ClusterRunReport, TierStat,
};
pub use measure::{gibps, render_table, write_result, Summary};
pub use runner::{one_rep, run_benchmark, run_benchmark_between, BenchResult, RepSample};
pub use storeside::{print_store_side, render_store_side};
pub use workload::{
    commit_objects, fragment_region, random_data, windowed_trace, BenchSpec, TABLE_I, TABLE_I_SMALL,
};
