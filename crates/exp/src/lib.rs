//! The declarative experiment engine behind `gwbench`.
//!
//! Layering (DESIGN.md §"Experiment engine"):
//!
//! - [`spec`] — the data model: every figure/table/ablation declares its
//!   run matrix as [`spec::RunSpec`] cells whose identity is a canonical
//!   key string (workload + seed + machine config + threads + d +
//!   [`spec::SPEC_REVISION`]).
//! - [`fingerprint`] — FNV-1a-128 content addresses over those keys.
//! - [`cache`] — `results/cache/<fingerprint>.json`, checksummed,
//!   byte-identical on hit.
//! - [`pool`] — a small work-stealing thread pool; results re-assemble
//!   in spec order so output is invariant under `--jobs`.
//! - [`engine`] — dedup → cache probe → execute → [`record::RunRecord`]s
//!   plus a structured [`engine::SweepLog`].
//! - [`experiments`] — the registry of all 21 reports with pure
//!   renderers over cached records.
//! - [`cli`] — the `gwbench` command line (list / run / repro-all /
//!   faults / profile / clean).
//! - [`profile`] — the cycle-attribution reporter behind
//!   `gwbench profile` (`results/profile.json`).

pub mod cache;
pub mod cli;
pub mod engine;
pub mod experiments;
pub mod fingerprint;
pub mod pool;
pub mod profile;
pub mod record;
pub mod render;
pub mod resilience;
pub mod scenarios;
pub mod spec;

pub use cache::{CacheRecord, Miss, ResultCache};
pub use engine::{Engine, SweepLog};
pub use experiments::{all_experiments, find_experiment, Experiment};
pub use fingerprint::Fingerprint;
pub use record::{records_fingerprint, PairView, RunRecord};
pub use spec::{ExperimentSpec, RunKind, RunSpec, Scale, WorkloadSpec, SPEC_REVISION};
