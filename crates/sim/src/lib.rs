//! # nbl-sim — simulation driver and experiment infrastructure
//!
//! Glues the substrates together into the paper's experimental setup:
//!
//! * [`config`] — the named hardware configurations of the paper's figure
//!   legends (`mc=0 + wma`, `mc=N`, `fc=N`, `fs=N`, in-cache, targets,
//!   "no restrict") and complete [`config::SimConfig`]s;
//! * [`driver`] — compile-and-run of one workload under one configuration,
//!   producing a [`driver::RunResult`] with every metric the paper plots
//!   (MCPI, stall breakdown, miss rates, in-flight histograms). Every
//!   entry point replays a recorded tape through a pooled
//!   [`nbl_cpu::issue::IssueEngine`]; the dual-issue run
//!   ([`driver::run_dual`]) is two such replays, real and perfect cache;
//! * [`sweep`] — the parallel [`sweep::SweepEngine`], whose every entry
//!   runs on one fused-row runner (each row one tape walk for its
//!   configurations; `run_many` rows hold one cell), and its two result
//!   types: a [`sweep::Sweep`] (configuration × load latency or miss
//!   penalty) and a [`sweep::PlaneSweep`] (replacement policy or
//!   processor model × configuration × latency), with compilation shared
//!   across configurations;
//! * [`pool`] — the scoped-thread job pool behind the parallel sweeps
//!   (`NBL_THREADS` overrides the worker count);
//! * [`store`] — the tiered artifact store: an exactly-once memory tier
//!   that compiles each `(benchmark, latency)` pair once and records each
//!   compiled schedule's dynamic instruction stream once into a flat
//!   [`nbl_trace::tape::TraceTape`], shared by every latency that
//!   compiles to it (byte budget, idle-tape eviction),
//!   over a content-addressed, versioned, checksummed on-disk tier
//!   (`results/store/`) that persists tapes and [`driver::RunResult`]s
//!   across processes, with quarantine-and-re-record corruption handling
//!   and the incremental-sweep fast path;
//! * [`telemetry`] — process-wide counters of simulated work, for
//!   throughput reporting;
//! * [`report`] — fixed-width text rendering in the shape of the paper's
//!   figures and tables.

/// The experiment configuration space (Fig. 13 machine configs et al.).
pub mod config;
/// Single-run driver: build the machine, run a benchmark, collect results.
pub mod driver;
/// Scoped-thread job pool with input-ordered placement for sweeps.
pub mod pool;
/// Fixed-width tables and hand-rolled JSON emitters for every exhibit.
pub mod report;
/// The tiered artifact store: an exactly-once memory tier over a
/// content-addressed, checksummed on-disk artifact directory.
pub mod store;
/// The parallel sweep engine and its two result types, [`Sweep`] and
/// [`PlaneSweep`].
pub mod sweep;
/// Process-wide atomic counters surfaced in the throughput table.
pub mod telemetry;

pub use config::{HwConfig, ProcessorKind, SimConfig};
pub use driver::{
    run_dual, run_program, run_tape, run_tape_fused, run_tape_traced, DualRunResult, RunResult,
    SimError,
};
pub use pool::{available_threads, JobPanic, JobPool};
pub use store::{
    configure_store, store_settings, ArtifactError, ArtifactStore, DiskTier, StoreSettings,
    StoreStats, TierStats,
};
pub use sweep::{Axis, PlaneAxis, PlaneSweep, Sweep, SweepEngine};
pub use telemetry::{Telemetry, TelemetrySnapshot};
