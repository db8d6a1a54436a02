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
//! * [`sweep`] — configuration × latency and configuration × penalty
//!   sweeps with compilation shared across configurations, serially or on
//!   the parallel [`sweep::SweepEngine`];
//! * [`pool`] — the scoped-thread job pool behind the parallel sweeps
//!   (`NBL_THREADS` overrides the worker count);
//! * [`compile_cache`] — exactly-once compilation per `(benchmark,
//!   latency)` pair, shared by reference across configurations and sweeps;
//! * [`tape_cache`] — exactly-once recording of each compiled pair's
//!   dynamic instruction stream into a flat [`nbl_trace::tape::TraceTape`],
//!   replayed (instead of re-interpreted) at every grid point, with a byte
//!   budget and idle-tape eviction;
//! * [`store`] — the tiered artifact store behind both caches: a
//!   content-addressed, versioned, checksummed on-disk tier
//!   (`results/store/`) that persists tapes and [`driver::RunResult`]s
//!   across processes, with quarantine-and-re-record corruption handling
//!   and the incremental-sweep fast path;
//! * [`telemetry`] — process-wide counters of simulated work, for
//!   throughput reporting;
//! * [`report`] — fixed-width text rendering in the shape of the paper's
//!   figures and tables.

/// Exactly-once compilation cache shared across sweep grid points.
pub mod compile_cache;
/// The experiment configuration space (Fig. 13 machine configs et al.).
pub mod config;
/// Single-run driver: build the machine, run a benchmark, collect results.
pub mod driver;
/// Scoped-thread job pool with input-ordered placement for sweeps.
pub mod pool;
/// Fixed-width tables and hand-rolled JSON emitters for every exhibit.
pub mod report;
/// The tiered artifact store: memory caches over a content-addressed,
/// checksummed on-disk artifact directory.
pub mod store;
/// The parallel sweep engine (latency / penalty / grid / replacement /
/// processor model).
pub mod sweep;
/// Record-once/replay-many trace-tape cache beside the compile cache.
pub mod tape_cache;
/// Process-wide atomic counters surfaced in the throughput table.
pub mod telemetry;

pub use compile_cache::{CacheStats, CompileCache};
pub use config::{HwConfig, ProcessorKind, SimConfig};
pub use driver::{
    run_compiled, run_dual, run_program, run_tape, run_tape_fused, run_tape_traced, DualRunResult,
    RunResult, SimError,
};
pub use pool::{available_threads, JobPanic, JobPool};
pub use store::{
    configure_store, store_settings, ArtifactError, ArtifactStore, DiskTier, StoreSettings,
    StoreStats,
};
pub use sweep::{
    latency_sweep, penalty_sweep, LatencySweep, ModelSweep, PenaltySweep, SweepEngine,
};
pub use tape_cache::{TapeCache, TapeStats};
pub use telemetry::{Telemetry, TelemetrySnapshot};
