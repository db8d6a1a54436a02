//! The simulation driver: compile a workload for the configured load
//! latency, record its dynamic stream to a tape, replay the tape through
//! the configured processor model, and collect the paper's metrics.
//!
//! There is one execution rail: every entry point ends in a tape replay on
//! an [`IssueEngine`](nbl_cpu::issue::IssueEngine) taken from the worker
//! arena. Program-level entries compile and record through the artifact
//! store of the process-wide [`SweepEngine`], the same store every sweep
//! runs on, so repeated runs of one `(benchmark, latency)` pair share one
//! compilation, every latency that compiles to one schedule shares one
//! recording, and a configured disk tier serves them too.

use crate::config::{ProcessorKind, SimConfig};
use crate::sweep::SweepEngine;
use crate::telemetry::Telemetry;
use nbl_cpu::core_engine::{Core, EngineConfig, EngineError};
use nbl_cpu::issue::{IssueEngine, IssuePolicy};
use nbl_cpu::stats::ReplayAttribution;
use nbl_mem::event::MemTrace;
use nbl_sched::compile::CompileError;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use std::cell::RefCell;
use std::fmt;

/// Any failure a simulation run can report: the compiler model rejected
/// the program, the engine hit a model invariant violation, or a pool
/// worker's grid cell panicked.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scheduling compiler failed.
    Compile(CompileError),
    /// The execution engine failed mid-run.
    Engine(EngineError),
    /// A sweep cell panicked on a pool worker; the panic was caught so the
    /// sweep fails instead of the process.
    WorkerPanic {
        /// Input index of the grid cell that panicked.
        job: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Compile(e) => write!(f, "compile error: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::WorkerPanic { job, message } => {
                write!(f, "sweep cell {job} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<CompileError> for SimError {
    fn from(e: CompileError) -> SimError {
        SimError::Compile(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> SimError {
        SimError::Engine(e)
    }
}

impl From<crate::pool::JobPanic> for SimError {
    fn from(p: crate::pool::JobPanic) -> SimError {
        SimError::WorkerPanic {
            job: p.job,
            message: p.message,
        }
    }
}

/// Fig. 6-style occupancy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightSummary {
    /// Fraction of run time with ≥1 miss in flight ("MIF").
    pub frac_time_with_misses: f64,
    /// Distribution of miss counts 1..6 and 7+, given ≥1 in flight.
    pub miss_dist: [f64; 7],
    /// Distribution of fetch counts 1..6 and 7+, given ≥1 in flight.
    pub fetch_dist: [f64; 7],
    /// Maximum simultaneous misses.
    pub max_misses: usize,
    /// Maximum simultaneous fetches.
    pub max_fetches: usize,
}

/// All measurements from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Hardware configuration label.
    pub config: String,
    /// Label of the processor model (`"single"` unless the run swept models).
    pub model: String,
    /// Replacement-policy label (`"lru"` unless the run swept it).
    pub replacement: String,
    /// Scheduled load latency the code was compiled for.
    pub load_latency: u32,
    /// Miss penalty.
    pub miss_penalty: u32,
    /// Instructions executed.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Miss CPI — the paper's metric.
    pub mcpi: f64,
    /// Stall cycles from true data dependencies.
    pub data_dep_stalls: u64,
    /// Stall cycles from MSHR structural hazards.
    pub structural_stalls: u64,
    /// Stall cycles from blocking miss service (`mc=0`, `+wma`).
    pub blocking_stalls: u64,
    /// Fraction of MCPI due to structural stalls (Fig. 7).
    pub structural_fraction: f64,
    /// Loads that took a structural-stall miss.
    pub structural_stall_misses: u64,
    /// Primary + secondary load miss rate (Fig. 8), as a fraction of loads.
    pub load_miss_rate: f64,
    /// Secondary-only load miss rate (Fig. 8).
    pub secondary_miss_rate: f64,
    /// In-flight occupancy summary (Fig. 6).
    pub inflight: InFlightSummary,
    /// Spill memory operations added by the compiler, per static program.
    pub static_spill_ops: usize,
    /// Per-cause replay counts and stall attribution (all zero unless the
    /// run used the replaying processor model).
    pub replay: ReplayAttribution,
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] lat={} pen={}: MCPI {:.3}",
            self.benchmark, self.config, self.load_latency, self.miss_penalty, self.mcpi
        )
    }
}

fn summarize(
    benchmark: &str,
    cfg: &SimConfig,
    static_spill_ops: usize,
    cpu: &IssueEngine,
) -> RunResult {
    let stats = *cpu.stats();
    let counters = *cpu.cache().counters();
    let sampler = cpu.sampler();
    // Blocking-cache misses never reach the cache counters (the rejection
    // is resolved by a synchronous fill), so add them back for miss rates.
    let loads = stats.loads.max(1);
    let missing =
        counters.load_primary_misses + counters.load_secondary_misses + stats.blocking_load_misses;
    RunResult {
        benchmark: benchmark.to_string(),
        config: cfg.hw.label(),
        model: cfg.processor.label().to_string(),
        replacement: cfg.replacement.label(),
        load_latency: cfg.load_latency,
        miss_penalty: cfg.miss_penalty,
        instructions: stats.instructions,
        loads: stats.loads,
        stores: stats.stores,
        cycles: cpu.now().0,
        mcpi: stats.mcpi(),
        data_dep_stalls: stats.data_dep_stall_cycles,
        structural_stalls: stats.structural_stall_cycles,
        blocking_stalls: stats.blocking_stall_cycles,
        structural_fraction: stats.structural_fraction(),
        structural_stall_misses: stats.structural_stall_misses,
        load_miss_rate: missing as f64 / loads as f64,
        secondary_miss_rate: counters.load_secondary_misses as f64 / loads as f64,
        inflight: InFlightSummary {
            frac_time_with_misses: sampler.fraction_with_misses_in_flight(),
            miss_dist: sampler.miss_distribution_given_busy(),
            fetch_dist: sampler.fetch_distribution_given_busy(),
            max_misses: sampler.max_misses(),
            max_fetches: sampler.max_fetches(),
        },
        static_spill_ops,
        replay: *cpu.attribution(),
    }
}

/// Pooled processors a sweep worker keeps beyond one run. The bench grid
/// cycles through a handful of hardware configurations per thread, so a
/// small cap covers them all without hoarding memory on wide sweeps.
const ARENA_CAP: usize = 16;

thread_local! {
    /// Per-worker bump arena of issue engines, keyed by the configuration
    /// and issue policy they were built for. A run takes a matching engine
    /// out (resetting it — bit-identical to a fresh build, see
    /// [`IssueEngine::reset`]) and hands it back afterwards, so a warm
    /// worker serves every run of a sweep without constructing simulator
    /// state on the heap.
    static WORKER_ARENA: RefCell<Vec<((EngineConfig, IssuePolicy), IssueEngine)>> =
        const { RefCell::new(Vec::new()) };
}

/// Takes an engine for `(config, policy)` from this worker's arena (reset,
/// so its behavior is bit-identical to a fresh one), or builds one on a
/// miss.
fn acquire_engine(config: &EngineConfig, policy: IssuePolicy) -> IssueEngine {
    let pooled = WORKER_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena
            .iter()
            .position(|((c, p), _)| c == config && *p == policy)
            .map(|pos| arena.swap_remove(pos).1)
    });
    match pooled {
        Some(mut cpu) => {
            cpu.reset();
            Telemetry::global().record_arena_reuse();
            cpu
        }
        None => {
            Telemetry::global().record_arena_build();
            IssueEngine::new(config.clone(), policy)
        }
    }
}

/// Returns an engine to this worker's arena for reuse (dropped if the
/// arena is full). The engine may be dirty — acquisition resets it.
fn release_engine(key: (EngineConfig, IssuePolicy), cpu: IssueEngine) {
    WORKER_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        if arena.len() < ARENA_CAP {
            arena.push((key, cpu));
        }
    });
}

/// Telemetry common to every run that produces a [`RunResult`].
fn record_single_run(cfg: &SimConfig, result: &RunResult, trace: Option<&MemTrace>) {
    Telemetry::global().record_run(result.instructions);
    if cfg.replacement != nbl_core::tag_array::ReplacementKind::default() {
        Telemetry::global().record_policy_run();
    }
    if let Some(t) = trace {
        Telemetry::global().record_events(t.stats.total_events());
    }
}

/// Drives the run (finish + summarize + telemetry) once the tape has been
/// replayed, shared by every tape entry point.
fn finish_single(
    benchmark: &str,
    cfg: &SimConfig,
    static_spill_ops: usize,
    cpu: &mut IssueEngine,
) -> Result<(RunResult, Option<MemTrace>), EngineError> {
    cpu.finish()?;
    let trace = cpu.take_mem_trace();
    let result = summarize(benchmark, cfg, static_spill_ops, cpu);
    record_single_run(cfg, &result, trace.as_ref());
    Ok((result, trace))
}

/// Replays `tape` under `cfg` on an arena engine that `arm` prepares
/// first (the traced entry arms the memory observer there).
fn replay_single(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
    arm: impl FnOnce(&mut IssueEngine),
) -> Result<(RunResult, Option<MemTrace>), EngineError> {
    let engine_config = cfg.engine_config()?;
    let policy = cfg.processor.policy();
    let mut cpu = acquire_engine(&engine_config, policy);
    arm(&mut cpu);
    cpu.run_tape(tape)?;
    let out = finish_single(benchmark, cfg, tape.static_spill_ops(), &mut cpu)?;
    release_engine((engine_config, policy), cpu);
    Ok(out)
}

/// Replays a recorded tape through the single-issue processor under `cfg`
/// (the tape must be the recording of the schedule `cfg.load_latency`
/// compiles to). Produces a
/// [`RunResult`] bit-identical to interpreting the same compiled program.
///
/// # Errors
///
/// [`EngineError`] if `cfg` names an impossible L2 or the engine hit a
/// model invariant violation mid-run.
pub fn run_tape(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<RunResult, EngineError> {
    replay_single(benchmark, tape, cfg, |_| {}).map(|(r, _)| r)
}

/// [`run_tape`] with the memory system's observer armed: the returned
/// [`MemTrace`] holds the [`nbl_mem::event::MissLifecycleStats`]
/// aggregate and one [`nbl_mem::AccessOutcome`] per resolved memory
/// access in program order (the *n*-th outcome belongs to the *n*-th
/// memory operation of the tape — the observation half of the static
/// cache oracle's cross-check, DESIGN.md §18). Observing costs one
/// null-check per emission, so the [`RunResult`] is identical to
/// [`run_tape`]'s.
///
/// # Errors
///
/// As [`run_tape`].
pub fn run_tape_traced(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<(RunResult, MemTrace), EngineError> {
    let (result, trace) = replay_single(benchmark, tape, cfg, IssueEngine::enable_mem_tracing)?;
    Ok((result, trace.unwrap_or_default()))
}

/// Replays one tape through several hardware configurations in a single
/// lockstep walk ([`Core::replay_fused`], the one tape walk of both
/// single-width models, stalling and replaying members alike): the tape's
/// barrier stream is decoded once and each entry is applied to every
/// configuration before moving on, instead of one full traversal per
/// configuration. Configurations that do not share one L1 geometry walk
/// one by one inside that call; a row holding a dual-issue member replays
/// per configuration ([`run_tape`]). Every
/// configuration's latency must compile to the tape's schedule; results
/// are bit-identical to calling [`run_tape`] per configuration, in order.
///
/// # Errors
///
/// [`EngineError`] if any configuration names an impossible L2 or hit a
/// model invariant violation — the whole group is discarded as a unit (no
/// partial results).
pub fn run_tape_fused(
    benchmark: &str,
    tape: &TraceTape,
    cfgs: &[SimConfig],
) -> Result<Vec<RunResult>, EngineError> {
    // The dual pairing loop has no lockstep form: a row holding a dual
    // member replays per configuration instead (identical results, one
    // traversal each).
    if cfgs
        .iter()
        .any(|c| c.processor == ProcessorKind::DualInOrder)
    {
        return cfgs
            .iter()
            .map(|cfg| run_tape(benchmark, tape, cfg))
            .collect();
    }
    let keys = cfgs
        .iter()
        .map(|c| Ok((c.engine_config()?, c.processor.policy())))
        .collect::<Result<Vec<_>, EngineError>>()?;
    let mut cpus: Vec<IssueEngine> = keys
        .iter()
        .map(|(config, policy)| acquire_engine(config, *policy))
        .collect();
    {
        let mut cores: Vec<&mut Core> = cpus.iter_mut().map(IssueEngine::core_mut).collect();
        Core::replay_fused(tape, &mut cores)?;
    }
    let mut results = Vec::with_capacity(cfgs.len());
    for (cpu, cfg) in cpus.iter_mut().zip(cfgs) {
        let (result, _) = finish_single(benchmark, cfg, tape.static_spill_ops(), cpu)?;
        results.push(result);
    }
    for (key, cpu) in keys.into_iter().zip(cpus) {
        release_engine(key, cpu);
    }
    Ok(results)
}

/// Compiles `program` for `cfg.load_latency` through the
/// [`SweepEngine::global`] store and replays its tape ([`run_tape`]):
/// repeated runs of one `(benchmark, latency)` pair — across
/// configurations, experiments, sweeps, or pool workers — share a single
/// compilation, and every latency that compiles to one schedule shares
/// one recording (decoded from a configured disk tier when a prior
/// process persisted it).
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn run_program(program: &Program, cfg: &SimConfig) -> Result<RunResult, SimError> {
    let store = SweepEngine::global().store();
    let compiled = store.get_or_compile(program, cfg.load_latency)?;
    let tape = store.get_or_record(&compiled);
    Ok(run_tape(&program.name, &tape, cfg)?)
}

/// Result of a dual-issue run (paper §6 / Fig. 19).
#[derive(Debug, Clone, PartialEq)]
pub struct DualRunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Hardware configuration label.
    pub config: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles with the real cache.
    pub cycles: u64,
    /// Cycles with a perfect cache (same stream).
    pub perfect_cycles: u64,
    /// Average instructions per cycle on the perfect-cache machine — the
    /// IPC the paper's scaling rule multiplies by.
    pub ipc: f64,
    /// Memory CPI: `(cycles − perfect_cycles) / instructions`.
    pub mcpi: f64,
}

/// Runs `program` on the dual-issue machine, once for real and once with a
/// perfect cache to obtain the machine's ideal cycle count and IPC. Both
/// passes replay one tape served by the process-wide store, exactly as
/// [`run_program`] does: the real pass is [`run_tape`] under
/// [`ProcessorKind::DualInOrder`], and the perfect pass takes a dual
/// engine with `perfect_cache` set from the same worker arena.
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn run_dual(program: &Program, cfg: &SimConfig) -> Result<DualRunResult, SimError> {
    let store = SweepEngine::global().store();
    let compiled = store.get_or_compile(program, cfg.load_latency)?;
    let tape = store.get_or_record(&compiled);
    let dual_cfg = SimConfig {
        processor: ProcessorKind::DualInOrder,
        ..cfg.clone()
    };
    let real = run_tape(&program.name, &tape, &dual_cfg)?;

    let perfect_config = EngineConfig {
        perfect_cache: true,
        ..cfg.engine_config()?
    };
    let mut cpu = acquire_engine(&perfect_config, IssuePolicy::DualInOrder);
    cpu.run_tape(&tape)?;
    cpu.finish()?;
    let perfect_cycles = cpu.now().0;
    release_engine((perfect_config, IssuePolicy::DualInOrder), cpu);
    Telemetry::global().record_run(real.instructions);

    // `IssueEngine::mcpi_against` arithmetic, on the two finished passes.
    let mcpi = if real.instructions == 0 {
        0.0
    } else {
        real.cycles.saturating_sub(perfect_cycles) as f64 / real.instructions as f64
    };
    Ok(DualRunResult {
        benchmark: real.benchmark,
        config: real.config,
        instructions: real.instructions,
        cycles: real.cycles,
        perfect_cycles,
        ipc: real.instructions as f64 / perfect_cycles.max(1) as f64,
        mcpi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use nbl_trace::workloads::{build, Scale};

    fn quick(name: &str, hw: HwConfig) -> RunResult {
        let p = build(name, Scale::quick()).unwrap();
        run_program(&p, &SimConfig::baseline(hw)).unwrap()
    }

    #[test]
    fn blocking_is_worst_for_a_streaming_benchmark() {
        let blocking = quick("tomcatv", HwConfig::Mc0);
        let wma = quick("tomcatv", HwConfig::Mc0Wma);
        let hum = quick("tomcatv", HwConfig::Mc(1));
        let best = quick("tomcatv", HwConfig::NoRestrict);
        assert!(wma.mcpi >= blocking.mcpi, "wma adds store-miss stalls");
        assert!(blocking.mcpi > hum.mcpi, "hit-under-miss must help tomcatv");
        assert!(
            hum.mcpi > best.mcpi,
            "unrestricted must beat hit-under-miss"
        );
        assert!(best.mcpi < 0.5 * blocking.mcpi, "tomcatv overlaps heavily");
    }

    #[test]
    fn stall_breakdown_sums_to_mcpi() {
        let r = quick("doduc", HwConfig::Mc(2));
        let total = r.data_dep_stalls + r.structural_stalls + r.blocking_stalls;
        assert!((r.mcpi - total as f64 / r.instructions as f64).abs() < 1e-9);
        assert!(r.instructions > 10_000);
        assert!(r.cycles >= r.instructions);
    }

    #[test]
    fn miss_rates_counted_for_blocking_caches_too() {
        let blocking = quick("tomcatv", HwConfig::Mc0);
        let best = quick("tomcatv", HwConfig::NoRestrict);
        assert!(blocking.load_miss_rate > 0.05);
        // The unrestricted cache classifies same-line loads issued during
        // a fetch as *secondary misses*; under a blocking cache the fetch
        // completes first and they hit — so its combined rate is at least
        // as high (paper Fig. 8 plots both components for this reason).
        assert!(best.load_miss_rate >= blocking.load_miss_rate - 0.02);
        assert!(best.secondary_miss_rate > 0.0);
        // Blocking caches have nothing in flight.
        assert_eq!(blocking.inflight.max_fetches, 0);
        assert!(best.inflight.max_fetches >= 2);
    }

    #[test]
    fn an_impossible_l2_is_an_error_not_a_panic() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let bad = SimConfig::baseline(HwConfig::Mc(1)).with_l2(3000, 4);
        for result in [
            run_program(&p, &bad).map(|_| ()),
            run_dual(&p, &bad).map(|_| ()),
        ] {
            assert!(matches!(
                result,
                Err(SimError::Engine(EngineError::InvalidL2 {
                    size_bytes: 3000,
                    ..
                }))
            ));
        }
    }

    #[test]
    fn dual_issue_runs_and_reports_ipc() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let d = run_dual(&p, &SimConfig::baseline(HwConfig::NoRestrict)).unwrap();
        assert!(
            d.ipc > 1.0,
            "dual issue must beat 1 IPC on eqntott: {}",
            d.ipc
        );
        assert!(d.ipc <= 2.0);
        assert!(d.mcpi >= 0.0);
        assert!(d.cycles >= d.perfect_cycles);
    }
}
