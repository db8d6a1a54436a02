//! The four benchmark workloads, driven through the public `nbl-sim` API.
//!
//! Every workload is a closed loop with one client: a pass starts only
//! after the previous one has finished. A pass is a list of units, each
//! one engine call on a single-threaded `SweepEngine` (one grid row, or
//! one `policy-model` sweep at one latency); `min(2, nproc)` workers claim
//! the units in a seeded order and time each. Simulated caches start empty
//! in every cell (the paper's method); only the host-side caches (compiled
//! programs, tapes, stored artifacts) are warmed, and only where the
//! workload says so.
//!
//! The traced mode re-executes the same units layer by layer: instead of
//! calling the sweep engine as one black box, it calls each layer's
//! public function itself — compile, tape record, store reads and
//! writes, fused replay — on the same inputs, on the same workers, and
//! wraps every call in a span.

use crate::spans::Recorder;
use nbl_core::fingerprint::{fingerprint_of, StableHasher};
use nbl_core::geometry::CacheGeometry;
use nbl_core::rng::SplitMix64;
use nbl_core::tag_array::ReplacementKind;
use nbl_cpu::core_engine::{EngineConfig, L2Params};
use nbl_cpu::issue::IssueEngine;
use nbl_sched::compile::LOAD_LATENCIES;
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::{run_tape, run_tape_fused, RunResult};
use nbl_sim::pool::JobPool;
use nbl_sim::store::{
    compiled_fingerprint, encode_result, program_fingerprint, result_fingerprint, ArtifactStore,
    DiskTier, StoreStats,
};
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{build, Scale, ALL, DETAILED_FIVE};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Errors are rendered once, where they happen, with the cell or phase.
pub type Res<T> = Result<T, String>;

/// The seed the pinned digests were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// Cells re-checked through the unfused `run_tape` path after each pass.
pub const SAMPLED_CELLS: usize = 16;

/// Cells `sweep-incremental` invalidates in each program: four of its six
/// rows lose two, two, one and one cells. The full grid thus loses 108
/// cells in 72 rows, and every seed reads the same number of tapes.
pub const INVALIDATED_PER_ROW: [usize; 4] = [2, 2, 1, 1];

/// Pass id of the traced run's setup spans.
pub const SETUP_PASS: u32 = 0;

/// Pass id of the traced run's probe spans (cpu/mem split, codec).
pub const PROBE_PASS: u32 = u32::MAX;

/// Salts that keep the seed's uses independent of one another.
const SALT_ORDER: u64 = 1;
const SALT_SAMPLE: u64 = 2;
const SALT_INVALIDATE: u64 = 3;
const SALT_RANDOM_POLICY: u64 = 4;
const SALT_SETUP_ORDER: u64 = 5;

/// Result digests of the default plan, pinned: `(workload, digest of every
/// cell at DEFAULT_SEED, digest of the cells no seed can change)`. The
/// three grid workloads answer the same 864 cells, and no seed changes
/// any of them; `policy-model` seeds its random replacement policy.
const PINNED: [(&str, u64, u64); 4] = [
    ("sweep-warm", 0x7b42_0cbd_78c9_0cea, 0x7b42_0cbd_78c9_0cea),
    ("sweep-cold", 0x7b42_0cbd_78c9_0cea, 0x7b42_0cbd_78c9_0cea),
    (
        "sweep-incremental",
        0x7b42_0cbd_78c9_0cea,
        0x7b42_0cbd_78c9_0cea,
    ),
    ("policy-model", 0x9510_6b3a_aee5_47b8, 0x264c_a7d6_ed6c_275d),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 13 grid replayed from tapes already in memory.
    SweepWarm,
    /// The same grid from scratch over an empty disk store, every pass.
    SweepCold,
    /// The grid answered from a populated store after one cell in eight
    /// has been invalidated.
    SweepIncremental,
    /// Replacement-policy and processor-model sweeps of the detailed five
    /// on an associative L1 with an L2.
    PolicyModel,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::SweepWarm,
        Kind::SweepCold,
        Kind::SweepIncremental,
        Kind::PolicyModel,
    ];

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepWarm => "sweep-warm",
            Kind::SweepCold => "sweep-cold",
            Kind::SweepIncremental => "sweep-incremental",
            Kind::PolicyModel => "policy-model",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn is_grid(self) -> bool {
        self != Kind::PolicyModel
    }

    fn uses_disk(self) -> bool {
        matches!(self, Kind::SweepCold | Kind::SweepIncremental)
    }
}

/// One timed engine call of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// `grid_sweep` of one program at one latency: one grid row.
    Row {
        /// Index into the workload's programs.
        program: usize,
        /// Index into `LOAD_LATENCIES`.
        lat: usize,
    },
    /// `replacement_sweep` of one program at one latency.
    Replacement {
        /// Index into the workload's programs.
        program: usize,
        /// Index into `LOAD_LATENCIES`.
        lat: usize,
    },
    /// `model_sweep` of one program at one latency.
    Model {
        /// Index into the workload's programs.
        program: usize,
        /// Index into `LOAD_LATENCIES`.
        lat: usize,
    },
}

/// What to run: sizes, seed, time budget and where scratch files go.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Program size.
    pub scale: Scale,
    /// Benchmarks of the grid workloads.
    pub grid_benchmarks: Vec<&'static str>,
    /// Benchmarks of `policy-model`.
    pub policy_benchmarks: Vec<&'static str>,
    /// Workers that claim the units (each unit's engine is single-threaded).
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time: passes run until this much time has gone by (one
    /// pass when it is 0).
    pub seconds: f64,
    /// Directory for artifact stores (created and removed by the run).
    pub scratch: PathBuf,
}

/// The untraced run sets up at least `MIN_SETUPS` times, then again until
/// `SETUP_SECONDS` have gone by since the first set-up began, at most
/// `MAX_SETUPS` times, pausing `SETUP_GAP` between set-ups; `setup_s`
/// sums each set-up unit's fastest repetition. A sub-second set-up thus
/// gets many samples, spread over seconds (a core of a shared host can
/// stay slow for a second or two), a store population three.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 3.0;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 1000;
/// See [`MIN_SETUPS`].
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(2);

impl Plan {
    /// The benchmark's plan: full scale, all 18 grid benchmarks, the
    /// detailed five for `policy-model`, `min(2, nproc)` workers.
    pub fn full(seed: u64, seconds: f64, scratch: PathBuf) -> Plan {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Plan {
            scale: Scale::full(),
            grid_benchmarks: ALL.to_vec(),
            policy_benchmarks: DETAILED_FIVE.to_vec(),
            threads: nproc.min(2),
            seed,
            seconds,
            scratch,
        }
    }

    /// Digests are pinned for the full plan only (any seed, thread count
    /// and duration).
    pub fn pinned(&self) -> bool {
        self.scale == Scale::full()
            && self.grid_benchmarks == ALL
            && self.policy_benchmarks == DETAILED_FIVE
    }
}

/// A deterministic stream for one use of the seed.
fn stream(seed: u64, salt: u64, pass: u64) -> SplitMix64 {
    SplitMix64::new(fingerprint_of(&(seed, salt, pass)))
}

/// `k` distinct indices of `0..n` (all of them when `k >= n`), drawn by
/// a partial Fisher–Yates shuffle of the seeded stream, in draw order.
pub fn pick(n: usize, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// The grid cells `sweep-incremental` invalidates before every pass,
/// fixed by the seed: in each of `programs` programs, [`INVALIDATED_PER_ROW`]
/// cells in as many of its rows. Sorted.
pub fn invalidated_cells(seed: u64, programs: usize) -> Vec<usize> {
    let (nl, nc) = (LOAD_LATENCIES.len(), grid_configs().len());
    let mut rng = stream(seed, SALT_INVALIDATE, 0);
    let mut cells = Vec::new();
    for program in 0..programs {
        let rows = pick(nl, INVALIDATED_PER_ROW.len(), &mut rng);
        for (lat, n) in rows.into_iter().zip(INVALIDATED_PER_ROW) {
            let first = (program * nl + lat) * nc;
            cells.extend(pick(nc, n, &mut rng).into_iter().map(|c| first + c));
        }
    }
    cells.sort_unstable();
    cells
}

/// Digest of a result list: the stable fingerprint of every result's
/// artifact encoding, in order.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut h = StableHasher::new();
    for r in results {
        h.write(&encode_result(r));
    }
    h.finish()
}

/// The issue-engine configuration the driver builds for `cfg`, so the
/// traced run can call `IssueEngine::run_tape` directly. The driver's
/// mapping is private: this copies `single_engine_config` and `l2_params`
/// in `crates/sim/src/driver.rs` and must follow them when they change.
/// The probe compares every run's cycle and instruction counts with the
/// driver's result, so a drifted copy fails the traced run.
fn engine_config(cfg: &SimConfig, perfect_cache: bool) -> Res<EngineConfig> {
    let mut cache = cfg.hw.cache_config(cfg.geometry);
    cache.victim_entries = cfg.victim_entries;
    cache.replacement = cfg.replacement;
    let l2 = match cfg.l2 {
        Some((size, hit_penalty)) => Some(L2Params {
            geometry: CacheGeometry::direct_mapped(size, cfg.geometry.line_bytes())
                .map_err(|e| format!("L2 geometry: {e}"))?,
            hit_penalty,
            replacement: cfg.replacement,
        }),
        None => None,
    };
    Ok(EngineConfig {
        cache,
        miss_penalty: cfg.miss_penalty,
        perfect_cache,
        memory_gap: cfg.memory_gap,
        l2,
    })
}

/// One grid cell: a program and the configuration it runs under.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into the workload's programs.
    pub program: usize,
    /// Full simulation configuration.
    pub cfg: SimConfig,
}

/// What one pass produced, in canonical cell order.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Every cell's result.
    pub results: Vec<RunResult>,
    /// Cells simulated (not answered from the store) by this pass.
    pub simulated: Vec<usize>,
    /// Engine passes: each unit's seconds, in unit order.
    pub unit_secs: Vec<f64>,
    /// Traced passes: the tape each replayed `(program, latency)` used.
    pub tapes: BTreeMap<(usize, u32), Arc<TraceTape>>,
    /// Traced passes: artifacts read (`false`) or written (`true`).
    pub io: Vec<(PathBuf, bool)>,
    /// Traced passes: disk-tier counters of the pass's store.
    pub store: StoreStats,
}

/// What one traced row job returns.
type RowOut = (
    Vec<(usize, RunResult, bool)>,
    Option<Arc<TraceTape>>,
    Vec<(PathBuf, bool)>,
);

/// Counts from the real-configuration probe runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCounts {
    /// Loads issued.
    pub loads: u64,
    /// Load misses (primary + secondary + blocking).
    pub load_misses: u64,
    /// Secondary load misses.
    pub secondary_misses: u64,
    /// Stall cycles, all causes.
    pub stall_cycles: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated instructions.
    pub instructions: u64,
}

/// A workload's state between passes.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The plan it runs under.
    pub plan: Plan,
    programs: Vec<Program>,
    /// The units of a pass.
    pub units: Vec<Unit>,
    /// Canonical cell list (the digest order).
    pub cells: Vec<Cell>,
    /// Memory-only engine whose caches setup warmed (warm, policy-model).
    engine: Option<SweepEngine>,
    /// Simulated results every pass must reproduce.
    pub reference: Option<Vec<RunResult>>,
    /// Cells invalidated before every pass (incremental).
    invalidated: Vec<usize>,
    /// Set-ups run so far.
    setups: u64,
}

fn grid_configs() -> Vec<HwConfig> {
    let mut configs = HwConfig::baseline_seven();
    configs.push(HwConfig::InCache);
    configs
}

fn policy_configs() -> [HwConfig; 3] {
    [HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict]
}

fn timed<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<usize>,
    pass: u32,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match rec {
        Some(r) => r.time(name, parent, pass, |id| f(Some(id))),
        None => f(None),
    }
}

impl Workload {
    /// An empty workload; [`Workload::setup`] builds its state.
    pub fn new(kind: Kind, plan: Plan) -> Workload {
        Workload {
            kind,
            plan,
            programs: Vec::new(),
            units: Vec::new(),
            cells: Vec::new(),
            engine: None,
            reference: None,
            invalidated: Vec::new(),
            setups: 0,
        }
    }

    fn benchmarks(&self) -> &[&'static str] {
        if self.kind.is_grid() {
            &self.plan.grid_benchmarks
        } else {
            &self.plan.policy_benchmarks
        }
    }

    fn store_dir(&self) -> PathBuf {
        self.plan.scratch.join("store")
    }

    /// Cells per `(program, latency)` row of the grid.
    fn row_len(&self) -> usize {
        grid_configs().len()
    }

    /// Cells per program of `policy-model`.
    fn policy_cells_per_program(&self) -> usize {
        (4 + ProcessorKind::ALL.len()) * LOAD_LATENCIES.len() * policy_configs().len()
    }

    fn random_policy(&self) -> ReplacementKind {
        ReplacementKind::Random {
            seed: stream(self.plan.seed, SALT_RANDOM_POLICY, 0).next_u64(),
        }
    }

    fn policies(&self) -> [ReplacementKind; 4] {
        [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            self.random_policy(),
            ReplacementKind::TreePlru,
        ]
    }

    fn policy_base() -> Res<SimConfig> {
        let geometry =
            CacheGeometry::new(8 * 1024, 32, 4).map_err(|e| format!("L1 geometry: {e}"))?;
        Ok(SimConfig::baseline(HwConfig::NoRestrict)
            .with_geometry(geometry)
            .with_l2(256 * 1024, 12))
    }

    fn build_cells(&self) -> Res<Vec<Cell>> {
        let mut cells = Vec::new();
        if self.kind.is_grid() {
            let base = SimConfig::baseline(HwConfig::NoRestrict);
            for program in 0..self.programs.len() {
                for &lat in &LOAD_LATENCIES {
                    for hw in grid_configs() {
                        let cfg = SimConfig { hw, ..base.clone() }.at_latency(lat);
                        cells.push(Cell { program, cfg });
                    }
                }
            }
        } else {
            let base = Self::policy_base()?;
            for program in 0..self.programs.len() {
                for policy in self.policies() {
                    for &lat in &LOAD_LATENCIES {
                        for hw in policy_configs() {
                            let cfg = SimConfig { hw, ..base.clone() }
                                .at_latency(lat)
                                .with_replacement(policy);
                            cells.push(Cell { program, cfg });
                        }
                    }
                }
                for model in ProcessorKind::ALL {
                    for &lat in &LOAD_LATENCIES {
                        for hw in policy_configs() {
                            let cfg = SimConfig { hw, ..base.clone() }
                                .at_latency(lat)
                                .with_processor(model);
                            cells.push(Cell { program, cfg });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// The units of a pass, in canonical order: one grid row, or one
    /// `policy-model` sweep at one latency, per program and latency.
    fn build_units(&self) -> Vec<Unit> {
        let mut units = Vec::new();
        for program in 0..self.programs.len() {
            for lat in 0..LOAD_LATENCIES.len() {
                if self.kind.is_grid() {
                    units.push(Unit::Row { program, lat });
                } else {
                    units.push(Unit::Replacement { program, lat });
                    units.push(Unit::Model { program, lat });
                }
            }
        }
        units
    }

    /// The cells `unit` answers, in the order its engine call returns
    /// them.
    pub fn unit_cells(&self, unit: Unit) -> Vec<usize> {
        let (nl, nh) = (LOAD_LATENCIES.len(), policy_configs().len());
        // `policy-model` cells of one program: the four policies, then the
        // models, each latency-major (see `build_cells`).
        let variants = |program: usize, first: usize, count: usize, lat: usize| {
            let base = program * self.policy_cells_per_program();
            (first..first + count)
                .flat_map(|v| (0..nh).map(move |c| base + (v * nl + lat) * nh + c))
                .collect()
        };
        match unit {
            Unit::Row { program, lat } => {
                let first = (program * nl + lat) * self.row_len();
                (first..first + self.row_len()).collect()
            }
            Unit::Replacement { program, lat } => variants(program, 0, 4, lat),
            Unit::Model { program, lat } => variants(program, 4, ProcessorKind::ALL.len(), lat),
        }
    }

    /// One unit's engine call; results in [`Workload::unit_cells`] order.
    fn run_unit(&self, engine: &SweepEngine, unit: Unit) -> Res<Vec<RunResult>> {
        let (Unit::Row { program, lat }
        | Unit::Replacement { program, lat }
        | Unit::Model { program, lat }) = unit;
        let (p, lats) = (&self.programs[program], [LOAD_LATENCIES[lat]]);
        let at = |what: &str, e: &dyn std::fmt::Display| {
            format!("{} {what} @ latency {}: {e}", p.name, lats[0])
        };
        Ok(match unit {
            Unit::Row { .. } => {
                let base = SimConfig::baseline(HwConfig::NoRestrict);
                engine
                    .grid_sweep(&[p], &base, &grid_configs(), &lats)
                    .map_err(|e| at("grid sweep", &e))?
                    .into_iter()
                    .flat_map(|sweep| sweep.rows)
                    .flatten()
                    .collect()
            }
            Unit::Replacement { .. } => engine
                .replacement_sweep(
                    p,
                    &Self::policy_base()?,
                    &self.policies(),
                    &policy_configs(),
                    &lats,
                )
                .map_err(|e| at("replacement sweep", &e))?
                .rows
                .into_iter()
                .flatten()
                .flatten()
                .collect(),
            Unit::Model { .. } => engine
                .model_sweep(
                    p,
                    &Self::policy_base()?,
                    &ProcessorKind::ALL,
                    &policy_configs(),
                    &lats,
                )
                .map_err(|e| at("model sweep", &e))?
                .rows
                .into_iter()
                .flatten()
                .flatten()
                .collect(),
        })
    }

    /// Runs every unit once on the workers, each timed with the engine
    /// it runs on: a fresh single-threaded engine over the disk store
    /// (incremental or not) for the store workloads, else the warmed one.
    /// Returns the results in canonical cell order and each unit's
    /// seconds. With `rec` (the traced set-up's store population), every
    /// unit is also a `setup.populate` span.
    fn run_units(
        &self,
        incremental: bool,
        rec: Option<&Recorder>,
        order: &[usize],
    ) -> Res<(Vec<RunResult>, Vec<f64>)> {
        let pool = JobPool::new(self.plan.threads);
        let parts = pool
            .try_run_order(self.units.len(), order, |u| {
                timed(
                    rec,
                    "setup.populate",
                    None,
                    SETUP_PASS,
                    |_| -> Res<(Vec<RunResult>, f64)> {
                        let t0 = Instant::now();
                        let fresh = self.kind.uses_disk().then(|| self.disk_engine(incremental));
                        let engine = self.engine(fresh.as_ref())?;
                        let results = self.run_unit(engine, self.units[u])?;
                        Ok((results, t0.elapsed().as_secs_f64()))
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        let mut out: Vec<Option<RunResult>> = vec![None; self.cells.len()];
        let mut secs = Vec::with_capacity(parts.len());
        for (&unit, part) in self.units.iter().zip(parts) {
            let (results, s): (Vec<RunResult>, f64) = part?;
            let cells = self.unit_cells(unit);
            if results.len() != cells.len() {
                return Err(format!("{unit:?} answered {} cells", results.len()));
            }
            for (i, r) in cells.into_iter().zip(results) {
                out[i] = Some(r);
            }
            secs.push(s);
        }
        let results = out
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a pass left cells unanswered")?;
        Ok((results, secs))
    }

    /// The order the workers claim the units of pass `pass` in: seeded,
    /// and new every pass, so that over a run each unit lands on every
    /// worker (and whatever core the host gives it) in turn.
    pub fn claim_order(&self, pass: u64) -> Vec<usize> {
        let n = self.units.len();
        pick(n, n, &mut stream(self.plan.seed, SALT_ORDER, pass))
    }

    /// The claim order of `n` set-up units, new every set-up.
    fn setup_order(&self, n: usize) -> Vec<usize> {
        pick(
            n,
            n,
            &mut stream(self.plan.seed, SALT_SETUP_ORDER, self.setups),
        )
    }

    /// Drops everything setup built but the reference (untimed, between
    /// set-up repetitions).
    pub fn teardown(&mut self) {
        self.engine = None;
        self.programs.clear();
        let _ = std::fs::remove_dir_all(self.store_dir());
    }

    /// Builds the programs and warms what the workload keeps warm.
    /// Returns the set-up's unit seconds: the program build, then one per
    /// warmed `(program, latency)` pair or populated grid row.
    ///
    /// # Errors
    ///
    /// Unknown benchmark, compile or simulation failure.
    pub fn setup(&mut self, rec: Option<&Recorder>) -> Res<Vec<f64>> {
        let scale = self.plan.scale;
        let names: Vec<&'static str> = self.benchmarks().to_vec();
        let t0 = Instant::now();
        self.programs = timed(rec, "trace.build", None, SETUP_PASS, |_| {
            names
                .iter()
                .map(|n| build(n, scale).ok_or_else(|| format!("unknown benchmark {n}")))
                .collect::<Res<Vec<_>>>()
        })?;
        let mut secs = vec![t0.elapsed().as_secs_f64()];
        self.units = self.build_units();
        self.cells = self.build_cells()?;
        match self.kind {
            Kind::SweepWarm | Kind::PolicyModel => {
                let engine = SweepEngine::new(1);
                secs.extend(self.warm(&engine, rec)?);
                self.engine = Some(engine);
            }
            // Nothing to warm: the first timed pass gives the reference.
            Kind::SweepCold => {}
            Kind::SweepIncremental => {
                let _ = std::fs::remove_dir_all(self.store_dir());
                let order = self.setup_order(self.units.len());
                let (results, populate) = self.run_units(false, rec, &order)?;
                secs.extend(populate);
                if self.reference.get_or_insert(results.clone()) != &results {
                    return Err("a store population differs from the first".into());
                }
                self.invalidated = invalidated_cells(self.plan.seed, self.programs.len());
            }
        }
        self.setups += 1;
        Ok(secs)
    }

    /// Compiles and records every `(program, latency)` pair into the
    /// engine's memory tier; returns each pair's seconds.
    fn warm(&self, engine: &SweepEngine, rec: Option<&Recorder>) -> Res<Vec<f64>> {
        let nl = LOAD_LATENCIES.len();
        let store = engine.store();
        let n = self.programs.len() * nl;
        JobPool::new(self.plan.threads)
            .try_run_order(n, &self.setup_order(n), |i| -> Res<f64> {
                let (program, lat) = (&self.programs[i / nl], LOAD_LATENCIES[i % nl]);
                let t0 = Instant::now();
                let compiled = timed(rec, "sched.compile", None, SETUP_PASS, |_| {
                    store.get_or_compile(program, lat)
                })
                .map_err(|e| format!("{} @ latency {lat}: {e}", program.name))?;
                timed(rec, "trace.record", None, SETUP_PASS, |_| {
                    store.get_or_record(&compiled)
                });
                Ok(t0.elapsed().as_secs_f64())
            })
            .map_err(|e| e.to_string())?
            .into_iter()
            .collect()
    }

    /// Untimed preparation before a pass: an empty store for
    /// `sweep-cold`; for `sweep-incremental`, deleting the invalidated
    /// cells' result artifacts (the previous pass wrote them back).
    ///
    /// # Errors
    ///
    /// A result artifact that cannot be deleted.
    pub fn prepare(&self) -> Res<()> {
        match self.kind {
            Kind::SweepCold => {
                let _ = std::fs::remove_dir_all(self.store_dir());
            }
            Kind::SweepIncremental => {
                let disk = DiskTier::new(self.store_dir());
                for &i in &self.invalidated {
                    let cell = &self.cells[i];
                    let program = &self.programs[cell.program];
                    let fp = result_fingerprint(program_fingerprint(program), &cell.cfg);
                    let path = disk.result_path(&program.name, cell.cfg.load_latency, fp);
                    std::fs::remove_file(&path)
                        .map_err(|e| format!("invalidating {}: {e}", path.display()))?;
                }
            }
            Kind::SweepWarm | Kind::PolicyModel => {}
        }
        Ok(())
    }

    /// Cells the engine simulates in a pass (the rest are store hits).
    fn simulated_cells(&self) -> Vec<usize> {
        match self.kind {
            Kind::SweepIncremental => self.invalidated.clone(),
            _ => (0..self.cells.len()).collect(),
        }
    }

    /// A fresh store over the scratch directory, for the workloads that
    /// run each pass on one (incremental for `sweep-incremental`).
    fn disk_store(&self) -> Option<ArtifactStore> {
        let incremental = self.kind == Kind::SweepIncremental;
        self.kind
            .uses_disk()
            .then(|| ArtifactStore::with_disk(self.store_dir(), incremental))
    }

    /// A fresh single-threaded engine over the disk store.
    fn disk_engine(&self, incremental: bool) -> SweepEngine {
        SweepEngine::with_store(1, ArtifactStore::with_disk(self.store_dir(), incremental))
    }

    /// An engine that fetches the tapes of a finished pass: the warmed one
    /// (`None`), or a fresh one over the disk store.
    pub fn check_engine(&self) -> Option<SweepEngine> {
        self.kind
            .uses_disk()
            .then(|| self.disk_engine(self.kind == Kind::SweepIncremental))
    }

    /// Timed pass `pass` through the sweep engine: every unit once.
    ///
    /// # Errors
    ///
    /// Any engine error.
    pub fn pass(&self, pass: u64) -> Res<PassOut> {
        let incremental = self.kind == Kind::SweepIncremental;
        let (results, unit_secs) = self.run_units(incremental, None, &self.claim_order(pass))?;
        Ok(PassOut {
            results,
            simulated: self.simulated_cells(),
            unit_secs,
            ..PassOut::default()
        })
    }

    /// The tape a cell replays, fetched through `engine`'s store.
    pub fn engine_tape(&self, engine: &SweepEngine, cell: usize) -> Res<Arc<TraceTape>> {
        let c = &self.cells[cell];
        let program = &self.programs[c.program];
        let compiled = engine
            .store()
            .get_or_compile(program, c.cfg.load_latency)
            .map_err(|e| format!("{}: {e}", program.name))?;
        Ok(engine.store().get_or_record(&compiled))
    }

    /// `fresh` (a per-unit or checking engine) or the one set-up warmed.
    ///
    /// # Errors
    ///
    /// Neither exists: the workload has not been set up.
    pub fn engine<'a>(&'a self, fresh: Option<&'a SweepEngine>) -> Res<&'a SweepEngine> {
        fresh
            .or(self.engine.as_ref())
            .ok_or_else(|| "pass before setup".to_string())
    }

    /// Checks a pass: every cell equals the reference; a seeded sample of
    /// simulated cells replayed one by one through `run_tape` equals the
    /// pass's answer. Returns the failed cells (sorted, distinct).
    ///
    /// # Errors
    ///
    /// A tape that cannot be fetched for a sampled cell.
    pub fn check(
        &self,
        pass: u64,
        out: &PassOut,
        tape: &dyn Fn(usize) -> Res<Arc<TraceTape>>,
    ) -> Res<Vec<usize>> {
        let mut failed = vec![false; self.cells.len()];
        if out.results.len() != self.cells.len() {
            return Ok((0..self.cells.len()).collect());
        }
        if let Some(reference) = &self.reference {
            for (i, (r, want)) in out.results.iter().zip(reference).enumerate() {
                failed[i] |= r != want;
            }
        }
        let mut rng = stream(self.plan.seed, SALT_SAMPLE, pass);
        for k in pick(out.simulated.len(), SAMPLED_CELLS, &mut rng) {
            let i = out.simulated[k];
            let cell = &self.cells[i];
            let name = &self.programs[cell.program].name;
            let tape = tape(i)?;
            let single = run_tape(name, &tape, &cell.cfg);
            failed[i] |= !matches!(single, Ok(r) if r == out.results[i]);
        }
        Ok((0..failed.len()).filter(|&i| failed[i]).collect())
    }

    /// `(digest of every cell, digest of the cells no seed changes)` of
    /// the reference results.
    pub fn digests(&self) -> Option<(u64, u64)> {
        let reference = self.reference.as_ref()?;
        let fixed = reference
            .iter()
            .zip(&self.cells)
            .filter(|(_, c)| !matches!(c.cfg.replacement, ReplacementKind::Random { .. }))
            .map(|(r, _)| r);
        Some((digest(reference), digest(fixed)))
    }

    /// Compares the reference digests with the pinned ones. `Ok` with a
    /// note when the plan does not pin digests.
    pub fn check_digests(&self) -> Result<String, String> {
        let Some((full, fixed)) = self.digests() else {
            return Err("no reference results".into());
        };
        let shown = format!("digest {full:016x}, seed-independent {fixed:016x}");
        if !self.plan.pinned() {
            return Ok(format!("{shown} (not pinned at this scale)"));
        }
        let Some(&(_, pin_full, pin_fixed)) =
            PINNED.iter().find(|(name, _, _)| *name == self.kind.name())
        else {
            return Err(format!("{shown}: no pinned digest"));
        };
        let full_ok = self.plan.seed != DEFAULT_SEED || full == pin_full;
        if fixed == pin_fixed && full_ok {
            Ok(format!("{shown} (matches the pinned digest)"))
        } else {
            Err(format!(
                "{shown} differs from the pinned {pin_full:016x} / {pin_fixed:016x}"
            ))
        }
    }

    /// Number of simulated instructions in `cells` of `out`.
    pub fn instructions(out: &PassOut, cells: &[usize]) -> u64 {
        cells.iter().map(|&i| out.results[i].instructions).sum()
    }

    // -----------------------------------------------------------------
    // Traced mode: the same pass, one layer call at a time
    // -----------------------------------------------------------------

    /// One traced pass: the pass's work re-executed through each layer's
    /// public functions, every call wrapped in a span under `pass`.
    ///
    /// # Errors
    ///
    /// Any layer error.
    pub fn traced_pass(&self, rec: &Recorder, pass: u32) -> Res<PassOut> {
        let pool = JobPool::new(self.plan.threads);
        let fresh = self.disk_store();
        let warm = self.engine.as_ref().map(SweepEngine::store);
        let store = warm.or(fresh.as_ref()).ok_or("traced pass before setup")?;
        let program_fps: Vec<Option<u64>> = self
            .programs
            .iter()
            .map(|p| store.disk().map(|_| program_fingerprint(p)))
            .collect();
        let pass_span = rec.enter("sweep.pass", None, pass);
        // The engine pass's units, claimed in a seeded order: one job each.
        let call = rec.enter("pool.call", Some(pass_span), pass);
        let parts = pool
            .try_run_order(self.units.len(), &self.claim_order(pass.into()), |u| {
                rec.time("sweep.job", Some(call), pass, |job| match self.units[u] {
                    Unit::Row { program, lat } => {
                        let fp = program_fps[program];
                        self.traced_row(rec, pass, job, store, program, lat, fp)
                    }
                    unit => self.traced_cells(rec, pass, job, store, unit),
                })
            })
            .map_err(|e| e.to_string());
        rec.exit(call);
        rec.exit(pass_span);
        let mut out = self.assemble(parts?)?;
        out.store = store.disk_stats();
        Ok(out)
    }

    /// One grid row, layer by layer. The call sequence copies the engine's
    /// private `SweepEngine::run_row_span` and the store's tape and result
    /// paths (`crates/sim/src/sweep.rs`, `crates/sim/src/store.rs`): stored
    /// results when incremental, then compile, tape read or record and
    /// write, fused replay of the missing configurations, result writes.
    /// Every traced pass is checked against the engine's reference, so a
    /// copy that drifts in its answers fails the run; one that drifts only
    /// in its call sequence would go unseen.
    #[allow(clippy::too_many_arguments)]
    fn traced_row(
        &self,
        rec: &Recorder,
        pass: u32,
        job: usize,
        store: &ArtifactStore,
        p: usize,
        l: usize,
        program_fp: Option<u64>,
    ) -> Res<RowOut> {
        let program = &self.programs[p];
        let lat = LOAD_LATENCIES[l];
        let nc = self.row_len();
        let first = (p * LOAD_LATENCIES.len() + l) * nc;
        let cfgs: Vec<SimConfig> = self.cells[first..first + nc]
            .iter()
            .map(|c| c.cfg.clone())
            .collect();
        let span = |name, f: &mut dyn FnMut()| rec.time(name, Some(job), pass, |_| f());
        let mut io = Vec::new();
        let mut row: Vec<Option<RunResult>> = vec![None; nc];
        let fps: Option<Vec<u64>> =
            program_fp.map(|pfp| cfgs.iter().map(|c| result_fingerprint(pfp, c)).collect());
        let disk = store.disk();
        if let (true, Some(disk), Some(fps)) = (store.incremental(), disk, &fps) {
            span("store.result_read", &mut || {
                for (slot, &fp) in row.iter_mut().zip(fps) {
                    *slot = disk.load_result(&program.name, lat, fp);
                }
            });
            for (slot, &fp) in row.iter().zip(fps) {
                if slot.is_some() {
                    io.push((disk.result_path(&program.name, lat, fp), false));
                }
            }
        }
        let missing: Vec<usize> = (0..nc).filter(|&j| row[j].is_none()).collect();
        if missing.is_empty() {
            let results = row.into_iter().flatten().enumerate();
            return Ok((
                results.map(|(j, r)| (first + j, r, false)).collect(),
                None,
                io,
            ));
        }
        let mut compiled = Err(String::new());
        let mut compile = || {
            compiled = store
                .get_or_compile(program, lat)
                .map_err(|e| format!("{} @ latency {lat}: {e}", program.name));
        };
        let tape = match disk {
            // Memory tier only (sweep-warm): compiled programs and tapes
            // are cache hits, left to the job's own time.
            None => {
                compile();
                let compiled = compiled?;
                store.get_or_record(&compiled)
            }
            Some(disk) => {
                span("sched.compile", &mut compile);
                let compiled = compiled?;
                let cfp = compiled_fingerprint(&compiled);
                let mut loaded = None;
                span("store.tape_read", &mut || {
                    loaded = disk.load_tape(&program.name, lat, cfp);
                });
                let path = disk.tape_path(&program.name, lat, cfp);
                match loaded {
                    Some(t) => {
                        io.push((path, false));
                        Arc::new(t)
                    }
                    None => {
                        let mut recorded = None;
                        span("trace.record", &mut || {
                            recorded = Some(TraceTape::record(&compiled));
                        });
                        let recorded = recorded.ok_or("record span did not run")?;
                        span("store.tape_write", &mut || {
                            let _ = disk.write_tape(&recorded, cfp);
                        });
                        io.push((path, true));
                        Arc::new(recorded)
                    }
                }
            }
        };
        let missing_cfgs: Vec<SimConfig> = missing.iter().map(|&j| cfgs[j].clone()).collect();
        let mut fresh = Err(String::new());
        span("driver.replay", &mut || {
            fresh = run_tape_fused(&program.name, &tape, &missing_cfgs)
                .map_err(|e| format!("{} @ latency {lat}: {e}", program.name));
        });
        let fresh = fresh?;
        if let (Some(disk), Some(fps)) = (disk, &fps) {
            span("store.result_write", &mut || {
                for (&j, r) in missing.iter().zip(&fresh) {
                    let _ = disk.write_result(r, fps[j]);
                }
            });
            for &j in &missing {
                io.push((disk.result_path(&program.name, lat, fps[j]), true));
            }
        }
        let mut simulated = vec![false; nc];
        for (&j, r) in missing.iter().zip(fresh) {
            row[j] = Some(r);
            simulated[j] = true;
        }
        let results = row
            .into_iter()
            .enumerate()
            .filter_map(|(j, r)| r.map(|r| (first + j, r, simulated[j])))
            .collect();
        Ok((results, Some(tape), io))
    }

    /// One `policy-model` unit, cell by cell through `run_tape` (the
    /// engine's per-cell path for these sweeps).
    fn traced_cells(
        &self,
        rec: &Recorder,
        pass: u32,
        job: usize,
        store: &ArtifactStore,
        unit: Unit,
    ) -> Res<RowOut> {
        let mut results = Vec::new();
        let mut tape = None;
        for i in self.unit_cells(unit) {
            let cell = &self.cells[i];
            let program = &self.programs[cell.program];
            let compiled = store
                .get_or_compile(program, cell.cfg.load_latency)
                .map_err(|e| format!("{}: {e}", program.name))?;
            let t = store.get_or_record(&compiled);
            let r = rec
                .time("driver.replay", Some(job), pass, |_| {
                    run_tape(&program.name, &t, &cell.cfg)
                })
                .map_err(|e| format!("{} cell {i}: {e}", program.name))?;
            results.push((i, r, true));
            tape = Some(t);
        }
        Ok((results, tape, Vec::new()))
    }

    fn assemble(&self, parts: Vec<Res<RowOut>>) -> Res<PassOut> {
        let mut out: Vec<Option<RunResult>> = vec![None; self.cells.len()];
        let mut pass = PassOut::default();
        for part in parts {
            let (results, tape, io) = part?;
            for (i, r, simulated) in results {
                if simulated {
                    pass.simulated.push(i);
                }
                if let Some(t) = &tape {
                    let key = (self.cells[i].program, self.cells[i].cfg.load_latency);
                    pass.tapes.entry(key).or_insert_with(|| Arc::clone(t));
                }
                out[i] = Some(r);
            }
            pass.io.extend(io);
        }
        pass.simulated.sort_unstable();
        pass.results = out
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("traced pass left cells unanswered")?;
        Ok(pass)
    }

    /// The tape a traced pass used for cell `i`.
    pub fn traced_tape(&self, out: &PassOut, i: usize) -> Res<Arc<TraceTape>> {
        let c = &self.cells[i];
        out.tapes
            .get(&(c.program, c.cfg.load_latency))
            .cloned()
            .ok_or_else(|| format!("cell {i} has no tape in the traced pass"))
    }

    /// The cpu/mem probe: every simulated cell of `out` run through
    /// `IssueEngine::run_tape` twice, with a perfect cache (`cpu.issue`)
    /// and with the real one (`mem.real_issue`). Returns the summed counts
    /// of the real runs and the cells whose cycle count disagrees with the
    /// pass's result.
    ///
    /// # Errors
    ///
    /// An engine error in either run.
    pub fn probe(&self, rec: &Recorder, out: &PassOut) -> Res<(MemCounts, Vec<usize>)> {
        let pool = JobPool::new(self.plan.threads);
        let cells = &out.simulated;
        let call = rec.enter("pool.call", None, PROBE_PASS);
        let runs = pool.try_run(cells.len(), |k| -> Res<MemCounts> {
            let i = cells[k];
            let cell = &self.cells[i];
            let tape = self.traced_tape(out, i)?;
            let policy = cell.cfg.processor.policy();
            let issue = |perfect: bool| -> Res<IssueEngine> {
                let mut e = IssueEngine::new(engine_config(&cell.cfg, perfect)?, policy);
                e.run_tape(&tape).map_err(|e| e.to_string())?;
                e.finish().map_err(|e| e.to_string())?;
                Ok(e)
            };
            rec.time("cpu.issue", Some(call), PROBE_PASS, |_| issue(true))?;
            let real = rec.time("mem.real_issue", Some(call), PROBE_PASS, |_| issue(false))?;
            let stats = real.stats();
            let counters = real.cache().counters();
            Ok(MemCounts {
                loads: stats.loads,
                load_misses: counters.load_primary_misses
                    + counters.load_secondary_misses
                    + stats.blocking_load_misses,
                secondary_misses: counters.load_secondary_misses,
                stall_cycles: stats.total_stall_cycles(),
                cycles: real.now().0,
                instructions: stats.instructions,
            })
        });
        rec.exit(call);
        let mut sum = MemCounts::default();
        let mut mismatched = Vec::new();
        for (&i, run) in cells.iter().zip(runs.map_err(|e| e.to_string())?) {
            let m = run?;
            if m.cycles != out.results[i].cycles || m.instructions != out.results[i].instructions {
                mismatched.push(i);
            }
            sum.loads += m.loads;
            sum.load_misses += m.load_misses;
            sum.secondary_misses += m.secondary_misses;
            sum.stall_cycles += m.stall_cycles;
            sum.cycles += m.cycles;
            sum.instructions += m.instructions;
        }
        if self.kind.uses_disk() {
            // The codec's share of the store calls: the same tapes
            // encoded and decoded outside the pass.
            for tape in out.tapes.values() {
                let bytes = rec.time("trace.encode", None, PROBE_PASS, |_| tape.to_bytes());
                let back = rec.time("trace.decode", None, PROBE_PASS, |_| {
                    TraceTape::from_bytes(&bytes)
                });
                if back.as_ref() != Ok(tape.as_ref()) {
                    return Err(format!("tape {} does not survive the codec", tape.name()));
                }
            }
        }
        Ok((sum, mismatched))
    }
}

/// Total size in bytes of the artifacts in `io` with direction `written`.
pub fn artifact_bytes(io: &[(PathBuf, bool)], written: bool) -> u64 {
    io.iter()
        .filter(|(_, w)| *w == written)
        .filter_map(|(p, _)| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Removes `dir` when dropped (scratch stores never outlive the run).
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the shared parent once it is empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_invalidation_picks_exactly_108_distinct_cells() {
        let (nl, nc) = (LOAD_LATENCIES.len(), grid_configs().len());
        assert_eq!(ALL.len() * nl * nc, 864);
        let a = invalidated_cells(7, ALL.len());
        assert_eq!(
            a,
            invalidated_cells(7, ALL.len()),
            "deterministic for a seed"
        );
        let mut distinct = a.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 108, "108 distinct cells");
        assert!(distinct.iter().all(|&i| i < 864));
        let mut rows: Vec<usize> = a.iter().map(|&i| i / nc).collect();
        rows.dedup();
        assert_eq!(rows.len(), 72, "in 72 rows");
        for program in 0..ALL.len() {
            let mine = a.iter().filter(|&&i| i / (nl * nc) == program).count();
            assert_eq!(mine, 6, "six cells of program {program}");
        }
        assert_ne!(
            a,
            invalidated_cells(8, ALL.len()),
            "another seed, other cells"
        );
        assert_eq!(pick(5, 9, &mut stream(1, 0, 0)).len(), 5, "k capped at n");
    }

    #[test]
    fn units_answer_every_cell_once() {
        for kind in [Kind::SweepWarm, Kind::PolicyModel] {
            let mut w = Workload::new(
                kind,
                Plan {
                    scale: Scale {
                        instr_target: 2_000,
                    },
                    grid_benchmarks: vec!["doduc", "eqntott"],
                    policy_benchmarks: vec!["doduc", "eqntott"],
                    threads: 1,
                    seed: 3,
                    seconds: 0.0,
                    scratch: PathBuf::new(),
                },
            );
            w.setup(None).expect("setup");
            let mut cells: Vec<usize> = w.units.iter().flat_map(|&u| w.unit_cells(u)).collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..w.cells.len()).collect::<Vec<_>>(), "{kind:?}");
            let mut order = w.claim_order(4);
            assert_ne!(order, w.claim_order(5), "a new order every pass");
            order.sort_unstable();
            assert_eq!(order, (0..w.units.len()).collect::<Vec<_>>(), "{kind:?}");
        }
    }
}
