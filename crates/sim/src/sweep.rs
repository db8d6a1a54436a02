//! Parameter sweeps: the experiment shapes the paper's figures are built
//! from. A [`Sweep`] is configurations × one x axis ([`Axis`]: scheduled
//! load latency for Figs. 5, 9–12 and 15–17, miss penalty for Fig. 18);
//! a [`PlaneSweep`] adds one outer axis ([`PlaneAxis`]: replacement
//! policy or processor model) for the `replsens` and `replaymodel`
//! exhibits.
//!
//! Compilation is shared across hardware configurations — the compiled
//! program depends only on the load latency, so each (benchmark, latency)
//! pair is compiled once and replayed under every configuration, exactly
//! as the paper replays each binary.

use crate::config::{HwConfig, ProcessorKind, SimConfig};
use crate::driver::{run_tape, run_tape_fused, RunResult, SimError};
use crate::pool::JobPool;
use crate::store::{program_fingerprint, result_fingerprint, ArtifactStore};
use nbl_core::tag_array::ReplacementKind;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use std::sync::{Arc, OnceLock};

/// The x axis of a [`Sweep`]: what changes from one row to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Scheduled load latency (Figs. 5, 9–12, 15–17): each row replays
    /// the schedule its latency compiles to.
    LoadLatency,
    /// Miss penalty at the base configuration's load latency (Fig. 18):
    /// every row replays one schedule.
    MissPenalty,
}

impl Axis {
    /// The configuration of the row at `point` on this axis.
    fn row(self, base: &SimConfig, point: u32) -> SimConfig {
        match self {
            Axis::LoadLatency => base.clone().at_latency(point),
            Axis::MissPenalty => base.clone().with_penalty(point),
        }
    }

    /// The header of the axis column in a sweep's CSV.
    pub fn csv_header(self) -> &'static str {
        match self {
            Axis::LoadLatency => "load_latency",
            Axis::MissPenalty => "miss_penalty",
        }
    }

    /// The `kind` of a sweep's JSON document.
    pub fn json_kind(self) -> &'static str {
        match self {
            Axis::LoadLatency => "latency_sweep",
            Axis::MissPenalty => "penalty_sweep",
        }
    }

    /// The key of the axis values in a sweep's JSON document.
    pub fn json_key(self) -> &'static str {
        match self {
            Axis::LoadLatency => "load_latencies",
            Axis::MissPenalty => "miss_penalties",
        }
    }
}

/// One benchmark's results for configurations × one axis: MCPI-vs-latency
/// curves (Figs. 5, 9–12, 15–17) or the MCPI-vs-penalty table (Fig. 18).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Benchmark name.
    pub benchmark: String,
    /// What the points measure.
    pub axis: Axis,
    /// Configuration labels, in input order (one curve each).
    pub configs: Vec<String>,
    /// The axis values swept, in input order.
    pub points: Vec<u32>,
    /// `rows[i][j]` = result at `points[i]` under `configs[j]`.
    pub rows: Vec<Vec<RunResult>>,
}

impl Sweep {
    /// The sweep of `program` over `configs` × `points`, from its rows.
    fn of(
        program: &Program,
        axis: Axis,
        configs: &[HwConfig],
        points: &[u32],
        rows: Vec<Vec<RunResult>>,
    ) -> Sweep {
        Sweep {
            benchmark: program.name.clone(),
            axis,
            configs: configs.iter().map(HwConfig::label).collect(),
            points: points.to_vec(),
            rows,
        }
    }

    /// The MCPI curve (along the axis) of configuration index `j`.
    pub fn curve(&self, j: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r[j].mcpi).collect()
    }

    /// Result lookup by configuration label and axis value.
    pub fn at(&self, config: &str, point: u32) -> Option<&RunResult> {
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.points.iter().position(|&p| p == point)?;
        Some(&self.rows[i][j])
    }
}

/// The outer axis of a [`PlaneSweep`]: what changes from one plane to
/// the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneAxis {
    /// Replacement policy (the `replsens` exhibit).
    Policy,
    /// Processor model (the `replaymodel` exhibit).
    Model,
}

impl PlaneAxis {
    /// The header of the plane column in a plane sweep's CSV.
    pub fn csv_column(self) -> &'static str {
        match self {
            PlaneAxis::Policy => "policy",
            PlaneAxis::Model => "model",
        }
    }

    /// The `kind` of a plane sweep's JSON document.
    pub fn json_kind(self) -> &'static str {
        match self {
            PlaneAxis::Policy => "replacement_sweep",
            PlaneAxis::Model => "model_sweep",
        }
    }

    /// The key of the plane labels in a plane sweep's JSON document.
    pub fn json_key(self) -> &'static str {
        match self {
            PlaneAxis::Policy => "policies",
            PlaneAxis::Model => "models",
        }
    }

    /// The title of a plane sweep's per-configuration tables.
    pub fn title(self) -> &'static str {
        match self {
            PlaneAxis::Policy => "miss CPI by replacement policy",
            PlaneAxis::Model => "miss CPI by processor model",
        }
    }
}

/// One benchmark's plane × MSHR configuration × load latency grid: the
/// replacement-policy (`figures replsens`) and processor-model
/// (`figures replaymodel`) sensitivity exhibits.
#[derive(Debug, Clone)]
pub struct PlaneSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// What the planes vary.
    pub plane_axis: PlaneAxis,
    /// Plane labels, in input order.
    pub planes: Vec<String>,
    /// Configuration labels.
    pub configs: Vec<String>,
    /// Latencies swept.
    pub latencies: Vec<u32>,
    /// `rows[p][i][j]` = result in `planes[p]` at `latencies[i]` under
    /// `configs[j]`.
    pub rows: Vec<Vec<Vec<RunResult>>>,
}

impl PlaneSweep {
    /// Result lookup by plane label, configuration label and latency.
    pub fn at(&self, plane: &str, config: &str, latency: u32) -> Option<&RunResult> {
        let p = self.planes.iter().position(|x| x == plane)?;
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.latencies.iter().position(|&l| l == latency)?;
        Some(&self.rows[p][i][j])
    }
}

/// One fusion-aware scheduling unit: configurations `lo..hi` of fused
/// row `row` (a program under one row configuration). Produced by
/// [`plan_row_spans`]; each span replays its slice in one fused walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSpan {
    /// Row index, in the order the rows were given.
    row: usize,
    /// First configuration index of the slice (inclusive).
    lo: usize,
    /// Last configuration index of the slice (exclusive).
    hi: usize,
}

/// Splits each fused row into contiguous configuration spans sized by the
/// row's barrier weight, so a multi-thread pool schedules comparable work
/// units instead of whole rows. A row whose share of the grid's total
/// work exceeds one target-unit is split into proportionally many spans
/// (capped at one configuration per span); light rows stay whole. Spans
/// are emitted row-major (`row` ascending, `lo` ascending) so callers can
/// stitch rows back by a single scan.
fn plan_row_spans(weights: &[u64], nc: usize, threads: usize) -> Vec<RowSpan> {
    debug_assert!(nc > 0, "spans need at least one configuration");
    let row_work = |w: u64| w.saturating_mul(nc as u64).max(1);
    let total: u64 = weights.iter().map(|&w| row_work(w)).sum();
    // Aim for ~4 units per worker (the chunked queue's oversubscription
    // factor) so claim-order balancing has slack without shrinking units
    // into per-cell jobs that would repay the fusion win.
    let target = (total / (threads as u64 * 4).max(1)).max(1);
    let mut spans = Vec::with_capacity(weights.len());
    for (row, &w) in weights.iter().enumerate() {
        let work = row_work(w);
        let parts = (work.div_ceil(target)).clamp(1, nc as u64) as usize;
        let (base_len, extra) = (nc / parts, nc % parts);
        let mut lo = 0;
        for p in 0..parts {
            let len = base_len + usize::from(p < extra);
            spans.push(RowSpan {
                row,
                lo,
                hi: lo + len,
            });
            lo += len;
        }
        debug_assert_eq!(lo, nc, "spans tile the row exactly");
    }
    spans
}

/// The longest-processing-time claim order for `spans`: unit indices
/// sorted by descending estimated work (row weight × slice width), ties
/// broken by input order (the sort is stable), so heavy units start
/// first and nothing heavy lands last on a drained pool.
fn span_claim_order(spans: &[RowSpan], weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&u| {
        let s = &spans[u];
        std::cmp::Reverse(weights[s.row].saturating_mul((s.hi - s.lo) as u64))
    });
    order
}

/// The parallel sweep engine: a [`JobPool`] plus an [`ArtifactStore`]
/// (exactly-once compiled programs and tapes in memory, optionally
/// backed by the content-addressed disk tier).
///
/// Sweeps flatten their grids into a single pool invocation; each cell
/// fetches its compiled program from the store (compiled exactly once per
/// `(benchmark, latency)` pair)
/// and the recorded tape through the store's tiers (the dynamic stream is
/// materialized exactly once per compiled schedule, which latencies past
/// a block's slack share — decoded from disk when a prior process
/// persisted it), then replays the tape under its own hardware
/// configuration — record once, replay at every grid point. With a disk
/// tier every cell's [`RunResult`] also writes through under its input
/// fingerprint; in incremental mode
/// ([`ArtifactStore::incremental`]) cells whose fingerprints are
/// unchanged are answered from those stored results without simulating.
/// The pool places results in input order, so a sweep returns
/// [`RunResult`]s **identical** at every thread count and identical to
/// running each cell alone ([`Self::run_many`]).
#[derive(Debug, Default)]
pub struct SweepEngine {
    pool: JobPool,
    store: ArtifactStore,
}

impl SweepEngine {
    /// An engine with `threads` workers and a fresh memory-only store.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: JobPool::new(threads),
            store: ArtifactStore::in_memory(),
        }
    }

    /// An engine with `threads` workers running on an explicit store
    /// (the bench exhibit's disk-warm pass builds a fresh engine on a
    /// populated store to model a fresh process).
    pub fn with_store(threads: usize, store: ArtifactStore) -> Self {
        Self {
            pool: JobPool::new(threads),
            store,
        }
    }

    /// The process-wide engine: default thread count (`NBL_THREADS` or the
    /// machine's parallelism) and a store wired from
    /// [`crate::store::store_settings`] (CLI flags or `NBL_STORE_DIR` /
    /// `NBL_INCREMENTAL`), shared across every sweep and the driver's
    /// program-level entries ([`crate::driver::run_program`] and kin), so
    /// a whole bench invocation compiles each pair and records each
    /// schedule at most once.
    pub fn global() -> &'static SweepEngine {
        static GLOBAL: OnceLock<SweepEngine> = OnceLock::new();
        GLOBAL.get_or_init(|| Self {
            pool: JobPool::with_default_threads(),
            store: ArtifactStore::from_settings(),
        })
    }

    /// The engine's pool (e.g. for ad-hoc fan-out over benchmarks).
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// The engine's artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The result-artifact fingerprint of one cell, when the store has a
    /// disk tier to address into.
    fn cell_fingerprint(&self, program: &Program, cfg: &SimConfig) -> Option<u64> {
        self.store
            .disk()
            .map(|_| result_fingerprint(program_fingerprint(program), cfg))
    }

    /// One grid cell: answered from the stored result when incremental
    /// and unchanged, else compile (cached), record (tiered), replay —
    /// writing the fresh result through to the disk tier.
    fn run_cell(&self, program: &Program, cfg: &SimConfig) -> Result<RunResult, SimError> {
        let fp = self.cell_fingerprint(program, cfg);
        if self.store.incremental() {
            if let Some(fp) = fp {
                if let Some(stored) = self.store.load_result(&program.name, cfg.load_latency, fp) {
                    return Ok(stored);
                }
            }
        }
        let compiled = self.store.get_or_compile(program, cfg.load_latency)?;
        let tape = self.store.get_or_record(&compiled);
        let result = run_tape(&program.name, &tape, cfg)?;
        if let Some(fp) = fp {
            self.store.store_result(&result, fp);
        }
        Ok(result)
    }

    /// One scheduling unit of a fused row: the hardware configurations
    /// `hws` of `program` under the row configuration `row`, replayed in
    /// one tape walk. In incremental mode, cells whose stored results are present
    /// under their exact input fingerprints are answered from the store;
    /// only the missing configurations are simulated (still fused, and
    /// each configuration's replay is independent of its row neighbours,
    /// so the mix is bit-identical to an all-simulated row). Fresh
    /// results write through. When a row is split
    /// across units (fusion-aware scheduling under a multi-thread pool),
    /// all of its units share `tape_slot`, so the row's program is still compiled
    /// and recorded **exactly once per sweep** — the first unit that
    /// needs the tape initializes the slot and the rest reuse the `Arc`
    /// without touching the store; store counters are identical to the
    /// one-job-per-row path.
    fn run_row_span(
        &self,
        program: &Program,
        program_fp: Option<u64>,
        row: &SimConfig,
        hws: &[HwConfig],
        tape_slot: &OnceLock<Result<Arc<TraceTape>, SimError>>,
    ) -> Result<Vec<RunResult>, SimError> {
        let cfgs: Vec<SimConfig> = hws
            .iter()
            .map(|hw| SimConfig {
                hw: hw.clone(),
                ..row.clone()
            })
            .collect();
        let fps: Option<Vec<u64>> =
            program_fp.map(|pfp| cfgs.iter().map(|c| result_fingerprint(pfp, c)).collect());
        let mut results: Vec<Option<RunResult>> = vec![None; cfgs.len()];
        if self.store.incremental() {
            if let Some(fps) = &fps {
                for (slot, &fp) in results.iter_mut().zip(fps) {
                    *slot = self.store.load_result(&program.name, row.load_latency, fp);
                }
            }
        }
        if results.iter().any(Option::is_none) {
            let tape = tape_slot
                .get_or_init(|| {
                    let compiled = self.store.get_or_compile(program, row.load_latency)?;
                    Ok(self.store.get_or_record(&compiled))
                })
                .clone()?;
            let missing: Vec<usize> = (0..cfgs.len()).filter(|&j| results[j].is_none()).collect();
            let missing_cfgs: Vec<SimConfig> = missing.iter().map(|&j| cfgs[j].clone()).collect();
            let fresh = run_tape_fused(&program.name, &tape, &missing_cfgs)?;
            for (&j, result) in missing.iter().zip(fresh) {
                if let Some(fps) = &fps {
                    self.store.store_result(&result, fps[j]);
                }
                results[j] = Some(result);
            }
        }
        Ok(results.into_iter().flatten().collect())
    }

    /// The scheduling weight of one `(program, latency)` row: the
    /// recorded tape's barrier count when the tape is already resident
    /// (warm sweeps — the common bench shape), else the program's
    /// statically estimated dynamic instruction count. Both are
    /// proportional to replay work; mixing the two across rows only
    /// happens on a partially warm store, where any positive weight
    /// already beats uniform chunking.
    fn row_weight(&self, program: &Program, latency: u32) -> u64 {
        self.store
            .resident_barriers(&program.name, latency)
            .unwrap_or_else(|| program.estimated_instructions())
    }

    /// Runs a `plane × latency × configuration` grid of independent
    /// cells as one flat pool invocation, regrouped as
    /// `rows[plane][latency][configuration]`. Plane `p` runs program
    /// `planes[p].0` under configuration `planes[p].1`, at each latency
    /// and hardware configuration.
    fn run_cells(
        &self,
        planes: &[(&Program, SimConfig)],
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Vec<Vec<Vec<RunResult>>>, SimError> {
        let (nl, nc) = (latencies.len(), configs.len());
        let cells = self.pool.try_run(planes.len() * nl * nc, |idx| {
            let (program, base) = &planes[idx / (nl * nc)];
            let cfg = SimConfig {
                hw: configs[idx % nc].clone(),
                ..base.clone()
            }
            .at_latency(latencies[(idx / nc) % nl]);
            self.run_cell(program, &cfg)
        })?;
        let mut iter = cells.into_iter();
        (0..planes.len())
            .map(|_| (0..nl).map(|_| iter.by_ref().take(nc).collect()).collect())
            .collect()
    }

    /// Fused sweep of `configs` along `axis` for one benchmark: every
    /// point is one row of [`Self::fused_rows`].
    fn sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        axis: Axis,
        points: &[u32],
    ) -> Result<Sweep, SimError> {
        let rows: Vec<(&Program, SimConfig)> = points
            .iter()
            .map(|&point| (program, axis.row(base, point)))
            .collect();
        let rows = self.fused_rows(&rows, configs)?;
        Ok(Sweep::of(program, axis, configs, points, rows))
    }

    /// Sweeps `configs` × `latencies` for one benchmark, fused row by row
    /// (as [`Self::grid_sweep`]).
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn latency_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Sweep, SimError> {
        self.sweep(program, base, configs, Axis::LoadLatency, latencies)
    }

    /// Sweeps `configs` × `penalties` at the base configuration's load
    /// latency, fused row by row (as [`Self::grid_sweep`]): every penalty
    /// row replays the one schedule that latency compiles to.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn penalty_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        penalties: &[u32],
    ) -> Result<Sweep, SimError> {
        self.sweep(program, base, configs, Axis::MissPenalty, penalties)
    }

    /// Cross-benchmark sweep, fused: every `(program, latency)` pair of
    /// the grid walks the shared tape **once**, advancing a simulator
    /// instance per hardware configuration in lockstep
    /// ([`run_tape_fused`]) — the row's configurations differ only in
    /// hardware, so they replay one recorded schedule. Results are
    /// bit-identical to the per-cell path ([`Self::grid_sweep_unfused`]),
    /// one latency [`Sweep`] per program in input order.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn grid_sweep(
        &self,
        programs: &[&Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Vec<Sweep>, SimError> {
        let rows: Vec<(&Program, SimConfig)> = programs
            .iter()
            .flat_map(|&p| {
                latencies
                    .iter()
                    .map(move |&l| (p, base.clone().at_latency(l)))
            })
            .collect();
        let mut rows = self.fused_rows(&rows, configs)?.into_iter();
        Ok(programs
            .iter()
            .map(|program| {
                let own = rows.by_ref().take(latencies.len()).collect();
                Sweep::of(program, Axis::LoadLatency, configs, latencies, own)
            })
            .collect())
    }

    /// The one execution path of every [`Sweep`]: each row — a program
    /// under a row configuration whose hardware each of `configs`
    /// replaces — walks its tape once for all configurations
    /// (`run_row_span`). Result rows come back in input order; the first
    /// failing row's error wins.
    ///
    /// Scheduling is fusion-aware: under a multi-thread pool, rows are
    /// split into configuration spans sized by each row's barrier weight
    /// (`plan_row_spans`) and claimed longest-first, so the ~8× coarser
    /// fused jobs load-balance like the unfused per-cell grid instead of
    /// regressing on it. Units of one row share the compiled program and
    /// tape through a per-row slot; a single-thread pool keeps the
    /// one-job-per-row shape.
    fn fused_rows(
        &self,
        rows: &[(&Program, SimConfig)],
        configs: &[HwConfig],
    ) -> Result<Vec<Vec<RunResult>>, SimError> {
        let (nrows, nc) = (rows.len(), configs.len());
        // One stable IR fingerprint per row (only needed when a disk tier
        // exists to address results into).
        let program_fps: Vec<Option<u64>> = rows
            .iter()
            .map(|(p, _)| self.store.disk().map(|_| program_fingerprint(p)))
            .collect();
        let results: Vec<Result<Vec<RunResult>, SimError>> =
            if self.pool.threads() <= 1 || nrows <= 1 || nc == 0 {
                self.pool
                    .try_run(nrows, |r| -> Result<Vec<RunResult>, SimError> {
                        let (program, row) = &rows[r];
                        self.run_row_span(program, program_fps[r], row, configs, &OnceLock::new())
                    })?
            } else {
                let weights: Vec<u64> = rows
                    .iter()
                    .map(|(program, row)| self.row_weight(program, row.load_latency))
                    .collect();
                let spans = plan_row_spans(&weights, nc, self.pool.threads());
                let order = span_claim_order(&spans, &weights);
                let tape_slots: Vec<OnceLock<Result<Arc<TraceTape>, SimError>>> =
                    (0..nrows).map(|_| OnceLock::new()).collect();
                let parts = self.pool.try_run_order(
                    spans.len(),
                    &order,
                    |u| -> Result<Vec<RunResult>, SimError> {
                        let RowSpan { row: r, lo, hi } = spans[u];
                        let (program, row) = &rows[r];
                        self.run_row_span(
                            program,
                            program_fps[r],
                            row,
                            &configs[lo..hi],
                            &tape_slots[r],
                        )
                    },
                )?;
                // Stitch spans back into whole rows: spans are row-major,
                // so appending in span order rebuilds each row's
                // configuration order. A row keeps its first (lowest-`lo`)
                // error, matching the whole-row path's report.
                let mut results: Vec<Result<Vec<RunResult>, SimError>> =
                    (0..nrows).map(|_| Ok(Vec::with_capacity(nc))).collect();
                for (span, part) in spans.iter().zip(parts) {
                    match (&mut results[span.row], part) {
                        (Ok(row), Ok(mut slice)) => row.append(&mut slice),
                        (slot @ Ok(_), Err(e)) => *slot = Err(e),
                        (Err(_), _) => {}
                    }
                }
                results
            };
        results.into_iter().collect()
    }

    /// [`Self::grid_sweep`] without tape fusion: every
    /// `(program, latency, config)` cell replays the tape independently as
    /// its own pool job. The reference path the bench exhibit's
    /// fused-vs-unfused bit-identity check compares against.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn grid_sweep_unfused(
        &self,
        programs: &[&Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Vec<Sweep>, SimError> {
        let planes: Vec<(&Program, SimConfig)> =
            programs.iter().map(|&p| (p, base.clone())).collect();
        let grid = self.run_cells(&planes, configs, latencies)?;
        Ok(programs
            .iter()
            .zip(grid)
            .map(|(program, rows)| Sweep::of(program, Axis::LoadLatency, configs, latencies, rows))
            .collect())
    }

    /// The body of the plane sweeps: `program` under each labelled plane
    /// configuration × `configs` × `latencies`, as one flat pool
    /// invocation of independent cells. The compiled program depends
    /// only on the latency, so every plane and configuration replays the
    /// same recorded tapes; results are input-ordered and fully
    /// deterministic.
    fn plane_sweep(
        &self,
        program: &Program,
        plane_axis: PlaneAxis,
        planes: Vec<(String, SimConfig)>,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<PlaneSweep, SimError> {
        let (labels, bases): (Vec<String>, Vec<(&Program, SimConfig)>) = planes
            .into_iter()
            .map(|(label, cfg)| (label, (program, cfg)))
            .unzip();
        Ok(PlaneSweep {
            benchmark: program.name.clone(),
            plane_axis,
            planes: labels,
            configs: configs.iter().map(HwConfig::label).collect(),
            latencies: latencies.to_vec(),
            rows: self.run_cells(&bases, configs, latencies)?,
        })
    }

    /// Policy × configuration × latency grid for one benchmark (the
    /// random policy reseeds per run from its fixed seed, so it too is
    /// deterministic).
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn replacement_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        policies: &[ReplacementKind],
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<PlaneSweep, SimError> {
        let planes = policies
            .iter()
            .map(|&p| (p.label(), base.clone().with_replacement(p)))
            .collect();
        self.plane_sweep(program, PlaneAxis::Policy, planes, configs, latencies)
    }

    /// Model × configuration × latency grid for one benchmark. Every
    /// model replays the same recorded tape, so the grid isolates the
    /// pipeline's reaction — stall on first use vs. replay with cause
    /// attribution — from the code and the reference stream.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn model_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        models: &[ProcessorKind],
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<PlaneSweep, SimError> {
        let planes = models
            .iter()
            .map(|&m| (m.label().to_string(), base.clone().with_processor(m)))
            .collect();
        self.plane_sweep(program, PlaneAxis::Model, planes, configs, latencies)
    }

    /// Runs many independent `(program, config)` jobs on the pool, results
    /// in input order, compilation cached. The workhorse for experiment
    /// tables that aren't sweeps (per-benchmark rows, ablations), and the
    /// per-cell reference the fused sweeps are tested against.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn run_many(&self, jobs: &[(&Program, SimConfig)]) -> Result<Vec<RunResult>, SimError> {
        self.pool
            .try_run(jobs.len(), |i| -> Result<RunResult, SimError> {
                let (program, cfg) = &jobs[i];
                self.run_cell(program, cfg)
            })?
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_trace::workloads::{build, Scale};

    #[test]
    fn row_spans_tile_rows_and_split_by_weight() {
        // Row 1 carries ~8× the work of the others: it must split into
        // more spans, every row must be tiled exactly, and spans must be
        // emitted row-major.
        let weights = [100, 800, 100, 100];
        let nc = 8;
        let spans = plan_row_spans(&weights, nc, 4);
        let mut next_row = 0;
        let mut cursor = 0;
        let mut per_row = [0usize; 4];
        for s in &spans {
            if s.row != next_row {
                assert_eq!(cursor, nc, "row {next_row} tiled exactly");
                assert_eq!(s.row, next_row + 1, "row-major emission");
                next_row = s.row;
                cursor = 0;
            }
            assert_eq!(s.lo, cursor, "contiguous spans");
            assert!(s.hi > s.lo && s.hi <= nc);
            cursor = s.hi;
            per_row[s.row] += 1;
        }
        assert_eq!(cursor, nc, "last row tiled exactly");
        assert!(
            per_row[1] > per_row[0],
            "heavy row splits finer: {per_row:?}"
        );
        assert!(per_row[1] <= nc, "never below one configuration per span");
        // Claim order starts with a slice of the heavy row.
        let order = span_claim_order(&spans, &weights);
        assert_eq!(spans[order[0]].row, 1, "heaviest unit claimed first");
        // Degenerate shapes: uniform weights and single-thread targets
        // still tile.
        for threads in [1, 2, 16] {
            let spans = plan_row_spans(&[0, 0], 3, threads);
            let covered: usize = spans.iter().map(|s| s.hi - s.lo).sum();
            assert_eq!(covered, 6, "zero-weight rows still tile ({threads})");
        }
    }

    #[test]
    fn latency_sweep_shape_and_lookup() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let s = SweepEngine::new(1)
            .latency_sweep(&p, &base, &configs, &[1, 10])
            .unwrap();
        assert_eq!(s.axis, Axis::LoadLatency);
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].len(), 3);
        assert_eq!(s.curve(0).len(), 2);
        let r = s.at("mc=1", 10).unwrap();
        assert_eq!(r.config, "mc=1");
        assert_eq!(r.load_latency, 10);
        assert!(s.at("mc=7", 10).is_none());
        assert!(s.at("mc=1", 11).is_none());
    }

    /// Every cell of `sweep`, run alone on a single-thread engine's
    /// per-cell path ([`SweepEngine::run_many`]): the reference the fused
    /// sweeps must reproduce.
    fn per_cell_reference(
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        sweep: &Sweep,
    ) -> Vec<Vec<RunResult>> {
        let jobs: Vec<(&Program, SimConfig)> = sweep
            .points
            .iter()
            .flat_map(|&point| {
                configs.iter().map(move |hw| {
                    let row = sweep.axis.row(base, point);
                    (
                        program,
                        SimConfig {
                            hw: hw.clone(),
                            ..row
                        },
                    )
                })
            })
            .collect();
        let cells = SweepEngine::new(1).run_many(&jobs).unwrap();
        cells.chunks(configs.len()).map(<[_]>::to_vec).collect()
    }

    #[test]
    fn fused_sweeps_match_per_cell_runs_exactly() {
        // The determinism contract: the fused, span-scheduled sweeps on a
        // 4-thread pool return RunResults *equal* (full struct equality,
        // every metric) to running each cell alone, across ≥2 benchmarks ×
        // 2 latencies × 3 configs, and along the penalty axis.
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc(1), HwConfig::Fc(4), HwConfig::NoRestrict];
        let engine = SweepEngine::new(4);
        for name in ["doduc", "eqntott"] {
            let p = build(name, Scale::quick()).unwrap();
            let fused = engine.latency_sweep(&p, &base, &configs, &[2, 10]).unwrap();
            assert_eq!(
                fused.rows,
                per_cell_reference(&p, &base, &configs, &fused),
                "{name}: the fused latency sweep must be bit-identical"
            );
        }
        let p = build("tomcatv", Scale::quick()).unwrap();
        let fused = engine.penalty_sweep(&p, &base, &configs, &[8, 32]).unwrap();
        assert_eq!(fused.axis, Axis::MissPenalty);
        assert_eq!(fused.at("mc=1", 32).unwrap().miss_penalty, 32);
        assert_eq!(
            fused.rows,
            per_cell_reference(&p, &base, &configs, &fused),
            "the fused penalty sweep must be bit-identical"
        );
    }

    #[test]
    fn penalty_sweep_answers_incrementally_from_disk() {
        // Penalty rows run on the fused-row runner, so they write results
        // through and, on an incremental store, answer every cell from it.
        let dir = std::env::temp_dir().join(format!(
            "nbl-sweep-penalty-incremental-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let p = build("tomcatv", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let penalties = [8, 16, 32];
        let cells = (configs.len() * penalties.len()) as u64;
        let pass = || {
            let engine = SweepEngine::with_store(2, ArtifactStore::with_disk(&dir, true));
            let sweep = engine
                .penalty_sweep(&p, &base, &configs, &penalties)
                .unwrap();
            (sweep.rows, engine.store().disk_stats())
        };
        let (cold, cold_stats) = pass();
        assert_eq!(cold_stats.result_hits, 0);
        assert_eq!(cold_stats.result_writes, cells, "every cell writes through");
        let (warm, warm_stats) = pass();
        assert_eq!(
            warm_stats.result_hits, cells,
            "every cell answered from disk"
        );
        assert_eq!(warm_stats.result_writes, 0);
        assert_eq!(warm, cold, "stored results are bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_sweep_shape_and_compile_sharing() {
        let engine = SweepEngine::new(3);
        let doduc = build("doduc", Scale::quick()).unwrap();
        let eqntott = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let sweeps = engine
            .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
            .unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].benchmark, "doduc");
        assert_eq!(sweeps[1].benchmark, "eqntott");
        for s in &sweeps {
            assert_eq!(s.rows.len(), 2);
            assert_eq!(s.rows[0].len(), 3);
            for (i, row) in s.rows.iter().enumerate() {
                for (j, r) in row.iter().enumerate() {
                    assert_eq!(r.benchmark, s.benchmark, "input-ordered placement");
                    assert_eq!(r.load_latency, latencies[i]);
                    assert_eq!(r.config, configs[j].label());
                }
            }
        }
        // 2 benchmarks × 2 latencies compiled, 4 distinct schedules (no
        // two of these pairs share one); the fused sweep fetches each
        // compilation and tape exactly once per (benchmark, latency) row —
        // the 3 configurations inside a row share one walk.
        let (compiled, tapes) = engine.store().memory_stats();
        assert_eq!(
            compiled.derived, 4,
            "each (benchmark, latency) pair compiles exactly once"
        );
        assert_eq!(compiled.hits, 0, "fused rows fetch each compilation once");
        assert_eq!(tapes.derived, 4, "each schedule records exactly once");
        assert_eq!(tapes.hits, 0, "fused rows fetch each tape once");
        assert_eq!(tapes.evictions, 0);
        engine
            .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
            .unwrap();
        let (compiled, tapes) = engine.store().memory_stats();
        assert_eq!(compiled.derived, 4, "re-sweep recompiles nothing");
        assert_eq!(compiled.hits, 4);
        assert_eq!(tapes.derived, 4, "re-sweep re-records nothing");
        assert_eq!(tapes.hits, 4);
    }

    #[test]
    fn fused_grid_matches_unfused_bit_for_bit() {
        let engine = SweepEngine::new(3);
        let doduc = build("doduc", Scale::quick()).unwrap();
        let swm = build("swm256", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [
            HwConfig::Mc0,
            HwConfig::Mc(1),
            HwConfig::Fc(4),
            HwConfig::NoRestrict,
        ];
        let latencies = [1, 3];
        let fused = engine
            .grid_sweep(&[&doduc, &swm], &base, &configs, &latencies)
            .unwrap();
        let unfused = engine
            .grid_sweep_unfused(&[&doduc, &swm], &base, &configs, &latencies)
            .unwrap();
        for (f, u) in fused.iter().zip(&unfused) {
            assert_eq!(
                f.rows, u.rows,
                "{}: fusion must not change results",
                f.benchmark
            );
        }
    }

    #[test]
    fn run_many_matches_run_program() {
        use crate::driver::run_program;
        let engine = SweepEngine::new(2);
        let p = build("xlisp", Scale::quick()).unwrap();
        let jobs = [
            (&p, SimConfig::baseline(HwConfig::Mc0)),
            (&p, SimConfig::baseline(HwConfig::NoRestrict)),
        ];
        let out = engine.run_many(&jobs).unwrap();
        assert_eq!(out.len(), 2);
        for (job, got) in jobs.iter().zip(&out) {
            assert_eq!(*got, run_program(job.0, &job.1).unwrap());
        }
    }

    #[test]
    fn replacement_sweep_is_deterministic_and_lru_matches_default() {
        use nbl_core::geometry::CacheGeometry;
        let p = build("eqntott", Scale::quick()).unwrap();
        // Policies only differ on an associative geometry.
        let base = SimConfig::baseline(HwConfig::Mc0)
            .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap());
        let policies = [
            ReplacementKind::Lru,
            ReplacementKind::random(),
            ReplacementKind::TreePlru,
        ];
        let configs = [HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let engine = SweepEngine::new(4);
        let a = engine
            .replacement_sweep(&p, &base, &policies, &configs, &latencies)
            .unwrap();
        let b = engine
            .replacement_sweep(&p, &base, &policies, &configs, &latencies)
            .unwrap();
        assert_eq!(a.rows, b.rows, "replay must be bit-identical (seeded)");
        assert_eq!(a.plane_axis, PlaneAxis::Policy);
        assert_eq!(a.planes, vec!["lru", "random", "plru"]);
        // The LRU plane equals a plain (default-policy) run.
        let lru = a.at("lru", "mc=1", 10).unwrap();
        let plain = engine
            .latency_sweep(&p, &base, &configs, &latencies)
            .unwrap();
        let reference = plain.at("mc=1", 10).unwrap();
        assert_eq!(lru.cycles, reference.cycles);
        assert_eq!(lru.replacement, "lru");
        assert_eq!(a.at("plru", "mc=1", 10).unwrap().replacement, "plru");
        assert!(a.at("fifo", "mc=1", 10).is_none());
    }

    #[test]
    fn model_sweep_is_deterministic_and_single_matches_default() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let models = [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause];
        let configs = [HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let engine = SweepEngine::new(4);
        let a = engine
            .model_sweep(&p, &base, &models, &configs, &latencies)
            .unwrap();
        let b = engine
            .model_sweep(&p, &base, &models, &configs, &latencies)
            .unwrap();
        assert_eq!(a.rows, b.rows, "replay must be bit-identical");
        assert_eq!(a.plane_axis, PlaneAxis::Model);
        assert_eq!(a.planes, vec!["single", "replay"]);
        // The single plane equals a plain (default-model) run.
        let single = a.at("single", "mc=1", 10).unwrap();
        let plain = engine
            .latency_sweep(&p, &base, &configs, &latencies)
            .unwrap();
        assert_eq!(single.cycles, plain.at("mc=1", 10).unwrap().cycles);
        assert_eq!(single.model, "single");
        assert_eq!(single.replay.total_replays(), 0);
        // The replaying plane attributes stalls to causes; the parallel
        // grid cell equals a direct run of the same configuration.
        let replay = a.at("replay", "mc=1", 10).unwrap();
        assert_eq!(replay.model, "replay");
        assert!(replay.replay.total_replays() > 0, "mc=1 must NACK or miss");
        let cfg = SimConfig::baseline(HwConfig::Mc(1))
            .at_latency(10)
            .with_processor(ProcessorKind::ReplayCause);
        let direct = crate::driver::run_program(&p, &cfg).unwrap();
        assert_eq!(*replay, direct, "parallel must equal the direct path");
    }

    #[test]
    fn penalty_sweep_blocking_is_linear() {
        let p = build("tomcatv", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let s = SweepEngine::new(1)
            .penalty_sweep(&p, &base, &[HwConfig::Mc0], &[8, 16, 32])
            .unwrap();
        let m8 = s.at("mc=0", 8).unwrap().mcpi;
        let m16 = s.at("mc=0", 16).unwrap().mcpi;
        let m32 = s.at("mc=0", 32).unwrap().mcpi;
        // "The blocking organization's miss CPI is strictly a linear
        // function of the miss penalty."
        assert!((m16 / m8 - 2.0).abs() < 0.05, "{m8} {m16}");
        assert!((m32 / m16 - 2.0).abs() < 0.05, "{m16} {m32}");
    }
}
