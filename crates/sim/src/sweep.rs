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
//! as the paper replays each binary. Every [`SweepEngine`] entry runs on
//! one fused-row runner: a row is a program under configurations that
//! share one load latency, replayed in one tape walk. Sweeps and plane
//! sweeps build one row per point (per plane and latency);
//! [`SweepEngine::run_many`] builds rows of one cell, the per-cell
//! reference.

use crate::config::{HwConfig, ProcessorKind, SimConfig};
use crate::driver::{run_tape_fused, RunResult, SimError};
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

/// One fused row: a program under configurations that share one load
/// latency, and therefore one compiled schedule and one tape.
type Row<'a> = (&'a Program, Vec<SimConfig>);

/// The row configuration `row` under each hardware configuration of
/// `configs`, in order.
fn with_each(row: &SimConfig, configs: &[HwConfig]) -> Vec<SimConfig> {
    configs
        .iter()
        .map(|hw| SimConfig {
            hw: hw.clone(),
            ..row.clone()
        })
        .collect()
}

/// One fusion-aware scheduling unit: configurations `lo..hi` of fused
/// row `row`. Produced by [`plan_row_spans`]; each span replays its
/// slice in one fused walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSpan {
    /// Row index, in the order the rows were given.
    row: usize,
    /// First configuration index of the slice (inclusive).
    lo: usize,
    /// Last configuration index of the slice (exclusive).
    hi: usize,
}

/// Splits each fused row (`widths[r]` configurations) into contiguous
/// configuration spans sized by the row's barrier weight, so a
/// multi-thread pool schedules comparable work units instead of whole
/// rows. A row whose share of the grid's total work exceeds one
/// target-unit is split into proportionally many spans (capped at one
/// configuration per span); light rows stay whole, and a single-thread
/// pool gets exactly one span per row. A row of width 0 keeps one empty
/// span. Spans are emitted row-major (`row` ascending, `lo` ascending)
/// so callers can stitch rows back by a single scan.
fn plan_row_spans(weights: &[u64], widths: &[usize], threads: usize) -> Vec<RowSpan> {
    debug_assert_eq!(weights.len(), widths.len(), "one weight per row");
    let row_work = |w: u64, width: usize| w.saturating_mul(width as u64).max(1);
    let total: u64 = weights
        .iter()
        .zip(widths)
        .map(|(&w, &n)| row_work(w, n))
        .sum();
    // Aim for ~4 units per worker (the chunked queue's oversubscription
    // factor) so claim-order balancing has slack without shrinking units
    // into per-cell jobs that would repay the fusion win. One worker has
    // nothing to balance: every row is one unit.
    let target = if threads <= 1 {
        u64::MAX
    } else {
        (total / (threads as u64 * 4)).max(1)
    };
    let mut spans = Vec::with_capacity(weights.len());
    for (row, (&w, &width)) in weights.iter().zip(widths).enumerate() {
        let parts = row_work(w, width)
            .div_ceil(target)
            .clamp(1, width.max(1) as u64) as usize;
        let (base_len, extra) = (width / parts, width % parts);
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
        debug_assert_eq!(lo, width, "spans tile the row exactly");
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
/// Every entry replays through one runner (`fused_rows`): it cuts its
/// grid into rows — a program under configurations that share one load
/// latency — and runs them as a single pool invocation. Each row fetches
/// its compiled program from the store (compiled exactly once per
/// `(benchmark, latency)` pair) and the recorded tape through the
/// store's tiers (the dynamic stream is materialized exactly once per
/// compiled schedule, which latencies past a block's slack share —
/// decoded from disk when a prior process persisted it), then replays the
/// tape once for all of its configurations — record once, replay at
/// every grid point. With a disk tier every cell's [`RunResult`] also
/// writes through under its input fingerprint; in incremental mode
/// ([`ArtifactStore::incremental`]) cells whose fingerprints are
/// unchanged are answered from those stored results without simulating.
/// The pool places results in input order, so a sweep returns
/// [`RunResult`]s **identical** at every thread count and identical to
/// running each cell alone ([`Self::run_many`], whose rows hold one cell
/// each).
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
    /// [`crate::store::store_settings`] (the CLI's `--store` and
    /// `--incremental`), shared across every sweep and the driver's
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

    /// One scheduling unit of a fused row: the configurations `cfgs` of
    /// `program`, which share one load latency, replayed in one tape
    /// walk. In incremental mode, cells whose stored results are present
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
    /// one-unit-per-row schedule.
    fn run_row_span(
        &self,
        program: &Program,
        program_fp: Option<u64>,
        cfgs: &[SimConfig],
        tape_slot: &OnceLock<Result<Arc<TraceTape>, SimError>>,
    ) -> Result<Vec<RunResult>, SimError> {
        let fps: Option<Vec<u64>> =
            program_fp.map(|pfp| cfgs.iter().map(|c| result_fingerprint(pfp, c)).collect());
        let mut results: Vec<Option<RunResult>> = vec![None; cfgs.len()];
        if self.store.incremental() {
            if let Some(fps) = &fps {
                for ((slot, &fp), cfg) in results.iter_mut().zip(fps).zip(cfgs) {
                    *slot = self.store.load_result(&program.name, cfg.load_latency, fp);
                }
            }
        }
        let missing: Vec<usize> = (0..cfgs.len()).filter(|&j| results[j].is_none()).collect();
        if let Some(&first) = missing.first() {
            let latency = cfgs[first].load_latency;
            let tape = tape_slot
                .get_or_init(|| {
                    let compiled = self.store.get_or_compile(program, latency)?;
                    Ok(self.store.get_or_record(&compiled))
                })
                .clone()?;
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

    /// The scheduling weight of one row: the recorded tape's barrier
    /// count when the tape is already resident (warm sweeps — the common
    /// bench shape), else the program's statically estimated dynamic
    /// instruction count. Both are proportional to replay work; mixing
    /// the two across rows only happens on a partially warm store, where
    /// any positive weight already beats uniform chunking. A row with no
    /// configurations weighs nothing.
    fn row_weight(&self, (program, cfgs): &Row<'_>) -> u64 {
        cfgs.first().map_or(0, |cfg| {
            self.store
                .resident_barriers(&program.name, cfg.load_latency)
                .unwrap_or_else(|| program.estimated_instructions())
        })
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
        let rows: Vec<Row<'_>> = points
            .iter()
            .map(|&point| (program, with_each(&axis.row(base, point), configs)))
            .collect();
        let rows = self.fused_rows(&rows)?;
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

    /// The rows of a cross-benchmark grid, program-major: one row per
    /// `(program, latency)` pair, holding `base` at that latency under
    /// each of `configs`.
    fn grid_rows<'a>(
        programs: &[&'a Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Vec<Row<'a>> {
        programs
            .iter()
            .flat_map(|&p| {
                latencies
                    .iter()
                    .map(move |&l| (p, with_each(&base.clone().at_latency(l), configs)))
            })
            .collect()
    }

    /// Regroups a grid's program-major result rows into one latency
    /// [`Sweep`] per program, in input order.
    fn grid_of(
        programs: &[&Program],
        configs: &[HwConfig],
        latencies: &[u32],
        rows: Vec<Vec<RunResult>>,
    ) -> Vec<Sweep> {
        let mut rows = rows.into_iter();
        programs
            .iter()
            .map(|program| {
                let own = rows.by_ref().take(latencies.len()).collect();
                Sweep::of(program, Axis::LoadLatency, configs, latencies, own)
            })
            .collect()
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
        let rows = self.fused_rows(&Self::grid_rows(programs, base, configs, latencies))?;
        Ok(Self::grid_of(programs, configs, latencies, rows))
    }

    /// The one execution path of every entry: each row — a program under
    /// configurations that share one load latency — walks its tape once
    /// for all of its configurations (`run_row_span`). Result rows come
    /// back in input order; the first failing row's error wins.
    ///
    /// Scheduling is fusion-aware: rows are split into configuration
    /// spans sized by each row's barrier weight (`plan_row_spans`) and
    /// claimed longest-first, so the coarse fused jobs load-balance like
    /// per-cell jobs instead of regressing on them. Units of one row
    /// share the compiled program and tape through a per-row slot. A
    /// single-thread pool gets one unit per row and runs them in input
    /// order.
    fn fused_rows(&self, rows: &[Row<'_>]) -> Result<Vec<Vec<RunResult>>, SimError> {
        // One stable IR fingerprint per row (only needed when a disk tier
        // exists to address results into).
        let program_fps: Vec<Option<u64>> = rows
            .iter()
            .map(|(p, _)| self.store.disk().map(|_| program_fingerprint(p)))
            .collect();
        let weights: Vec<u64> = rows.iter().map(|row| self.row_weight(row)).collect();
        let widths: Vec<usize> = rows.iter().map(|(_, cfgs)| cfgs.len()).collect();
        let spans = plan_row_spans(&weights, &widths, self.pool.threads());
        let order = span_claim_order(&spans, &weights);
        let tape_slots: Vec<OnceLock<Result<Arc<TraceTape>, SimError>>> =
            rows.iter().map(|_| OnceLock::new()).collect();
        let parts = self.pool.try_run_order(
            spans.len(),
            &order,
            |u| -> Result<Vec<RunResult>, SimError> {
                let RowSpan { row: r, lo, hi } = spans[u];
                let (program, cfgs) = &rows[r];
                self.run_row_span(program, program_fps[r], &cfgs[lo..hi], &tape_slots[r])
            },
        )?;
        // Stitch spans back into whole rows: spans are row-major, so
        // appending in span order rebuilds each row's configuration
        // order. A row keeps its first (lowest-`lo`) error.
        let mut results: Vec<Result<Vec<RunResult>, SimError>> =
            widths.iter().map(|&n| Ok(Vec::with_capacity(n))).collect();
        for (span, part) in spans.iter().zip(parts) {
            match (&mut results[span.row], part) {
                (Ok(row), Ok(mut slice)) => row.append(&mut slice),
                (slot @ Ok(_), Err(e)) => *slot = Err(e),
                (Err(_), _) => {}
            }
        }
        results.into_iter().collect()
    }

    /// [`Self::grid_sweep`] without tape fusion: [`Self::run_many`] over
    /// the grid's cells, so every `(program, latency, config)` cell
    /// replays the tape independently as its own pool job. The reference
    /// path the bench exhibit's fused-vs-unfused bit-identity check
    /// compares against.
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
        let rows = Self::grid_rows(programs, base, configs, latencies);
        let jobs: Vec<(&Program, SimConfig)> = rows
            .iter()
            .flat_map(|(p, cfgs)| cfgs.iter().map(move |c| (*p, c.clone())))
            .collect();
        let mut cells = self.run_many(&jobs)?.into_iter();
        let rows = rows
            .iter()
            .map(|(_, cfgs)| cells.by_ref().take(cfgs.len()).collect())
            .collect();
        Ok(Self::grid_of(programs, configs, latencies, rows))
    }

    /// The body of the plane sweeps: `program` under each labelled plane
    /// configuration × `configs` × `latencies`, one fused row per
    /// `(plane, latency)` in plane-major order. The compiled program
    /// depends only on the latency, so every plane replays the same
    /// recorded tapes; results are input-ordered and fully
    /// deterministic.
    fn plane_sweep(
        &self,
        program: &Program,
        plane_axis: PlaneAxis,
        planes: Vec<(String, SimConfig)>,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<PlaneSweep, SimError> {
        let rows: Vec<Row<'_>> = planes
            .iter()
            .flat_map(|(_, cfg)| {
                latencies
                    .iter()
                    .map(move |&l| (program, with_each(&cfg.clone().at_latency(l), configs)))
            })
            .collect();
        let mut rows = self.fused_rows(&rows)?.into_iter();
        let (labels, grid) = planes
            .into_iter()
            .map(|(label, _)| (label, rows.by_ref().take(latencies.len()).collect()))
            .unzip();
        Ok(PlaneSweep {
            benchmark: program.name.clone(),
            plane_axis,
            planes: labels,
            configs: configs.iter().map(HwConfig::label).collect(),
            latencies: latencies.to_vec(),
            rows: grid,
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
    /// in input order, compilation cached. Each job is a fused row of one,
    /// so every cell fetches its own tape and replays it alone
    /// ([`run_tape_fused`] of one configuration is one `run_tape`). The
    /// workhorse for experiment tables whose configurations vary more
    /// than hardware (geometry, victim buffer, memory gap), and the
    /// per-cell reference the fused sweeps are tested against.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn run_many(&self, jobs: &[(&Program, SimConfig)]) -> Result<Vec<RunResult>, SimError> {
        let rows: Vec<Row<'_>> = jobs
            .iter()
            .map(|(p, cfg)| (*p, vec![cfg.clone()]))
            .collect();
        Ok(self.fused_rows(&rows)?.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_trace::workloads::{build, Scale};

    /// Checks that `spans` tile rows of `widths` exactly, row-major and
    /// contiguous, with at least one span per row; returns the span
    /// count of each row.
    fn assert_tiles(spans: &[RowSpan], widths: &[usize]) -> Vec<usize> {
        let mut per_row = vec![0usize; widths.len()];
        let mut next = (0, 0);
        for s in spans {
            if s.row != next.0 {
                assert_eq!(next.1, widths[next.0], "row {} tiled exactly", next.0);
                assert_eq!(s.row, next.0 + 1, "row-major emission");
                next = (s.row, 0);
            }
            assert_eq!(s.lo, next.1, "contiguous spans");
            assert!(s.hi >= s.lo && s.hi <= widths[s.row]);
            next.1 = s.hi;
            per_row[s.row] += 1;
        }
        assert_eq!(next.0 + 1, widths.len(), "every row has a span");
        assert_eq!(next.1, widths[next.0], "last row tiled exactly");
        per_row
    }

    #[test]
    fn row_spans_tile_rows_and_split_by_weight() {
        // Row 1 carries ~8× the work of the others: it must split into
        // more spans, every row must be tiled exactly, and spans must be
        // emitted row-major.
        let weights = [100, 800, 100, 100];
        let widths = [8; 4];
        let spans = plan_row_spans(&weights, &widths, 4);
        let per_row = assert_tiles(&spans, &widths);
        assert!(
            per_row[1] > per_row[0],
            "heavy row splits finer: {per_row:?}"
        );
        assert!(per_row[1] <= 8, "never below one configuration per span");
        // Claim order starts with a slice of the heavy row.
        let order = span_claim_order(&spans, &weights);
        assert_eq!(spans[order[0]].row, 1, "heaviest unit claimed first");
        // Zero-weight rows still tile.
        for threads in [1, 2, 16] {
            assert_tiles(&plan_row_spans(&[0, 0], &[3, 3], threads), &[3, 3]);
        }
        // Per-row widths, a width of 0 among them: the empty row keeps
        // one empty span and the others still tile.
        let widths = [3, 0, 6, 1];
        for threads in [1, 2, 4, 16] {
            let spans = plan_row_spans(&[500, 500, 900, 10], &widths, threads);
            let per_row = assert_tiles(&spans, &widths);
            assert_eq!(per_row[1], 1, "{threads} threads");
            assert!(spans
                .iter()
                .filter(|s| s.row == 1)
                .all(|s| s.lo == 0 && s.hi == 0));
            assert_eq!(per_row[3], 1, "a one-wide row never splits");
        }
        // One worker: exactly one whole span per row, however heavy.
        let spans = plan_row_spans(&[100, 800, 0], &[8, 8, 2], 1);
        let whole: Vec<RowSpan> = [8, 8, 2]
            .into_iter()
            .enumerate()
            .map(|(row, hi)| RowSpan { row, lo: 0, hi })
            .collect();
        assert_eq!(spans, whole);
        assert!(plan_row_spans(&[], &[], 4).is_empty());
        // Whole sweeps: one with no configurations replays nothing and
        // keeps one empty row per point; a one-row sweep keeps its row.
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        for threads in [1, 4] {
            let engine = SweepEngine::new(threads);
            let empty = engine.latency_sweep(&p, &base, &[], &[1, 10]).unwrap();
            assert_eq!(empty.rows, vec![Vec::<RunResult>::new(); 2], "{threads}");
            assert!(empty.configs.is_empty());
            let (compiled, tapes) = engine.store().memory_stats();
            assert_eq!(
                (compiled.derived, tapes.derived),
                (0, 0),
                "an empty row replays nothing"
            );
            let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
            let one = engine.latency_sweep(&p, &base, &configs, &[10]).unwrap();
            assert_eq!(one.rows.len(), 1, "{threads}");
            assert_eq!(one.rows[0].len(), 3, "{threads}");
            assert_eq!(one.at("mc=1", 10).unwrap().config, "mc=1");
            assert!(engine.run_many(&[]).unwrap().is_empty());
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
