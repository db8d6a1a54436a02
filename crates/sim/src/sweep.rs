//! Parameter sweeps: the experiment shapes the paper's figures are built
//! from (configurations × load latencies, configurations × miss penalties,
//! benchmarks × configurations).
//!
//! Compilation is shared across hardware configurations — the compiled
//! program depends only on the load latency, so each (benchmark, latency)
//! pair is compiled once and replayed under every configuration, exactly
//! as the paper replays each binary.

use crate::compile_cache::CompileCache;
use crate::config::{HwConfig, ProcessorKind, SimConfig};
use crate::driver::{run_compiled, run_tape, run_tape_fused, RunResult, SimError};
use crate::pool::JobPool;
use crate::store::{program_fingerprint, result_fingerprint, ArtifactStore};
use crate::tape_cache::TapeCache;
use nbl_core::tag_array::ReplacementKind;
use nbl_sched::compile::compile;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use std::sync::{Arc, OnceLock};

/// MCPI-vs-load-latency curves for one benchmark (the shape of Figs. 5,
/// 9–12, 15–17).
#[derive(Debug, Clone)]
pub struct LatencySweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration labels, in input order (one curve each).
    pub configs: Vec<String>,
    /// Latencies swept (the x axis).
    pub latencies: Vec<u32>,
    /// `rows[i][j]` = result at `latencies[i]` under `configs[j]`.
    pub rows: Vec<Vec<RunResult>>,
}

impl LatencySweep {
    /// The MCPI curve (over latency) of configuration index `j`.
    pub fn curve(&self, j: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r[j].mcpi).collect()
    }

    /// Result lookup by configuration label and latency.
    pub fn at(&self, config: &str, latency: u32) -> Option<&RunResult> {
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.latencies.iter().position(|&l| l == latency)?;
        Some(&self.rows[i][j])
    }
}

/// Sweeps `configs` × `latencies` for one benchmark program.
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn latency_sweep(
    program: &Program,
    base: &SimConfig,
    configs: &[HwConfig],
    latencies: &[u32],
) -> Result<LatencySweep, SimError> {
    let mut rows = Vec::with_capacity(latencies.len());
    for &lat in latencies {
        let compiled = compile(program, lat)?;
        let mut row = Vec::with_capacity(configs.len());
        for hw in configs {
            let cfg = SimConfig {
                hw: hw.clone(),
                ..base.clone()
            }
            .at_latency(lat);
            row.push(run_compiled(&program.name, &compiled, &cfg)?);
        }
        rows.push(row);
    }
    Ok(LatencySweep {
        benchmark: program.name.clone(),
        configs: configs.iter().map(HwConfig::label).collect(),
        latencies: latencies.to_vec(),
        rows,
    })
}

/// MCPI-vs-miss-penalty table for one benchmark at a fixed latency
/// (Fig. 18's shape).
#[derive(Debug, Clone)]
pub struct PenaltySweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration labels.
    pub configs: Vec<String>,
    /// Penalties swept.
    pub penalties: Vec<u32>,
    /// `rows[i][j]` = result at `penalties[i]` under `configs[j]`.
    pub rows: Vec<Vec<RunResult>>,
}

impl PenaltySweep {
    /// Result lookup by configuration label and penalty.
    pub fn at(&self, config: &str, penalty: u32) -> Option<&RunResult> {
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.penalties.iter().position(|&p| p == penalty)?;
        Some(&self.rows[i][j])
    }
}

/// Sweeps `configs` × `penalties` at the base config's load latency.
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn penalty_sweep(
    program: &Program,
    base: &SimConfig,
    configs: &[HwConfig],
    penalties: &[u32],
) -> Result<PenaltySweep, SimError> {
    let compiled = compile(program, base.load_latency)?;
    let mut rows = Vec::with_capacity(penalties.len());
    for &pen in penalties {
        let mut row = Vec::with_capacity(configs.len());
        for hw in configs {
            let cfg = SimConfig {
                hw: hw.clone(),
                ..base.clone()
            }
            .with_penalty(pen);
            row.push(run_compiled(&program.name, &compiled, &cfg)?);
        }
        rows.push(row);
    }
    Ok(PenaltySweep {
        benchmark: program.name.clone(),
        configs: configs.iter().map(HwConfig::label).collect(),
        penalties: penalties.to_vec(),
        rows,
    })
}

/// Replacement-policy sensitivity grid for one benchmark: policy × MSHR
/// configuration × load latency (the `figures replsens` exhibit).
#[derive(Debug, Clone)]
pub struct ReplacementSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy labels, in input order.
    pub policies: Vec<String>,
    /// Configuration labels.
    pub configs: Vec<String>,
    /// Latencies swept.
    pub latencies: Vec<u32>,
    /// `rows[p][i][j]` = result under `policies[p]` at `latencies[i]`
    /// under `configs[j]`.
    pub rows: Vec<Vec<Vec<RunResult>>>,
}

impl ReplacementSweep {
    /// Result lookup by policy label, configuration label and latency.
    pub fn at(&self, policy: &str, config: &str, latency: u32) -> Option<&RunResult> {
        let p = self.policies.iter().position(|x| x == policy)?;
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.latencies.iter().position(|&l| l == latency)?;
        Some(&self.rows[p][i][j])
    }
}

/// Sensitivity grid over processor models for one benchmark: model × MSHR
/// configuration × load latency (the `figures replaymodel` exhibit).
#[derive(Debug, Clone)]
pub struct ModelSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Labels of the processor models, in input order.
    pub models: Vec<String>,
    /// Configuration labels.
    pub configs: Vec<String>,
    /// Latencies swept.
    pub latencies: Vec<u32>,
    /// `rows[m][i][j]` = result under `models[m]` at `latencies[i]`
    /// under `configs[j]`.
    pub rows: Vec<Vec<Vec<RunResult>>>,
}

impl ModelSweep {
    /// Result lookup by model label, configuration label and latency.
    pub fn at(&self, model: &str, config: &str, latency: u32) -> Option<&RunResult> {
        let m = self.models.iter().position(|x| x == model)?;
        let j = self.configs.iter().position(|c| c == config)?;
        let i = self.latencies.iter().position(|&l| l == latency)?;
        Some(&self.rows[m][i][j])
    }
}

/// One fusion-aware scheduling unit: configurations `lo..hi` of fused
/// row `row` (a `(program, latency)` pair). Produced by
/// [`plan_row_spans`]; each span replays its slice in one fused walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSpan {
    /// Flat row index (`program_index * latencies.len() + latency_index`).
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
/// (the memory-tier [`CompileCache`] and [`TapeCache`], optionally
/// backed by the content-addressed disk tier).
///
/// Sweeps flatten their `(benchmark, latency, configuration)` grids into a
/// single pool invocation; each cell fetches its compiled program from the
/// compile cache (compiled exactly once per `(benchmark, latency)` pair)
/// and the recorded tape through the store's tiers (the dynamic stream is
/// materialized exactly once per pair — decoded from disk when a prior
/// process persisted it), then replays the tape under its own hardware
/// configuration — record once, replay at every grid point. With a disk
/// tier every cell's [`RunResult`] also writes through under its input
/// fingerprint; in incremental mode
/// ([`ArtifactStore::incremental`]) cells whose fingerprints are
/// unchanged are answered from those stored results without simulating.
/// The pool places results in input order, so the parallel sweeps return
/// [`RunResult`]s **identical** to the serial ones.
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
    /// a whole bench invocation compiles and records each pair at most
    /// once.
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

    /// The engine's compile cache (e.g. for counter reporting).
    pub fn cache(&self) -> &CompileCache {
        self.store.compile_cache()
    }

    /// The engine's tape cache (e.g. for counter reporting).
    pub fn tapes(&self) -> &TapeCache {
        self.store.tape_cache()
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

    /// One fused row — every configuration of a `(program, latency)`
    /// pair in one tape walk. In incremental mode, cells whose stored
    /// results are present under their exact input fingerprints are
    /// answered from the store; only the missing configurations are
    /// simulated (still fused, and each configuration's replay is
    /// independent of its row neighbours, so the mix is bit-identical to
    /// an all-simulated row). Fresh results write through.
    fn run_row_fused(
        &self,
        program: &Program,
        program_fp: Option<u64>,
        latency: u32,
        cfgs: &[SimConfig],
    ) -> Result<Vec<RunResult>, SimError> {
        self.run_row_span(program, program_fp, latency, cfgs, &OnceLock::new())
    }

    /// One scheduling unit of a fused row: the contiguous configuration
    /// slice `cfgs` of a `(program, latency)` pair. When a row is split
    /// across units (fusion-aware scheduling under a multi-thread pool),
    /// all of its units share `tape_slot`, so the pair is still compiled
    /// and recorded **exactly once per sweep** — the first unit that
    /// needs the tape initializes the slot and the rest reuse the `Arc`
    /// without touching the caches; cache counters are identical to the
    /// one-job-per-row path.
    fn run_row_span(
        &self,
        program: &Program,
        program_fp: Option<u64>,
        latency: u32,
        cfgs: &[SimConfig],
        tape_slot: &OnceLock<Result<Arc<TraceTape>, SimError>>,
    ) -> Result<Vec<RunResult>, SimError> {
        let fps: Option<Vec<u64>> =
            program_fp.map(|pfp| cfgs.iter().map(|c| result_fingerprint(pfp, c)).collect());
        let mut row: Vec<Option<RunResult>> = vec![None; cfgs.len()];
        if self.store.incremental() {
            if let Some(fps) = &fps {
                for (slot, &fp) in row.iter_mut().zip(fps) {
                    *slot = self.store.load_result(&program.name, latency, fp);
                }
            }
        }
        if row.iter().any(Option::is_none) {
            let tape = tape_slot
                .get_or_init(|| {
                    let compiled = self.store.get_or_compile(program, latency)?;
                    Ok(self.store.get_or_record(&compiled))
                })
                .clone()?;
            let missing: Vec<usize> = (0..cfgs.len()).filter(|&j| row[j].is_none()).collect();
            let missing_cfgs: Vec<SimConfig> = missing.iter().map(|&j| cfgs[j].clone()).collect();
            let fresh = run_tape_fused(&program.name, &tape, &missing_cfgs)?;
            for (&j, result) in missing.iter().zip(fresh) {
                if let Some(fps) = &fps {
                    self.store.store_result(&result, fps[j]);
                }
                row[j] = Some(result);
            }
        }
        Ok(row.into_iter().flatten().collect())
    }

    /// The scheduling weight of one `(program, latency)` row: the
    /// recorded tape's barrier count when the tape is already resident
    /// (warm sweeps — the common bench shape), else the program's
    /// statically estimated dynamic instruction count. Both are
    /// proportional to replay work; mixing the two across rows only
    /// happens on partially warm caches, where any positive weight
    /// already beats uniform chunking.
    fn row_weight(&self, program: &Program, latency: u32) -> u64 {
        self.store
            .tape_cache()
            .peek_barriers(&program.name, latency)
            .unwrap_or_else(|| program.estimated_instructions())
    }

    /// Parallel [`latency_sweep`]: identical results, cells run on the
    /// pool, compilation via the engine's cache.
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
    ) -> Result<LatencySweep, SimError> {
        let sweeps = self.grid_sweep(&[program], base, configs, latencies)?;
        Ok(sweeps
            .into_iter()
            .next()
            .expect("one program in, one sweep out"))
    }

    /// Cross-benchmark sweep, fused: every `(program, latency)` pair of
    /// the grid walks the shared tape **once**, advancing a simulator
    /// instance per hardware configuration in lockstep
    /// ([`run_tape_fused`]) — the row's configurations differ only in
    /// hardware, so they replay one recorded schedule. Results are
    /// bit-identical to the per-cell path ([`Self::grid_sweep_unfused`]),
    /// one [`LatencySweep`] per program in input order.
    ///
    /// Scheduling is fusion-aware: under a multi-thread pool, rows are
    /// split into configuration spans sized by each row's barrier weight
    /// (`plan_row_spans`) and claimed longest-first, so the ~8× coarser
    /// fused jobs load-balance like the unfused per-cell grid instead of
    /// regressing on it. Units of one row share the compiled program and
    /// tape through a per-row slot (`run_row_span`); a single-thread
    /// pool keeps the one-job-per-row shape.
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
    ) -> Result<Vec<LatencySweep>, SimError> {
        let (nl, nc) = (latencies.len(), configs.len());
        let nrows = programs.len() * nl;
        // One stable IR fingerprint per program, shared by every row job
        // (only needed when a disk tier exists to address results into).
        let program_fps: Vec<Option<u64>> = programs
            .iter()
            .map(|p| self.store.disk().map(|_| program_fingerprint(p)))
            .collect();
        let span_cfgs = |row: usize, lo: usize, hi: usize| -> Vec<SimConfig> {
            configs[lo..hi]
                .iter()
                .map(|hw| {
                    SimConfig {
                        hw: hw.clone(),
                        ..base.clone()
                    }
                    .at_latency(latencies[row % nl])
                })
                .collect()
        };
        let rows: Vec<Result<Vec<RunResult>, SimError>> =
            if self.pool.threads() <= 1 || nrows <= 1 || nc == 0 {
                self.pool
                    .try_run(nrows, |idx| -> Result<Vec<RunResult>, SimError> {
                        self.run_row_fused(
                            programs[idx / nl],
                            program_fps[idx / nl],
                            latencies[idx % nl],
                            &span_cfgs(idx, 0, nc),
                        )
                    })?
            } else {
                let weights: Vec<u64> = (0..nrows)
                    .map(|row| self.row_weight(programs[row / nl], latencies[row % nl]))
                    .collect();
                let spans = plan_row_spans(&weights, nc, self.pool.threads());
                let order = span_claim_order(&spans, &weights);
                let tape_slots: Vec<OnceLock<Result<Arc<TraceTape>, SimError>>> =
                    (0..nrows).map(|_| OnceLock::new()).collect();
                let parts = self.pool.try_run_order(
                    spans.len(),
                    &order,
                    |u| -> Result<Vec<RunResult>, SimError> {
                        let RowSpan { row, lo, hi } = spans[u];
                        self.run_row_span(
                            programs[row / nl],
                            program_fps[row / nl],
                            latencies[row % nl],
                            &span_cfgs(row, lo, hi),
                            &tape_slots[row],
                        )
                    },
                )?;
                // Stitch spans back into whole rows: spans are row-major,
                // so appending in span order rebuilds each row's
                // configuration order. A row keeps its first (lowest-`lo`)
                // error, matching the whole-row path's report.
                let mut rows: Vec<Result<Vec<RunResult>, SimError>> =
                    (0..nrows).map(|_| Ok(Vec::with_capacity(nc))).collect();
                for (span, part) in spans.iter().zip(parts) {
                    match (&mut rows[span.row], part) {
                        (Ok(row), Ok(mut slice)) => row.append(&mut slice),
                        (slot @ Ok(_), Err(e)) => *slot = Err(e),
                        (Err(_), _) => {}
                    }
                }
                rows
            };
        let mut iter = rows.into_iter();
        programs
            .iter()
            .map(|program| {
                let mut rows = Vec::with_capacity(nl);
                for _ in 0..nl {
                    rows.push(iter.next().expect("one row per (program, latency)")?);
                }
                Ok(LatencySweep {
                    benchmark: program.name.clone(),
                    configs: configs.iter().map(HwConfig::label).collect(),
                    latencies: latencies.to_vec(),
                    rows,
                })
            })
            .collect()
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
    ) -> Result<Vec<LatencySweep>, SimError> {
        let (nl, nc) = (latencies.len(), configs.len());
        let cells = self.pool.try_run(
            programs.len() * nl * nc,
            |idx| -> Result<RunResult, SimError> {
                let program = programs[idx / (nl * nc)];
                let lat = latencies[(idx / nc) % nl];
                let cfg = SimConfig {
                    hw: configs[idx % nc].clone(),
                    ..base.clone()
                }
                .at_latency(lat);
                self.run_cell(program, &cfg)
            },
        )?;
        let mut iter = cells.into_iter();
        programs
            .iter()
            .map(|program| {
                let mut rows = Vec::with_capacity(nl);
                for _ in 0..nl {
                    rows.push(iter.by_ref().take(nc).collect::<Result<Vec<_>, _>>()?);
                }
                Ok(LatencySweep {
                    benchmark: program.name.clone(),
                    configs: configs.iter().map(HwConfig::label).collect(),
                    latencies: latencies.to_vec(),
                    rows,
                })
            })
            .collect()
    }

    /// Parallel [`penalty_sweep`]: identical results, cells run on the
    /// pool, the single compilation via the engine's cache.
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
    ) -> Result<PenaltySweep, SimError> {
        let compiled = self.store.get_or_compile(program, base.load_latency)?;
        let tape = self.store.get_or_record(&compiled);
        // One fused job per penalty: the row's configurations share the
        // tape (compiled for the base latency), so each row is a single
        // lockstep walk.
        let rows =
            self.pool
                .try_run(penalties.len(), |idx| -> Result<Vec<RunResult>, SimError> {
                    let cfgs: Vec<SimConfig> = configs
                        .iter()
                        .map(|hw| {
                            SimConfig {
                                hw: hw.clone(),
                                ..base.clone()
                            }
                            .with_penalty(penalties[idx])
                        })
                        .collect();
                    Ok(run_tape_fused(&program.name, &tape, &cfgs)?)
                })?;
        let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(PenaltySweep {
            benchmark: program.name.clone(),
            configs: configs.iter().map(HwConfig::label).collect(),
            penalties: penalties.to_vec(),
            rows,
        })
    }

    /// Policy × configuration × latency grid for one benchmark, as one
    /// flat pool invocation. The compiled program depends only on the
    /// latency, so every policy and configuration replays the same
    /// binaries; results are input-ordered and fully deterministic
    /// (the random policy reseeds per run from its fixed seed).
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
    ) -> Result<ReplacementSweep, SimError> {
        let (nl, nc) = (latencies.len(), configs.len());
        let cells = self.pool.try_run(
            policies.len() * nl * nc,
            |idx| -> Result<RunResult, SimError> {
                let policy = policies[idx / (nl * nc)];
                let lat = latencies[(idx / nc) % nl];
                let cfg = SimConfig {
                    hw: configs[idx % nc].clone(),
                    ..base.clone()
                }
                .at_latency(lat)
                .with_replacement(policy);
                self.run_cell(program, &cfg)
            },
        )?;
        let mut iter = cells.into_iter();
        let mut rows = Vec::with_capacity(policies.len());
        for _ in policies {
            let mut per_latency = Vec::with_capacity(nl);
            for _ in 0..nl {
                per_latency.push(iter.by_ref().take(nc).collect::<Result<Vec<_>, _>>()?);
            }
            rows.push(per_latency);
        }
        Ok(ReplacementSweep {
            benchmark: program.name.clone(),
            policies: policies.iter().map(ReplacementKind::label).collect(),
            configs: configs.iter().map(HwConfig::label).collect(),
            latencies: latencies.to_vec(),
            rows,
        })
    }

    /// Model × configuration × latency grid for one benchmark, as one
    /// flat pool invocation. Every model replays the same recorded tape
    /// (the compiled program depends only on the latency), so the grid
    /// isolates the pipeline's reaction — stall on first use vs. replay
    /// with cause attribution — from the code and the reference stream.
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
    ) -> Result<ModelSweep, SimError> {
        let (nl, nc) = (latencies.len(), configs.len());
        let cells = self.pool.try_run(
            models.len() * nl * nc,
            |idx| -> Result<RunResult, SimError> {
                let model = models[idx / (nl * nc)];
                let lat = latencies[(idx / nc) % nl];
                let cfg = SimConfig {
                    hw: configs[idx % nc].clone(),
                    ..base.clone()
                }
                .at_latency(lat)
                .with_processor(model);
                self.run_cell(program, &cfg)
            },
        )?;
        let mut iter = cells.into_iter();
        let mut rows = Vec::with_capacity(models.len());
        for _ in models {
            let mut per_latency = Vec::with_capacity(nl);
            for _ in 0..nl {
                per_latency.push(iter.by_ref().take(nc).collect::<Result<Vec<_>, _>>()?);
            }
            rows.push(per_latency);
        }
        Ok(ModelSweep {
            benchmark: program.name.clone(),
            models: models.iter().map(|m| m.label().to_string()).collect(),
            configs: configs.iter().map(HwConfig::label).collect(),
            latencies: latencies.to_vec(),
            rows,
        })
    }

    /// Runs many independent `(program, config)` jobs on the pool, results
    /// in input order, compilation cached. The workhorse for experiment
    /// tables that aren't latency sweeps (per-benchmark rows, ablations).
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
        let s = latency_sweep(&p, &base, &configs, &[1, 10]).unwrap();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].len(), 3);
        assert_eq!(s.curve(0).len(), 2);
        let r = s.at("mc=1", 10).unwrap();
        assert_eq!(r.config, "mc=1");
        assert_eq!(r.load_latency, 10);
        assert!(s.at("mc=7", 10).is_none());
        assert!(s.at("mc=1", 11).is_none());
    }

    #[test]
    fn parallel_sweeps_match_serial_exactly() {
        // The determinism contract: parallel execution returns RunResults
        // *equal* (full struct equality, every metric) to the serial path,
        // across ≥2 benchmarks × 2 latencies × 3 configs.
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc(1), HwConfig::Fc(4), HwConfig::NoRestrict];
        let latencies = [2, 10];
        let engine = SweepEngine::new(4);
        for name in ["doduc", "eqntott"] {
            let p = build(name, Scale::quick()).unwrap();
            let serial = latency_sweep(&p, &base, &configs, &latencies).unwrap();
            let parallel = engine
                .latency_sweep(&p, &base, &configs, &latencies)
                .unwrap();
            assert_eq!(serial.configs, parallel.configs);
            assert_eq!(serial.latencies, parallel.latencies);
            assert_eq!(
                serial.rows, parallel.rows,
                "{name}: parallel must be bit-identical"
            );
        }
        // And the penalty sweep.
        let p = build("tomcatv", Scale::quick()).unwrap();
        let serial = penalty_sweep(&p, &base, &configs, &[8, 32]).unwrap();
        let parallel = engine.penalty_sweep(&p, &base, &configs, &[8, 32]).unwrap();
        assert_eq!(serial.rows, parallel.rows);
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
        // 2 benchmarks × 2 latencies compiled; the fused sweep fetches
        // each compilation and tape exactly once per (benchmark, latency)
        // row — the 3 configurations inside a row share one walk.
        let stats = engine.cache().stats();
        assert_eq!(
            stats.compiles, 4,
            "each (benchmark, latency) pair compiles exactly once"
        );
        assert_eq!(stats.hits, 0, "fused rows fetch each compilation once");
        let tapes = engine.tapes().stats();
        assert_eq!(
            tapes.records, 4,
            "each (benchmark, latency) pair records exactly once"
        );
        assert_eq!(tapes.hits, 0, "fused rows fetch each tape once");
        assert_eq!(tapes.evictions, 0);
        engine
            .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
            .unwrap();
        assert_eq!(
            engine.cache().stats().compiles,
            4,
            "re-sweep recompiles nothing"
        );
        assert_eq!(engine.cache().stats().hits, 4);
        assert_eq!(
            engine.tapes().stats().records,
            4,
            "re-sweep re-records nothing"
        );
        assert_eq!(engine.tapes().stats().hits, 4);
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
        assert_eq!(a.policies, vec!["lru", "random", "plru"]);
        // The LRU plane equals a plain (default-policy) run.
        let lru = a.at("lru", "mc=1", 10).unwrap();
        let plain = latency_sweep(&p, &base, &configs, &latencies).unwrap();
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
        assert_eq!(a.models, vec!["single", "replay"]);
        // The single plane equals a plain (default-model) run.
        let single = a.at("single", "mc=1", 10).unwrap();
        let plain = latency_sweep(&p, &base, &configs, &latencies).unwrap();
        assert_eq!(single.cycles, plain.at("mc=1", 10).unwrap().cycles);
        assert_eq!(single.model, "single");
        assert_eq!(single.replay.total_replays(), 0);
        // The replaying plane attributes stalls to causes; the parallel
        // grid cell equals a direct serial run of the same configuration.
        let replay = a.at("replay", "mc=1", 10).unwrap();
        assert_eq!(replay.model, "replay");
        assert!(replay.replay.total_replays() > 0, "mc=1 must NACK or miss");
        let cfg = SimConfig::baseline(HwConfig::Mc(1))
            .at_latency(10)
            .with_processor(ProcessorKind::ReplayCause);
        let serial = crate::driver::run_program(&p, &cfg).unwrap();
        assert_eq!(*replay, serial, "parallel must equal the serial path");
    }

    #[test]
    fn penalty_sweep_blocking_is_linear() {
        let p = build("tomcatv", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let s = penalty_sweep(&p, &base, &[HwConfig::Mc0], &[8, 16, 32]).unwrap();
        let m8 = s.at("mc=0", 8).unwrap().mcpi;
        let m16 = s.at("mc=0", 16).unwrap().mcpi;
        let m32 = s.at("mc=0", 32).unwrap().mcpi;
        // "The blocking organization's miss CPI is strictly a linear
        // function of the miss penalty."
        assert!((m16 / m8 - 2.0).abs() < 0.05, "{m8} {m16}");
        assert!((m32 / m16 - 2.0).abs() < 0.05, "{m16} {m32}");
    }
}
