//! Sensitivity to the processor model: miss CPI for eqntott under the stalling
//! single-issue pipeline, the dual-issue pipeline, and the replaying
//! speculative pipeline (XiangShan-style replay causes), sweeping model ×
//! MSHR configuration × the paper's six load latencies. The paper's
//! machine stalls the pipeline on the first use of a pending register;
//! this exhibit asks whether its mc/fc/no-restrict *ranking* survives on
//! a pipeline that instead issues loads speculatively and replays them on
//! bank conflicts, store-forward failures, and dcache NACKs — and shows
//! where the replaying pipeline's stall cycles go, per cause. No paper
//! figure plots it.

use super::{engine, program, write_csv, write_json, ExhibitError, RunScale, LATENCIES};
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::report;
use nbl_sim::sweep::ModelSweep;
use std::io::Write;

/// Benchmark shown: eqntott, whose pointer-chasing loads exercise every
/// replay cause (conflicting banks, store-to-load forwarding, NACKs on
/// the one-register configuration).
const BENCHMARK: &str = "eqntott";

/// MSHR organizations compared: a single conventional register, a
/// two-register file with four targets each, and the unlimited bound.
fn configs() -> Vec<HwConfig> {
    vec![HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict]
}

/// Configuration labels ordered best-first (lowest MCPI) for `model` at
/// the sweep's largest latency.
fn ranking(sweep: &ModelSweep, model: &str) -> Option<Vec<String>> {
    let m = sweep.models.iter().position(|x| x == model)?;
    let i = sweep.latencies.len().checked_sub(1)?;
    let row = &sweep.rows[m][i];
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| row[a].mcpi.total_cmp(&row[b].mcpi));
    Some(order.iter().map(|&j| sweep.configs[j].clone()).collect())
}

/// Prints the per-configuration model tables, the per-cause replay
/// attribution, and the best-first config ranking under each pipeline;
/// writes `replaymodel.csv` / `replaymodel.json`. Deterministic.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let p = program(BENCHMARK, scale)?;
    let models = ProcessorKind::ALL;
    let sweep = engine()
        .model_sweep(&p, &base, &models, &configs(), &LATENCIES)
        .map_err(|e| ExhibitError::new(format!("{BENCHMARK} model sweep"), e))?;
    let _ = writeln!(
        out,
        "== Processor-model sensitivity: {BENCHMARK}, stalling vs replaying pipelines =="
    );
    let _ = writeln!(out, "{}", report::model_mcpi_table(&sweep));
    let _ = writeln!(out, "{}", report::replay_attribution_table(&sweep));
    let max_lat = LATENCIES[LATENCIES.len() - 1];
    for model in &sweep.models {
        if let Some(order) = ranking(&sweep, model) {
            let _ = writeln!(
                out,
                "ranking at lat={max_lat} [{model}]: {} (best first)",
                order.join(" < ")
            );
        }
    }
    let _ = writeln!(out);
    write_csv("replaymodel", &report::model_sweep_csv(&sweep))?;
    write_json("replaymodel", &report::model_sweep_json(&sweep))
}
