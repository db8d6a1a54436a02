//! Replacement-policy sensitivity: miss CPI for eqntott on a 4-way
//! associative 8 KB cache, sweeping replacement policy (LRU, FIFO,
//! random, tree-PLRU) × MSHR configuration × the paper's six load
//! latencies. The paper's baseline cache is direct-mapped, where every
//! policy is degenerate; this exhibit asks how much the Fig. 13-style
//! MSHR tradeoffs shift when the set-associative victim choice is in
//! play. No paper figure plots it directly.

use super::{engine, program, write_csv, write_json, ExhibitError, RunScale, LATENCIES};
use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use std::io::Write;

/// Benchmark shown: eqntott, whose pointer-chasing misses are the most
/// replacement-sensitive of the four workloads.
const BENCHMARK: &str = "eqntott";

/// MSHR organizations compared: a single conventional register, a
/// two-register file with four targets each, and the unlimited bound.
fn configs() -> Vec<HwConfig> {
    vec![HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict]
}

/// Prints the per-configuration policy tables and writes
/// `replsens.csv` / `replsens.json`. Deterministic, including the
/// random policy (fixed SplitMix64 seed).
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let geom = CacheGeometry::new(8 * 1024, 32, 4)
        .map_err(|e| ExhibitError::new("replsens geometry", e))?;
    let base = SimConfig::baseline(HwConfig::NoRestrict).with_geometry(geom);
    let p = program(BENCHMARK, scale)?;
    let sweep = engine()
        .replacement_sweep(&p, &base, &ReplacementKind::all(), &configs(), &LATENCIES)
        .map_err(|e| ExhibitError::new(format!("{BENCHMARK} replacement sweep"), e))?;
    let _ = writeln!(
        out,
        "== Replacement-policy sensitivity: {BENCHMARK}, 4-way 8KB cache =="
    );
    let _ = writeln!(out, "{}", report::plane_mcpi_table(&sweep));
    write_csv("replsens", &report::plane_sweep_csv(&sweep))?;
    write_json("replsens", &report::plane_sweep_json(&sweep))
}
