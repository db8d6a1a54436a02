//! Figure 13 (table): baseline MCPI for all 18 SPEC92 stand-ins at
//! scheduled load latency 10, under mc=0 / mc=1 / mc=2 / fc=1 / fc=2 and
//! the unrestricted cache, with ratios to the unrestricted MCPI.

use super::{engine, programs_for, ExhibitError, RunScale};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::driver::RunResult;
use nbl_sim::report;
use nbl_trace::ir::Program;
use nbl_trace::workloads::ALL;
use std::io::Write;

/// All 18 rows — the full 18 × 6 grid as one fused grid sweep at the
/// baseline latency, each benchmark compiled once (at latency 10) and
/// replayed once for all six configurations.
pub fn grid(scale: RunScale) -> Result<Vec<(&'static str, Vec<RunResult>)>, ExhibitError> {
    let programs = programs_for(&ALL, scale)?;
    let refs: Vec<&Program> = programs.iter().collect();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweeps = engine()
        .grid_sweep(&refs, &base, &HwConfig::table13_six(), &[base.load_latency])
        .map_err(|e| ExhibitError::new("Fig. 13 grid over all 18 benchmarks", e))?;
    Ok(ALL
        .iter()
        .zip(sweeps)
        .map(|(name, sweep)| (*name, sweep.rows.into_iter().flatten().collect()))
        .collect())
}

/// Prints the Fig. 13 table.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Figure 13: baseline MCPI for 18 benchmarks (latency 10) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>5} {:>7} {:>5} {:>7} {:>5} {:>7} {:>5} {:>7} {:>5} {:>7}",
        "bench", "mc=0", "r", "mc=1", "r", "mc=2", "r", "fc=1", "r", "fc=2", "r", "inf"
    );
    for (name, results) in grid(scale)? {
        let _ = writeln!(out, "{}", report::fig13_row(name, &results));
    }
    let _ = writeln!(out);
    Ok(())
}
