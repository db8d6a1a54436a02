//! Figure 15: baseline miss CPI for su2cor, with the per-set fetch-limit
//! curves (`fs=1`, `fs=2`) added to the usual seven — the paper's
//! in-cache-MSHR-storage study.

use super::{engine, program, write_csv, write_json, ExhibitError, RunScale, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use std::io::Write;

/// The nine configurations of Fig. 15.
pub fn configs() -> Vec<HwConfig> {
    let mut c = HwConfig::baseline_seven();
    c.insert(3, HwConfig::Fs(1));
    c.insert(4, HwConfig::Fs(2));
    c
}

/// Prints the Fig. 15 sweep.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let p = program("su2cor", scale)?;
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = engine()
        .latency_sweep(&p, &base, &configs(), &LATENCIES)
        .map_err(|e| ExhibitError::new("su2cor @ Fig. 15 latencies", e))?;
    let _ = writeln!(
        out,
        "== Figure 15: baseline miss CPI for su2cor (with fs= curves) =="
    );
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_table(&sweep));
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_chart(&sweep));
    write_csv("fig15", &report::sweep_csv(&sweep))?;
    write_json("fig15", &report::sweep_json(&sweep))
}
