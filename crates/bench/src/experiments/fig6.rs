//! Figure 6: histogram of in-flight misses and fetches for doduc, per
//! scheduled load latency, measured on the unrestricted configuration
//! with the baseline system.

use super::{engine, program, ExhibitError, RunScale, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use std::io::Write;

/// Prints the Fig. 6 table.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let p = program("doduc", scale)?;
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = engine()
        .latency_sweep(&p, &base, &[HwConfig::NoRestrict], &LATENCIES)
        .map_err(|e| ExhibitError::new("doduc @ Fig. 6 latencies", e))?;
    let rows: Vec<(u32, &nbl_sim::driver::RunResult)> = LATENCIES
        .into_iter()
        .zip(sweep.rows.iter().map(|row| &row[0]))
        .collect();
    let _ = writeln!(
        out,
        "== Figure 6: in-flight misses and fetches for doduc =="
    );
    let _ = writeln!(out, "{}", report::inflight_table("doduc", &rows));
    Ok(())
}
