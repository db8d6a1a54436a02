//! Static-oracle coverage: how much of each benchmark's memory stream
//! the abstract must-hit/may-miss analysis (DESIGN.md §18) can classify,
//! across the detailed five benchmarks × {direct-mapped, 4-way} ×
//! every replacement policy × {blocking `mc=0`, non-blocking `fc=2`} —
//! and, as a standing regression gate, that the cross-check against the
//! simulator's per-access outcomes reports **zero violations** in every
//! cell. Blocking cells have a zero-length fill window, where the LRU
//! and FIFO analyses are exact (unknown% = 0); non-blocking cells show
//! the price of fill-timing uncertainty. The grid runs on the oracle's
//! one runner (`nbl_oracle::run_grid`), with no verdict store.

use super::{write_csv, write_json, ExhibitError, RunScale};
use nbl_oracle::run_grid;
use nbl_sim::config::HwConfig;
use nbl_trace::workloads::DETAILED_FIVE;
use std::io::Write;

/// Runs the coverage grid and writes `oracle.csv` / `oracle.json`.
/// Deterministic (fixed tapes, fixed random-policy seed).
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let hws = [HwConfig::Mc0, HwConfig::Fc(2)];
    let run = run_grid(&DETAILED_FIVE, scale.workload_scale(), &hws, None)
        .map_err(|e| ExhibitError::new("oracle", e))?;
    let _ = writeln!(
        out,
        "== Static oracle coverage: must-hit/must-miss/unknown per cell =="
    );
    let _ = run.write_table(out);
    write_csv("oracle", &run.csv())?;
    write_json("oracle", &run.json())
}
