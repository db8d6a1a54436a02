//! Figure 19 (table): dual- and single-issue MCPI scaling comparison
//! (paper §6).
//!
//! Method, as in the paper: simulate each benchmark on the dual-issue
//! machine (load latency 10, miss penalty 16); measure its average IPC on
//! the same machine with a perfect cache; then predict the dual-issue MCPI
//! from a *single-issue* simulation whose load latency and miss penalty
//! are scaled by that IPC — the load latency snapped to the compiled set
//! {1,2,3,6,10,20}, the penalty rounded to the nearest integer, exactly
//! like the paper ("it was not convenient to compile the code for all
//! values of the load latency").

use super::{engine, programs_for, ExhibitError, RunScale, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::driver::{run_dual, run_program};
use std::io::Write;

/// The four configurations the paper compares.
pub fn configs() -> Vec<HwConfig> {
    vec![
        HwConfig::Mc0,
        HwConfig::Mc(1),
        HwConfig::Fc(2),
        HwConfig::NoRestrict,
    ]
}

/// The benchmarks of the Fig. 19 table.
pub const BENCHMARKS: [&str; 5] = ["doduc", "eqntott", "su2cor", "tomcatv", "xlisp"];

/// Snaps a scaled latency to the nearest compiled value.
pub fn snap_latency(scaled: f64) -> u32 {
    let distance = |l: u32| (f64::from(l) - scaled).abs();
    LATENCIES.into_iter().fold(LATENCIES[0], |best, l| {
        if distance(l).total_cmp(&distance(best)).is_lt() {
            l
        } else {
            best
        }
    })
}

/// The IPC-scaled single-issue miss penalty: `16 · IPC`, rounded.
fn scaled_penalty(ipc: f64) -> u32 {
    (16.0 * ipc).round().max(1.0) as u32
}

/// Prints the Fig. 19 comparison.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let programs = programs_for(&BENCHMARKS, scale)?;

    // Every (benchmark, configuration) cell — a dual-issue run and the
    // IPC-scaled single-issue prediction — as one flat grid. The IPC is
    // the cell's own perfect-cache dual pass, which never touches its
    // memory system: every cell of a benchmark reads the same IPC.
    let hws = configs();
    let nc = hws.len();
    let cells = engine()
        .pool()
        .run(
            programs.len() * nc,
            |idx| -> Result<(f64, f64, f64), String> {
                let (b, c) = (idx / nc, idx % nc);
                let p = &programs[b];
                let hw = hws[c].clone();
                let dual =
                    run_dual(p, &SimConfig::baseline(hw.clone())).map_err(|e| e.to_string())?;
                let ipc = dual.ipc;
                let single_cfg = SimConfig::baseline(hw)
                    .at_latency(snap_latency(10.0 * ipc))
                    .with_penalty(scaled_penalty(ipc));
                let single = run_program(p, &single_cfg).map_err(|e| e.to_string())?;
                // The scaled single-issue MCPI is per *scaled* cycle; mapping
                // back to dual-issue cycles divides by the IPC.
                Ok((ipc, dual.mcpi, single.mcpi / ipc))
            },
        )
        .into_iter()
        .enumerate()
        .map(|(idx, r)| {
            r.map_err(|e| ExhibitError::new(format!("{} @ Fig. 19 grid", BENCHMARKS[idx / nc]), e))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let _ = writeln!(out, "== Figure 19: dual vs IPC-scaled single-issue MCPI ==");
    let _ = writeln!(
        out,
        "{:>10} {:>6} {:>8} {:>8} | per config: dual MCPI, scaled-single MCPI, % diff",
        "bench", "IPC", "s.lat", "s.pen"
    );
    for (name, row) in BENCHMARKS.iter().zip(cells.chunks(nc)) {
        let ipc = row.first().map_or(0.0, |cell| cell.0);
        let scaled_lat = snap_latency(10.0 * ipc);
        let scaled_pen = scaled_penalty(ipc);
        let _ = write!(
            out,
            "{name:>10} {ipc:>6.2} {scaled_lat:>8} {scaled_pen:>8} |"
        );
        for (_, dual_mcpi, predicted) in row {
            let diff = if *dual_mcpi > 0.0 {
                100.0 * (predicted - dual_mcpi) / dual_mcpi
            } else {
                0.0
            };
            let _ = write!(out, "  {dual_mcpi:>6.3} {predicted:>6.3} {diff:>5.0}%");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-stage table takes a benchmark's IPC from any of its cells:
    /// that holds only if the perfect-cache pass ignores the hardware
    /// configuration.
    #[test]
    fn a_benchmarks_cells_share_one_perfect_cycle_count() {
        for p in programs_for(&BENCHMARKS, RunScale::Quick).unwrap() {
            let perfect: Vec<u64> = configs()
                .into_iter()
                .map(|hw| {
                    run_dual(&p, &SimConfig::baseline(hw))
                        .unwrap()
                        .perfect_cycles
                })
                .collect();
            assert!(
                perfect.windows(2).all(|w| w[0] == w[1]),
                "{}: {perfect:?}",
                p.name
            );
        }
    }
}
