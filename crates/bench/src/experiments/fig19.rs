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
    LATENCIES
        .into_iter()
        .min_by(|a, b| {
            (f64::from(*a) - scaled)
                .abs()
                .partial_cmp(&(f64::from(*b) - scaled).abs())
                .expect("finite")
        })
        .expect("non-empty latency set")
}

/// Prints the Fig. 19 comparison.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let programs = programs_for(&BENCHMARKS, scale)?;
    let pool = engine().pool();

    // Stage 1: each benchmark's IPC probe (perfect-cache dual run), in
    // parallel across benchmarks.
    let probes = pool
        .run(programs.len(), |b| {
            run_dual(&programs[b], &SimConfig::baseline(HwConfig::NoRestrict))
                .map_err(|e| e.to_string())
        })
        .into_iter()
        .zip(BENCHMARKS)
        .map(|(r, name)| r.map_err(|e| ExhibitError::new(format!("{name} @ Fig. 19 IPC probe"), e)))
        .collect::<Result<Vec<_>, _>>()?;

    // Stage 2: every (benchmark, configuration) cell — a dual-issue run
    // and the IPC-scaled single-issue prediction — as one flat grid.
    let hws = configs();
    let nc = hws.len();
    let cells = pool
        .run(programs.len() * nc, |idx| -> Result<(f64, f64), String> {
            let (b, c) = (idx / nc, idx % nc);
            let p = &programs[b];
            let ipc = probes[b].ipc;
            let hw = hws[c].clone();
            let dual = run_dual(p, &SimConfig::baseline(hw.clone())).map_err(|e| e.to_string())?;
            let single_cfg = SimConfig::baseline(hw)
                .at_latency(snap_latency(10.0 * ipc))
                .with_penalty((16.0 * ipc).round().max(1.0) as u32);
            let single = run_program(p, &single_cfg).map_err(|e| e.to_string())?;
            // The scaled single-issue MCPI is per *scaled* cycle; mapping
            // back to dual-issue cycles divides by the IPC.
            Ok((dual.mcpi, single.mcpi / ipc))
        })
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
    for (b, name) in BENCHMARKS.iter().enumerate() {
        let ipc = probes[b].ipc;
        let scaled_lat = snap_latency(10.0 * ipc);
        let scaled_pen = (16.0 * ipc).round().max(1.0) as u32;
        let _ = write!(
            out,
            "{name:>10} {ipc:>6.2} {scaled_lat:>8} {scaled_pen:>8} |"
        );
        for (dual_mcpi, predicted) in &cells[b * nc..(b + 1) * nc] {
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
