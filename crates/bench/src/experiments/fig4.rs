//! Figure 4: benchmark characteristics — dynamic instruction, load and
//! store counts as the scheduled load latency varies, reporting the
//! min/max and the latency at which each occurs.
//!
//! The paper's counts vary with latency because register allocation runs
//! after scheduling and spill code differs per schedule; our compiler
//! model reproduces the mechanism (see `nbl-sched`).

use super::{engine, programs_for, ExhibitError, RunScale, LATENCIES};
use nbl_trace::workloads::DETAILED_FIVE;
use std::io::Write;

struct Extremes {
    min: u64,
    min_lat: u32,
    max: u64,
    max_lat: u32,
}

fn extremes(values: &[(u32, u64)]) -> Extremes {
    let (mut min, mut min_lat) = (u64::MAX, 0);
    let (mut max, mut max_lat) = (0, 0);
    for &(lat, v) in values {
        if v < min {
            min = v;
            min_lat = lat;
        }
        if v > max {
            max = v;
            max_lat = lat;
        }
    }
    Extremes {
        min,
        min_lat,
        max,
        max_lat,
    }
}

/// Prints the Fig. 4 table for the five detailed benchmarks.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Figure 4: benchmark characteristics (counts in thousands) =="
    );
    let _ = writeln!(
        out,
        "{:>10} | {:>8} {:>3} {:>8} {:>3} | {:>8} {:>3} {:>8} {:>3} | {:>8} {:>3} {:>8} {:>3}",
        "bench",
        "inst min",
        "lat",
        "inst max",
        "lat",
        "ld min",
        "lat",
        "ld max",
        "lat",
        "st min",
        "lat",
        "st max",
        "lat"
    );
    // fpppp is appended to the paper's five: at our workload scale it is
    // the benchmark whose register pressure actually crosses the spill
    // threshold, demonstrating the reference-count mechanism.
    let names: Vec<&str> = DETAILED_FIVE
        .iter()
        .copied()
        .chain(std::iter::once("fpppp"))
        .collect();
    let programs = programs_for(&names, scale)?;
    // All (benchmark, latency) compilations in parallel, through the
    // shared store — the sweeps that follow in an `all` run reuse them.
    let nl = LATENCIES.len();
    let mixes = engine().pool().run(programs.len() * nl, |idx| {
        engine()
            .store()
            .get_or_compile(&programs[idx / nl], LATENCIES[idx % nl])
            .map(|c| c.dynamic_mix())
            .map_err(|e| e.to_string())
    });
    for (b, name) in names.iter().enumerate() {
        let mut insts = Vec::new();
        let mut loads = Vec::new();
        let mut stores = Vec::new();
        for (i, lat) in LATENCIES.into_iter().enumerate() {
            let (l, s, o) = mixes[b * nl + i]
                .clone()
                .map_err(|e| ExhibitError::new(format!("{name} @ latency {lat}"), e))?;
            insts.push((lat, l + s + o));
            loads.push((lat, l));
            stores.push((lat, s));
        }
        let i = extremes(&insts);
        let l = extremes(&loads);
        let s = extremes(&stores);
        let k = 1000;
        let _ = writeln!(
            out,
            "{:>10} | {:>8} {:>3} {:>8} {:>3} | {:>8} {:>3} {:>8} {:>3} | {:>8} {:>3} {:>8} {:>3}",
            name,
            i.min / k,
            i.min_lat,
            i.max / k,
            i.max_lat,
            l.min / k,
            l.min_lat,
            l.max / k,
            l.max_lat,
            s.min / k,
            s.min_lat,
            s.max / k,
            s.max_lat,
        );
    }
    let _ = writeln!(out);
    Ok(())
}
