//! The software half of the tradeoff: scheduling loads for misses instead
//! of hits.
//!
//! The paper's closing point is that non-blocking hardware is only as good
//! as the compiler's willingness to schedule loads for the *miss* latency.
//! This example compiles one workload for every scheduled load latency and
//! shows how the same hardware's MCPI responds — and how the schedule
//! itself changes (load-use distances, spill code).
//!
//! ```text
//! cargo run --release --example compiler_scheduling [benchmark]
//! ```

use nonblocking_loads::sched::compile::{compile, LOAD_LATENCIES};
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::sweep::SweepEngine;
use nonblocking_loads::trace::machine::MachineOp;
use nonblocking_loads::trace::workloads::{build, Scale};

/// Mean distance (in instructions) from each static load to the first use
/// of its destination register within the same block.
fn mean_load_use_distance(compiled: &nonblocking_loads::trace::machine::CompiledProgram) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    for block in &compiled.blocks {
        for (i, op) in block.ops.iter().enumerate() {
            let MachineOp::Load { dst, .. } = op else {
                continue;
            };
            let first_use = block.ops[i + 1..].iter().position(|o| match o {
                MachineOp::Load { addr_src, .. } => *addr_src == Some(*dst),
                MachineOp::Store { data, addr_src, .. } => {
                    *data == Some(*dst) || *addr_src == Some(*dst)
                }
                MachineOp::Alu { srcs, .. } | MachineOp::Branch { srcs } => {
                    srcs.contains(&Some(*dst))
                }
            });
            if let Some(d) = first_use {
                total += d + 1;
                count += 1;
            }
        }
    }
    total as f64 / count.max(1) as f64
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tomcatv".to_string());
    let program = build(&bench, Scale::full()).expect("known benchmark");
    println!("compiler load-latency sweep for {bench}\n");
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "sched", "load-use", "spill ops", "MCPI", "MCPI", "MCPI"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "latency", "distance", "(static)", "(mc=0)", "(mc=1)", "(no restrict)"
    );
    // One latency sweep simulates the three configurations at every
    // latency (each row one fused replay of that latency's schedule).
    let sweep = SweepEngine::global()
        .latency_sweep(
            &program,
            &SimConfig::baseline(HwConfig::NoRestrict),
            &[HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict],
            &LOAD_LATENCIES,
        )
        .expect("workloads compile");
    for (lat, row) in LOAD_LATENCIES.into_iter().zip(&sweep.rows) {
        let compiled = compile(&program, lat).expect("workloads compile");
        let spills: usize = compiled.blocks.iter().map(|b| b.spill_ops).sum();
        let dist = mean_load_use_distance(&compiled);
        println!(
            "{:>8} {:>12.1} {:>10} {:>12.3} {:>12.3} {:>12.3}",
            lat, dist, spills, row[0].mcpi, row[1].mcpi, row[2].mcpi,
        );
    }
    println!(
        "\nThe blocking cache is schedule-insensitive (a miss always stalls the\n\
         full penalty); the non-blocking configurations convert every extra\n\
         instruction of load-use distance directly into hidden miss latency."
    );
}
