//! Trace capture and replay: ship a workload as a file.
//!
//! Records a benchmark's exact dynamic instruction stream to a tape and
//! writes it to disk in the tape codec's `.nblt` format (the lineage of
//! the paper's long-address-trace infrastructure), then reads the file
//! back, replays it through the simulator, and verifies the result is
//! bit-identical to direct execution.
//!
//! ```text
//! cargo run --release --example trace_capture [benchmark] [out.nblt]
//! ```

use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::{run_compiled, run_tape};
use nonblocking_loads::trace::tape::TraceTape;
use nonblocking_loads::trace::workloads::{build, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "eqntott".to_string());
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| format!("/tmp/{bench}.nblt"));

    // 1. Generate + compile + capture.
    let program = build(&bench, Scale::full()).ok_or("unknown benchmark")?;
    let compiled = compile(&program, 10)?;
    let tape = TraceTape::record(&compiled);
    std::fs::write(&path, tape.to_bytes())?;
    let n = tape.len();
    let size = std::fs::metadata(&path)?.len();
    println!(
        "captured {n} instructions to {path} ({size} bytes, {:.1} B/inst)",
        size as f64 / n as f64
    );

    // 2. Direct simulation for reference.
    let cfg = SimConfig::baseline(HwConfig::Fc(2));
    let direct = run_compiled(&bench, &compiled, &cfg)?;
    println!("direct simulation:   MCPI {:.6}", direct.mcpi);

    // 3. Read the file back and replay it.
    let loaded = TraceTape::from_bytes(&std::fs::read(&path)?)?;
    println!(
        "trace header: name={} latency={}",
        loaded.name(),
        loaded.load_latency()
    );
    let replayed = run_tape(&bench, &loaded, &cfg)?;
    println!(
        "replayed simulation: MCPI {:.6} ({} instructions)",
        replayed.mcpi, replayed.instructions
    );

    assert_eq!(replayed.instructions, n as u64);
    assert_eq!(
        replayed.mcpi.to_bits(),
        direct.mcpi.to_bits(),
        "replay must be bit-identical"
    );
    println!("replay is bit-identical to direct execution ✓");
    Ok(())
}
