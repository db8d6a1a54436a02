//! Miss-lifecycle exhibit: replays a few benchmarks with the memory
//! system's event tracing enabled and summarizes the transaction
//! lifecycle — how deep secondary misses merge, how many targets each
//! fill wakes, and how long blocks stay in flight. This is the data the
//! `Issued → Merged/Rejected → FetchLaunched → Filled → TargetsWoken`
//! event stream exists to expose; no paper figure plots it directly.

use super::{engine, program, write_json, ExhibitError, RunScale};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use nbl_sim::run_tape_traced;
use std::io::Write;

/// Scheduled load latency: 10, the operating point where schedules
/// overlap enough for secondary misses to merge (at latency 1 nearly
/// every miss is primary and the histograms are degenerate).
const LATENCY: u32 = 10;

/// Benchmarks × configurations shown in the exhibit.
fn cells() -> (Vec<&'static str>, Vec<HwConfig>) {
    (
        vec!["eqntott", "tomcatv", "doduc"],
        vec![HwConfig::Mc(1), HwConfig::Mc(4), HwConfig::NoRestrict],
    )
}

/// Prints the miss-lifecycle tables and writes `misslife.json`.
pub fn run(out: &mut dyn Write, scale: RunScale) -> Result<(), ExhibitError> {
    let (benchmarks, configs) = cells();
    let _ = writeln!(out, "== Miss lifecycle: traced transaction summaries ==");
    let mut json = String::from("[");
    let store = engine().store();
    for name in &benchmarks {
        let p = program(name, scale)?;
        let compiled = store
            .get_or_compile(&p, LATENCY)
            .map_err(|e| ExhibitError::new(format!("{name} @ latency {LATENCY}"), e))?;
        let tape = store.get_or_record(&compiled);
        for hw in &configs {
            let cfg = SimConfig::baseline(hw.clone()).at_latency(LATENCY);
            let (_result, trace) = run_tape_traced(name, &tape, &cfg)
                .map_err(|e| ExhibitError::new(format!("{name} @ {} traced", hw.label()), e))?;
            let label = hw.label();
            let _ = writeln!(
                out,
                "{}",
                report::miss_lifecycle_table(name, &label, &trace.stats)
            );
            if json.len() > 1 {
                json.push(',');
            }
            json.push_str(&report::miss_lifecycle_json(name, &label, &trace.stats));
        }
    }
    json.push(']');
    write_json("misslife", &json)
}
