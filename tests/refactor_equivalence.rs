//! Refactor-equivalence guard for the port-based memory system.
//!
//! The golden rows below were captured from the pre-port engine (the
//! processor models still owned the cache, MSHRs, pipelined memory, and
//! write buffer directly) for the Fig. 13 configurations at the paper's
//! six scheduled load latencies, quick scale. The port refactor must be
//! a pure re-layering: instruction counts, cycle counts, and the full
//! stall-cause breakdown stay bit-identical.

use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::{run_program, run_tape, run_tape_traced};
use nonblocking_loads::sim::sweep::SweepEngine;
use nonblocking_loads::trace::workloads::{build, Scale};

/// `(benchmark, config label, latency, instructions, cycles,
/// data-dep stalls, structural stalls, blocking stalls)`.
type GoldenRow = (&'static str, &'static str, u32, u64, u64, u64, u64, u64);

const GOLDEN: [GoldenRow; 72] = [
    ("eqntott", "mc=0", 1, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=0", 2, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=0", 3, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=0", 6, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=0", 10, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=0", 20, 36800, 44288, 0, 0, 7488),
    ("eqntott", "mc=1", 1, 36800, 43400, 6000, 600, 0),
    ("eqntott", "mc=1", 2, 36800, 42257, 4599, 858, 0),
    ("eqntott", "mc=1", 3, 36800, 41674, 3290, 1584, 0),
    ("eqntott", "mc=1", 6, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "mc=1", 10, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "mc=1", 20, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "mc=2", 1, 36800, 42800, 6000, 0, 0),
    ("eqntott", "mc=2", 2, 36800, 41581, 4739, 42, 0),
    ("eqntott", "mc=2", 3, 36800, 40664, 3523, 341, 0),
    ("eqntott", "mc=2", 6, 36800, 40315, 3174, 341, 0),
    ("eqntott", "mc=2", 10, 36800, 40315, 3174, 341, 0),
    ("eqntott", "mc=2", 20, 36800, 40315, 3174, 341, 0),
    ("eqntott", "fc=1", 1, 36800, 43400, 6000, 600, 0),
    ("eqntott", "fc=1", 2, 36800, 42257, 4599, 858, 0),
    ("eqntott", "fc=1", 3, 36800, 41674, 3290, 1584, 0),
    ("eqntott", "fc=1", 6, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "fc=1", 10, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "fc=1", 20, 36800, 41326, 2942, 1584, 0),
    ("eqntott", "fc=2", 1, 36800, 42800, 6000, 0, 0),
    ("eqntott", "fc=2", 2, 36800, 41581, 4739, 42, 0),
    ("eqntott", "fc=2", 3, 36800, 40664, 3523, 341, 0),
    ("eqntott", "fc=2", 6, 36800, 40315, 3174, 341, 0),
    ("eqntott", "fc=2", 10, 36800, 40315, 3174, 341, 0),
    ("eqntott", "fc=2", 20, 36800, 40315, 3174, 341, 0),
    ("eqntott", "no restrict", 1, 36800, 42800, 6000, 0, 0),
    ("eqntott", "no restrict", 2, 36800, 41574, 4774, 0, 0),
    ("eqntott", "no restrict", 3, 36800, 40453, 3653, 0, 0),
    ("eqntott", "no restrict", 6, 36800, 40104, 3304, 0, 0),
    ("eqntott", "no restrict", 10, 36800, 40104, 3304, 0, 0),
    ("eqntott", "no restrict", 20, 36800, 40104, 3304, 0, 0),
    ("tomcatv", "mc=0", 1, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=0", 2, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=0", 3, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=0", 6, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=0", 10, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=0", 20, 40936, 95832, 0, 0, 54896),
    ("tomcatv", "mc=1", 1, 40936, 89757, 23711, 25110, 0),
    ("tomcatv", "mc=1", 2, 40936, 87337, 3066, 43335, 0),
    ("tomcatv", "mc=1", 3, 40936, 87521, 2298, 44287, 0),
    ("tomcatv", "mc=1", 6, 40936, 87127, 0, 46191, 0),
    ("tomcatv", "mc=1", 10, 40936, 87127, 0, 46191, 0),
    ("tomcatv", "mc=1", 20, 40936, 87127, 0, 46191, 0),
    ("tomcatv", "mc=2", 1, 40936, 64647, 23711, 0, 0),
    ("tomcatv", "mc=2", 2, 40936, 62227, 3066, 18225, 0),
    ("tomcatv", "mc=2", 3, 40936, 62411, 2298, 19177, 0),
    ("tomcatv", "mc=2", 6, 40936, 62017, 0, 21081, 0),
    ("tomcatv", "mc=2", 10, 40936, 62017, 0, 21081, 0),
    ("tomcatv", "mc=2", 20, 40936, 62017, 0, 21081, 0),
    ("tomcatv", "fc=1", 1, 40936, 89757, 23711, 25110, 0),
    ("tomcatv", "fc=1", 2, 40936, 83454, 17408, 25110, 0),
    ("tomcatv", "fc=1", 3, 40936, 78811, 12689, 25186, 0),
    ("tomcatv", "fc=1", 6, 40936, 74867, 2775, 31156, 0),
    ("tomcatv", "fc=1", 10, 40936, 75439, 1803, 32700, 0),
    ("tomcatv", "fc=1", 20, 40936, 74973, 1337, 32700, 0),
    ("tomcatv", "fc=2", 1, 40936, 64647, 23711, 0, 0),
    ("tomcatv", "fc=2", 2, 40936, 58344, 17408, 0, 0),
    ("tomcatv", "fc=2", 3, 40936, 53695, 12689, 70, 0),
    ("tomcatv", "fc=2", 6, 40936, 48999, 2775, 5288, 0),
    ("tomcatv", "fc=2", 10, 40936, 49569, 1817, 6816, 0),
    ("tomcatv", "fc=2", 20, 40936, 49096, 1344, 6816, 0),
    ("tomcatv", "no restrict", 1, 40936, 64647, 23711, 0, 0),
    ("tomcatv", "no restrict", 2, 40936, 58344, 17408, 0, 0),
    ("tomcatv", "no restrict", 3, 40936, 53653, 12717, 0, 0),
    ("tomcatv", "no restrict", 6, 40936, 46093, 5157, 0, 0),
    ("tomcatv", "no restrict", 10, 40936, 44189, 3253, 0, 0),
    ("tomcatv", "no restrict", 20, 40936, 43237, 2301, 0, 0),
];

fn config_for(label: &str) -> HwConfig {
    match label {
        "mc=0" => HwConfig::Mc0,
        "mc=1" => HwConfig::Mc(1),
        "mc=2" => HwConfig::Mc(2),
        "fc=1" => HwConfig::Fc(1),
        "fc=2" => HwConfig::Fc(2),
        "no restrict" => HwConfig::NoRestrict,
        other => panic!("unknown golden config {other}"),
    }
}

#[test]
fn port_refactor_preserves_every_golden_row() {
    for &(bench, label, lat, instructions, cycles, data_dep, structural, blocking) in &GOLDEN {
        let p = build(bench, Scale::quick()).unwrap();
        let cfg = SimConfig::baseline(config_for(label)).at_latency(lat);
        let r = run_program(&p, &cfg).unwrap();
        let got = (
            r.instructions,
            r.cycles,
            r.data_dep_stalls,
            r.structural_stalls,
            r.blocking_stalls,
        );
        let want = (instructions, cycles, data_dep, structural, blocking);
        assert_eq!(
            got, want,
            "{bench} [{label}] latency {lat} diverged from pre-port engine"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let store = SweepEngine::global().store();
    for &(bench, label, lat, ..) in &GOLDEN {
        let p = build(bench, Scale::quick()).unwrap();
        let cfg = SimConfig::baseline(config_for(label)).at_latency(lat);
        let tape = store.get_or_record(&store.get_or_compile(&p, lat).unwrap());
        let plain = run_tape(bench, &tape, &cfg).unwrap();
        let (traced, trace) = run_tape_traced(bench, &tape, &cfg, 64).unwrap();
        let cell = format!("{bench} [{label}] latency {lat}");
        assert_eq!(plain, traced, "{cell}: tracing changed the run");
        assert!(trace.stats.fetches > 0, "{cell}: trace recorded nothing");
        assert_eq!(
            trace.ring.total(),
            trace.stats.total_events(),
            "{cell}: ring and stats saw different lifecycle streams"
        );
        assert_eq!(
            trace.outcomes.len() as u64,
            plain.loads + plain.stores,
            "{cell}: every access must resolve exactly once"
        );
    }
}
