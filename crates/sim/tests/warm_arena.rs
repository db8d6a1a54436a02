//! Exact pins on the worker-arena allocation counters.
//!
//! These tests assert *equalities* on the process-wide telemetry
//! counters, so they need the process to themselves: this integration
//! binary holds only serial tests that account for every run they
//! trigger (unit tests in the library binary run concurrently and would
//! perturb the deltas).

use nbl_sim::{
    run_tape, run_tape_fused, ArtifactStore, HwConfig, ProcessorKind, SimConfig, Telemetry,
};
use nbl_trace::workloads::{build, Scale};
use std::sync::Mutex;

/// Serializes the tests in this binary: both pin deltas on the shared
/// global counters, so they must not interleave.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn warm_workers_serve_replays_without_building_processors() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let program = build("eqntott", Scale::quick()).unwrap();
    let base = SimConfig::baseline(HwConfig::Mc0);
    let store = ArtifactStore::in_memory();
    let compiled = store.get_or_compile(&program, base.load_latency).unwrap();
    let tape = store.get_or_record(&compiled);
    let configs = [
        SimConfig::baseline(HwConfig::Mc0),
        SimConfig::baseline(HwConfig::Mc(1)),
        SimConfig::baseline(HwConfig::Fc(4)),
        SimConfig::baseline(HwConfig::NoRestrict),
    ];

    // Cold pass: every configuration builds its processor.
    let mut cold = Vec::new();
    for cfg in &configs {
        cold.push(run_tape(&program.name, &tape, cfg).unwrap());
    }

    // Warm pass: every run must be served from the arena — the pinned
    // allocation counter. This is the model-level stand-in for a heap
    // profiler: a reset processor reuses all of its internal storage, so
    // zero builds means zero per-run simulator construction.
    let before = Telemetry::global().snapshot();
    let mut warm = Vec::new();
    for cfg in &configs {
        warm.push(run_tape(&program.name, &tape, cfg).unwrap());
    }
    let delta = Telemetry::global().snapshot().since(before);
    assert_eq!(delta.arena_builds, 0, "a warm worker builds no processors");
    assert_eq!(delta.arena_reuses, configs.len() as u64);

    // And reuse must be invisible in the results.
    assert_eq!(cold, warm, "pooled replay must be bit-identical");
}

/// Under each single-width model a row fuses, and its arena engines are
/// keyed by each member's own policy: a warm worker serves the row with
/// one reused engine per member and builds none.
#[test]
fn fused_replay_draws_from_and_refills_the_arena() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let program = build("compress", Scale::quick()).unwrap();
    let base = SimConfig::baseline(HwConfig::Mc0);
    let store = ArtifactStore::in_memory();
    let compiled = store.get_or_compile(&program, base.load_latency).unwrap();
    let tape = store.get_or_record(&compiled);
    for model in [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause] {
        let cfgs: Vec<SimConfig> = [HwConfig::Mc0, HwConfig::Mc(2), HwConfig::NoRestrict]
            .map(|hw| SimConfig::baseline(hw).with_processor(model))
            .into();

        let first = run_tape_fused(&program.name, &tape, &cfgs).unwrap();
        let before = Telemetry::global().snapshot();
        let second = run_tape_fused(&program.name, &tape, &cfgs).unwrap();
        let delta = Telemetry::global().snapshot().since(before);
        assert_eq!(
            delta.arena_builds, 0,
            "{model}: a warm fused walk builds nothing"
        );
        assert_eq!(delta.arena_reuses, cfgs.len() as u64, "{model}");
        assert_eq!(first, second);

        // Fused and unfused agree cell-for-cell.
        let solo: Vec<_> = cfgs
            .iter()
            .map(|cfg| run_tape(&program.name, &tape, cfg).unwrap())
            .collect();
        assert_eq!(first, solo, "{model}: fusion must not change any metric");
    }
}
