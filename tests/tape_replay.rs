//! Tape-replay guard for the record-once/replay-many backend.
//!
//! Every simulation replays a recorded [`TraceTape`]
//! ([`IssueEngine::run_tape`]). This suite pins the replay against the
//! independent reference machine (`tests/reference/mod.rs`): for each
//! processor model, the engine that replays the tape ends in exactly the
//! reference's state — clock, stall statistics, cache counters, in-flight
//! histograms, replay attribution and dual-issue pair count, bit for bit.
//! It covers the 72-cell golden grid `refactor_equivalence.rs` pins
//! (under the stalling and the replaying model), one workload per
//! family, and the dual-issue model's perfect- and real-cache passes, and
//! ties each engine-level result back to the driver's answer for the same
//! cell. The tapes themselves are checked for structure, footprint and
//! schedule sharing.

mod reference;

use nonblocking_loads::cpu::core_engine::EngineConfig;
use nonblocking_loads::cpu::issue::IssueEngine;
use nonblocking_loads::mem::event::ReplayCause;
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, ProcessorKind, SimConfig};
use nonblocking_loads::sim::driver::{run_dual, run_program};
use nonblocking_loads::sim::store::compiled_fingerprint;
use nonblocking_loads::trace::machine::CompiledProgram;
use nonblocking_loads::trace::tape::TraceTape;
use nonblocking_loads::trace::workloads::{build, Scale, ALL};
use reference::Cause;

/// The Fig. 13 hardware configurations of the 72-row golden grid.
const GOLDEN_CONFIGS: [HwConfig; 6] = [
    HwConfig::Mc0,
    HwConfig::Mc(1),
    HwConfig::Mc(2),
    HwConfig::Fc(1),
    HwConfig::Fc(2),
    HwConfig::NoRestrict,
];

/// The paper's scheduled load latencies.
const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

fn compiled(name: &str, latency: u32) -> CompiledProgram {
    let p = build(name, Scale::quick()).unwrap();
    compile(&p, latency).unwrap()
}

/// Replays `tape` on `cfg` (with a perfect cache when `perfect`), asserts
/// that the engine ended in the reference machine's state, and returns
/// the engine.
fn against_reference(tape: &TraceTape, cfg: &SimConfig, perfect: bool, what: &str) -> IssueEngine {
    let config = EngineConfig {
        perfect_cache: perfect,
        ..cfg.engine_config().unwrap()
    };
    let mut e = IssueEngine::new(config, cfg.processor.policy());
    e.run_tape(tape).unwrap();
    e.finish().unwrap();
    let r = reference::run(tape, cfg, perfect);

    assert_eq!(e.now().0, r.cycles, "{what}: cycles");
    let s = e.stats();
    assert_eq!(
        [
            s.instructions,
            s.loads,
            s.stores,
            s.data_dep_stall_cycles,
            s.structural_stall_cycles,
            s.blocking_stall_cycles,
            s.structural_stall_misses,
            s.blocking_load_misses,
            s.blocking_store_misses,
            s.nonblocking_store_misses,
        ],
        [
            r.stats.instructions,
            r.stats.loads,
            r.stats.stores,
            r.stats.data_dep_stall_cycles,
            r.stats.structural_stall_cycles,
            r.stats.blocking_stall_cycles,
            r.stats.structural_stall_misses,
            r.stats.blocking_load_misses,
            r.stats.blocking_store_misses,
            r.stats.nonblocking_store_misses,
        ],
        "{what}: stats"
    );
    let c = e.cache().counters();
    assert_eq!(
        [
            c.load_hits,
            c.load_primary_misses,
            c.load_secondary_misses,
            c.store_hits,
            c.store_misses,
            c.victim_hits,
            c.fills,
        ],
        [
            r.counters.load_hits,
            r.counters.load_primary_misses,
            r.counters.load_secondary_misses,
            r.counters.store_hits,
            r.counters.store_misses,
            r.counters.victim_hits,
            r.counters.fills,
        ],
        "{what}: cache counters"
    );
    let (t, o) = (e.sampler(), &r.occupancy);
    assert_eq!(t.max_misses(), o.max_misses, "{what}: max misses");
    assert_eq!(t.max_fetches(), o.max_fetches, "{what}: max fetches");
    assert_eq!(t.miss_histogram(), &o.miss_histogram, "{what}: miss dist");
    assert_eq!(
        t.fetch_histogram(),
        &o.fetch_histogram,
        "{what}: fetch dist"
    );
    for (cause, engine_cause) in Cause::ALL.into_iter().zip([
        ReplayCause::ForwardFail,
        ReplayCause::DcacheReplay,
        ReplayCause::DcacheMiss,
        ReplayCause::BankConflict,
    ]) {
        let a = e.attribution();
        assert_eq!(
            (a.count(engine_cause), a.stalls(engine_cause)),
            (r.attribution.count(cause), r.attribution.stalls(cause)),
            "{what}: replay attribution of {engine_cause:?}"
        );
    }
    assert_eq!(e.pairs_issued(), r.pairs_issued, "{what}: pairs issued");
    e
}

/// Checks every cell of `benches × latencies × configs` under `model`,
/// and that the driver's `RunResult` for the cell counts the same
/// cycles, instructions and replays as the engine.
fn check_grid(benches: &[&str], latencies: &[u32], configs: &[HwConfig], model: ProcessorKind) {
    for bench in benches {
        let program = build(bench, Scale::quick()).unwrap();
        for &lat in latencies {
            let tape = TraceTape::record(&compiled(bench, lat));
            for hw in configs {
                let cfg = SimConfig {
                    processor: model,
                    ..SimConfig::baseline(hw.clone()).at_latency(lat)
                };
                let what = format!("{bench} [{}] latency {lat} {model}", hw.label());
                let engine = against_reference(&tape, &cfg, false, &what);
                let driver = run_program(&program, &cfg).unwrap();
                assert_eq!(driver.cycles, engine.now().0, "{what}: driver cycles");
                assert_eq!(
                    driver.instructions,
                    engine.stats().instructions,
                    "{what}: driver instructions"
                );
                assert_eq!(
                    driver.replay,
                    *engine.attribution(),
                    "{what}: driver replay"
                );
            }
        }
    }
}

/// The stalling model on the exact grid the refactor-equivalence goldens
/// pin: 2 benchmarks × 6 configurations × 6 latencies.
#[test]
fn tape_replay_matches_interpreter_on_every_golden_cell() {
    check_grid(
        &["eqntott", "tomcatv"],
        &LATENCIES,
        &GOLDEN_CONFIGS,
        ProcessorKind::SingleInOrder,
    );
}

/// The replaying model on the same 72-cell grid: its memory step in the
/// one single-width walk must reproduce the reference's per-cause
/// attribution on real workloads, not just on hand-built streams.
#[test]
fn replay_cause_tape_replay_matches_interpreter_on_every_golden_cell() {
    check_grid(
        &["eqntott", "tomcatv"],
        &LATENCIES,
        &GOLDEN_CONFIGS,
        ProcessorKind::ReplayCause,
    );
}

/// One benchmark per workload family, run under the two configurations
/// the golden grid does not cover (blocking + write-miss allocate, and
/// the in-cache MSHR organization) as well as the unrestricted one, under
/// both single-width models.
#[test]
fn tape_replay_matches_interpreter_per_workload_family() {
    // integer / pointer-chase / FP-streaming / FP-mixed archetypes.
    let families = ["eqntott", "xlisp", "tomcatv", "doduc"];
    let configs = [HwConfig::Mc0Wma, HwConfig::InCache, HwConfig::NoRestrict];
    for model in [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause] {
        check_grid(&families, &[2, 10], &configs, model);
    }
}

/// The recorded tape's structure matches the program it came from: entry
/// count, load/store mix, a barrier at every memory operation, and a
/// quiescent stride that stops at exactly the memory operations.
#[test]
fn recorded_tapes_are_structurally_sound_for_every_family() {
    /// The indices `next` visits from 0, each search starting one past
    /// the last hit.
    fn walk(tape: &TraceTape, next: impl Fn(usize) -> usize) -> Vec<usize> {
        let mut hits = Vec::new();
        let mut at = next(0);
        while at < tape.len() {
            hits.push(at);
            at = next(at + 1);
        }
        hits
    }
    for bench in ["eqntott", "xlisp", "tomcatv", "doduc"] {
        let c = compiled(bench, 6);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len() as u64, c.dynamic_instructions(), "{bench}");
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads, "{bench}");
        assert_eq!(tape.stores(), stores, "{bench}");
        let barriers = walk(&tape, |i| tape.next_barrier(i));
        assert_eq!(barriers.len(), tape.barrier_count(), "{bench}");
        // Every memory operation must be a barrier (a mem op always
        // touches the memory system, so replay may never skip one in a
        // bulk free-run), and the quiescent stride meets each in turn.
        let mem_ops: Vec<usize> = (0..tape.len()).filter(|&i| tape.is_mem(i)).collect();
        assert_eq!(mem_ops.len() as u64, loads + stores, "{bench}");
        assert!(
            mem_ops.iter().all(|i| barriers.binary_search(i).is_ok()),
            "{bench}: a memory operation is missing from the barrier plane"
        );
        assert_eq!(walk(&tape, |i| tape.next_mem(i)), mem_ops, "{bench}");
    }
}

/// The tape layout's footprint budget over the whole quick grid (the 18
/// benchmarks at the 6 latencies, 108 tapes): at most 6.6 bytes per
/// recorded instruction, all arrays counted. The layout lands at 6.24;
/// a `u32` barrier list in place of the barrier bit plane would cost
/// about 1.8 more, and storing an address or a format per instruction
/// again about 7 more, and either would fail here.
#[test]
fn quick_grid_tapes_fit_the_footprint_budget() {
    let (mut bytes, mut insts) = (0usize, 0usize);
    for bench in ALL {
        for lat in LATENCIES {
            let tape = TraceTape::record(&compiled(bench, lat));
            bytes += tape.bytes();
            insts += tape.len();
        }
    }
    let per_inst = bytes as f64 / insts as f64;
    assert!(
        per_inst <= 6.6,
        "{per_inst:.3} B/inst over {insts} instructions"
    );
}

/// The quick grid's 108 `(benchmark, latency)` pairs compile to exactly
/// 66 schedules: once a latency passes a block's slack the list scheduler
/// stops changing the code, so higher latencies reuse a lower one's
/// schedule. Pairs that share a [`compiled_fingerprint`] record
/// byte-identical tapes, which is what lets the store keep one tape per
/// schedule. The sharing, `=` joining latencies of one schedule (the
/// same at full scale):
///
/// ```text
/// alvinn    1 | 2=3=6=10=20         ora       1=2=3=6=10=20
/// doduc     1 | 2 | 3 | 6 | 10=20   su2cor    1 | 2 | 3 | 6 | 10=20
/// ear       1 | 2 | 3 | 6 | 10=20   swm256    1 | 2 | 3 | 6=10=20
/// fpppp     1 | 2=3=6=10=20         spice2g6  all six distinct
/// hydro2d   1 | 2=3 | 6=10=20       tomcatv   all six distinct
/// mdljdp2   1 | 2 | 3=6=10=20       wave5     1 | 2=3=6=10=20
/// mdljsp2   1 | 2 | 3=6=10=20       compress  1 | 2 | 3=6=10=20
/// nasa7     1 | 2 | 3 | 6=10=20     eqntott   1 | 2 | 3 | 6=10=20
/// espresso  1=2 | 3=6=10=20         xlisp     all six distinct
/// ```
#[test]
fn latency_saturated_pairs_share_one_schedule_and_one_tape() {
    let mut schedules: Vec<(u64, u32, Vec<u8>)> = Vec::new();
    let mut shared = 0;
    for bench in ALL {
        for lat in LATENCIES {
            let c = compiled(bench, lat);
            let fp = compiled_fingerprint(&c);
            let bytes = TraceTape::record(&c).to_bytes();
            match schedules.iter().find(|s| s.0 == fp) {
                Some((_, first_lat, recorded)) => {
                    assert!(
                        *recorded == bytes,
                        "{bench}: latencies {first_lat} and {lat} share a schedule \
                         but recorded different tapes"
                    );
                    shared += 1;
                }
                None => schedules.push((fp, lat, bytes)),
            }
        }
    }
    assert_eq!(schedules.len(), 66, "distinct schedules on the quick grid");
    assert_eq!(shared, 42, "pairs answered by a lower latency's tape");
}

/// The dual-issue model's two passes, perfect-cache and real, match the
/// reference, and [`run_dual`] reports exactly those two cycle counts.
#[test]
fn dual_issue_tape_replay_matches_interpreter() {
    for bench in ["eqntott", "doduc"] {
        let tape = TraceTape::record(&compiled(bench, 3));
        let program = build(bench, Scale::quick()).unwrap();
        for hw in [HwConfig::Mc(1), HwConfig::NoRestrict] {
            let cfg = SimConfig::baseline(hw.clone()).at_latency(3);
            let dual = cfg.clone().with_processor(ProcessorKind::DualInOrder);
            let [perfect, real] = [true, false].map(|perfect| {
                let what = format!("{bench} [{}] dual perfect={perfect}", hw.label());
                against_reference(&tape, &dual, perfect, &what)
            });
            let d = run_dual(&program, &cfg).unwrap();
            assert_eq!(d.cycles, real.now().0, "{bench} [{}]", hw.label());
            assert_eq!(
                d.perfect_cycles,
                perfect.now().0,
                "{bench} [{}]",
                hw.label()
            );
            assert_eq!(d.instructions, real.stats().instructions);
            assert_eq!(
                d.mcpi.to_bits(),
                real.mcpi_against(perfect.now()).to_bits(),
                "{bench} [{}]: run_dual MCPI is the engine's mcpi_against",
                hw.label()
            );
        }
    }
}
