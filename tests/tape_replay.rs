//! Tape-replay equivalence guard for the record-once/replay-many backend.
//!
//! Every simulation replays a recorded [`TraceTape`]
//! ([`IssueEngine::run_tape`]) instead of walking the compiled script. This
//! suite pins that the tape is invisible: for each processor model, an
//! engine fed the `Executor`'s instruction stream through
//! [`IssueEngine::run`] ends in exactly the state of one that replays the
//! tape — clock, stall statistics, cache counters, in-flight sampler,
//! replay attribution and dual-issue pair count, bit for bit. It covers
//! the 72-cell golden grid `refactor_equivalence.rs` pins (under the
//! stalling and the replaying model), one workload per family, and the
//! dual-issue model's perfect- and real-cache passes, and ties each
//! engine-level result back to the driver's answer for the same cell.

use nonblocking_loads::core::inst::DynInst;
use nonblocking_loads::cpu::core_engine::EngineConfig;
use nonblocking_loads::cpu::issue::{IssueEngine, IssuePolicy};
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, ProcessorKind, SimConfig};
use nonblocking_loads::sim::driver::{run_dual, run_program};
use nonblocking_loads::sim::store::compiled_fingerprint;
use nonblocking_loads::trace::exec::Executor;
use nonblocking_loads::trace::machine::CompiledProgram;
use nonblocking_loads::trace::tape::{barrier_index, barrier_is_mem, TraceTape};
use nonblocking_loads::trace::workloads::{build, Scale, ALL};

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

/// One compiled pair in both forms: the executor's instruction stream and
/// the tape recorded from it.
struct Streams {
    stream: Vec<DynInst>,
    tape: TraceTape,
}

fn streams(name: &str, latency: u32) -> Streams {
    let compiled = compiled(name, latency);
    let mut stream = Vec::new();
    Executor::new(&compiled).run(&mut stream);
    let tape = TraceTape::record(&compiled);
    Streams { stream, tape }
}

/// Runs `s` both ways under `(config, policy)`, asserts the two engines
/// ended in the same observable state, and returns the tape-fed one.
fn both_rails(s: &Streams, config: EngineConfig, policy: IssuePolicy, what: &str) -> IssueEngine {
    let mut by_stream = IssueEngine::new(config.clone(), policy);
    by_stream.run(s.stream.iter().copied()).unwrap();
    by_stream.finish().unwrap();
    let mut by_tape = IssueEngine::new(config, policy);
    by_tape.run_tape(&s.tape).unwrap();
    by_tape.finish().unwrap();

    assert_eq!(by_tape.now(), by_stream.now(), "{what}: cycles");
    assert_eq!(by_tape.stats(), by_stream.stats(), "{what}: stats");
    assert_eq!(
        by_tape.cache().counters(),
        by_stream.cache().counters(),
        "{what}: cache counters"
    );
    let (t, r) = (by_tape.sampler(), by_stream.sampler());
    assert_eq!(t.max_misses(), r.max_misses(), "{what}: max misses");
    assert_eq!(t.max_fetches(), r.max_fetches(), "{what}: max fetches");
    assert_eq!(t.miss_histogram(), r.miss_histogram(), "{what}: miss dist");
    assert_eq!(
        t.fetch_histogram(),
        r.fetch_histogram(),
        "{what}: fetch dist"
    );
    assert_eq!(
        t.fraction_with_misses_in_flight().to_bits(),
        r.fraction_with_misses_in_flight().to_bits(),
        "{what}: busy fraction"
    );
    assert_eq!(
        by_tape.attribution(),
        by_stream.attribution(),
        "{what}: replay attribution"
    );
    assert_eq!(
        by_tape.pairs_issued(),
        by_stream.pairs_issued(),
        "{what}: pairs issued"
    );
    by_tape
}

/// Checks every cell of `benches × latencies × configs` under `model`,
/// and that the driver's `RunResult` for the cell counts the same
/// cycles, instructions and replays as the engine.
fn check_grid(benches: &[&str], latencies: &[u32], configs: &[HwConfig], model: ProcessorKind) {
    for bench in benches {
        let program = build(bench, Scale::quick()).unwrap();
        for &lat in latencies {
            let s = streams(bench, lat);
            for hw in configs {
                let cfg = SimConfig {
                    processor: model,
                    ..SimConfig::baseline(hw.clone()).at_latency(lat)
                };
                let what = format!("{bench} [{}] latency {lat} {model}", hw.label());
                let engine = both_rails(&s, cfg.engine_config().unwrap(), model.policy(), &what);
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

/// The replaying model on the same 72-cell grid: its barrier loop must
/// reproduce the pushed stream's per-cause attribution on real
/// workloads, not just on hand-built streams.
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
/// count, load/store mix, ascending barrier indices, and a mem flag on
/// exactly the memory-operation barriers.
#[test]
fn recorded_tapes_are_structurally_sound_for_every_family() {
    for bench in ["eqntott", "xlisp", "tomcatv", "doduc"] {
        let c = compiled(bench, 6);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len() as u64, c.dynamic_instructions(), "{bench}");
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads, "{bench}");
        assert_eq!(tape.stores(), stores, "{bench}");
        let mut prev = None;
        for &entry in tape.barriers() {
            let i = barrier_index(entry);
            assert!(prev < Some(i), "{bench}: barrier indices must ascend");
            prev = Some(i);
            assert_eq!(
                barrier_is_mem(entry),
                tape.is_mem(i),
                "{bench}: barrier {i} mem flag disagrees with its kind"
            );
        }
        // Every memory operation must appear in the barrier index (a mem
        // op always touches the memory system, so replay may never skip
        // one in a bulk free-run).
        let mem_ops = (0..tape.len()).filter(|&i| tape.is_mem(i)).count() as u64;
        let mem_barriers = tape
            .barriers()
            .iter()
            .filter(|&&e| barrier_is_mem(e))
            .count() as u64;
        assert_eq!(mem_ops, loads + stores, "{bench}");
        assert_eq!(mem_barriers, mem_ops, "{bench}");
    }
}

/// The tape layout's footprint budget over the whole quick grid (the 18
/// benchmarks at the 6 latencies, 108 tapes): at most 8.5 bytes per
/// recorded instruction, all arrays counted. The layout lands at 8.03;
/// storing an address or a format per instruction again would cost
/// about 7 more and fail here.
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
        per_inst <= 8.5,
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

/// The dual-issue model's two passes, perfect-cache and real, match
/// across rails, and [`run_dual`] reports exactly those two cycle counts.
#[test]
fn dual_issue_tape_replay_matches_interpreter() {
    for bench in ["eqntott", "doduc"] {
        let s = streams(bench, 3);
        let program = build(bench, Scale::quick()).unwrap();
        for hw in [HwConfig::Mc(1), HwConfig::NoRestrict] {
            let cfg = SimConfig::baseline(hw.clone()).at_latency(3);
            let [perfect, real] = [true, false].map(|perfect| {
                let what = format!("{bench} [{}] dual perfect={perfect}", hw.label());
                let config = EngineConfig {
                    perfect_cache: perfect,
                    ..cfg.engine_config().unwrap()
                };
                both_rails(&s, config, IssuePolicy::DualInOrder, &what)
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
