//! Fused rows against the stream rail. Every single-issue tape replay —
//! one configuration or a fused row — runs one walk
//! (`Core::replay_fused`), so the independent reference here is the
//! per-instruction stream rail: each configuration's engine fed the
//! tape's `DynInst`s one at a time (`IssueEngine::run`, then `finish`).
//! Rows mix what the walk must take in stride — L2s, victim buffers,
//! set-associative and fully associative L1s under every replacement
//! policy, members of different L1 geometries (replayed one by one) and
//! groups wider than the 64-engine quiescence mask (walked in chunks) —
//! and every member must equal its stream-rail run, full `RunResult` for
//! full `RunResult`. Grouping is a pure performance choice, never
//! observable in results.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_cpu::issue::IssueEngine;
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::{run_tape_fused, InFlightSummary, RunResult};
use nbl_sim::store::ArtifactStore;
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{build, Scale};
use std::sync::Arc;

const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// The tape `name` records at `scale` for load latency `lat`.
fn tape(store: &ArtifactStore, name: &str, scale: Scale, lat: u32) -> Arc<TraceTape> {
    let program = build(name, scale).unwrap();
    let compiled = store.get_or_compile(&program, lat).unwrap();
    store.get_or_record(&compiled)
}

/// `cfg` replayed on the stream rail, summarized as the driver
/// summarizes a run: cycles, the stall statistics, the cache counters'
/// miss rates and the sampler's in-flight histograms all come from the
/// rail's engine; only the labels are taken from `got`.
fn stream_rail(got: &RunResult, tape: &TraceTape, cfg: &SimConfig) -> RunResult {
    let mut rail = IssueEngine::new(cfg.engine_config().unwrap(), cfg.processor.policy());
    rail.run(tape.iter()).unwrap();
    rail.finish().unwrap();
    let (stats, counters, sampler) = (rail.stats(), rail.cache().counters(), rail.sampler());
    let loads = stats.loads.max(1) as f64;
    let missing =
        counters.load_primary_misses + counters.load_secondary_misses + stats.blocking_load_misses;
    RunResult {
        instructions: stats.instructions,
        loads: stats.loads,
        stores: stats.stores,
        cycles: rail.now().0,
        mcpi: stats.mcpi(),
        data_dep_stalls: stats.data_dep_stall_cycles,
        structural_stalls: stats.structural_stall_cycles,
        blocking_stalls: stats.blocking_stall_cycles,
        structural_fraction: stats.structural_fraction(),
        structural_stall_misses: stats.structural_stall_misses,
        load_miss_rate: missing as f64 / loads,
        secondary_miss_rate: counters.load_secondary_misses as f64 / loads,
        inflight: InFlightSummary {
            frac_time_with_misses: sampler.fraction_with_misses_in_flight(),
            miss_dist: sampler.miss_distribution_given_busy(),
            fetch_dist: sampler.fetch_distribution_given_busy(),
            max_misses: sampler.max_misses(),
            max_fetches: sampler.max_fetches(),
        },
        static_spill_ops: tape.static_spill_ops(),
        replay: *rail.attribution(),
        ..got.clone()
    }
}

/// Replays `cfgs` as one fused row and checks every member against its
/// stream-rail run; returns the number of cells checked.
fn assert_row_matches_stream_rail(name: &str, tape: &TraceTape, cfgs: &[SimConfig]) -> usize {
    let fused = run_tape_fused(name, tape, cfgs).unwrap();
    assert_eq!(fused.len(), cfgs.len());
    for (k, (cfg, got)) in cfgs.iter().zip(&fused).enumerate() {
        assert_eq!(
            *got,
            stream_rail(got, tape, cfg),
            "{name} lat {} member {k} ({}, {}): fused row diverged from the stream rail",
            cfg.load_latency,
            cfg.hw.label(),
            cfg.geometry
        );
    }
    fused.len()
}

/// Six configurations over one shared L1 geometry: three plain
/// direct-mapped ones, then an L2 behind the same L1, a victim buffer,
/// and both at once.
fn mixed_configs(lat: u32) -> Vec<SimConfig> {
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let mk = |hw: HwConfig| SimConfig { hw, ..base.clone() }.at_latency(lat);
    let mut with_l2 = mk(HwConfig::NoRestrict);
    with_l2.l2 = Some((64 * 1024, 4));
    let mut with_victim = mk(HwConfig::Mc0);
    with_victim.victim_entries = 4;
    let mut with_both = mk(HwConfig::Fc(4));
    with_both.l2 = Some((32 * 1024, 6));
    with_both.victim_entries = 2;
    vec![
        mk(HwConfig::Mc0),
        mk(HwConfig::Mc(1)),
        mk(HwConfig::NoRestrict),
        with_l2,
        with_victim,
        with_both,
    ]
}

/// The 72-cell golden grid: 2 benchmarks x 6 latencies x 6 mixed
/// configurations, each fused row against the stream rail.
#[test]
fn mixed_rows_match_the_stream_rail() {
    let store = ArtifactStore::in_memory();
    let mut cells = 0;
    for name in ["doduc", "eqntott"] {
        for lat in LATENCIES {
            let tape = tape(&store, name, Scale::quick(), lat);
            cells += assert_row_matches_stream_rail(name, &tape, &mixed_configs(lat));
        }
    }
    assert_eq!(cells, 72, "the golden grid covers 72 cells");
}

/// The `policy-model` machine — an 8 KB 4-way L1 over a 256 KB L2 — with
/// every replacement policy and three MSHR organizations in one row:
/// the decoded hit probe must move each policy's state exactly as the
/// full port does.
#[test]
fn four_way_rows_with_an_l2_match_the_stream_rail() {
    let store = ArtifactStore::in_memory();
    let base = SimConfig::baseline(HwConfig::NoRestrict)
        .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap())
        .with_l2(256 * 1024, 12);
    for lat in [2, 10] {
        let cfgs: Vec<SimConfig> = ReplacementKind::all()
            .into_iter()
            .flat_map(|policy| {
                [HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict].map(|hw| {
                    SimConfig {
                        hw,
                        ..base.clone().with_replacement(policy)
                    }
                    .at_latency(lat)
                })
            })
            .collect();
        let tape = tape(&store, "doduc", Scale::quick(), lat);
        assert_eq!(assert_row_matches_stream_rail("doduc", &tape, &cfgs), 12);
    }
}

/// A fully associative L1 (the tag array's indexed probe) under the
/// Fig. 13 configurations.
#[test]
fn fully_associative_rows_match_the_stream_rail() {
    let store = ArtifactStore::in_memory();
    let geometry = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
    let cfgs: Vec<SimConfig> = HwConfig::table13_six()
        .into_iter()
        .map(|hw| {
            SimConfig::baseline(hw)
                .with_geometry(geometry)
                .at_latency(3)
        })
        .collect();
    let tape = tape(&store, "xlisp", Scale::quick(), 3);
    assert_eq!(assert_row_matches_stream_rail("xlisp", &tape, &cfgs), 6);
}

/// One row whose members do not share an L1 geometry (direct-mapped and
/// 4-way, interleaved): no shared decode is possible, so the walk
/// replays them one by one, and each still equals the stream rail.
#[test]
fn mixed_geometry_rows_replay_member_by_member() {
    let store = ArtifactStore::in_memory();
    let four_way = CacheGeometry::new(8 * 1024, 32, 4).unwrap();
    let cfgs: Vec<SimConfig> = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict]
        .into_iter()
        .flat_map(|hw| {
            let direct = SimConfig::baseline(hw.clone()).at_latency(6);
            [direct.clone(), direct.with_geometry(four_way)]
        })
        .collect();
    let tape = tape(&store, "eqntott", Scale::quick(), 6);
    assert_eq!(assert_row_matches_stream_rail("eqntott", &tape, &cfgs), 6);
}

/// A 65-member row, one wider than the quiescence mask: the walk takes
/// it in chunks of 64, and every member — the 65th included — equals the
/// stream rail.
#[test]
fn rows_wider_than_64_walk_in_chunks() {
    let store = ArtifactStore::in_memory();
    let configs = HwConfig::baseline_seven();
    let cfgs: Vec<SimConfig> = (0..65u32)
        .map(|k| {
            let hw = configs[k as usize % configs.len()].clone();
            SimConfig::baseline(hw).with_penalty(8 + k).at_latency(2)
        })
        .collect();
    let small = Scale {
        instr_target: 4_000,
    };
    let tape = tape(&store, "doduc", small, 2);
    assert_eq!(assert_row_matches_stream_rail("doduc", &tape, &cfgs), 65);
}

/// The same heterogeneity through the sweep engine: `grid_sweep` rows
/// whose base carries an L2 (so no cell qualifies for the specialized
/// kernel) still match `grid_sweep_unfused` bit for bit.
#[test]
fn l2_backed_grid_sweep_matches_unfused() {
    let engine = SweepEngine::new(3);
    let doduc = build("doduc", Scale::quick()).unwrap();
    let eqntott = build("eqntott", Scale::quick()).unwrap();
    let mut base = SimConfig::baseline(HwConfig::NoRestrict);
    base.l2 = Some((64 * 1024, 4));
    let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
    let latencies = [1, 10];
    let fused = engine
        .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
        .unwrap();
    let unfused = engine
        .grid_sweep_unfused(&[&doduc, &eqntott], &base, &configs, &latencies)
        .unwrap();
    for (f, u) in fused.iter().zip(&unfused) {
        assert_eq!(
            f.rows, u.rows,
            "{}: L2-backed fusion must not change results",
            f.benchmark
        );
    }
}

/// Every cell of one plane, `latencies` × `configs` under `plane`, run
/// alone on a single-thread engine's per-cell path.
fn per_cell(
    program: &Program,
    plane: &SimConfig,
    configs: &[HwConfig],
    latencies: &[u32],
) -> Vec<Vec<RunResult>> {
    let jobs: Vec<(&Program, SimConfig)> = latencies
        .iter()
        .flat_map(|&lat| {
            configs.iter().map(move |hw| {
                let cfg = SimConfig {
                    hw: hw.clone(),
                    ..plane.clone()
                };
                (program, cfg.at_latency(lat))
            })
        })
        .collect();
    let cells = SweepEngine::new(1).run_many(&jobs).unwrap();
    cells.chunks(configs.len()).map(<[_]>::to_vec).collect()
}

/// Plane sweeps run on the fused-row runner: on the `policy-model`
/// machine (an 8 KB 4-way L1 over a 256 KB L2), every replacement-policy
/// plane and every processor-model plane, at 1 and 3 threads, equals
/// each cell replayed alone, full `RunResult` for full `RunResult`.
#[test]
fn plane_sweeps_match_per_cell_replay_on_the_policy_model_machine() {
    let program = build("doduc", Scale::quick()).unwrap();
    let base = SimConfig::baseline(HwConfig::NoRestrict)
        .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap())
        .with_l2(256 * 1024, 12);
    let configs = [HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict];
    let latencies = [2, 10];
    let policies = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 0x5eed },
        ReplacementKind::TreePlru,
    ];
    let policy_refs: Vec<_> = policies
        .iter()
        .map(|&p| {
            per_cell(
                &program,
                &base.clone().with_replacement(p),
                &configs,
                &latencies,
            )
        })
        .collect();
    let model_refs: Vec<_> = ProcessorKind::ALL
        .iter()
        .map(|&m| {
            per_cell(
                &program,
                &base.clone().with_processor(m),
                &configs,
                &latencies,
            )
        })
        .collect();
    for threads in [1, 3] {
        let engine = SweepEngine::new(threads);
        let sweep = engine
            .replacement_sweep(&program, &base, &policies, &configs, &latencies)
            .unwrap();
        assert_eq!(sweep.rows.len(), policies.len());
        for ((label, got), want) in sweep.planes.iter().zip(&sweep.rows).zip(&policy_refs) {
            assert_eq!(got, want, "{threads} threads, policy {label}");
        }
        let sweep = engine
            .model_sweep(&program, &base, &ProcessorKind::ALL, &configs, &latencies)
            .unwrap();
        assert_eq!(sweep.rows.len(), ProcessorKind::ALL.len());
        for ((label, got), want) in sweep.planes.iter().zip(&sweep.rows).zip(&model_refs) {
            assert_eq!(got, want, "{threads} threads, model {label}");
        }
    }
}
