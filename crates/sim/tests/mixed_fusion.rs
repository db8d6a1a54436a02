//! Heterogeneous fused groups: rows mixing configurations that qualify
//! for the specialized direct-mapped/no-L2 replay kernel with ones that
//! do not (L2-backed, victim-buffered) must take the generic per-core
//! fallback and stay bit-identical to unfused replay — fusion and kernel
//! selection are pure performance choices, never observable in results.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::{run_tape, run_tape_fused, RunResult};
use nbl_sim::store::ArtifactStore;
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::Program;
use nbl_trace::workloads::{build, Scale};

const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// Six configurations over one shared L1 geometry: the first three
/// qualify for the specialized kernel (direct-mapped, no L2, no victim
/// buffer), the last three each break one qualification (an L2 behind
/// the same L1, a victim buffer, both at once) — so the whole group can
/// share a decode but must not take the specialized loop.
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
/// configurations, fused rows against per-cell replays of the same
/// tapes.
#[test]
fn mixed_qualifying_rows_fall_back_and_match_unfused() {
    let store = ArtifactStore::in_memory();
    let mut cells = 0;
    for name in ["doduc", "eqntott"] {
        let program = build(name, Scale::quick()).unwrap();
        for lat in LATENCIES {
            let compiled = store.get_or_compile(&program, lat).unwrap();
            let tape = store.get_or_record(&compiled);
            let cfgs = mixed_configs(lat);
            let fused = run_tape_fused(name, &tape, &cfgs).unwrap();
            for (cfg, fused_result) in cfgs.iter().zip(&fused) {
                let unfused = run_tape(name, &tape, cfg).unwrap();
                assert_eq!(
                    *fused_result,
                    unfused,
                    "{name} lat {lat} {}: mixed fused row diverged from unfused",
                    cfg.hw.label()
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 72, "the golden grid covers 72 cells");
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
