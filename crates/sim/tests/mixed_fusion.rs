//! Fusion is a pure performance choice, never observable in results:
//! sweeps whose rows the single-issue walk (`Core::replay_fused`) takes
//! in stride — rows over an L2, and the `policy-model` machine's 4-way
//! L1 under every replacement-policy and processor-model plane — equal
//! the same cells replayed one by one, full `RunResult` for full
//! `RunResult`. Each fused member against the independent reference
//! machine is checked in the workspace's `tests/reference_machine.rs`.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::RunResult;
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::Program;
use nbl_trace::workloads::{build, Scale};

/// `grid_sweep` rows whose base carries an L2 still match
/// `grid_sweep_unfused` bit for bit.
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
