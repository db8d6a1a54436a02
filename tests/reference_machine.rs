//! The engine against the independent reference machine
//! (`tests/reference/mod.rs`): a cycle-stepped model of the same machine
//! that shares no simulation code with the engine. Every comparison is
//! exact: cycles, the full `CpuStats`, the L1's counters, the in-flight
//! histograms and maxima, the replay attribution and the dual-issue pair
//! count.
//!
//! * Random tapes on every `HwConfig` × replacement policy × L1
//!   geometry × processor model, then random machines with victim
//!   buffers, L2s, perfect caches and any miss penalty, all on the seeded
//!   `nbl_core::prop` harness.
//! * Fused sweep rows (`run_tape_fused`): mixed L2 and victim-buffer
//!   rows and one row interleaving stalling and replaying members, 4-way
//!   rows with an L2 under every policy and both single-width models,
//!   fully associative rows, rows of mixed geometry and a 65-member row;
//!   every member's `RunResult` against one built from the reference.
//! * Hand-built streams through `IssueEngine::run_tape` and a fused
//!   `Core::replay_fused` group, under all three models.
//! * The 72-cell golden grid under the dual-issue model (the stalling and
//!   replaying models' grids are in `tests/tape_replay.rs`).

mod reference;

use nonblocking_loads::core::geometry::CacheGeometry;
use nonblocking_loads::core::inst::DynInst;
use nonblocking_loads::core::limit::Limit;
use nonblocking_loads::core::mshr::TargetPolicy;
use nonblocking_loads::core::prop::{self, InstMix};
use nonblocking_loads::core::rng::SplitMix64;
use nonblocking_loads::core::tag_array::ReplacementKind;
use nonblocking_loads::core::types::{Addr, LoadFormat, PhysReg};
use nonblocking_loads::cpu::core_engine::{Core, EngineConfig};
use nonblocking_loads::cpu::issue::IssueEngine;
use nonblocking_loads::cpu::stats::{CpuStats, ReplayAttribution};
use nonblocking_loads::mem::event::ReplayCause;
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, ProcessorKind, SimConfig};
use nonblocking_loads::sim::driver::{run_tape_fused, InFlightSummary, RunResult};
use nonblocking_loads::sim::store::ArtifactStore;
use nonblocking_loads::trace::tape::TraceTape;
use nonblocking_loads::trace::workloads::{build, Scale};
use reference::{Cause, Outcome};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The engine side, and the comparison.

/// `cfg`'s engine (with a perfect cache when `perfect`) after replaying
/// `tape` and finishing.
fn engine(tape: &TraceTape, cfg: &SimConfig, perfect: bool) -> IssueEngine {
    let config = EngineConfig {
        perfect_cache: perfect,
        ..cfg.engine_config().unwrap()
    };
    let mut e = IssueEngine::new(config, cfg.processor.policy());
    e.run_tape(tape).unwrap();
    e.finish().unwrap();
    e
}

fn cpu_stats(r: &Outcome) -> CpuStats {
    let s = r.stats;
    CpuStats {
        instructions: s.instructions,
        loads: s.loads,
        stores: s.stores,
        data_dep_stall_cycles: s.data_dep_stall_cycles,
        structural_stall_cycles: s.structural_stall_cycles,
        blocking_stall_cycles: s.blocking_stall_cycles,
        structural_stall_misses: s.structural_stall_misses,
        blocking_load_misses: s.blocking_load_misses,
        blocking_store_misses: s.blocking_store_misses,
        nonblocking_store_misses: s.nonblocking_store_misses,
    }
}

fn replay_cause(cause: Cause) -> ReplayCause {
    match cause {
        Cause::ForwardFail => ReplayCause::ForwardFail,
        Cause::DcacheReplay => ReplayCause::DcacheReplay,
        Cause::DcacheMiss => ReplayCause::DcacheMiss,
        Cause::BankConflict => ReplayCause::BankConflict,
    }
}

fn attribution(r: &Outcome) -> ReplayAttribution {
    let mut a = ReplayAttribution::default();
    for cause in Cause::ALL {
        let i = replay_cause(cause).index();
        a.counts[i] = r.attribution.count(cause);
        a.stall_cycles[i] = r.attribution.stalls(cause);
    }
    a
}

/// Asserts that a finished engine ended exactly where the reference did.
fn assert_engine_matches(got: &IssueEngine, want: &Outcome, what: &str) {
    assert_eq!(got.now().0, want.cycles, "{what}: cycles");
    assert_eq!(*got.stats(), cpu_stats(want), "{what}: stats");
    let c = got.cache().counters();
    let w = want.counters;
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
            w.load_hits,
            w.load_primary_misses,
            w.load_secondary_misses,
            w.store_hits,
            w.store_misses,
            w.victim_hits,
            w.fills,
        ],
        "{what}: cache counters (hits, primary, secondary, store hits, store misses, victim hits, fills)"
    );
    let (s, o) = (got.sampler(), &want.occupancy);
    assert_eq!(
        s.miss_histogram(),
        &o.miss_histogram,
        "{what}: miss histogram"
    );
    assert_eq!(
        s.fetch_histogram(),
        &o.fetch_histogram,
        "{what}: fetch histogram"
    );
    assert_eq!(s.max_misses(), o.max_misses, "{what}: max misses");
    assert_eq!(s.max_fetches(), o.max_fetches, "{what}: max fetches");
    assert_eq!(
        *got.attribution(),
        attribution(want),
        "{what}: replay attribution"
    );
    assert_eq!(
        got.pairs_issued(),
        want.pairs_issued,
        "{what}: pairs issued"
    );
}

/// Runs `tape` on `cfg` in both machines and compares them.
fn check(tape: &TraceTape, cfg: &SimConfig, perfect: bool, what: &str) {
    let want = reference::run(tape, cfg, perfect);
    assert_engine_matches(&engine(tape, cfg, perfect), &want, what);
}

fn describe(cfg: &SimConfig, perfect: bool) -> String {
    format!(
        "{} {} {} {} pen {} l2 {:?} victims {} perfect {perfect}",
        cfg.processor,
        cfg.hw.label(),
        cfg.replacement,
        cfg.geometry,
        cfg.miss_penalty,
        cfg.l2,
        cfg.victim_entries
    )
}

// ---------------------------------------------------------------------
// Random tapes.

/// Every hardware configuration: Fig. 5/13's `mc=0 + wma` through no
/// restrict, per-set limits, in-cache storage with and without a narrow
/// port, non-blocking write allocate, and the Fig. 14 target layouts.
fn every_hw() -> Vec<HwConfig> {
    let mut hws = HwConfig::baseline_seven();
    hws.extend([
        HwConfig::Mc(3),
        HwConfig::Fs(1),
        HwConfig::Fs(2),
        HwConfig::InCache,
        HwConfig::InCacheNarrowPort(3),
        HwConfig::FcWma(1),
        HwConfig::FcWma(2),
    ]);
    hws.extend(
        [
            TargetPolicy::explicit(Limit::Finite(1)),
            TargetPolicy::explicit(Limit::Finite(2)),
            TargetPolicy::explicit(Limit::Finite(4)),
            TargetPolicy::implicit_sub_blocks(2),
            TargetPolicy::hybrid(2, 2),
            TargetPolicy::implicit_sub_blocks(4),
            TargetPolicy::implicit_sub_blocks(8),
        ]
        .map(HwConfig::Targets),
    );
    hws
}

/// Small L1s, so random addresses conflict: direct mapped, 4-way and
/// fully associative, and one with 16-byte lines.
fn small_geometries() -> [CacheGeometry; 4] {
    [
        CacheGeometry::direct_mapped(512, 32).unwrap(),
        CacheGeometry::new(512, 32, 4).unwrap(),
        CacheGeometry::fully_associative(512, 32).unwrap(),
        CacheGeometry::new(256, 16, 2).unwrap(),
    ]
}

/// A random tape: `len` instructions, mostly memory operations over a
/// few KB so that lines are reused, conflict and get merged into
/// fetches in flight.
fn random_tape(rng: &mut SplitMix64, len: usize) -> TraceTape {
    let mix = InstMix {
        mem_per_mille: 200 + rng.next_below(600),
        addr_bits: 9 + rng.next_below(5) as u32,
    };
    let mut tape = TraceTape::with_capacity("random", 0, len);
    for _ in 0..len {
        tape.push(prop::random_inst(rng, mix));
    }
    tape
}

fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize].clone()
}

/// Every configuration × policy × geometry × model on its own random
/// tape, at the baseline penalty.
#[test]
fn random_tapes_match_on_every_configuration_policy_geometry_and_model() {
    let mut runs = 0;
    prop::check("reference: variant grid", 1, 0x7e1e_0001, |rng| {
        for hw in every_hw() {
            for policy in ReplacementKind::all() {
                for geometry in small_geometries() {
                    for model in ProcessorKind::ALL {
                        let tape = random_tape(rng, 300);
                        let cfg = SimConfig::baseline(hw.clone())
                            .with_geometry(geometry)
                            .with_replacement(policy)
                            .with_processor(model);
                        check(&tape, &cfg, false, &describe(&cfg, false));
                        runs += 1;
                    }
                }
            }
        }
    });
    assert_eq!(runs, every_hw().len() * 4 * 4 * 3);
}

/// Random machines: any configuration, policy (the random one under a
/// random seed), geometry and model, with a victim buffer, an L2, a
/// perfect cache and the miss penalty drawn at random too.
#[test]
fn random_machines_match_with_victim_buffers_l2s_and_any_penalty() {
    let hws = every_hw();
    let mut geometries = small_geometries().to_vec();
    geometries.push(CacheGeometry::baseline());
    prop::check("reference: random machines", 400, 0x7e1e_0002, |rng| {
        let penalty = 1 + rng.next_below(40) as u32;
        let policy = match pick(rng, &ReplacementKind::all()) {
            ReplacementKind::Random { .. } => ReplacementKind::Random {
                seed: rng.next_u64(),
            },
            policy => policy,
        };
        let mut cfg = SimConfig::baseline(pick(rng, &hws))
            .with_geometry(pick(rng, &geometries))
            .with_replacement(policy)
            .with_processor(pick(rng, &ProcessorKind::ALL))
            .with_penalty(penalty)
            .with_victim_buffer(pick(rng, &[0, 0, 1, 2, 4]));
        if rng.next_below(2) == 0 {
            let line = u64::from(cfg.geometry.line_bytes());
            let size = cfg.geometry.size_bytes().max(line) << (1 + rng.next_below(3));
            cfg.l2 = Some((size, 1 + rng.next_below(u64::from(penalty)) as u32));
        }
        let perfect = rng.next_below(8) == 0;
        let len = 200 + rng.next_below(1500) as usize;
        let tape = random_tape(rng, len);
        check(&tape, &cfg, perfect, &describe(&cfg, perfect));
    });
}

// ---------------------------------------------------------------------
// Fused sweep rows.

const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// The tape `name` records at `scale` for load latency `lat`.
fn workload_tape(store: &ArtifactStore, name: &str, scale: Scale, lat: u32) -> Arc<TraceTape> {
    let program = build(name, scale).unwrap();
    let compiled = store.get_or_compile(&program, lat).unwrap();
    store.get_or_record(&compiled)
}

/// Fraction of the histogram's time with at least one in flight.
fn busy_fraction(hist: &[u64; reference::BUCKETS]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    hist[1..].iter().sum::<u64>() as f64 / total as f64
}

/// The histogram's shares of 1..6 and 7+ in flight, given at least one.
fn given_busy(hist: &[u64; reference::BUCKETS]) -> [f64; 7] {
    let busy: u64 = hist[1..].iter().sum();
    let mut out = [0.0; 7];
    if busy == 0 {
        return out;
    }
    for (k, share) in out.iter_mut().enumerate().take(6) {
        *share = hist[k + 1] as f64 / busy as f64;
    }
    out[6] = hist[7..].iter().sum::<u64>() as f64 / busy as f64;
    out
}

/// The `RunResult` the driver reports for a run that ended where the
/// reference `r` did: every measurement comes from `r`, only the labels
/// from `got`.
fn result_of(got: &RunResult, tape: &TraceTape, r: &Outcome) -> RunResult {
    let stats = cpu_stats(r);
    let loads = stats.loads.max(1) as f64;
    let c = r.counters;
    let missing = c.load_primary_misses + c.load_secondary_misses + stats.blocking_load_misses;
    let o = &r.occupancy;
    RunResult {
        instructions: stats.instructions,
        loads: stats.loads,
        stores: stats.stores,
        cycles: r.cycles,
        mcpi: stats.mcpi(),
        data_dep_stalls: stats.data_dep_stall_cycles,
        structural_stalls: stats.structural_stall_cycles,
        blocking_stalls: stats.blocking_stall_cycles,
        structural_fraction: stats.structural_fraction(),
        structural_stall_misses: stats.structural_stall_misses,
        load_miss_rate: missing as f64 / loads,
        secondary_miss_rate: c.load_secondary_misses as f64 / loads,
        inflight: InFlightSummary {
            frac_time_with_misses: busy_fraction(&o.miss_histogram),
            miss_dist: given_busy(&o.miss_histogram),
            fetch_dist: given_busy(&o.fetch_histogram),
            max_misses: o.max_misses,
            max_fetches: o.max_fetches,
        },
        static_spill_ops: tape.static_spill_ops(),
        replay: attribution(r),
        ..got.clone()
    }
}

/// Replays `cfgs` as one fused row and checks every member against the
/// reference; returns the number of members checked.
fn assert_row_matches(name: &str, tape: &TraceTape, cfgs: &[SimConfig]) -> usize {
    let fused = run_tape_fused(name, tape, cfgs).unwrap();
    assert_eq!(fused.len(), cfgs.len());
    for (k, (cfg, got)) in cfgs.iter().zip(&fused).enumerate() {
        assert_eq!(
            *got,
            result_of(got, tape, &reference::run(tape, cfg, false)),
            "{name} lat {} member {k} ({}, {}): fused row diverged from the reference",
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

/// 2 benchmarks x 6 latencies x 6 mixed configurations, each fused row
/// against the reference; then one row that interleaves each
/// configuration's stalling and replaying members over the one geometry,
/// which the walk fuses as one group.
#[test]
fn mixed_rows_with_l2s_and_victim_buffers_match() {
    let store = ArtifactStore::in_memory();
    let mut cells = 0;
    for name in ["doduc", "eqntott"] {
        for lat in LATENCIES {
            let tape = workload_tape(&store, name, Scale::quick(), lat);
            cells += assert_row_matches(name, &tape, &mixed_configs(lat));
        }
    }
    assert_eq!(cells, 72);
    let interleaved: Vec<SimConfig> = mixed_configs(6)
        .into_iter()
        .flat_map(|cfg| [cfg.clone(), cfg.with_processor(ProcessorKind::ReplayCause)])
        .collect();
    let tape = workload_tape(&store, "doduc", Scale::quick(), 6);
    assert_eq!(assert_row_matches("doduc", &tape, &interleaved), 12);
}

/// The `policy-model` machine, an 8 KB 4-way L1 over a 256 KB L2, with
/// every replacement policy and three MSHR organizations in one row,
/// under each single-width model.
#[test]
fn four_way_rows_with_an_l2_match_under_every_policy() {
    let store = ArtifactStore::in_memory();
    for model in [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause] {
        let base = SimConfig::baseline(HwConfig::NoRestrict)
            .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap())
            .with_l2(256 * 1024, 12)
            .with_processor(model);
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
            let tape = workload_tape(&store, "doduc", Scale::quick(), lat);
            assert_eq!(assert_row_matches("doduc", &tape, &cfgs), 12);
        }
    }
}

/// A fully associative L1 under the Fig. 13 configurations.
#[test]
fn fully_associative_rows_match() {
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
    let tape = workload_tape(&store, "xlisp", Scale::quick(), 3);
    assert_eq!(assert_row_matches("xlisp", &tape, &cfgs), 6);
}

/// One row whose members do not share an L1 geometry (direct-mapped and
/// 4-way, interleaved), which the walk replays member by member.
#[test]
fn mixed_geometry_rows_match() {
    let store = ArtifactStore::in_memory();
    let four_way = CacheGeometry::new(8 * 1024, 32, 4).unwrap();
    let cfgs: Vec<SimConfig> = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict]
        .into_iter()
        .flat_map(|hw| {
            let direct = SimConfig::baseline(hw.clone()).at_latency(6);
            [direct.clone(), direct.with_geometry(four_way)]
        })
        .collect();
    let tape = workload_tape(&store, "eqntott", Scale::quick(), 6);
    assert_eq!(assert_row_matches("eqntott", &tape, &cfgs), 6);
}

/// A 65-member row, one wider than the walk's 64-engine quiescence mask:
/// every member, the 65th included, equals the reference.
#[test]
fn rows_wider_than_64_match() {
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
    let tape = workload_tape(&store, "doduc", small, 2);
    assert_eq!(assert_row_matches("doduc", &tape, &cfgs), 65);
}

// ---------------------------------------------------------------------
// Hand-built streams.

fn tape_of(stream: &[DynInst]) -> TraceTape {
    let mut tape = TraceTape::with_capacity("t", 0, stream.len());
    for inst in stream {
        tape.push(*inst);
    }
    tape
}

/// Loads to distinct lines in recurring sets, each used by an ALU op
/// whose result is stored, plus an independent ALU op.
fn mixed_stream() -> Vec<DynInst> {
    (0..60u64)
        .flat_map(|i| {
            [
                DynInst::load(Addr(i * 520), PhysReg::int((i % 8) as u8), LoadFormat::WORD),
                DynInst::alu(
                    PhysReg::int(10 + (i % 8) as u8),
                    [Some(PhysReg::int((i % 8) as u8)), None],
                ),
                DynInst::alu(PhysReg::int(20), [None, None]),
                DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + (i % 8) as u8))),
            ]
        })
        .collect()
}

/// Unrestricted, `mc=1` and blocking, and a perfect cache.
fn stream_configs() -> [(SimConfig, bool); 4] {
    [
        (SimConfig::baseline(HwConfig::NoRestrict), false),
        (SimConfig::baseline(HwConfig::Mc(1)), false),
        (SimConfig::baseline(HwConfig::Mc0), false),
        (SimConfig::baseline(HwConfig::NoRestrict), true),
    ]
}

/// A load, its use and a store of the result, over recurring sets,
/// replayed alone under each configuration. A perfect cache hits every
/// access without touching its memory system.
#[test]
fn single_issue_streams_match() {
    let stream: Vec<DynInst> = (0..40u64)
        .flat_map(|i| {
            [
                DynInst::load(Addr(i * 520), PhysReg::int((i % 8) as u8), LoadFormat::WORD),
                DynInst::alu(
                    PhysReg::int(10 + (i % 8) as u8),
                    [Some(PhysReg::int((i % 8) as u8)), None],
                ),
                DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + (i % 8) as u8))),
            ]
        })
        .collect();
    let tape = tape_of(&stream);
    for (cfg, perfect) in stream_configs() {
        check(&tape, &cfg, perfect, &describe(&cfg, perfect));
    }
    let perfect = engine(&tape, &SimConfig::baseline(HwConfig::NoRestrict), true);
    assert_eq!(perfect.stats().total_stall_cycles(), 0);
    assert_eq!(perfect.cache().counters().load_hits, 0);
    assert_eq!(perfect.memory().write_buffer_stats().writes, 0);
}

/// One fused group of four configurations, a perfect cache among them,
/// through `Core::replay_fused`: each member equals the reference.
#[test]
fn fused_groups_match_member_by_member() {
    let tape = tape_of(&mixed_stream());
    let configs = stream_configs();
    let mut fused: Vec<IssueEngine> = configs
        .iter()
        .map(|(cfg, perfect)| {
            let config = EngineConfig {
                perfect_cache: *perfect,
                ..cfg.engine_config().unwrap()
            };
            IssueEngine::new(config, cfg.processor.policy())
        })
        .collect();
    {
        let mut cores: Vec<&mut Core> = fused.iter_mut().map(IssueEngine::core_mut).collect();
        Core::replay_fused(&tape, &mut cores).unwrap();
    }
    for (k, (e, (cfg, perfect))) in fused.iter_mut().zip(&configs).enumerate() {
        e.finish().unwrap();
        let want = reference::run(&tape, cfg, *perfect);
        assert_engine_matches(e, &want, &format!("member {k}"));
    }
}

/// Every pairing outcome of the dual-issue model: co-issued load + ALU,
/// memory/memory port conflicts, RAW conflicts, and for the odd lengths
/// an unpaired last instruction.
#[test]
fn dual_issue_streams_match_at_every_length() {
    let stream: Vec<DynInst> = (0..30u64)
        .flat_map(|i| {
            [
                DynInst::load(
                    Addr(i * 4096),
                    PhysReg::int((i % 8) as u8),
                    LoadFormat::WORD,
                ),
                DynInst::alu(
                    PhysReg::int(10 + (i % 4) as u8),
                    [Some(PhysReg::int((i % 8) as u8)), None],
                ),
                DynInst::store(Addr(i * 4096 + 8), Some(PhysReg::int(10 + (i % 4) as u8))),
            ]
        })
        .collect();
    let cfg = SimConfig::baseline(HwConfig::NoRestrict).with_processor(ProcessorKind::DualInOrder);
    for len in [0, 1, 2, stream.len() - 1, stream.len()] {
        let tape = tape_of(&stream[..len]);
        for perfect in [true, false] {
            check(
                &tape,
                &cfg,
                perfect,
                &format!("len {len} perfect {perfect}"),
            );
        }
    }
}

/// The replaying model on the mixed stream, unrestricted and `mc=1`.
#[test]
fn replaying_streams_match() {
    let tape = tape_of(&mixed_stream());
    for hw in [HwConfig::NoRestrict, HwConfig::Mc(1)] {
        let cfg = SimConfig::baseline(hw).with_processor(ProcessorKind::ReplayCause);
        check(&tape, &cfg, false, &describe(&cfg, false));
    }
}

// ---------------------------------------------------------------------
// The golden grid under the dual-issue model.

/// The 72 cells of the refactor-equivalence grid (eqntott and tomcatv,
/// the Fig. 13 configurations, the six latencies) under the dual-issue
/// model, both of Fig. 19's passes: the real cache and the perfect one.
#[test]
fn golden_grid_matches_under_dual_issue() {
    let mut cells = 0;
    for bench in ["eqntott", "tomcatv"] {
        let program = build(bench, Scale::quick()).unwrap();
        for lat in LATENCIES {
            let tape = TraceTape::record(&compile(&program, lat).unwrap());
            for hw in HwConfig::table13_six() {
                let cfg = SimConfig::baseline(hw)
                    .at_latency(lat)
                    .with_processor(ProcessorKind::DualInOrder);
                for perfect in [false, true] {
                    let what = format!("{bench} lat {lat} {}", describe(&cfg, perfect));
                    check(&tape, &cfg, perfect, &what);
                }
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 72);
}
