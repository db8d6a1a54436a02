//! Property suite for the oracle: random tapes × random geometries ×
//! every replacement policy, soundness-checked against the real engine,
//! plus exactness assertions in the regimes where the analysis is
//! supposed to be complete, plus a direct property test of the stamp
//! characterization the soundness argument rests on (via
//! [`TagArray::debug_ages`]). Random cases come from the seeded
//! [`nbl_core::prop`] harness.

use crate::check::check_cell;
use crate::domain::analyze_tape;
use crate::OracleConfig;
use nbl_core::geometry::CacheGeometry;
use nbl_core::inst::DynInst;
use nbl_core::prop::{self, InstMix};
use nbl_core::rng::SplitMix64;
use nbl_core::tag_array::{ReplacementKind, TagArray};
use nbl_core::types::{Addr, LoadFormat, PhysReg};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_trace::TraceTape;

/// A random tape of 200 to 799 instructions, 60% memory operations over a
/// 2 KiB address range, so the tiny caches below see constant set reuse.
fn random_tape(rng: &mut SplitMix64) -> TraceTape {
    let len = 200 + rng.next_below(600) as usize;
    let mix = InstMix {
        mem_per_mille: 600,
        addr_bits: 11,
    };
    let mut tape = TraceTape::with_capacity("oracle-prop", 0, len);
    for _ in 0..len {
        tape.push(prop::random_inst(rng, mix));
    }
    tape
}

fn small_geometries() -> Vec<CacheGeometry> {
    // Tiny caches so random address streams actually evict: 8 sets dm,
    // 4 sets 2-way, 2 sets 4-way, fully associative 8-way.
    vec![
        CacheGeometry::new(256, 32, 1).expect("dm"),
        CacheGeometry::new(256, 32, 2).expect("2-way"),
        CacheGeometry::new(256, 32, 4).expect("4-way"),
        CacheGeometry::new(256, 32, 8).expect("8-way"),
    ]
}

/// Soundness: across random tapes, geometries, policies and fill-timing
/// regimes, the cross-check never observes a violation.
#[test]
fn random_tapes_never_violate_the_cross_check() {
    let hws = [HwConfig::Mc0, HwConfig::Fc(2), HwConfig::NoRestrict];
    prop::check("oracle soundness", 6, 0x000b_ac1e_5eed, |rng| {
        let tape = random_tape(rng);
        for geometry in small_geometries() {
            for policy in ReplacementKind::all() {
                for hw in &hws {
                    let cfg = SimConfig::baseline(hw.clone())
                        .with_geometry(geometry)
                        .with_replacement(policy);
                    let report = check_cell("oracle-prop", &tape, &cfg).expect("cell");
                    assert!(
                        report.violations.is_empty(),
                        "{} {} {}: {:?}",
                        report.geometry,
                        report.policy,
                        report.hw,
                        report.violations
                    );
                }
            }
        }
    });
}

/// Exactness: with a blocking cache (window 0) the analysis is complete
/// for every policy on direct-mapped sets, and for LRU and FIFO at any
/// associativity — zero unknowns, so the classes *equal* the outcomes.
#[test]
fn window_zero_is_exact_where_claimed() {
    prop::check("oracle exactness at window 0", 6, 0xeaac7, |rng| {
        let tape = random_tape(rng);
        for geometry in small_geometries() {
            for policy in ReplacementKind::all() {
                let exact = geometry.ways() == 1
                    || matches!(policy, ReplacementKind::Lru | ReplacementKind::Fifo);
                if !exact {
                    continue;
                }
                let cfg = SimConfig::baseline(HwConfig::Mc0)
                    .with_geometry(geometry)
                    .with_replacement(policy);
                let report = check_cell("oracle-prop", &tape, &cfg).expect("cell");
                assert!(report.violations.is_empty(), "violations");
                assert_eq!(
                    report.coverage.unknown, 0,
                    "{} {}: blocking analysis left unknowns",
                    report.geometry, report.policy
                );
            }
        }
    });
}

/// The write-around refinement: a store-only tape under `mc=0`
/// (write-around stores) never installs anything, so every access is a
/// must-miss.
#[test]
fn write_around_stores_never_install() {
    let mut tape = TraceTape::with_capacity("oracle-prop", 0, 64);
    for i in 0..64u64 {
        tape.push(DynInst::store(Addr((i % 8) * 32), None));
    }
    let cfg = SimConfig::baseline(HwConfig::Mc0)
        .with_geometry(CacheGeometry::new(256, 32, 4).expect("4-way"));
    let ocfg = OracleConfig::from_sim(&cfg).expect("supported");
    assert!(!ocfg.write_allocate, "mc=0 must be write-around");
    let analysis = analyze_tape(&tape, &ocfg);
    assert_eq!(analysis.coverage.must_miss, analysis.coverage.accesses);
    let report = check_cell("oracle-prop", &tape, &cfg).expect("cell");
    assert!(report.violations.is_empty());
}

/// A hand-built tape where the expected classes are known by inspection:
/// A miss, A hit, B..E fill the 4-way set, A evicted (LRU), A miss again.
#[test]
fn hand_built_lru_eviction_is_classified_exactly() {
    let geometry = CacheGeometry::new(256, 32, 4).expect("4-way");
    // Blocks mapping to set 0 of a 2-set cache: stride 64 bytes.
    let blk = |i: u64| Addr(i * 64);
    let reg = PhysReg::from_dense(1);
    let mut tape = TraceTape::with_capacity("oracle-prop", 0, 8);
    let pattern = [0u64, 0, 1, 2, 3, 4, 0]; // A A B C D E A
    for &b in &pattern {
        tape.push(DynInst::load(blk(b), reg, LoadFormat::WORD));
    }
    let cfg = SimConfig::baseline(HwConfig::Mc0)
        .with_geometry(geometry)
        .with_replacement(ReplacementKind::Lru);
    let ocfg = OracleConfig::from_sim(&cfg).expect("supported");
    let analysis = analyze_tape(&tape, &ocfg);
    use crate::domain::Classification::{MustHit, MustMiss};
    assert_eq!(
        analysis.classes,
        vec![MustMiss, MustHit, MustMiss, MustMiss, MustMiss, MustMiss, MustMiss],
        "A(miss) A(hit) B C D E(evicts A) A(miss)"
    );
    let report = check_cell("oracle-prop", &tape, &cfg).expect("cell");
    assert!(report.violations.is_empty());
}

/// The stamp characterization itself, straight against the tag array:
/// under LRU the resident blocks of a set are exactly the `W` most
/// recently stamped (touched-or-installed) distinct blocks; under FIFO,
/// the `W` most recently *installed*.
#[test]
fn stamp_characterization_matches_debug_ages() {
    prop::check("stamp characterization", 2, 0x57a3b, |rng| {
        for (policy, stamps_on_hit) in
            [(ReplacementKind::Lru, true), (ReplacementKind::Fifo, false)]
        {
            for geometry in small_geometries() {
                let mut tags = TagArray::new(geometry, policy);
                let ways = geometry.ways() as usize;
                // Per-set model: distinct blocks in stamp order, oldest first.
                let mut model: Vec<Vec<u64>> = vec![Vec::new(); geometry.num_sets() as usize];
                for _ in 0..2000 {
                    let addr = Addr(rng.next_below(1 << 11));
                    let block = geometry.block_of(addr);
                    let set = geometry.set_of_block(block) as usize;
                    let hit = tags.hit_decoded(&geometry.decode(addr));
                    if !hit {
                        tags.install(block);
                    }
                    if hit && !stamps_on_hit {
                        continue; // FIFO: hits don't re-stamp
                    }
                    model[set].retain(|&b| b != block.0);
                    model[set].push(block.0);
                }
                for (set, stamped) in model.iter().enumerate() {
                    let resident: Vec<u64> = tags
                        .debug_ages(set as u32)
                        .into_iter()
                        .filter_map(|w| w.block.map(|b| b.0))
                        .collect();
                    let top: Vec<u64> = stamped.iter().rev().take(ways).copied().collect();
                    assert_eq!(
                        resident.len(),
                        top.len(),
                        "{policy:?} set {set}: residency count"
                    );
                    for b in &top {
                        assert!(
                            resident.contains(b),
                            "{policy:?} set {set}: top-{ways} block {b:#x} not resident"
                        );
                    }
                }
            }
        }
    });
}
