//! Regression tests for the shared tag-array eviction path: a line is
//! displaced while a fetch to the same set is outstanding, under every
//! replacement policy. All evictions — plain fills, victim-buffer swaps
//! and in-cache MSHR claims — funnel through the single
//! `TagArray::evict` path, so these scenarios pin its interaction with
//! transit state for each policy.

use nonblocking_loads::core::cache::{CacheConfig, LoadAccess, LockupFreeCache};
use nonblocking_loads::core::geometry::CacheGeometry;
use nonblocking_loads::core::mshr::{InvertedConfig, MissKind, MshrConfig, TargetRecord};
use nonblocking_loads::core::tag_array::ReplacementKind;
use nonblocking_loads::core::types::{Addr, BlockAddr, Dest, LoadFormat, PhysReg};

fn dest(i: u8) -> Dest {
    Dest::Reg(PhysReg::int(i))
}

/// A 2-way 8 KB cache (128 sets, so addresses 0x1000 apart share a set)
/// with unrestricted MSHRs, a victim buffer, and the given policy.
fn two_way(replacement: ReplacementKind) -> CacheConfig {
    let mut cfg = CacheConfig::baseline(MshrConfig::Inverted(InvertedConfig::typical()));
    cfg.geometry = CacheGeometry::new(8 * 1024, 32, 2).expect("valid geometry");
    cfg.victim_entries = 4;
    cfg.replacement = replacement;
    cfg
}

/// Set-conflicting addresses for set 0 of the 2-way geometry.
const A: Addr = Addr(0x0000);
const B: Addr = Addr(0x1000);
const C: Addr = Addr(0x2000);
const D: Addr = Addr(0x3000);

fn load(cache: &mut LockupFreeCache, addr: Addr, reg: u8) -> LoadAccess {
    let decoded = cache.config().geometry.decode(addr);
    cache.access_load_decoded(&decoded, dest(reg), LoadFormat::WORD)
}

/// Fills the line of `addr`, returning the targets it woke.
fn fill(cache: &mut LockupFreeCache, addr: Addr) -> Vec<TargetRecord> {
    let mut woken = Vec::new();
    cache.fill_into(block(cache, addr), &mut woken);
    woken
}

fn block(cache: &LockupFreeCache, addr: Addr) -> BlockAddr {
    cache.config().geometry.block_of(addr)
}

/// Fills the set with A and B, launches an outstanding fetch of C, then
/// fills D on top; returns which of A/B survived. Asserts the invariants
/// every policy must uphold along the way.
fn run_eviction_scenario(replacement: ReplacementKind) -> (bool, bool) {
    let mut cache = LockupFreeCache::new(two_way(replacement));
    for (i, addr) in [A, B].into_iter().enumerate() {
        assert_eq!(
            load(&mut cache, addr, i as u8),
            LoadAccess::Miss(MissKind::Primary)
        );
        fill(&mut cache, addr);
    }
    // Launch a fetch of C into the full set and leave it outstanding.
    assert_eq!(load(&mut cache, C, 2), LoadAccess::Miss(MissKind::Primary));
    // D's fill lands while C is in flight: the policy must displace
    // exactly one of the two resident lines into the victim buffer.
    assert_eq!(load(&mut cache, D, 3), LoadAccess::Miss(MissKind::Primary));
    fill(&mut cache, D);
    let d_block = block(&cache, D);
    assert!(
        cache.contains_block(d_block),
        "[{replacement}] the filled line is resident"
    );
    let a_resident = cache.contains_block(block(&cache, A));
    let b_resident = cache.contains_block(block(&cache, B));
    assert!(
        a_resident != b_resident,
        "[{replacement}] exactly one resident line is displaced, never the in-flight one"
    );
    // The in-flight block stays in transit — a secondary miss, never a
    // victim-buffer hit, and never chosen as the eviction victim.
    assert_eq!(
        load(&mut cache, C, 4),
        LoadAccess::Miss(MissKind::Secondary)
    );
    // The displaced line's data is recoverable from the victim buffer.
    let displaced = if a_resident { B } else { A };
    assert_eq!(
        load(&mut cache, displaced, 5),
        LoadAccess::VictimHit,
        "[{replacement}] the displaced line swaps back from the victim buffer"
    );
    // C's fill still drains both waiting targets and installs the line.
    let targets = fill(&mut cache, C);
    let c_block = block(&cache, C);
    assert_eq!(
        targets.len(),
        2,
        "[{replacement}] the outstanding fetch wakes both merged targets"
    );
    assert!(cache.contains_block(c_block));
    assert!(load(&mut cache, C, 6).is_hit());
    (a_resident, b_resident)
}

/// Every policy upholds the transit-safety invariants of the scenario.
#[test]
fn eviction_with_outstanding_fetch_under_each_policy() {
    for replacement in ReplacementKind::all() {
        run_eviction_scenario(replacement);
    }
}

/// The scenario is replay-deterministic for every policy — including
/// Random, whose SplitMix64 stream is fixed by the seed in the config.
#[test]
fn eviction_scenario_is_replay_deterministic() {
    for replacement in ReplacementKind::all() {
        let first = run_eviction_scenario(replacement);
        let second = run_eviction_scenario(replacement);
        assert_eq!(first, second, "[{replacement}] replay diverged");
    }
}

/// Stamp-based policies pick deterministic victims in the scenario with
/// an extra touch of A before D's fill: LRU (and tree-PLRU, which is
/// exact LRU at 2 ways) protects the just-touched A and displaces B;
/// FIFO ignores the touch and displaces A, the older fill.
#[test]
fn touch_order_decides_the_victim_per_policy() {
    for (replacement, expect_a_resident) in [
        (ReplacementKind::Lru, true),
        (ReplacementKind::TreePlru, true),
        (ReplacementKind::Fifo, false),
    ] {
        let mut cache = LockupFreeCache::new(two_way(replacement));
        for (i, addr) in [A, B].into_iter().enumerate() {
            load(&mut cache, addr, i as u8);
            fill(&mut cache, addr);
        }
        // Re-touch A: most recently used, but still the oldest fill.
        assert!(load(&mut cache, A, 2).is_hit());
        assert_eq!(load(&mut cache, C, 3), LoadAccess::Miss(MissKind::Primary));
        load(&mut cache, D, 4);
        fill(&mut cache, D);
        let a_resident = cache.contains_block(block(&cache, A));
        assert_eq!(
            a_resident, expect_a_resident,
            "[{replacement}] wrong victim chosen"
        );
        // The outstanding fetch is untouched either way.
        assert_eq!(
            load(&mut cache, C, 5),
            LoadAccess::Miss(MissKind::Secondary)
        );
    }
}
