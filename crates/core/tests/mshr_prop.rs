//! Differential property suite for the flat MSHR bookkeeping.
//!
//! The claim under test: every [`MshrConfig`] shape the sweeps use —
//! blocking, `mc=1/2`, `fc=1/2`, `fs=1/2`, implicit/explicit/hybrid
//! target fields, in-cache storage at 1 and 2 ways, and the inverted
//! MSHR — answers any seeded sequence of misses, fills and resets exactly
//! like a reference model that keeps the same state in ordered maps (the
//! block-keyed entry maps, per-set counters and destination-keyed
//! inverted entries of the map-based bookkeeping the flat slots replaced).
//! Compared after every step: the response to each miss,
//! `outstanding_fetches`/`outstanding_misses`, `fetches_in_set`,
//! `is_in_transit`, and the targets each fill returns (in arrival order
//! for the per-fetch organizations, as a multiset for the inverted MSHR,
//! whose match encoder has no order). The model enforces every limit on
//! its own, so agreeing with it at every step also means no shape ever
//! exceeds its entry, miss or per-set limit. Cases come from the seeded
//! [`nbl_core::prop`] harness.

use nbl_core::geometry::CacheGeometry;
use nbl_core::limit::Limit;
use nbl_core::mshr::{
    InvertedConfig, MissKind, MissRequest, MshrBank, MshrConfig, MshrResponse, RegisterFileConfig,
    Rejection, TargetPolicy, TargetRecord,
};
use nbl_core::prop;
use nbl_core::rng::SplitMix64;
use nbl_core::types::{BlockAddr, Dest, LoadFormat, PhysReg};
use std::collections::BTreeMap;

/// The target fields of one reference fetch: arrival-ordered records,
/// admitted by the paper's per-sub-block field rule.
#[derive(Debug, Clone)]
struct RefTargets {
    policy: TargetPolicy,
    sub_block_bytes: u32,
    records: Vec<TargetRecord>,
}

impl RefTargets {
    fn new(policy: TargetPolicy, geometry: &CacheGeometry) -> RefTargets {
        RefTargets {
            policy,
            sub_block_bytes: geometry.line_bytes() / policy.sub_blocks(),
            records: Vec::new(),
        }
    }

    /// Records `record` if its sub-block has a free field.
    fn try_add(&mut self, record: TargetRecord) -> Result<(), Rejection> {
        let sub_block = record.offset / self.sub_block_bytes;
        let used = self
            .records
            .iter()
            .filter(|r| r.offset / self.sub_block_bytes == sub_block)
            .count();
        if !self.policy.fields_per_sub_block().allows_one_more(used) {
            return Err(Rejection::TargetConflict);
        }
        self.records.push(record);
        Ok(())
    }
}

/// The reference model: one variant per organization, all state in
/// ordered maps.
#[derive(Debug)]
enum Model {
    Blocking,
    Register {
        config: RegisterFileConfig,
        geometry: CacheGeometry,
        /// In-flight fetches by block: set and targets.
        entries: BTreeMap<BlockAddr, (u32, RefTargets)>,
        /// In-flight fetches per set (absent = 0).
        per_set: BTreeMap<u32, u32>,
    },
    InCache {
        policy: TargetPolicy,
        geometry: CacheGeometry,
        /// Transit lines per set.
        per_set: BTreeMap<u32, Vec<(BlockAddr, RefTargets)>>,
        /// Block to set, for fills and transit queries.
        by_block: BTreeMap<BlockAddr, u32>,
    },
    Inverted {
        /// Valid destination entries: the block waited for and the target.
        entries: BTreeMap<Dest, (BlockAddr, TargetRecord)>,
        /// Waiting destinations per block being fetched.
        fetches: BTreeMap<BlockAddr, u32>,
    },
}

impl Model {
    fn new(config: &MshrConfig, geometry: &CacheGeometry) -> Model {
        match config {
            MshrConfig::Blocking => Model::Blocking,
            MshrConfig::Register(config) => Model::Register {
                config: config.clone(),
                geometry: *geometry,
                entries: BTreeMap::new(),
                per_set: BTreeMap::new(),
            },
            MshrConfig::InCache { targets, .. } => Model::InCache {
                policy: *targets,
                geometry: *geometry,
                per_set: BTreeMap::new(),
                by_block: BTreeMap::new(),
            },
            MshrConfig::Inverted(_) => Model::Inverted {
                entries: BTreeMap::new(),
                fetches: BTreeMap::new(),
            },
        }
    }

    fn try_load_miss(&mut self, req: &MissRequest) -> MshrResponse {
        let record = TargetRecord {
            dest: req.dest,
            offset: req.offset,
            format: req.format,
        };
        let total_misses = self.outstanding_misses();
        let accepted = |r: Result<(), Rejection>, kind| match r {
            Ok(()) => MshrResponse::Accepted(kind),
            Err(reason) => MshrResponse::Rejected(reason),
        };
        match self {
            Model::Blocking => MshrResponse::Rejected(Rejection::Blocking),
            Model::Register {
                config,
                geometry,
                entries,
                per_set,
            } => {
                if !config.max_outstanding_misses.allows_one_more(total_misses) {
                    return MshrResponse::Rejected(Rejection::MissLimit);
                }
                if let Some((_, targets)) = entries.get_mut(&req.block) {
                    return accepted(targets.try_add(record), MissKind::Secondary);
                }
                if !config.entries.allows_one_more(entries.len()) {
                    return MshrResponse::Rejected(Rejection::NoFreeMshr);
                }
                let in_set = per_set.get(&req.set).copied().unwrap_or(0) as usize;
                if !config.max_fetches_per_set.allows_one_more(in_set) {
                    return MshrResponse::Rejected(Rejection::PerSetFetchLimit);
                }
                let mut targets = RefTargets::new(config.targets, geometry);
                if let Err(reason) = targets.try_add(record) {
                    return MshrResponse::Rejected(reason);
                }
                entries.insert(req.block, (req.set, targets));
                *per_set.entry(req.set).or_insert(0) += 1;
                MshrResponse::Accepted(MissKind::Primary)
            }
            Model::InCache {
                policy,
                geometry,
                per_set,
                by_block,
            } => {
                let lines = per_set.entry(req.set).or_default();
                if let Some((_, targets)) = lines.iter_mut().find(|(b, _)| *b == req.block) {
                    return accepted(targets.try_add(record), MissKind::Secondary);
                }
                if lines.len() >= geometry.ways() as usize {
                    return MshrResponse::Rejected(Rejection::PerSetFetchLimit);
                }
                let mut targets = RefTargets::new(*policy, geometry);
                if let Err(reason) = targets.try_add(record) {
                    return MshrResponse::Rejected(reason);
                }
                lines.push((req.block, targets));
                by_block.insert(req.block, req.set);
                MshrResponse::Accepted(MissKind::Primary)
            }
            Model::Inverted { entries, fetches } => {
                if entries.contains_key(&req.dest) {
                    return MshrResponse::Rejected(Rejection::DestinationBusy);
                }
                entries.insert(req.dest, (req.block, record));
                let waiting = fetches.entry(req.block).or_insert(0);
                *waiting += 1;
                MshrResponse::Accepted(if *waiting == 1 {
                    MissKind::Primary
                } else {
                    MissKind::Secondary
                })
            }
        }
    }

    fn fill(&mut self, block: BlockAddr) -> Vec<TargetRecord> {
        match self {
            Model::Blocking => Vec::new(),
            Model::Register {
                entries, per_set, ..
            } => {
                let Some((set, targets)) = entries.remove(&block) else {
                    return Vec::new();
                };
                let count = per_set.get_mut(&set).expect("per-set count tracks entries");
                *count -= 1;
                if *count == 0 {
                    per_set.remove(&set);
                }
                targets.records
            }
            Model::InCache {
                per_set, by_block, ..
            } => {
                let Some(set) = by_block.remove(&block) else {
                    return Vec::new();
                };
                let lines = per_set.get_mut(&set).expect("by_block tracks per_set");
                let idx = lines
                    .iter()
                    .position(|(b, _)| *b == block)
                    .expect("by_block tracks per_set");
                lines.swap_remove(idx).1.records
            }
            Model::Inverted { entries, fetches } => {
                if fetches.remove(&block).is_none() {
                    return Vec::new();
                }
                let mut out = Vec::new();
                entries.retain(|_, (b, record)| {
                    if *b == block {
                        out.push(*record);
                        false
                    } else {
                        true
                    }
                });
                out
            }
        }
    }

    fn reset(&mut self) {
        match self {
            Model::Blocking => {}
            Model::Register {
                entries, per_set, ..
            } => {
                entries.clear();
                per_set.clear();
            }
            Model::InCache {
                per_set, by_block, ..
            } => {
                per_set.clear();
                by_block.clear();
            }
            Model::Inverted { entries, fetches } => {
                entries.clear();
                fetches.clear();
            }
        }
    }

    /// Blocks being fetched, in order.
    fn in_flight(&self) -> Vec<BlockAddr> {
        match self {
            Model::Blocking => Vec::new(),
            Model::Register { entries, .. } => entries.keys().copied().collect(),
            Model::InCache { by_block, .. } => by_block.keys().copied().collect(),
            Model::Inverted { fetches, .. } => fetches.keys().copied().collect(),
        }
    }

    fn is_in_transit(&self, block: BlockAddr) -> bool {
        self.in_flight().contains(&block)
    }

    fn outstanding_fetches(&self) -> usize {
        self.in_flight().len()
    }

    fn outstanding_misses(&self) -> usize {
        match self {
            Model::Blocking => 0,
            Model::Register { entries, .. } => entries.values().map(|(_, t)| t.records.len()).sum(),
            Model::InCache { per_set, .. } => per_set
                .values()
                .flatten()
                .map(|(_, t)| t.records.len())
                .sum(),
            Model::Inverted { entries, .. } => entries.len(),
        }
    }

    fn fetches_in_set(&self, set: u32) -> usize {
        match self {
            Model::Blocking | Model::Inverted { .. } => 0,
            Model::Register { per_set, .. } => per_set.get(&set).copied().unwrap_or(0) as usize,
            Model::InCache { per_set, .. } => per_set.get(&set).map_or(0, Vec::len),
        }
    }
}

/// A sortable key for comparing target multisets.
fn key(r: &TargetRecord) -> (Dest, u32, u32, bool) {
    (
        r.dest,
        r.offset,
        r.format.size.bytes(),
        r.format.sign_extend,
    )
}

/// Any destination: mostly registers, sometimes the PC, write-buffer and
/// prefetch slots.
fn random_dest(rng: &mut SplitMix64) -> Dest {
    match rng.next_below(16) {
        0 => Dest::Pc,
        1 => Dest::WriteBuffer(rng.next_below(16) as u8),
        2 => Dest::Prefetch(rng.next_below(4) as u8),
        _ => Dest::Reg(PhysReg::from_dense(rng.next_below(64) as usize)),
    }
}

/// Asserts every observable query agrees between `bank` and `model`.
fn assert_agrees(bank: &MshrBank, model: &Model, probe: BlockAddr, sets: u32, ctx: &str) {
    assert_eq!(
        bank.outstanding_fetches(),
        model.outstanding_fetches(),
        "{ctx}: outstanding fetches"
    );
    assert_eq!(
        bank.outstanding_misses(),
        model.outstanding_misses(),
        "{ctx}: outstanding misses"
    );
    assert_eq!(
        bank.is_in_transit(probe),
        model.is_in_transit(probe),
        "{ctx}: transit of {probe:?}"
    );
    for block in model.in_flight() {
        assert!(bank.is_in_transit(block), "{ctx}: {block:?} in flight");
    }
    for set in 0..sets {
        assert_eq!(
            bank.fetches_in_set(set),
            model.fetches_in_set(set),
            "{ctx}: fetches in set {set}"
        );
    }
}

/// Drives `ops` random steps of misses, fills and resets through one
/// bank and its reference model, comparing after every step.
fn drive(
    name: &str,
    config: &MshrConfig,
    geometry: CacheGeometry,
    rng: &mut SplitMix64,
    ops: usize,
) {
    let mut bank = MshrBank::new(config, &geometry);
    let mut model = Model::new(config, &geometry);
    let sets = geometry.num_sets() as u32;
    // Three blocks per set: merges, per-set conflicts and fresh blocks
    // all stay common.
    let universe = u64::from(sets) * 3;
    let ordered = !matches!(config, MshrConfig::Inverted(_));
    let (mut accepted, mut merged, mut rejected, mut woken) = (0, 0, 0, 0);
    for step in 0..ops {
        let ctx = format!("{name} step {step}");
        let roll = rng.next_below(100);
        let probe = BlockAddr(rng.next_below(universe));
        if roll < 60 {
            let block = BlockAddr(rng.next_below(universe));
            let req = MissRequest {
                block,
                set: geometry.set_of_block(block),
                offset: rng.next_below(u64::from(geometry.line_bytes())) as u32,
                dest: random_dest(rng),
                format: if rng.next_below(2) == 0 {
                    LoadFormat::WORD
                } else {
                    LoadFormat::DOUBLE
                },
            };
            let got = bank.try_load_miss(&req);
            assert_eq!(got, model.try_load_miss(&req), "{ctx}: response to {req:?}");
            match got {
                MshrResponse::Accepted(MissKind::Primary) => accepted += 1,
                MshrResponse::Accepted(MissKind::Secondary) => merged += 1,
                MshrResponse::Rejected(_) => rejected += 1,
            }
        } else if roll < 98 {
            // Mostly a block in flight; sometimes one that is not.
            let in_flight = model.in_flight();
            let block = if in_flight.is_empty() || rng.next_below(8) == 0 {
                BlockAddr(rng.next_below(universe))
            } else {
                in_flight[rng.next_below(in_flight.len() as u64) as usize]
            };
            let mut got = Vec::new();
            bank.fill_into(block, &mut got);
            let mut want = model.fill(block);
            woken += want.len();
            if !ordered {
                got.sort_by_key(key);
                want.sort_by_key(key);
            }
            assert_eq!(got, want, "{ctx}: targets of {block:?}");
        } else {
            bank.reset();
            model.reset();
        }
        assert_agrees(&bank, &model, probe, sets, &ctx);
    }
    // Every shape exercises its paths: a lockup bank only rejects.
    if config.is_blocking() {
        assert_eq!((accepted, merged, woken), (0, 0, 0), "{name}");
        assert!(rejected > 0, "{name}");
    } else {
        assert!(
            accepted > 0 && woken > 0,
            "{name}: {accepted} primaries, {woken} woken"
        );
        assert!(
            rejected > 0 || matches!(config, MshrConfig::Inverted(_)),
            "{name}"
        );
        let merges_possible = !matches!(
            config,
            MshrConfig::Register(RegisterFileConfig { targets, .. })
                if targets.total_fields() == Limit::Finite(1)
        );
        assert_eq!(merged > 0, merges_possible, "{name}: {merged} merges");
    }
}

/// A register-file shape (`entries`, target layout, miss cap, per-set cap).
fn register(entries: Limit, targets: TargetPolicy, misses: Limit, per_set: Limit) -> MshrConfig {
    MshrConfig::Register(RegisterFileConfig {
        entries,
        targets,
        max_outstanding_misses: misses,
        max_fetches_per_set: per_set,
    })
}

/// Every MSHR shape of the sweeps, by name.
fn shapes() -> Vec<(String, MshrConfig)> {
    use Limit::{Finite, Unlimited};
    let explicit = TargetPolicy::explicit;
    let mut shapes = vec![("blocking".to_string(), MshrConfig::Blocking)];
    for n in [1, 2] {
        shapes.push((
            format!("mc={n}"),
            register(Finite(n), explicit(Finite(1)), Finite(n), Unlimited),
        ));
        shapes.push((
            format!("fc={n}"),
            register(Finite(n), explicit(Unlimited), Unlimited, Unlimited),
        ));
        shapes.push((
            format!("fs={n}"),
            register(Unlimited, explicit(Unlimited), Unlimited, Finite(n)),
        ));
    }
    for (label, targets) in [
        ("implicit(4)", TargetPolicy::implicit_sub_blocks(4)),
        ("explicit(2)", explicit(Finite(2))),
        ("hybrid(2x2)", TargetPolicy::hybrid(2, 2)),
    ] {
        shapes.push((
            format!("targets {label}"),
            register(Unlimited, targets, Unlimited, Unlimited),
        ));
        shapes.push((
            format!("targets {label}, 4 entries, 6 misses"),
            register(Finite(4), targets, Finite(6), Unlimited),
        ));
    }
    for (label, targets) in [
        ("explicit", explicit(Unlimited)),
        ("implicit(4)", TargetPolicy::implicit_sub_blocks(4)),
    ] {
        shapes.push((
            format!("in-cache {label}"),
            MshrConfig::InCache {
                targets,
                read_extra_cycles: 0,
            },
        ));
    }
    // Every register-file limit finite at once.
    shapes.push((
        "2 entries, 3 misses, fs=1".to_string(),
        register(Finite(2), explicit(Finite(2)), Finite(3), Finite(1)),
    ));
    shapes.push((
        "inverted".to_string(),
        MshrConfig::Inverted(InvertedConfig::typical()),
    ));
    shapes
}

#[test]
fn flat_bookkeeping_matches_the_map_reference_on_every_shape() {
    let direct = CacheGeometry::direct_mapped(512, 32).unwrap();
    let two_way = CacheGeometry::new(512, 32, 2).unwrap();
    for (name, config) in shapes() {
        let geometries: &[CacheGeometry] = if config.evicts_on_miss() {
            &[direct, two_way]
        } else {
            &[direct]
        };
        prop::check(&format!("mshr {name}"), 8, 0x5eed, |rng| {
            for &geometry in geometries {
                let name = format!("{name} ({} ways)", geometry.ways());
                drive(&name, &config, geometry, rng, 3000);
            }
        });
    }
}

#[test]
fn flat_bookkeeping_matches_under_a_tiny_universe() {
    // One set, three blocks: nearly every miss merges or collides, and
    // per-set limits bind on every primary.
    let geometry = CacheGeometry::new(64, 32, 2).unwrap();
    prop::check("mshr tiny universe", 2, 0xb10c, |rng| {
        for (name, config) in shapes() {
            drive(&name, &config, geometry, rng, 3000);
        }
    });
}
