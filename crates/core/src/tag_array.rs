//! The policy-parameterized tag array shared by every cache level.
//!
//! A [`TagArray`] owns exactly the state a cache's tag pipeline owns in
//! hardware: the valid/tag bits of every line, the resident-block index
//! used for high-associativity geometries, and the replacement metadata.
//! It answers *which line* — hit probe, install, evict — and nothing
//! else; miss tracking (MSHRs) and timing live in the layers above. Both
//! the L1 inside `LockupFreeCache` and the tag-only L2 of
//! `nbl_mem::system` instantiate this one type and probe it through the
//! one [`TagArray::hit_decoded`], so there is a single hit probe, a
//! single set-scan and a single eviction path in the workspace.
//!
//! Replacement is one private enum with an on-hit and an on-fill hook,
//! victim selection and a reset, one variant per [`ReplacementKind`]:
//! true LRU (the paper's policy and the default), FIFO, seeded-random
//! (deterministic via the in-tree splitmix64), and tree-PLRU (the
//! pseudo-LRU bit tree real set-associative caches implement). With
//! [`ReplacementKind::Lru`] the array reproduces the pre-refactor
//! hardcoded LRU bit-for-bit — that equivalence is pinned by the 72
//! golden rows in `tests/refactor_equivalence.rs`.

use crate::geometry::{CacheGeometry, DecodedAddr};
use crate::hash::FastMap;
use crate::rng::SplitMix64;
use crate::types::BlockAddr;
use std::fmt;

/// Default seed for [`ReplacementKind::Random`]: an arbitrary fixed
/// constant so two runs (and two machines) pick identical victims.
pub const DEFAULT_RANDOM_SEED: u64 = 0x6e62_6c5f_7261_6e64; // "nbl_rand"

/// The replacement policies a [`TagArray`] can be built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used (per-line use stamps). The paper's policy
    /// and the workspace default.
    #[default]
    Lru,
    /// First-in-first-out: victim is the oldest *fill*, hits do not
    /// refresh a line.
    Fifo,
    /// Uniform-random victim from a [`SplitMix64`] stream seeded with the
    /// given value — fully deterministic for a fixed seed.
    Random {
        /// PRNG seed (use [`DEFAULT_RANDOM_SEED`] unless sweeping seeds).
        seed: u64,
    },
    /// Tree pseudo-LRU: one bit per internal node of a binary tree over
    /// the ways, as implemented by real set-associative caches.
    TreePlru,
}

impl ReplacementKind {
    /// Random replacement with the workspace's fixed default seed.
    pub fn random() -> ReplacementKind {
        ReplacementKind::Random {
            seed: DEFAULT_RANDOM_SEED,
        }
    }

    /// Short label for tables and CSV/JSON columns.
    pub fn label(&self) -> String {
        match self {
            ReplacementKind::Lru => "lru".into(),
            ReplacementKind::Fifo => "fifo".into(),
            ReplacementKind::Random { seed } if *seed == DEFAULT_RANDOM_SEED => "random".into(),
            ReplacementKind::Random { seed } => format!("random#{seed:x}"),
            ReplacementKind::TreePlru => "plru".into(),
        }
    }

    /// The four shipped policies (default seeds), the axis `figures
    /// replsens` sweeps.
    pub fn all() -> Vec<ReplacementKind> {
        vec![
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::random(),
            ReplacementKind::TreePlru,
        ]
    }
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Per-line stamps from one clock, the state of the two stamp policies:
/// LRU stamps a line on every hit and fill, FIFO on fill only, and both
/// evict the oldest stamp. LRU stamps are assigned in touch order, so the
/// victim ordering is identical to the pre-refactor `use_clock`/`last_use`
/// scheme (which also ticked on misses — ticks that never changed the
/// relative order of touches).
#[derive(Debug, Clone)]
struct Stamps {
    ways: usize,
    stamps: Vec<u64>,
    clock: u64,
}

impl Stamps {
    fn new(sets: usize, ways: usize) -> Stamps {
        Stamps {
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    #[inline]
    fn touch(&mut self, set: u32, way: usize) {
        self.clock += 1;
        self.stamps[set as usize * self.ways + way] = self.clock;
    }

    /// The way with the oldest stamp, the first on ties — the
    /// pre-refactor scan order.
    fn oldest(&self, set: u32) -> usize {
        let base = set as usize * self.ways;
        let slice = &self.stamps[base..base + self.ways];
        let mut best = 0;
        for (w, &s) in slice.iter().enumerate() {
            if s < slice[best] {
                best = w;
            }
        }
        best
    }
}

/// The replacement state of a [`TagArray`], one variant per
/// [`ReplacementKind`]. `set` is the set index and `way` the way within
/// it. The array asks for a [`Policy::victim`] only when every way of the
/// set is valid; invalid ways are always consumed first (in way order),
/// exactly like the pre-refactor cache. LRU and FIFO share [`Stamps`] but
/// stay separate variants, so a hit takes one jump and no further branch.
#[derive(Debug, Clone)]
enum Policy {
    Lru(Stamps),
    Fifo(Stamps),
    /// Seeded-random victims. The stream is consumed only by
    /// [`Policy::victim`], so for a fixed seed the whole victim sequence
    /// is a pure function of the access sequence. The seed is kept so
    /// [`Policy::reset`] can rewind the stream.
    Random {
        ways: usize,
        seed: u64,
        rng: SplitMix64,
    },
    /// Tree pseudo-LRU over a power-of-two number of ways
    /// ([`CacheGeometry`] guarantees that): `ways - 1` bits per set,
    /// heap-indexed and flattened. Each bit points toward the half holding
    /// the next victim; touching a way flips every bit on its root path
    /// away from it, so a just-touched line is never the victim.
    TreePlru {
        ways: usize,
        bits: Vec<bool>,
    },
}

impl Policy {
    fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Policy {
        match kind {
            ReplacementKind::Lru => Policy::Lru(Stamps::new(sets, ways)),
            ReplacementKind::Fifo => Policy::Fifo(Stamps::new(sets, ways)),
            ReplacementKind::Random { seed } => Policy::Random {
                ways,
                seed,
                rng: SplitMix64::new(seed),
            },
            ReplacementKind::TreePlru => Policy::TreePlru {
                ways,
                bits: vec![false; sets * ways.saturating_sub(1)],
            },
        }
    }

    /// A resident line was touched by a hit.
    #[inline]
    fn on_hit(&mut self, set: u32, way: usize) {
        match self {
            Policy::Lru(stamps) => stamps.touch(set, way),
            Policy::TreePlru { ways, bits } => plru_touch(bits, *ways, set, way),
            Policy::Fifo(_) | Policy::Random { .. } => {}
        }
    }

    /// A line was (re)filled into `way`.
    #[inline]
    fn on_fill(&mut self, set: u32, way: usize) {
        match self {
            Policy::Lru(stamps) | Policy::Fifo(stamps) => stamps.touch(set, way),
            Policy::TreePlru { ways, bits } => plru_touch(bits, *ways, set, way),
            Policy::Random { .. } => {}
        }
    }

    /// The way to evict next, given a full set. Consumes the random
    /// policy's PRNG stream.
    fn victim(&mut self, set: u32) -> usize {
        match self {
            Policy::Lru(stamps) | Policy::Fifo(stamps) => stamps.oldest(set),
            Policy::Random { ways, rng, .. } => rng.next_below(*ways as u64) as usize,
            Policy::TreePlru { ways, bits } => {
                let base = set as usize * (*ways - 1);
                let (mut node, mut lo, mut hi) = (0usize, 0usize, *ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[base + node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    /// Rewinds the policy to its as-built state without releasing any
    /// backing storage (the metadata vectors are zeroed in place).
    fn reset(&mut self) {
        match self {
            Policy::Lru(stamps) | Policy::Fifo(stamps) => {
                stamps.stamps.fill(0);
                stamps.clock = 0;
            }
            Policy::Random { seed, rng, .. } => *rng = SplitMix64::new(*seed),
            Policy::TreePlru { bits, .. } => bits.fill(false),
        }
    }
}

/// Points every tree-PLRU bit on `way`'s root path of `set` away from it.
/// A one-way tree has no bits and no path.
#[inline]
fn plru_touch(bits: &mut [bool], ways: usize, set: u32, way: usize) {
    let base = set as usize * (ways - 1);
    let (mut node, mut lo, mut hi) = (0usize, 0usize, ways);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // Accessed the left half: next victim is on the right.
            bits[base + node] = true;
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits[base + node] = false;
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

/// One line's tag-pipeline state. Data values are never simulated (the
/// model is trace-driven, like the paper's).
#[derive(Debug, Clone, Copy)]
struct TagLine {
    valid: bool,
    tag: u64,
}

/// Read-only replacement state of one way, as reported by
/// [`TagArray::debug_ages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayAge {
    /// The resident block, or `None` for an invalid way.
    pub block: Option<BlockAddr>,
    /// The policy's age/rank stamp for the way: the use stamp under
    /// [`ReplacementKind::Lru`] (larger = more recently used), the fill
    /// stamp under [`ReplacementKind::Fifo`] (larger = more recently
    /// filled), `None` for the stampless policies
    /// ([`ReplacementKind::Random`], [`ReplacementKind::TreePlru`]).
    pub stamp: Option<u64>,
}

/// Associativity above which lookups go through the block index instead
/// of scanning the set's tags. At 8 ways and below the scan is a handful
/// of contiguous compares and beats the hash.
const INDEXED_LOOKUP_MIN_WAYS: usize = 16;

/// A cache level's tag store: valid/tag bits, the resident-block index
/// for high-associativity geometries, and the replacement policy. See
/// the module docs.
///
/// # Examples
///
/// ```
/// use nbl_core::geometry::CacheGeometry;
/// use nbl_core::tag_array::{ReplacementKind, TagArray};
/// use nbl_core::types::{Addr, BlockAddr};
///
/// let geom = CacheGeometry::new(64, 32, 2).unwrap(); // one 2-way set
/// let mut tags = TagArray::new(geom, ReplacementKind::Lru);
/// assert_eq!(tags.install(BlockAddr(0)), None);
/// assert_eq!(tags.install(BlockAddr(1)), None);
/// assert!(tags.hit_decoded(&geom.decode(Addr(0)))); // block 0 is now MRU
/// assert_eq!(tags.install(BlockAddr(2)), Some(BlockAddr(1)));
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    geometry: CacheGeometry,
    ways: usize,
    /// Flattened tag store: set `s` occupies `lines[s*ways..(s+1)*ways]`.
    lines: Vec<TagLine>,
    /// Resident-block index (block → flat slot), maintained only when the
    /// linear set scan would cost more than a hash lookup (e.g. the fully
    /// associative geometry of Fig. 10: 256 tag compares per probe).
    index: Option<FastMap<BlockAddr, u32>>,
    policy: Policy,
}

impl TagArray {
    /// An all-invalid tag array over `geometry` with the given policy.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> TagArray {
        let ways = geometry.ways() as usize;
        let sets = geometry.num_sets() as usize;
        TagArray {
            geometry,
            ways,
            lines: vec![
                TagLine {
                    valid: false,
                    tag: 0
                };
                sets * ways
            ],
            index: (ways >= INDEXED_LOOKUP_MIN_WAYS).then(FastMap::default),
            policy: Policy::new(replacement, sets, ways),
        }
    }

    /// Rewinds the array to the all-invalid state [`TagArray::new`]
    /// produces — valid bits cleared, block index emptied, replacement
    /// metadata rewound — while keeping every heap allocation (line
    /// vector, index buckets, policy stamps) for reuse. The arena layer
    /// in `nbl-sim` leans on this to recycle whole processor instances
    /// across warm sweep runs without fresh allocations.
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
        if let Some(index) = &mut self.index {
            index.clear();
        }
        self.policy.reset();
    }

    /// The geometry this array was built over.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Ways per set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The flat `lines` range holding `set`.
    #[inline]
    fn set_slots(&self, set: u32) -> std::ops::Range<usize> {
        let start = set as usize * self.ways;
        start..start + self.ways
    }

    /// Reconstructs the block address resident in flat `slot`.
    #[inline]
    pub fn block_at(&self, slot: usize) -> BlockAddr {
        let set = (slot / self.ways) as u64;
        let set_bits = self.geometry.num_sets().trailing_zeros();
        BlockAddr((self.lines[slot].tag << set_bits) | set)
    }

    /// `true` if the line in `way` of `set` is valid.
    #[inline]
    pub fn is_valid(&self, set: u32, way: usize) -> bool {
        self.lines[set as usize * self.ways + way].valid
    }

    /// Read-only per-way age/rank inspection of `set` — the concrete
    /// state the static cache oracle's LRU/FIFO age bounds are
    /// property-tested against. One [`WayAge`] per way, in way order.
    ///
    /// Never mutates replacement state (in particular it does not consume
    /// the random policy's PRNG), so interleaving it with accesses cannot
    /// perturb a run. Direct-mapped arrays (`ways == 1`) skip policy
    /// bookkeeping on their fast paths, so their stamps stay at the
    /// as-built value of `0`; with one way per set the stamp carries no
    /// ordering information anyway.
    pub fn debug_ages(&self, set: u32) -> Vec<WayAge> {
        self.set_slots(set)
            .map(|slot| {
                let line = self.lines[slot];
                let block = line.valid.then(|| self.block_at(slot));
                let stamp = match &self.policy {
                    Policy::Lru(p) | Policy::Fifo(p) => Some(p.stamps[slot]),
                    Policy::Random { .. } | Policy::TreePlru { .. } => None,
                };
                WayAge { block, stamp }
            })
            .collect()
    }

    /// Flat slot of `block` if resident: an O(1) index lookup for
    /// high-associativity geometries, a short tag scan otherwise. Pure —
    /// no replacement-state update.
    #[inline]
    pub fn find(&self, block: BlockAddr) -> Option<usize> {
        self.slot_of(
            block,
            self.geometry.set_of_block(block),
            self.geometry.tag_of_block(block),
        )
    }

    /// [`TagArray::find`] with `block`'s set and tag already decoded.
    #[inline]
    fn slot_of(&self, block: BlockAddr, set: u32, tag: u64) -> Option<usize> {
        if let Some(index) = &self.index {
            return index.get(&block).map(|&s| s as usize);
        }
        let range = self.set_slots(set);
        self.lines[range.clone()]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|i| range.start + i)
    }

    /// `true` if `block` is resident.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// The one hit probe of every cache level, on an address decoded under
    /// this array's geometry ([`CacheGeometry::decode`]): answers whether
    /// the block is resident and, on a hit, moves the replacement state.
    #[inline]
    pub fn hit_decoded(&mut self, decoded: &DecodedAddr) -> bool {
        if self.ways == 1 {
            // Direct-mapped: the set's lone way is always the victim, so
            // no policy bookkeeping can affect any later decision and a
            // hit reduces to one tag compare. This is the hot path of
            // every access under the paper's baseline geometry.
            let line = &self.lines[decoded.set as usize];
            return line.valid && line.tag == decoded.tag;
        }
        match self.slot_of(decoded.block, decoded.set, decoded.tag) {
            Some(slot) => {
                self.policy.on_hit(decoded.set, slot % self.ways);
                true
            }
            None => false,
        }
    }

    /// The policy's current victim way for `set` (which must be full for
    /// the answer to be meaningful). Consumes PRNG state under the random
    /// policy — an inspection hook for tests, not a pure getter.
    pub fn victim_way(&mut self, set: u32) -> usize {
        self.policy.victim(set)
    }

    /// The single eviction path: asks the policy for a victim in `set`
    /// (all ways valid), invalidates it, and returns the flat slot it
    /// cleared and the block it held. Every eviction — L1 fill, L2 fill,
    /// in-cache MSHR victim claiming — funnels through here.
    fn evict(&mut self, set: u32) -> (usize, BlockAddr) {
        let way = self.policy.victim(set);
        debug_assert!(way < self.ways, "policy victim out of range");
        let slot = set as usize * self.ways + way;
        debug_assert!(self.lines[slot].valid, "victim of a full set is valid");
        let block = self.block_at(slot);
        self.lines[slot].valid = false;
        if let Some(index) = &mut self.index {
            index.remove(&block);
        }
        (slot, block)
    }

    /// Installs `block` (a fill reaching the tag array): reuses the
    /// resident slot on a refetch, else the first invalid way, else
    /// evicts the policy victim. Returns the evicted block, if any — the
    /// caller decides what eviction means (victim buffer, nothing).
    pub fn install(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let set = self.geometry.set_of_block(block);
        let tag = self.geometry.tag_of_block(block);
        if self.ways == 1 {
            // Direct-mapped: the set's lone way is the victim, so no
            // policy consultation (and no policy bookkeeping — see
            // [`TagArray::hit_decoded`]) is needed. The random policy's
            // PRNG stream is untouched, but `victim() % 1` never depended
            // on it anyway.
            let set_bits = self.geometry.num_sets().trailing_zeros();
            let line = &mut self.lines[set as usize];
            let evicted = (line.valid && line.tag != tag)
                .then(|| BlockAddr((line.tag << set_bits) | u64::from(set)));
            *line = TagLine { valid: true, tag };
            return evicted;
        }
        let range = self.set_slots(set);
        let (slot, evicted) = if let Some(s) = self.slot_of(block, set, tag) {
            (s, None) // refetch of a resident line (possible after races)
        } else if let Some(i) = self.lines[range.clone()].iter().position(|l| !l.valid) {
            (range.start + i, None)
        } else {
            // The set is full, so the slot the eviction clears is the
            // one the fill takes.
            let (slot, victim) = self.evict(set);
            (slot, Some(victim))
        };
        self.lines[slot] = TagLine { valid: true, tag };
        if let Some(index) = &mut self.index {
            index.insert(block, slot as u32);
        }
        self.policy.on_fill(set, slot % self.ways);
        evicted
    }

    /// In-cache MSHR storage claims the victim line at miss time: if the
    /// set has a free way the fetch will land there and nothing happens;
    /// otherwise the policy victim is invalidated *now* (its storage
    /// becomes the MSHR) and returned.
    pub fn claim_for_transit(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let set = self.geometry.set_of_block(block);
        let range = self.set_slots(set);
        if self.lines[range].iter().any(|l| !l.valid) {
            return None;
        }
        Some(self.evict(set).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Addr;

    /// [`TagArray::hit_decoded`] on `block`, decoded under the array's
    /// own geometry.
    pub(super) fn hit(t: &mut TagArray, block: BlockAddr) -> bool {
        let geometry = *t.geometry();
        t.hit_decoded(&geometry.decode(Addr(block.0 << geometry.block_bits())))
    }

    fn two_way() -> CacheGeometry {
        CacheGeometry::new(64, 32, 2).unwrap() // a single 2-way set
    }

    fn four_way() -> CacheGeometry {
        CacheGeometry::new(128, 32, 4).unwrap() // a single 4-way set
    }

    #[test]
    fn lru_matches_the_legacy_ordering() {
        let mut t = TagArray::new(two_way(), ReplacementKind::Lru);
        assert_eq!(t.install(BlockAddr(0)), None);
        assert_eq!(t.install(BlockAddr(1)), None);
        // 0 is LRU: a third fill evicts it.
        assert_eq!(t.install(BlockAddr(2)), Some(BlockAddr(0)));
        // Touch 1, fill 3: victim must be 2.
        assert!(hit(&mut t, BlockAddr(1)));
        assert_eq!(t.install(BlockAddr(3)), Some(BlockAddr(2)));
        assert!(t.contains(BlockAddr(1)) && t.contains(BlockAddr(3)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut t = TagArray::new(two_way(), ReplacementKind::Fifo);
        t.install(BlockAddr(0));
        t.install(BlockAddr(1));
        // Touching 0 does not refresh it: it is still first-in.
        assert!(hit(&mut t, BlockAddr(0)));
        assert_eq!(t.install(BlockAddr(2)), Some(BlockAddr(0)));
    }

    #[test]
    fn debug_ages_reports_blocks_and_stamp_order() {
        let mut t = TagArray::new(two_way(), ReplacementKind::Lru);
        t.install(BlockAddr(0));
        t.install(BlockAddr(1));
        assert!(hit(&mut t, BlockAddr(0))); // 0 becomes most recent
        let ages = t.debug_ages(0);
        assert_eq!(ages.len(), 2);
        let of = |b: u64| {
            ages.iter()
                .find(|w| w.block == Some(BlockAddr(b)))
                .expect("resident")
        };
        assert!(
            of(0).stamp.expect("lru stamps") > of(1).stamp.expect("lru stamps"),
            "touched line must carry the younger stamp"
        );
        // PLRU keeps no stamps: the accessor reports residency only.
        let mut p = TagArray::new(four_way(), ReplacementKind::TreePlru);
        p.install(BlockAddr(7));
        let ages = p.debug_ages(0);
        assert_eq!(ages.iter().filter(|w| w.block.is_some()).count(), 1);
        assert!(ages.iter().all(|w| w.stamp.is_none()));
    }

    #[test]
    fn plru_never_evicts_the_just_touched_line() {
        let mut t = TagArray::new(four_way(), ReplacementKind::TreePlru);
        for b in 0..4u64 {
            assert_eq!(t.install(BlockAddr(b)), None);
        }
        for b in 0..4u64 {
            assert!(hit(&mut t, BlockAddr(b)));
            let v = t.victim_way(0);
            let spared = t.find(BlockAddr(b)).unwrap();
            assert_ne!(v, spared, "victim way {v} is the just-touched line");
        }
    }

    #[test]
    fn random_is_replay_deterministic_and_in_range() {
        let mk = || TagArray::new(four_way(), ReplacementKind::Random { seed: 7 });
        let run = |mut t: TagArray| -> Vec<Option<BlockAddr>> {
            (0..32u64).map(|b| t.install(BlockAddr(b))).collect()
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a, b, "same seed, same victims");
        for e in a.into_iter().flatten() {
            assert!(e.0 < 32);
        }
        // A different seed is allowed to (and here does) diverge.
        let mut other = TagArray::new(four_way(), ReplacementKind::Random { seed: 8 });
        let c: Vec<Option<BlockAddr>> = (0..32u64).map(|b| other.install(BlockAddr(b))).collect();
        assert_ne!(b, c);
    }

    #[test]
    fn invalid_ways_fill_before_any_eviction() {
        for kind in ReplacementKind::all() {
            let mut t = TagArray::new(four_way(), kind);
            for b in 0..4u64 {
                assert_eq!(
                    t.install(BlockAddr(b)),
                    None,
                    "{kind}: no eviction while free"
                );
            }
            assert!(t.install(BlockAddr(9)).is_some(), "{kind}: full set evicts");
        }
    }

    #[test]
    fn claim_for_transit_prefers_free_ways() {
        for kind in ReplacementKind::all() {
            let mut t = TagArray::new(two_way(), kind);
            t.install(BlockAddr(0));
            assert_eq!(t.claim_for_transit(BlockAddr(5)), None, "{kind}");
            t.install(BlockAddr(1));
            let claimed = t.claim_for_transit(BlockAddr(5)).expect("full set claims");
            assert!(!t.contains(claimed), "{kind}: claimed line invalidated");
        }
    }

    #[test]
    fn indexed_lookup_agrees_with_scan() {
        // 16 ways crosses INDEXED_LOOKUP_MIN_WAYS: the index path must
        // behave identically to the scan path.
        let indexed = CacheGeometry::new(1024, 32, 16).unwrap();
        let scanned = CacheGeometry::new(256, 32, 8).unwrap();
        for geom in [indexed, scanned] {
            let mut t = TagArray::new(geom, ReplacementKind::Lru);
            let ways = t.ways() as u64;
            for b in 0..ways {
                t.install(BlockAddr(b * geom.num_sets()));
            }
            for b in 0..ways {
                assert!(hit(&mut t, BlockAddr(b * geom.num_sets())));
            }
            let evicted = t.install(BlockAddr(ways * geom.num_sets())).unwrap();
            assert_eq!(evicted, BlockAddr(0), "LRU victim via either lookup path");
            assert!(!t.contains(BlockAddr(0)));
        }
    }

    #[test]
    fn reset_behaves_like_a_fresh_array_for_every_policy() {
        for kind in ReplacementKind::all() {
            let geom = four_way();
            let drive = |t: &mut TagArray| -> Vec<Option<BlockAddr>> {
                (0..12u64)
                    .map(|b| {
                        if b % 3 == 0 {
                            hit(t, BlockAddr(b / 2));
                        }
                        t.install(BlockAddr(b))
                    })
                    .collect()
            };
            let mut fresh = TagArray::new(geom, kind);
            let expected = drive(&mut fresh);
            let mut reused = TagArray::new(geom, kind);
            let _ = drive(&mut reused); // dirty it with a full pass
            reused.reset();
            assert_eq!(drive(&mut reused), expected, "{kind}: reset diverged");
        }
    }

    #[test]
    fn labels_and_defaults() {
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
        assert_eq!(ReplacementKind::Lru.label(), "lru");
        assert_eq!(ReplacementKind::random().label(), "random");
        assert_eq!(ReplacementKind::Random { seed: 0xab }.label(), "random#ab");
        assert_eq!(ReplacementKind::TreePlru.to_string(), "plru");
        assert_eq!(ReplacementKind::all().len(), 4);
    }

    #[test]
    fn direct_mapped_degenerates_for_every_policy() {
        let geom = CacheGeometry::direct_mapped(64, 32).unwrap();
        for kind in ReplacementKind::all() {
            let mut t = TagArray::new(geom, kind);
            t.install(BlockAddr(0));
            assert_eq!(t.install(BlockAddr(2)), Some(BlockAddr(0)), "{kind}");
            assert_eq!(t.install(BlockAddr(4)), Some(BlockAddr(2)), "{kind}");
        }
    }
}

/// Property suite for the tag array on random access sequences from the
/// seeded [`crate::prop`] harness. The main claim: for any access
/// sequence, any geometry, and every [`ReplacementKind`] (the random
/// policy under a random seed), the one hit probe
/// [`TagArray::hit_decoded`], [`TagArray::install`] and
/// [`TagArray::claim_for_transit`] (the eviction-while-fetch-outstanding
/// path) agree with a per-set model of the resident blocks: the same hit
/// answers, no eviction while a way is free, LRU victims in recency order
/// and FIFO victims in fill order, and the same resident sets.
#[cfg(test)]
mod props {
    use super::tests::hit;
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::prop;
    use crate::rng::SplitMix64;
    use std::collections::BTreeSet;

    /// Every policy, the random one under a seed drawn from `rng`.
    fn kinds(rng: &mut SplitMix64) -> [ReplacementKind; 4] {
        [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random {
                seed: rng.next_u64(),
            },
            ReplacementKind::TreePlru,
        ]
    }

    /// The reference for one array: each set's resident blocks, oldest
    /// first. Under LRU the order is recency (a hit moves the block to
    /// the back), under FIFO it is fill order (a hit leaves it), and both
    /// evict the front, so their victims are predicted exactly. Random
    /// and tree-PLRU victims are only checked to be resident in the set.
    struct SetModel {
        kind: ReplacementKind,
        ways: usize,
        sets: Vec<Vec<BlockAddr>>,
    }

    impl SetModel {
        fn new(geometry: CacheGeometry, kind: ReplacementKind) -> SetModel {
            SetModel {
                kind,
                ways: geometry.ways() as usize,
                sets: vec![Vec::new(); geometry.num_sets() as usize],
            }
        }

        fn stamped(&self) -> bool {
            matches!(self.kind, ReplacementKind::Lru | ReplacementKind::Fifo)
        }

        /// `true` if `block` is resident in `set`; an LRU hit moves it to
        /// the back.
        fn hit(&mut self, set: u32, block: BlockAddr) -> bool {
            let lines = &mut self.sets[set as usize];
            let Some(pos) = lines.iter().position(|&b| b == block) else {
                return false;
            };
            if self.kind == ReplacementKind::Lru {
                lines.remove(pos);
                lines.push(block);
            }
            true
        }

        /// Applies the array's answer to an eviction request on `set`:
        /// none while a way is free, else a resident block of the set —
        /// the oldest under LRU and FIFO.
        fn evict(&mut self, set: u32, victim: Option<BlockAddr>, ctx: &str) {
            let stamped = self.stamped();
            let lines = &mut self.sets[set as usize];
            if lines.len() < self.ways {
                assert_eq!(victim, None, "{ctx}: evicted despite a free way");
                return;
            }
            let victim = victim.unwrap_or_else(|| panic!("{ctx}: full set without an eviction"));
            let pos = lines
                .iter()
                .position(|&b| b == victim)
                .unwrap_or_else(|| panic!("{ctx}: victim {victim:?} not resident in set {set}"));
            if stamped {
                assert_eq!(pos, 0, "{ctx}: victim {victim:?} is not the oldest");
            }
            lines.remove(pos);
        }

        /// Applies a fill of `block` that evicted `evicted`: a refetch of
        /// a resident block evicts nothing, and every fill (re)stamps the
        /// block as the newest.
        fn install(&mut self, block: BlockAddr, set: u32, evicted: Option<BlockAddr>, ctx: &str) {
            let lines = &mut self.sets[set as usize];
            match lines.iter().position(|&b| b == block) {
                Some(pos) => {
                    assert_eq!(evicted, None, "{ctx}: a refetch evicted");
                    lines.remove(pos);
                }
                None => self.evict(set, evicted, ctx),
            }
            self.sets[set as usize].push(block);
        }

        /// Compares every set's resident blocks with `t`'s, and with more
        /// than one way under LRU and FIFO their stamp order too.
        fn check(&self, t: &TagArray, ctx: &str) {
            for (set, lines) in self.sets.iter().enumerate() {
                let mut ways: Vec<(Option<u64>, BlockAddr)> = t
                    .debug_ages(set as u32)
                    .into_iter()
                    .filter_map(|w| Some((w.stamp, w.block?)))
                    .collect();
                if self.stamped() && self.ways > 1 {
                    ways.sort_unstable();
                    let order: Vec<BlockAddr> = ways.iter().map(|&(_, b)| b).collect();
                    assert_eq!(&order, lines, "{ctx}: set {set} order");
                } else {
                    let got: BTreeSet<BlockAddr> = ways.iter().map(|&(_, b)| b).collect();
                    let want: BTreeSet<BlockAddr> = lines.iter().copied().collect();
                    assert_eq!(got, want, "{ctx}: set {set} residents");
                }
            }
        }
    }

    /// Drives `ops` random operations through one array and its
    /// [`SetModel`]: a hit probe per access, an install after most
    /// misses, and otherwise a `claim_for_transit` whose deferred install
    /// lands later, modelling an eviction while the fetch is outstanding.
    fn drive_against_model(
        geometry: CacheGeometry,
        kind: ReplacementKind,
        rng: &mut SplitMix64,
        ops: usize,
    ) {
        let mut tags = TagArray::new(geometry, kind);
        let mut model = SetModel::new(geometry, kind);
        // Working set ~2x the cache so sets fill and evictions are common.
        let universe = (geometry.num_lines() * 2).max(8);
        let mut outstanding: Vec<BlockAddr> = Vec::new();
        let label = format!("{kind}, {}-way", geometry.ways());
        for step in 0..ops {
            let ctx = format!("{label} at {step}");
            let block = BlockAddr(rng.next_below(universe));
            let set = geometry.set_of_block(block);
            let is_hit = hit(&mut tags, block);
            assert_eq!(is_hit, model.hit(set, block), "{ctx}: hit answer");
            if !is_hit {
                if rng.next_below(4) == 0 {
                    // In-cache transit claim: the victim is evicted now,
                    // the fill lands later.
                    model.evict(set, tags.claim_for_transit(block), &ctx);
                    outstanding.push(block);
                } else {
                    model.install(block, set, tags.install(block), &ctx);
                }
            }
            // Drain an outstanding fetch about as often as one is made.
            if !outstanding.is_empty() && rng.next_below(4) == 0 {
                let idx = rng.next_below(outstanding.len() as u64) as usize;
                let fill = outstanding.swap_remove(idx);
                let set = geometry.set_of_block(fill);
                model.install(fill, set, tags.install(fill), &ctx);
            }
            if step % 64 == 0 {
                model.check(&tags, &ctx);
            }
        }
        model.check(&tags, &label);
    }

    #[test]
    fn probe_install_and_claim_match_the_set_model_for_all_policies_and_geometries() {
        // Direct-mapped (the one-compare probe), 2- and 4-way
        // set-associative, and fully associative 16-way (crosses
        // INDEXED_LOOKUP_MIN_WAYS, so the block-index path is covered
        // too).
        let geometries = [
            CacheGeometry::direct_mapped(512, 32).unwrap(),
            CacheGeometry::new(1024, 32, 2).unwrap(),
            CacheGeometry::new(1024, 32, 4).unwrap(),
            CacheGeometry::fully_associative(512, 32).unwrap(),
        ];
        prop::check("tag array vs set model", 2, 0x9e37, |rng| {
            for geometry in geometries {
                for kind in kinds(rng) {
                    drive_against_model(geometry, kind, rng, 4096);
                }
            }
        });
    }

    #[test]
    fn probe_install_and_claim_match_under_transit_heavy_sequences() {
        // A 2-way geometry with a tiny universe: almost every miss claims
        // a transit victim in a full set, hammering the
        // eviction-while-fetch-outstanding ordering.
        let geometry = CacheGeometry::new(256, 32, 2).unwrap();
        prop::check("tag array vs set model, transit heavy", 2, 0x51ab, |rng| {
            for kind in kinds(rng) {
                drive_against_model(geometry, kind, rng, 8192);
            }
        });
    }

    /// Under every policy, an eviction always removes a block that was
    /// resident in the installed block's own set — the tag array never
    /// invents a victim, and while any invalid way remains in a set it is
    /// preferred over evicting.
    #[test]
    fn victim_is_always_a_resident_way() {
        let geometry = CacheGeometry::new(1024, 32, 4).unwrap();
        prop::check("resident victims", 256, 0x71c7, |rng| {
            let len = 1 + rng.next_below(300) as usize;
            let blocks: Vec<BlockAddr> = (0..len).map(|_| BlockAddr(rng.next_below(64))).collect();
            for kind in kinds(rng) {
                let mut tags = TagArray::new(geometry, kind);
                let mut resident = BTreeSet::new();
                for &block in &blocks {
                    let set = geometry.set_of_block(block);
                    let had_invalid_way = (0..tags.ways()).any(|w| !tags.is_valid(set, w));
                    match tags.install(block) {
                        Some(victim) => {
                            assert!(
                                resident.remove(&victim),
                                "{kind}: evicted {victim:?}, never resident"
                            );
                            assert_eq!(
                                geometry.set_of_block(victim),
                                set,
                                "{kind}: victim from another set"
                            );
                            assert!(
                                !had_invalid_way || resident.contains(&block),
                                "{kind}: evicted despite a free way"
                            );
                        }
                        None => assert!(
                            had_invalid_way || resident.contains(&block),
                            "{kind}: full set filled without an eviction"
                        ),
                    }
                    resident.insert(block);
                    assert!(tags.contains(block), "{kind}: installed block not resident");
                }
                for &block in &resident {
                    assert!(
                        tags.contains(block),
                        "{kind}: resident block {block:?} lost"
                    );
                }
            }
        });
    }

    /// Under LRU and tree-PLRU, a line that just hit is never the next
    /// victim of its set (with more than one way): the touch must protect
    /// it.
    #[test]
    fn hit_never_makes_the_line_the_next_victim() {
        let geometry = CacheGeometry::new(1024, 32, 4).unwrap();
        prop::check("hit protects the line", 256, 0x4177, |rng| {
            let len = 1 + rng.next_below(200) as usize;
            let blocks: Vec<BlockAddr> = (0..len).map(|_| BlockAddr(rng.next_below(64))).collect();
            for kind in [ReplacementKind::Lru, ReplacementKind::TreePlru] {
                let mut tags = TagArray::new(geometry, kind);
                let mut resident: Vec<BlockAddr> = Vec::new();
                for &block in &blocks {
                    if let Some(victim) = tags.install(block) {
                        resident.retain(|b| *b != victim);
                    }
                    if !resident.contains(&block) {
                        resident.push(block);
                    }
                }
                let block = resident[rng.next_below(resident.len() as u64) as usize];
                assert!(hit(&mut tags, block), "{kind}: picked block is resident");
                let set = geometry.set_of_block(block);
                let way = tags.find(block).unwrap() - set as usize * tags.ways();
                let victim = tags.victim_way(set);
                assert!(victim < tags.ways());
                assert_ne!(victim, way, "{kind}: the just-hit line is the next victim");
            }
        });
    }
}
