//! The lockup-free data cache (Kroft-style), combining a tag array with an
//! MSHR organization.
//!
//! Timing is owned by the caller (the processor model drives the cache and
//! the pipelined memory model): this type answers *what happened* to an
//! access — hit, primary miss, secondary miss, or structural stall — and
//! performs fills; the processor turns those answers into cycles.
//!
//! Policies follow the paper's memory model (§3.1): write-through with
//! write-around (no-write-allocate) by default, so stores never stall; the
//! `mc=0 + wma` configuration instead uses write-allocate with a blocking
//! fetch, which the paper uses as its worst-case comparison point.

use crate::geometry::{CacheGeometry, DecodedAddr};
use crate::mshr::{
    MissKind, MissRequest, MshrBank, MshrConfig, MshrResponse, Rejection, TargetRecord,
};
use crate::tag_array::{ReplacementKind, TagArray};
use crate::types::{BlockAddr, Dest, LoadFormat};
use std::fmt;

/// What happens on a store miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WriteMissPolicy {
    /// Write-around (no-write-allocate): the store bypasses the cache and is
    /// written to the next level; no fetch, no stall. Paper baseline.
    #[default]
    WriteAround,
    /// Write-miss allocate: the line is fetched and the processor stalls
    /// until the miss is serviced (the paper's `mc=0 + wma` curve).
    WriteAllocate,
}

impl fmt::Display for WriteMissPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteMissPolicy::WriteAround => write!(f, "write-around"),
            WriteMissPolicy::WriteAllocate => write!(f, "write-allocate"),
        }
    }
}

/// Full configuration of a lockup-free cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Size / line size / associativity.
    pub geometry: CacheGeometry,
    /// Store-miss handling.
    pub write_miss: WriteMissPolicy,
    /// MSHR organization.
    pub mshr: MshrConfig,
    /// Entries in a fully associative victim buffer next to the cache
    /// (Jouppi 1990) holding the last lines evicted; a load miss that hits
    /// the buffer swaps the line back in one cycle instead of fetching.
    /// 0 (the paper's configuration) disables it — an extension.
    pub victim_entries: usize,
    /// Replacement policy of the tag array. The paper's (and default)
    /// policy is true LRU.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Baseline geometry with write-around stores, LRU replacement and the
    /// given MSHRs.
    pub fn baseline(mshr: MshrConfig) -> CacheConfig {
        CacheConfig {
            geometry: CacheGeometry::baseline(),
            write_miss: WriteMissPolicy::WriteAround,
            mshr,
            victim_entries: 0,
            replacement: ReplacementKind::default(),
        }
    }
}

/// Outcome of a load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadAccess {
    /// The line is present: data available after the 1-cycle hit latency.
    Hit,
    /// The line was found in the victim buffer and swapped back into the
    /// set: one extra cycle, no fetch (victim-cache extension).
    VictimHit,
    /// A tracked miss. For [`MissKind::Primary`] the caller must launch a
    /// fetch of the missing block's line; for secondary the data rides an
    /// existing fetch.
    Miss(MissKind),
    /// Structural stall: no MSHR resource could track the miss. The caller
    /// must wait for an outstanding fetch to complete and retry.
    Stalled(Rejection),
}

impl LoadAccess {
    /// `true` for [`LoadAccess::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, LoadAccess::Hit)
    }
}

/// Outcome of a store access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAccess {
    /// Line present: written through; no stall.
    Hit,
    /// Write-around store miss: bypasses the cache; no stall.
    MissAround,
    /// Write-allocate store miss: the caller must perform a blocking fetch
    /// of the line (`mc=0 + wma`).
    MissAllocate,
    /// Write-allocate store miss tracked by an MSHR with a write-buffer
    /// destination (paper §2.4: "write buffer entries (for merging with
    /// write data when writing into a write-allocate cache)" are possible
    /// destinations of fetch data). No stall; for
    /// [`MissKind::Primary`] the caller must launch the fetch.
    MissAllocateTracked(MissKind),
}

/// Event counters maintained by the cache (final outcomes only; stall
/// cycles are accounted by the processor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Loads that hit.
    pub load_hits: u64,
    /// Loads classified as primary misses.
    pub load_primary_misses: u64,
    /// Loads classified as secondary misses.
    pub load_secondary_misses: u64,
    /// Stores that hit.
    pub store_hits: u64,
    /// Stores that missed (either policy).
    pub store_misses: u64,
    /// Load misses converted to one-cycle swaps by the victim buffer.
    pub victim_hits: u64,
    /// Lines filled.
    pub fills: u64,
}

impl CacheCounters {
    /// Total loads observed.
    pub fn loads(&self) -> u64 {
        self.load_hits + self.load_primary_misses + self.load_secondary_misses
    }

    /// Combined primary + secondary load miss rate, as a fraction of loads.
    pub fn load_miss_rate(&self) -> f64 {
        let loads = self.loads();
        if loads == 0 {
            0.0
        } else {
            (self.load_primary_misses + self.load_secondary_misses) as f64 / loads as f64
        }
    }

    /// Secondary-only load miss rate, as a fraction of loads.
    pub fn secondary_miss_rate(&self) -> f64 {
        let loads = self.loads();
        if loads == 0 {
            0.0
        } else {
            self.load_secondary_misses as f64 / loads as f64
        }
    }
}

/// The paper's lockup-free data cache: a [`TagArray`] fronted by one of
/// the four MSHR organizations, servicing loads/stores while up to
/// `MshrConfig`-many fetches are outstanding.
///
/// # Examples
///
/// ```
/// use nbl_core::cache::{CacheConfig, LockupFreeCache, LoadAccess};
/// use nbl_core::mshr::{MshrConfig, MissKind, RegisterFileConfig, TargetPolicy};
/// use nbl_core::limit::Limit;
/// use nbl_core::types::{Addr, Dest, LoadFormat, PhysReg};
///
/// // A hit-under-miss ("mc=1") cache.
/// let cfg = CacheConfig::baseline(MshrConfig::Register(RegisterFileConfig {
///     entries: Limit::Finite(1),
///     targets: TargetPolicy::explicit(Limit::Finite(1)),
///     max_outstanding_misses: Limit::Finite(1),
///     max_fetches_per_set: Limit::Unlimited,
/// }));
/// // The port takes addresses split under the cache's geometry.
/// let a = cfg.geometry.decode(Addr(0x1000));
/// let mut cache = LockupFreeCache::new(cfg);
/// let r1 = cache.access_load_decoded(&a, Dest::Reg(PhysReg::int(1)), LoadFormat::WORD);
/// assert_eq!(r1, LoadAccess::Miss(MissKind::Primary));
/// // While that miss is outstanding, other lines still hit or stall — the
/// // cache is not locked up.
/// let wakeups = cache.fill(a.block);
/// assert_eq!(wakeups.len(), 1);
/// assert!(cache.access_load_decoded(&a, Dest::Reg(PhysReg::int(2)), LoadFormat::WORD).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct LockupFreeCache {
    config: CacheConfig,
    /// The shared tag-array layer: valid/tag bits, resident-block index
    /// and replacement policy (see [`crate::tag_array`]).
    tags: TagArray,
    mshrs: MshrBank,
    counters: CacheCounters,
    wb_slot: u8,
    /// Victim buffer: most recently evicted blocks, newest last.
    victims: Vec<BlockAddr>,
}

impl LockupFreeCache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> LockupFreeCache {
        let geometry = config.geometry;
        let tags = TagArray::new(geometry, config.replacement);
        let mshrs = MshrBank::new(&config.mshr, &geometry);
        LockupFreeCache {
            config,
            tags,
            mshrs,
            counters: CacheCounters::default(),
            wb_slot: 0,
            victims: Vec::new(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns the cache to its freshly-built (all-invalid, zero-counter)
    /// state while keeping every internal allocation — tag array, MSHR
    /// storages, victim buffer — for reuse by the next run on this worker.
    pub fn reset(&mut self) {
        self.tags.reset();
        self.mshrs.reset();
        self.counters = CacheCounters::default();
        self.wb_slot = 0;
        self.victims.clear();
    }

    /// Accumulated event counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Direct access to the MSHR bank (for occupancy statistics).
    pub fn mshrs(&self) -> &MshrBank {
        &self.mshrs
    }

    /// Records an evicted block in the victim buffer (if configured).
    fn remember_victim(&mut self, block: BlockAddr) {
        if self.config.victim_entries == 0 {
            return;
        }
        self.victims.retain(|v| *v != block);
        if self.victims.len() == self.config.victim_entries {
            self.victims.remove(0);
        }
        self.victims.push(block);
    }

    /// If `block` sits in the victim buffer, swaps it back into its set
    /// (the displaced occupant takes its place in the buffer) and returns
    /// `true`.
    fn try_victim_swap(&mut self, block: BlockAddr) -> bool {
        let Some(pos) = self.victims.iter().position(|v| *v == block) else {
            return false;
        };
        self.victims.remove(pos);
        if let Some(occupant) = self.tags.install(block) {
            // The classic victim-cache swap: displaced line enters the buffer.
            self.victims.push(occupant);
            if self.victims.len() > self.config.victim_entries {
                self.victims.remove(0);
            }
        }
        true
    }

    /// Performs a load access for `dest`, its address already decoded
    /// under this cache's geometry ([`CacheGeometry::decode`]), so a fused
    /// group of caches sharing one geometry pays for the decode once.
    ///
    /// The cache classifies the access but does not advance time; on a
    /// primary miss the caller must launch the fetch and later call
    /// [`LockupFreeCache::fill`].
    pub fn access_load_decoded(
        &mut self,
        decoded: &DecodedAddr,
        dest: Dest,
        format: LoadFormat,
    ) -> LoadAccess {
        if self.load_hit_decoded(decoded) {
            return LoadAccess::Hit;
        }
        self.load_miss_decoded(decoded, dest, format)
    }

    /// The miss half of [`LockupFreeCache::access_load_decoded`], for a
    /// caller that has just seen the tag probe miss
    /// ([`LockupFreeCache::load_hit_decoded`] returned `false`, with no
    /// fill since): checks the victim buffer, then presents the miss to
    /// the MSHRs, without probing the tags again.
    pub fn load_miss_decoded(
        &mut self,
        decoded: &DecodedAddr,
        dest: Dest,
        format: LoadFormat,
    ) -> LoadAccess {
        let block = decoded.block;
        if self.config.victim_entries != 0
            && !self.mshrs.is_in_transit(block)
            && self.try_victim_swap(block)
        {
            self.counters.victim_hits += 1;
            return LoadAccess::VictimHit;
        }
        let req = MissRequest {
            block,
            set: decoded.set,
            offset: decoded.offset,
            dest,
            format,
        };
        match self.mshrs.try_load_miss(&req) {
            MshrResponse::Accepted(kind) => {
                match kind {
                    MissKind::Primary => {
                        self.counters.load_primary_misses += 1;
                        if self.config.mshr.evicts_on_miss() {
                            self.claim_victim_for_transit(block);
                        }
                    }
                    MissKind::Secondary => self.counters.load_secondary_misses += 1,
                }
                LoadAccess::Miss(kind)
            }
            MshrResponse::Rejected(reason) => LoadAccess::Stalled(reason),
        }
    }

    /// Performs a store access, its address already decoded under this
    /// cache's geometry ([`CacheGeometry::decode`]). Stores are
    /// write-through; under write-around a miss simply bypasses the cache.
    /// Under write-allocate, the miss is tracked by an MSHR with a
    /// write-buffer destination when the organization can hold it (no
    /// stall); otherwise the caller must perform a blocking fetch.
    pub fn access_store_decoded(&mut self, decoded: &DecodedAddr) -> StoreAccess {
        let block = decoded.block;
        // A store to a line in transit does not hit (and cannot tag-hit:
        // an in-transit block is never resident); under write-around it
        // goes around (the fetched line will be superseded in memory by the
        // write-through, which our tag-only model need not track).
        if self.store_hit_decoded(decoded) {
            return StoreAccess::Hit;
        }
        self.counters.store_misses += 1;
        match self.config.write_miss {
            WriteMissPolicy::WriteAround => StoreAccess::MissAround,
            WriteMissPolicy::WriteAllocate => {
                let req = MissRequest {
                    block,
                    set: decoded.set,
                    offset: decoded.offset,
                    dest: Dest::WriteBuffer(self.next_wb_slot()),
                    format: LoadFormat::DOUBLE,
                };
                match self.mshrs.try_load_miss(&req) {
                    MshrResponse::Accepted(kind) => {
                        if kind == MissKind::Primary && self.config.mshr.evicts_on_miss() {
                            self.claim_victim_for_transit(block);
                        }
                        StoreAccess::MissAllocateTracked(kind)
                    }
                    // No MSHR resource (or a blocking cache): expose the
                    // fetch synchronously, like the paper's `mc=0 + wma`.
                    MshrResponse::Rejected(_) => StoreAccess::MissAllocate,
                }
            }
        }
    }

    /// The load-hit half of [`LockupFreeCache::access_load_decoded`]:
    /// probes the tags ([`TagArray::hit_decoded`], which moves the
    /// replacement state on a hit), bumps the hit counter and returns
    /// `true` exactly when the full access would return
    /// [`LoadAccess::Hit`]. A resident line is never in transit (a block
    /// misses to get in transit and only re-enters the tags at fill
    /// time), so a tag hit needs no MSHR probe at all. On `false` nothing
    /// is counted and the caller goes on to
    /// [`LockupFreeCache::load_miss_decoded`].
    #[inline]
    pub fn load_hit_decoded(&mut self, decoded: &DecodedAddr) -> bool {
        if self.tags.hit_decoded(decoded) {
            self.counters.load_hits += 1;
            return true;
        }
        false
    }

    /// The store-hit half of [`LockupFreeCache::access_store_decoded`]:
    /// the [`StoreAccess::Hit`] twin of
    /// [`LockupFreeCache::load_hit_decoded`], counting nothing on `false`.
    #[inline]
    pub fn store_hit_decoded(&mut self, decoded: &DecodedAddr) -> bool {
        if self.tags.hit_decoded(decoded) {
            self.counters.store_hits += 1;
            return true;
        }
        false
    }

    /// Cycles through the write-buffer destination slots for tracked
    /// write-allocate misses.
    fn next_wb_slot(&mut self) -> u8 {
        let slot = self.wb_slot;
        self.wb_slot = (self.wb_slot + 1) % 16;
        slot
    }

    /// In-cache MSHR storage claims the victim line at miss time: invalidate
    /// the replacement candidate so the set's storage is the MSHR. The
    /// claimed line's data becomes MSHR state, so it deliberately does NOT
    /// enter the victim buffer.
    fn claim_victim_for_transit(&mut self, block: BlockAddr) {
        self.tags.claim_for_transit(block);
    }

    /// Installs the line for `block` (evicting the policy victim if the set
    /// is full, into the victim buffer when one is configured) and drains
    /// the MSHR targets waiting on it.
    ///
    /// Works for blocking-cache fills too, in which case the returned
    /// vector is empty.
    pub fn fill(&mut self, block: BlockAddr) -> Vec<TargetRecord> {
        let mut records = Vec::new();
        self.fill_into(block, &mut records);
        records
    }

    /// [`LockupFreeCache::fill`], but appending the drained targets to a
    /// caller-provided (typically recycled) vector instead of allocating.
    pub fn fill_into(&mut self, block: BlockAddr, out: &mut Vec<TargetRecord>) {
        if let Some(victim) = self.tags.install(block) {
            self.remember_victim(victim);
        }
        self.counters.fills += 1;
        self.mshrs.fill_into(block, out);
    }

    /// `true` if `block` currently resides in the cache (ignoring transit).
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.tags.contains(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limit::Limit;
    use crate::mshr::{InvertedConfig, RegisterFileConfig, TargetPolicy};
    use crate::types::{Addr, PhysReg};

    fn dest(i: u8) -> Dest {
        Dest::Reg(PhysReg::int(i))
    }

    /// The decoded ports for a raw address, split under the cache's own
    /// geometry.
    trait Port {
        fn load(&mut self, addr: Addr, dest: Dest) -> LoadAccess;
        fn store(&mut self, addr: Addr) -> StoreAccess;
        fn block(&self, addr: Addr) -> BlockAddr;
    }

    impl Port for LockupFreeCache {
        fn load(&mut self, addr: Addr, dest: Dest) -> LoadAccess {
            let decoded = self.config.geometry.decode(addr);
            self.access_load_decoded(&decoded, dest, LoadFormat::WORD)
        }

        fn store(&mut self, addr: Addr) -> StoreAccess {
            let decoded = self.config.geometry.decode(addr);
            self.access_store_decoded(&decoded)
        }

        fn block(&self, addr: Addr) -> BlockAddr {
            self.config.geometry.block_of(addr)
        }
    }

    fn unrestricted() -> CacheConfig {
        CacheConfig::baseline(MshrConfig::Inverted(InvertedConfig::typical()))
    }

    fn fc(n: u32) -> CacheConfig {
        CacheConfig::baseline(MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(n),
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        }))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = LockupFreeCache::new(unrestricted());
        let a = Addr(0x4000);
        assert_eq!(c.load(a, dest(1)), LoadAccess::Miss(MissKind::Primary));
        let t = c.fill(c.block(a));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].dest, dest(1));
        assert!(c.load(a, dest(2)).is_hit());
        assert_eq!(c.counters().load_hits, 1);
        assert_eq!(c.counters().load_primary_misses, 1);
    }

    #[test]
    fn in_transit_block_is_secondary_not_hit() {
        let mut c = LockupFreeCache::new(unrestricted());
        let a = Addr(0x4000);
        let b = Addr(0x4008); // same 32-byte line
        assert_eq!(c.load(a, dest(1)), LoadAccess::Miss(MissKind::Primary));
        assert_eq!(c.load(b, dest(2)), LoadAccess::Miss(MissKind::Secondary));
        let t = c.fill(c.block(a));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = LockupFreeCache::new(unrestricted());
        let a = Addr(0x0000);
        let b = Addr(0x2000); // 8KB apart: same set, different tag
        c.load(a, dest(1));
        c.fill(c.block(a));
        assert!(c.contains_block(c.block(a)));
        c.load(b, dest(2));
        c.fill(c.block(b));
        assert!(c.contains_block(c.block(b)));
        assert!(
            !c.contains_block(c.block(a)),
            "direct-mapped fill evicts the conflicting line"
        );
        assert_eq!(c.load(a, dest(3)), LoadAccess::Miss(MissKind::Primary));
    }

    #[test]
    fn fully_associative_keeps_conflicting_lines() {
        let mut cfg = unrestricted();
        cfg.geometry = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
        let mut c = LockupFreeCache::new(cfg);
        for i in 0..4u64 {
            let a = Addr(i * 0x2000); // all map to set 0 in a DM cache
            c.load(a, dest(i as u8));
            c.fill(c.block(a));
        }
        for i in 0..4u64 {
            assert!(c.load(Addr(i * 0x2000), dest(9)).is_hit());
        }
    }

    #[test]
    fn lru_eviction_in_fully_associative() {
        // A 64-byte, 32-byte-line fully associative cache has 2 ways.
        let mut cfg = unrestricted();
        cfg.geometry = CacheGeometry::fully_associative(64, 32).unwrap();
        let mut c = LockupFreeCache::new(cfg);
        for a in [0u64, 0x20, 0x40] {
            c.load(Addr(a), dest(1));
            c.fill(c.block(Addr(a)));
        }
        // 0x00 was least recently used and should be gone; 0x20 remains.
        assert!(!c.contains_block(c.block(Addr(0))));
        assert!(c.contains_block(c.block(Addr(0x20))));
        assert!(c.contains_block(c.block(Addr(0x40))));
        // Touch 0x20, fill 0x60: victim should now be 0x40.
        assert!(c.load(Addr(0x20), dest(2)).is_hit());
        c.load(Addr(0x60), dest(3));
        c.fill(c.block(Addr(0x60)));
        assert!(c.contains_block(c.block(Addr(0x20))));
        assert!(!c.contains_block(c.block(Addr(0x40))));
    }

    #[test]
    fn structural_stall_surfaces_rejection() {
        let mut c = LockupFreeCache::new(fc(1));
        assert!(matches!(c.load(Addr(0x1000), dest(1)), LoadAccess::Miss(_)));
        assert_eq!(
            c.load(Addr(0x2000), dest(2)),
            LoadAccess::Stalled(Rejection::NoFreeMshr)
        );
        // Stalled accesses are not counted as misses.
        assert_eq!(c.counters().load_primary_misses, 1);
        assert_eq!(c.counters().loads(), 1);
    }

    #[test]
    fn stores_write_around_without_stalling() {
        let mut c = LockupFreeCache::new(unrestricted());
        assert_eq!(c.store(Addr(0x5000)), StoreAccess::MissAround);
        // Store miss does not allocate: the next load still misses.
        assert!(matches!(c.load(Addr(0x5000), dest(1)), LoadAccess::Miss(_)));
        c.fill(c.block(Addr(0x5000)));
        assert_eq!(c.store(Addr(0x5008)), StoreAccess::Hit);
        assert_eq!(c.counters().store_hits, 1);
        assert_eq!(c.counters().store_misses, 1);
    }

    #[test]
    fn write_allocate_with_mshrs_tracks_store_misses() {
        let mut cfg = fc(2);
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut c = LockupFreeCache::new(cfg);
        // First store miss: tracked as a primary, no blocking fetch needed.
        assert_eq!(
            c.store(Addr(0x5000)),
            StoreAccess::MissAllocateTracked(MissKind::Primary)
        );
        // Second store to the same line merges as a secondary.
        assert_eq!(
            c.store(Addr(0x5008)),
            StoreAccess::MissAllocateTracked(MissKind::Secondary)
        );
        // A load to the in-transit line also merges.
        assert_eq!(
            c.load(Addr(0x5010), dest(1)),
            LoadAccess::Miss(MissKind::Secondary)
        );
        // The fill wakes all three targets: two write-buffer slots + a reg.
        let t = c.fill(c.block(Addr(0x5000)));
        assert_eq!(t.len(), 3);
        let regs = t.iter().filter(|r| matches!(r.dest, Dest::Reg(_))).count();
        let wbs = t
            .iter()
            .filter(|r| matches!(r.dest, Dest::WriteBuffer(_)))
            .count();
        assert_eq!((regs, wbs), (1, 2));
        assert_eq!(c.store(Addr(0x5000)), StoreAccess::Hit);
    }

    #[test]
    fn write_allocate_falls_back_to_blocking_when_mshrs_are_full() {
        let mut cfg = fc(1);
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut c = LockupFreeCache::new(cfg);
        assert!(matches!(
            c.store(Addr(0x5000)),
            StoreAccess::MissAllocateTracked(MissKind::Primary)
        ));
        // The single MSHR is busy: a store to a different line must block.
        assert_eq!(c.store(Addr(0x9000)), StoreAccess::MissAllocate);
    }

    #[test]
    fn write_allocate_store_miss_requests_blocking_fetch() {
        let mut cfg = CacheConfig::baseline(MshrConfig::Blocking);
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut c = LockupFreeCache::new(cfg);
        assert_eq!(c.store(Addr(0x5000)), StoreAccess::MissAllocate);
        c.fill(c.block(Addr(0x5000)));
        assert_eq!(c.store(Addr(0x5008)), StoreAccess::Hit);
    }

    #[test]
    fn in_cache_mshr_claims_victim_at_miss_time() {
        let cfg = CacheConfig::baseline(MshrConfig::InCache {
            targets: TargetPolicy::explicit(Limit::Unlimited),
            read_extra_cycles: 0,
        });
        let mut c = LockupFreeCache::new(cfg);
        let old = Addr(0x0000);
        let new = Addr(0x2000); // same set
        c.load(old, dest(1));
        c.fill(c.block(old));
        assert!(c.contains_block(c.block(old)));
        // Primary miss on the conflicting line: the old line is claimed NOW.
        assert_eq!(c.load(new, dest(2)), LoadAccess::Miss(MissKind::Primary));
        assert!(
            !c.contains_block(c.block(old)),
            "in-cache MSHR storage reuses the victim line as MSHR state"
        );
        // And a third line in the same set must structurally stall (fs=1).
        assert_eq!(
            c.load(Addr(0x4000), dest(3)),
            LoadAccess::Stalled(Rejection::PerSetFetchLimit)
        );
        c.fill(c.block(new));
        assert!(c.contains_block(c.block(new)));
    }

    #[test]
    fn victim_buffer_catches_conflict_evictions() {
        let mut cfg = unrestricted();
        cfg.victim_entries = 4;
        let mut c = LockupFreeCache::new(cfg);
        let a = Addr(0x0000);
        let b = Addr(0x2000); // same set as a
        c.load(a, dest(1));
        c.fill(c.block(a));
        c.load(b, dest(2));
        c.fill(c.block(b)); // evicts a -> victim buffer
                            // The reload of `a` is a victim hit, not a miss.
        assert_eq!(c.load(a, dest(3)), LoadAccess::VictimHit);
        assert_eq!(c.counters().victim_hits, 1);
        // The swap displaced `b` into the buffer: it victim-hits too.
        assert_eq!(c.load(b, dest(4)), LoadAccess::VictimHit);
        // And now `a` is back in the buffer again.
        assert_eq!(c.load(a, dest(5)), LoadAccess::VictimHit);
        assert_eq!(
            c.counters().load_primary_misses,
            2,
            "no extra fetches occurred"
        );
    }

    #[test]
    fn victim_buffer_capacity_is_bounded() {
        let mut cfg = unrestricted();
        cfg.victim_entries = 2;
        let mut c = LockupFreeCache::new(cfg);
        // Evict three conflicting lines through a 2-entry buffer: the
        // oldest victim is forgotten.
        for i in 0..4u64 {
            let a = Addr(i * 0x2000);
            c.load(a, dest(1));
            c.fill(c.block(a));
        }
        // Lines 0x2000 and 0x4000 were evicted most recently (0x6000 is
        // resident); 0x0000 fell out of the buffer.
        assert!(matches!(c.load(Addr(0), dest(2)), LoadAccess::Miss(_)));
        assert_eq!(c.counters().victim_hits, 0);
        // 0x4000 is still buffered.
        assert_eq!(c.load(Addr(0x4000), dest(3)), LoadAccess::VictimHit);
    }

    #[test]
    fn eviction_while_a_fetch_to_the_set_is_outstanding() {
        let mut cfg = unrestricted();
        cfg.victim_entries = 4;
        let mut c = LockupFreeCache::new(cfg);
        let resident = Addr(0x0000);
        let in_flight = Addr(0x2000); // same set
        let third = Addr(0x4000); // same set again
        c.load(resident, dest(1));
        c.fill(c.block(resident));
        // Launch a fetch into the set and leave it outstanding.
        assert_eq!(
            c.load(in_flight, dest(2)),
            LoadAccess::Miss(MissKind::Primary)
        );
        // A third conflicting fill lands while that fetch is in flight:
        // the resident line must be displaced into the victim buffer.
        c.load(third, dest(3));
        c.fill(c.block(third));
        assert_eq!(c.load(resident, dest(4)), LoadAccess::VictimHit);
        // The in-flight block is a secondary miss, never a victim hit —
        // transit is checked before the buffer.
        assert_eq!(
            c.load(in_flight, dest(5)),
            LoadAccess::Miss(MissKind::Secondary)
        );
        // Its fill still drains both targets and installs the line.
        let t = c.fill(c.block(in_flight));
        assert_eq!(t.len(), 2);
        assert!(c.contains_block(c.block(in_flight)));
        assert!(c.load(in_flight, dest(6)).is_hit());
    }

    #[test]
    fn in_cache_claim_does_not_feed_the_victim_buffer() {
        // In-cache MSHR storage invalidates the victim at miss time to hold
        // transit state; that line's data is gone, so it must NOT become a
        // victim-buffer hit.
        let mut cfg = CacheConfig::baseline(MshrConfig::InCache {
            targets: TargetPolicy::explicit(Limit::Unlimited),
            read_extra_cycles: 0,
        });
        cfg.victim_entries = 4;
        let mut c = LockupFreeCache::new(cfg);
        let old = Addr(0x0000);
        let new = Addr(0x2000); // same set
        c.load(old, dest(1));
        c.fill(c.block(old));
        assert_eq!(c.load(new, dest(2)), LoadAccess::Miss(MissKind::Primary));
        assert!(
            !c.contains_block(c.block(old)),
            "victim claimed as MSHR state"
        );
        c.fill(c.block(new));
        assert!(
            matches!(c.load(old, dest(3)), LoadAccess::Miss(_)),
            "a claimed victim's data was reused through the buffer"
        );
    }

    #[test]
    fn zero_victim_entries_disables_the_buffer() {
        let mut c = LockupFreeCache::new(unrestricted());
        let a = Addr(0x0000);
        let b = Addr(0x2000);
        for addr in [a, b] {
            c.load(addr, dest(1));
            c.fill(c.block(addr));
        }
        assert!(matches!(c.load(a, dest(2)), LoadAccess::Miss(_)));
        assert_eq!(c.counters().victim_hits, 0);
    }

    #[test]
    fn counters_and_rates() {
        let mut c = LockupFreeCache::new(unrestricted());
        c.load(Addr(0x100), dest(1)); // primary
        c.load(Addr(0x108), dest(2)); // secondary
        c.fill(c.block(Addr(0x100)));
        c.load(Addr(0x110), dest(3)); // hit
        let k = c.counters();
        assert_eq!(k.loads(), 3);
        assert!((k.load_miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((k.secondary_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(k.fills, 1);
    }

    #[test]
    fn empty_cache_rates_are_zero() {
        let c = LockupFreeCache::new(unrestricted());
        assert_eq!(c.counters().load_miss_rate(), 0.0);
        assert_eq!(c.counters().secondary_miss_rate(), 0.0);
    }

    /// A direct-mapped blocking cache agrees access for access with a
    /// reference model that keeps one tag per set.
    #[test]
    fn blocking_cache_matches_a_tag_per_set_model() {
        let geometry = CacheGeometry::direct_mapped(1024, 32).unwrap();
        crate::prop::check("blocking cache vs tag per set", 256, 0xcace, |rng| {
            let mut cache = LockupFreeCache::new(CacheConfig {
                geometry,
                write_miss: WriteMissPolicy::WriteAround,
                mshr: MshrConfig::Blocking,
                victim_entries: 0,
                replacement: ReplacementKind::default(),
            });
            let mut tags = std::collections::BTreeMap::new();
            for _ in 0..1 + rng.next_below(400) {
                let addr = Addr(rng.next_below(1 << 16));
                let block = geometry.block_of(addr);
                let set = geometry.set_of(addr);
                let expect_hit = tags.get(&set) == Some(&geometry.tag_of_block(block));
                let got = cache.load(addr, Dest::Reg(PhysReg::int(1)));
                if expect_hit {
                    assert_eq!(got, LoadAccess::Hit, "{addr:?}");
                } else {
                    assert!(matches!(got, LoadAccess::Stalled(_)), "{addr:?}: {got:?}");
                    cache.fill(block);
                    tags.insert(set, geometry.tag_of_block(block));
                }
            }
        });
    }
}
