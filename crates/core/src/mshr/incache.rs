//! In-cache MSHR storage (paper §2.3, after Franklin & Sohi).
//!
//! A *transit bit* is added to every cache line. While a line is being
//! fetched, the line's tag holds the fetched address and the line's data
//! array holds the MSHR target information. Consequences faithfully
//! modeled here:
//!
//! * In a direct-mapped cache only **one in-flight primary miss per cache
//!   set** is possible (the set's single line is the MSHR). In an `n`-way
//!   cache up to `n` fetches per set can be in flight.
//! * The victim line is claimed — and its previous contents lost — at
//!   **miss time**, not fill time (the line is needed to store the MSHR
//!   state). `MshrConfig::evicts_on_miss` exposes this to the cache.
//! * The number of MSHRs equals the number of cache lines, so there is no
//!   global entry limit worth modeling.

use super::slots::FetchSlots;
use super::targets::TargetPolicy;
use super::{MissRequest, MshrResponse, Rejection, TargetRecord};
use crate::geometry::CacheGeometry;
use crate::types::BlockAddr;

/// Dynamic state of the in-cache MSHR organization.
#[derive(Debug, Clone)]
pub struct InCacheMshr {
    ways: usize,
    /// The transit lines: one flat slot per in-flight fetch, with the
    /// per-set count of lines in transit indexed by set.
    slots: FetchSlots,
}

impl InCacheMshr {
    /// Creates the organization for a cache of the given geometry.
    pub fn new(targets_policy: TargetPolicy, geometry: &CacheGeometry) -> InCacheMshr {
        InCacheMshr {
            ways: geometry.ways() as usize,
            slots: FetchSlots::new(targets_policy, geometry),
        }
    }

    /// Clears all dynamic state while keeping every slot's target storage
    /// for reuse by the next run on the same worker.
    pub fn reset(&mut self) {
        self.slots.reset();
    }

    /// The target-field layout stored in each transit line.
    pub fn targets_policy(&self) -> TargetPolicy {
        self.slots.policy()
    }

    /// Presents a load miss.
    pub fn try_load_miss(&mut self, req: &MissRequest) -> MshrResponse {
        let record = TargetRecord {
            dest: req.dest,
            offset: req.offset,
            format: req.format,
        };
        if let Some(slot) = self.slots.find(req.block) {
            return self.slots.merge(slot, record);
        }
        // A new primary miss needs a line in the set to live in. Lines
        // already in transit cannot be claimed.
        if self.slots.fetches_in_set(req.set) >= self.ways {
            return MshrResponse::Rejected(Rejection::PerSetFetchLimit);
        }
        self.slots.allocate(req.block, req.set, record)
    }

    /// Completes the fetch of `block`.
    pub fn fill(&mut self, block: BlockAddr) -> Vec<TargetRecord> {
        let mut records = Vec::new();
        self.fill_into(block, &mut records);
        records
    }

    /// Completes the fetch of `block`, appending the waiting targets to
    /// `out` in arrival order — the allocation-free twin of
    /// [`InCacheMshr::fill`]: the freed line keeps its target storage for
    /// the next primary miss.
    #[inline]
    pub fn fill_into(&mut self, block: BlockAddr, out: &mut Vec<TargetRecord>) {
        self.slots.fill_into(block, out);
    }

    /// `true` if a fetch for `block` is outstanding.
    #[inline]
    pub fn is_in_transit(&self, block: BlockAddr) -> bool {
        self.slots.find(block).is_some()
    }

    /// Number of in-flight fetches.
    #[inline]
    pub fn outstanding_fetches(&self) -> usize {
        self.slots.outstanding_fetches()
    }

    /// Number of waiting target records.
    #[inline]
    pub fn outstanding_misses(&self) -> usize {
        self.slots.outstanding_misses()
    }

    /// In-flight fetches mapping to `set`.
    #[inline]
    pub fn fetches_in_set(&self, set: u32) -> usize {
        self.slots.fetches_in_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limit::Limit;
    use crate::mshr::MissKind;
    use crate::types::{Dest, LoadFormat, PhysReg};

    fn req(block: u64, set: u32, offset: u32, reg: u8) -> MissRequest {
        MissRequest {
            block: BlockAddr(block),
            set,
            offset,
            dest: Dest::Reg(PhysReg::int(reg)),
            format: LoadFormat::WORD,
        }
    }

    #[test]
    fn direct_mapped_allows_one_fetch_per_set() {
        let geom = CacheGeometry::baseline();
        let mut m = InCacheMshr::new(TargetPolicy::explicit(Limit::Unlimited), &geom);
        assert_eq!(
            m.try_load_miss(&req(0x100, 0, 0, 1)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        // Another block in the same set: the set's only line is in transit.
        assert_eq!(
            m.try_load_miss(&req(0x200, 0, 0, 2)),
            MshrResponse::Rejected(Rejection::PerSetFetchLimit)
        );
        // Secondary misses to the in-transit block merge freely.
        assert_eq!(
            m.try_load_miss(&req(0x100, 0, 8, 3)),
            MshrResponse::Accepted(MissKind::Secondary)
        );
        // A different set is independent.
        assert!(m.try_load_miss(&req(0x101, 1, 0, 4)).is_accepted());
        assert_eq!(m.outstanding_fetches(), 2);
        assert_eq!(m.outstanding_misses(), 3);
        assert_eq!(m.fetches_in_set(0), 1);
        let t = m.fill(BlockAddr(0x100));
        assert_eq!(t.len(), 2);
        assert!(m.try_load_miss(&req(0x200, 0, 0, 2)).is_accepted());
    }

    #[test]
    fn two_way_cache_allows_two_fetches_per_set() {
        let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        let mut m = InCacheMshr::new(TargetPolicy::explicit(Limit::Unlimited), &geom);
        assert!(m.try_load_miss(&req(0x100, 0, 0, 1)).is_accepted());
        assert!(m.try_load_miss(&req(0x200, 0, 0, 2)).is_accepted());
        assert_eq!(
            m.try_load_miss(&req(0x300, 0, 0, 3)),
            MshrResponse::Rejected(Rejection::PerSetFetchLimit)
        );
        assert_eq!(m.fetches_in_set(0), 2);
    }

    #[test]
    fn limited_targets_reject_like_any_mshr() {
        let geom = CacheGeometry::baseline();
        let mut m = InCacheMshr::new(TargetPolicy::implicit_sub_blocks(4), &geom);
        assert!(m.try_load_miss(&req(0x100, 0, 0, 1)).is_accepted());
        assert_eq!(
            m.try_load_miss(&req(0x100, 0, 4, 2)),
            MshrResponse::Rejected(Rejection::TargetConflict)
        );
    }

    #[test]
    fn fill_unknown_block_is_empty() {
        let geom = CacheGeometry::baseline();
        let mut m = InCacheMshr::new(TargetPolicy::default(), &geom);
        assert!(m.fill(BlockAddr(12)).is_empty());
        assert!(!m.is_in_transit(BlockAddr(12)));
    }
}
