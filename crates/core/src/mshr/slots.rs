//! Flat, slot-stable storage for the in-flight fetches of the register
//! file ([`super::file`]), which also runs in-cache MSHR storage.
//!
//! Each slot holds one fetch: its block, its cache set and its target
//! fields. The blocks live in one dense array apart from the target
//! storages, so the associative search (the comparators of the paper's
//! Figs. 1 and 2) is a linear scan over a few machine words. A freed slot
//! keeps its [`TargetStorage`] — buffers and all — for the next primary
//! miss that claims it; storages never move between slots, so a warmed-up
//! bank allocates nothing on the miss or fill path. In-flight fetch counts
//! per cache set sit in an array indexed by set.

use super::targets::{TargetPolicy, TargetStorage};
use super::{MissKind, MshrResponse, TargetRecord};
use crate::geometry::CacheGeometry;
use crate::types::BlockAddr;

/// Marks an unused slot (or an invalid inverted-MSHR entry). No real
/// block reaches it: a block address is a byte address shifted right by
/// the line-offset bits.
pub(crate) const FREE: BlockAddr = BlockAddr(u64::MAX);

/// The set and target fields of one slot.
#[derive(Debug, Clone)]
struct Slot {
    set: u32,
    targets: TargetStorage,
}

/// The in-flight fetches of one MSHR bank. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct FetchSlots {
    policy: TargetPolicy,
    geometry: CacheGeometry,
    /// The block each slot is fetching, [`FREE`] for an unused slot.
    blocks: Vec<BlockAddr>,
    /// Per-slot set and target storage, parallel to `blocks`.
    slots: Vec<Slot>,
    /// In-flight fetches per cache set, indexed by set.
    per_set: Vec<u32>,
    /// Slots in use (outstanding fetches).
    live: usize,
    /// Waiting target records across all slots (outstanding misses).
    total_misses: usize,
}

impl FetchSlots {
    /// Empty storage for fetches of `geometry`'s lines, each slot's
    /// targets laid out by `policy`.
    pub(crate) fn new(policy: TargetPolicy, geometry: &CacheGeometry) -> FetchSlots {
        FetchSlots {
            policy,
            geometry: *geometry,
            blocks: Vec::new(),
            slots: Vec::new(),
            per_set: vec![0; geometry.num_sets() as usize],
            live: 0,
            total_misses: 0,
        }
    }

    /// Frees every slot, keeping each slot's target storage.
    pub(crate) fn reset(&mut self) {
        for (block, slot) in self.blocks.iter_mut().zip(&mut self.slots) {
            if *block != FREE {
                slot.targets.clear();
                self.per_set[slot.set as usize] = 0;
                *block = FREE;
            }
        }
        self.live = 0;
        self.total_misses = 0;
    }

    /// The slot fetching `block`, if any.
    #[inline]
    pub(crate) fn find(&self, block: BlockAddr) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        self.blocks.iter().position(|&b| b == block)
    }

    /// Merges `record` into the fetch in `slot` (a secondary miss), or
    /// rejects it when no target field can hold it.
    #[inline]
    pub(crate) fn merge(&mut self, slot: usize, record: TargetRecord) -> MshrResponse {
        match self.slots[slot].targets.try_add(record) {
            Ok(()) => {
                self.total_misses += 1;
                MshrResponse::Accepted(MissKind::Secondary)
            }
            Err(reason) => MshrResponse::Rejected(reason),
        }
    }

    /// Claims a free slot (or grows the array by one) for a new fetch of
    /// `block` into `set`, recording `record` as its first target — a
    /// primary miss. The caller has already checked its entry and per-set
    /// limits.
    pub(crate) fn allocate(
        &mut self,
        block: BlockAddr,
        set: u32,
        record: TargetRecord,
    ) -> MshrResponse {
        debug_assert!(block != FREE, "block address collides with the free marker");
        let idx = match self.blocks.iter().position(|&b| b == FREE) {
            Some(idx) => idx,
            None => {
                self.blocks.push(FREE);
                self.slots.push(Slot {
                    set,
                    targets: TargetStorage::new(self.policy, &self.geometry),
                });
                self.blocks.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        if let Err(reason) = slot.targets.try_add(record) {
            // The slot stays free; a refused add leaves its storage empty.
            return MshrResponse::Rejected(reason);
        }
        slot.set = set;
        self.blocks[idx] = block;
        self.per_set[set as usize] += 1;
        self.live += 1;
        self.total_misses += 1;
        MshrResponse::Accepted(MissKind::Primary)
    }

    /// Completes the fetch of `block`: appends its targets to `out` in
    /// arrival order and frees the slot. Does nothing if no fetch of
    /// `block` is outstanding.
    pub(crate) fn fill_into(&mut self, block: BlockAddr, out: &mut Vec<TargetRecord>) {
        let Some(idx) = self.find(block) else {
            return;
        };
        let slot = &mut self.slots[idx];
        let before = out.len();
        slot.targets.drain_into(out);
        self.total_misses -= out.len() - before;
        self.per_set[slot.set as usize] -= 1;
        self.blocks[idx] = FREE;
        self.live -= 1;
    }

    /// Number of outstanding fetches.
    #[inline]
    pub(crate) fn outstanding_fetches(&self) -> usize {
        self.live
    }

    /// Number of waiting target records.
    #[inline]
    pub(crate) fn outstanding_misses(&self) -> usize {
        self.total_misses
    }

    /// Outstanding fetches whose block maps to `set` (0 for a set outside
    /// the geometry).
    #[inline]
    pub(crate) fn fetches_in_set(&self, set: u32) -> usize {
        self.per_set.get(set as usize).map_or(0, |&n| n as usize)
    }
}
