//! A file of discrete register MSHRs (Kroft-style, paper Fig. 1/2).
//!
//! This organization expresses the paper's whole restricted design space:
//!
//! * `mc=N` — at most `N` outstanding misses to the cache in total:
//!   `entries = N`, one explicit target field per MSHR,
//!   `max_outstanding_misses = N`.
//! * `fc=N` — at most `N` outstanding fetches, unlimited secondary misses:
//!   `entries = N`, unlimited target fields.
//! * `fs=N` — unlimited MSHRs but at most `N` in-flight fetches per cache
//!   set: `entries = Unlimited`, `max_fetches_per_set = N`.
//! * Fig. 14's implicit/explicit/hybrid sweep — vary `targets`.
//! * In-cache MSHR storage (§2.3) — `entries = Unlimited`,
//!   `max_fetches_per_set = ways`: a set's lines are its MSHRs.

use super::slots::FetchSlots;
use super::targets::TargetPolicy;
use super::{MissRequest, MshrResponse, Rejection, TargetRecord};
use crate::geometry::CacheGeometry;
use crate::limit::Limit;
use crate::types::BlockAddr;

/// Configuration of a [`RegisterMshrFile`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegisterFileConfig {
    /// Number of MSHR entries — the maximum number of outstanding fetches.
    pub entries: Limit,
    /// Target-field layout of each entry.
    pub targets: TargetPolicy,
    /// Cap on total outstanding misses (primary + secondary), the paper's
    /// `mc=N` restriction.
    pub max_outstanding_misses: Limit,
    /// Cap on in-flight fetches per cache set, the paper's `fs=N`
    /// restriction.
    pub max_fetches_per_set: Limit,
}

impl Default for RegisterFileConfig {
    /// An effectively unrestricted file (useful as a starting point).
    fn default() -> Self {
        RegisterFileConfig {
            entries: Limit::Unlimited,
            targets: TargetPolicy::default(),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        }
    }
}

/// The dynamic state of a file of discrete register MSHRs.
#[derive(Debug, Clone)]
pub struct RegisterMshrFile {
    config: RegisterFileConfig,
    /// The in-flight entries: one flat slot per MSHR, searched by block
    /// (the associative search of the comparators in Figs. 1 and 2), with
    /// per-set fetch counts indexed by set.
    slots: FetchSlots,
}

impl RegisterMshrFile {
    /// Creates an empty file.
    pub fn new(config: RegisterFileConfig, geometry: &CacheGeometry) -> RegisterMshrFile {
        RegisterMshrFile {
            slots: FetchSlots::new(config.targets, geometry),
            config,
        }
    }

    /// Empties the file back to its as-built state, keeping every slot's
    /// target storage for reuse.
    pub fn reset(&mut self) {
        self.slots.reset();
    }

    /// Presents a load miss.
    pub fn try_load_miss(&mut self, req: &MissRequest) -> MshrResponse {
        // Every accepted miss consumes one miss "slot" regardless of kind.
        if !self
            .config
            .max_outstanding_misses
            .allows_one_more(self.slots.outstanding_misses())
        {
            return MshrResponse::Rejected(Rejection::MissLimit);
        }
        let record = TargetRecord {
            dest: req.dest,
            offset: req.offset,
            format: req.format,
        };
        if let Some(slot) = self.slots.find(req.block) {
            // Outstanding fetch for this block: try to merge (secondary miss).
            return self.slots.merge(slot, record);
        }
        // New block: need a free MSHR and per-set headroom.
        if !self
            .config
            .entries
            .allows_one_more(self.slots.outstanding_fetches())
        {
            return MshrResponse::Rejected(Rejection::NoFreeMshr);
        }
        if !self
            .config
            .max_fetches_per_set
            .allows_one_more(self.slots.fetches_in_set(req.set))
        {
            return MshrResponse::Rejected(Rejection::PerSetFetchLimit);
        }
        self.slots.allocate(req.block, req.set, record)
    }

    /// Completes the fetch of `block`, appending all waiting targets to
    /// `out` in arrival order. The freed entry keeps its target storage
    /// for the next primary miss.
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

    /// Number of waiting target records (outstanding misses).
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
    use crate::mshr::MissKind;
    use crate::types::{Dest, LoadFormat, PhysReg};

    fn geom() -> CacheGeometry {
        CacheGeometry::baseline()
    }

    /// The targets [`RegisterMshrFile::fill_into`] drains for `block`.
    fn drain(f: &mut RegisterMshrFile, block: u64) -> Vec<TargetRecord> {
        let mut out = Vec::new();
        f.fill_into(BlockAddr(block), &mut out);
        out
    }

    fn req(block: u64, set: u32, offset: u32, reg: u8) -> MissRequest {
        MissRequest {
            block: BlockAddr(block),
            set,
            offset,
            dest: Dest::Reg(PhysReg::int(reg)),
            format: LoadFormat::WORD,
        }
    }

    fn mc(n: u32) -> RegisterFileConfig {
        RegisterFileConfig {
            entries: Limit::Finite(n),
            targets: TargetPolicy::explicit(Limit::Finite(1)),
            max_outstanding_misses: Limit::Finite(n),
            max_fetches_per_set: Limit::Unlimited,
        }
    }

    fn fc(n: u32) -> RegisterFileConfig {
        RegisterFileConfig {
            entries: Limit::Finite(n),
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        }
    }

    fn fs(n: u32) -> RegisterFileConfig {
        RegisterFileConfig {
            entries: Limit::Unlimited,
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Finite(n),
        }
    }

    #[test]
    fn hit_under_miss_allows_exactly_one_miss() {
        let mut f = RegisterMshrFile::new(mc(1), &geom());
        assert_eq!(
            f.try_load_miss(&req(10, 10, 0, 1)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        // A second miss to any block stalls.
        assert_eq!(
            f.try_load_miss(&req(11, 11, 0, 2)),
            MshrResponse::Rejected(Rejection::MissLimit)
        );
        // Even a secondary to the same block stalls under mc=1.
        assert_eq!(
            f.try_load_miss(&req(10, 10, 8, 3)),
            MshrResponse::Rejected(Rejection::MissLimit)
        );
        // After the fill both are possible again.
        let targets = drain(&mut f, 10);
        assert_eq!(targets.len(), 1);
        assert_eq!(f.outstanding_misses(), 0);
        assert!(f.try_load_miss(&req(11, 11, 0, 2)).is_accepted());
    }

    #[test]
    fn mc2_allows_two_misses_any_mix() {
        let mut f = RegisterMshrFile::new(mc(2), &geom());
        // Two primaries.
        assert_eq!(
            f.try_load_miss(&req(1, 1, 0, 1)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        assert_eq!(
            f.try_load_miss(&req(2, 2, 0, 2)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        assert_eq!(
            f.try_load_miss(&req(3, 3, 0, 3)),
            MshrResponse::Rejected(Rejection::MissLimit)
        );
        drain(&mut f, 1);
        drain(&mut f, 2);
        // Or one primary + one secondary to a *different word* (the single
        // explicit field is taken by the primary, so same-entry merges need a
        // second MSHR... but mc=2 entries each have 1 field, so the secondary
        // to the same block conflicts on fields).
        assert_eq!(
            f.try_load_miss(&req(5, 5, 0, 1)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        assert_eq!(
            f.try_load_miss(&req(5, 5, 8, 2)),
            MshrResponse::Rejected(Rejection::TargetConflict)
        );
    }

    #[test]
    fn fc1_merges_unlimited_secondaries_single_fetch() {
        let mut f = RegisterMshrFile::new(fc(1), &geom());
        assert_eq!(
            f.try_load_miss(&req(7, 7, 0, 1)),
            MshrResponse::Accepted(MissKind::Primary)
        );
        for i in 0..10u8 {
            assert_eq!(
                f.try_load_miss(&req(7, 7, u32::from(i) % 32, i)),
                MshrResponse::Accepted(MissKind::Secondary)
            );
        }
        assert_eq!(f.outstanding_fetches(), 1);
        assert_eq!(f.outstanding_misses(), 11);
        // A second block has no MSHR.
        assert_eq!(
            f.try_load_miss(&req(8, 8, 0, 2)),
            MshrResponse::Rejected(Rejection::NoFreeMshr)
        );
        let targets = drain(&mut f, 7);
        assert_eq!(targets.len(), 11);
        assert_eq!(f.outstanding_misses(), 0);
    }

    #[test]
    fn fc2_supports_two_fetches() {
        let mut f = RegisterMshrFile::new(fc(2), &geom());
        assert!(f.try_load_miss(&req(1, 1, 0, 1)).is_accepted());
        assert!(f.try_load_miss(&req(2, 2, 0, 2)).is_accepted());
        assert_eq!(
            f.try_load_miss(&req(3, 3, 0, 3)),
            MshrResponse::Rejected(Rejection::NoFreeMshr)
        );
        // Secondaries to both in-flight blocks still merge.
        assert_eq!(
            f.try_load_miss(&req(1, 1, 8, 4)),
            MshrResponse::Accepted(MissKind::Secondary)
        );
        assert_eq!(
            f.try_load_miss(&req(2, 2, 8, 5)),
            MshrResponse::Accepted(MissKind::Secondary)
        );
    }

    #[test]
    fn per_set_fetch_limits() {
        let mut f = RegisterMshrFile::new(fs(1), &geom());
        // Blocks 0x100 and 0x200 map to the same set in an 8KB/32B cache
        // (256 sets): block addresses 0x100 and 0x200 share set 0.
        assert!(f.try_load_miss(&req(0x100, 0, 0, 1)).is_accepted());
        assert_eq!(
            f.try_load_miss(&req(0x200, 0, 0, 2)),
            MshrResponse::Rejected(Rejection::PerSetFetchLimit)
        );
        // A different set is fine.
        assert!(f.try_load_miss(&req(0x101, 1, 0, 3)).is_accepted());
        assert_eq!(f.fetches_in_set(0), 1);
        assert_eq!(f.fetches_in_set(1), 1);
        // After the fill the set frees up.
        drain(&mut f, 0x100);
        assert_eq!(f.fetches_in_set(0), 0);
        assert!(f.try_load_miss(&req(0x200, 0, 0, 2)).is_accepted());
    }

    #[test]
    fn fs2_allows_two_conflicting_fetches() {
        let mut f = RegisterMshrFile::new(fs(2), &geom());
        assert!(f.try_load_miss(&req(0x100, 0, 0, 1)).is_accepted());
        assert!(f.try_load_miss(&req(0x200, 0, 0, 2)).is_accepted());
        assert_eq!(
            f.try_load_miss(&req(0x300, 0, 0, 3)),
            MshrResponse::Rejected(Rejection::PerSetFetchLimit)
        );
    }

    #[test]
    fn fill_of_unknown_block_is_empty() {
        let mut f = RegisterMshrFile::new(fc(1), &geom());
        assert!(drain(&mut f, 99).is_empty());
    }

    #[test]
    fn unrestricted_file_tracks_counts() {
        let mut f = RegisterMshrFile::new(RegisterFileConfig::default(), &geom());
        for b in 0..20u64 {
            assert!(f
                .try_load_miss(&req(b, (b % 256) as u32, 0, (b % 32) as u8))
                .is_accepted());
        }
        assert_eq!(f.outstanding_fetches(), 20);
        assert_eq!(f.outstanding_misses(), 20);
        assert!(f.is_in_transit(BlockAddr(5)));
        for b in 0..20u64 {
            drain(&mut f, b);
        }
        assert_eq!(f.outstanding_fetches(), 0);
        assert_eq!(f.outstanding_misses(), 0);
        assert!(!f.is_in_transit(BlockAddr(5)));
    }

    #[test]
    fn implicit_targets_stall_on_word_reuse_within_file() {
        let cfg = RegisterFileConfig {
            entries: Limit::Finite(2),
            targets: TargetPolicy::implicit_sub_blocks(4),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        };
        let mut f = RegisterMshrFile::new(cfg, &geom());
        assert!(f.try_load_miss(&req(1, 1, 0, 1)).is_accepted());
        assert_eq!(
            f.try_load_miss(&req(1, 1, 4, 2)),
            MshrResponse::Rejected(Rejection::TargetConflict)
        );
        assert_eq!(
            f.try_load_miss(&req(1, 1, 8, 2)),
            MshrResponse::Accepted(MissKind::Secondary)
        );
    }
}
