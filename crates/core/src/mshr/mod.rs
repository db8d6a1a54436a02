//! Miss Status Holding Register (MSHR) organizations.
//!
//! This module implements the full hardware design space of the paper's §2:
//!
//! * [`targets`](crate::mshr::targets) — the target-field layouts of a single MSHR: implicitly
//!   addressed (Fig. 1), explicitly addressed (Fig. 2), and the hybrid
//!   organization of Fig. 14.
//! * `file` — a Kroft-style file of discrete register MSHRs with
//!   configurable entry count, total-miss cap and per-set fetch cap
//!   (the paper's `mc=`, `fc=` and `fs=` configurations). In-cache MSHR
//!   storage (§2.3: a transit bit per cache line, MSHR state stored in
//!   the line being fetched) runs as this file's `fs=ways` shape: the
//!   only limit on its fetches is the lines of a set.
//! * [`inverted`](crate::mshr::inverted) — the inverted MSHR (§2.4): one entry per possible
//!   destination of fetch data.
//! * [`cost`](crate::mshr::cost) — the storage cost model reproducing the paper's bit counts
//!   (92-bit basic MSHR, 140-bit implicit/4-byte, 112-bit explicit/4-field,
//!   106-bit hybrid 2×2).
//!
//! All organizations speak one protocol: the cache presents a load miss as a
//! [`MissRequest`](crate::mshr::MissRequest); the organization answers
//! with a [`MshrResponse`](crate::mshr::MshrResponse) that
//! classifies the miss as **primary** (a new fetch must be launched),
//! **secondary** (merged into an outstanding fetch), or rejected — in which
//! case the processor takes a **structural-stall** (the paper's
//! structural-stall miss). When fetch data returns,
//! [`MshrBank::fill_into`] surfaces every waiting [`TargetRecord`] so the
//! register file can be written — all at once, per the paper's
//! multi-write-port assumption.

/// Hardware-cost model (comparators, storage bits) per MSHR organization.
pub mod cost;
/// The classic explicit MSHR file (Kroft): N entries, fully associative.
pub mod file;
/// The inverted MSHR organization: one entry per destination register.
pub mod inverted;
/// Flat slot-stable fetch storage behind the register file.
mod slots;
/// Per-miss target records and the bounded target-list storage.
pub mod targets;

use crate::geometry::CacheGeometry;
use crate::limit::Limit;
use crate::types::{BlockAddr, Dest, LoadFormat};
use std::fmt;

pub use file::{RegisterFileConfig, RegisterMshrFile};
pub use inverted::{InvertedConfig, InvertedMshr};
pub use targets::{TargetPolicy, TargetStorage};

/// A load miss presented to an MSHR organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRequest {
    /// The block being missed on.
    pub block: BlockAddr,
    /// The cache set the block maps to (needed for per-set fetch limits and
    /// in-cache MSHR storage).
    pub set: u32,
    /// Byte offset of the access within the block.
    pub offset: u32,
    /// Where the fetched data must be delivered.
    pub dest: Dest,
    /// Formatting information to complete the load (paper Fig. 1).
    pub format: LoadFormat,
}

/// How an accepted miss was classified (paper §2 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First miss to the block: a fetch to the next memory level is launched.
    Primary,
    /// Merged into an already outstanding fetch for the same block.
    Secondary,
}

impl fmt::Display for MissKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissKind::Primary => write!(f, "primary"),
            MissKind::Secondary => write!(f, "secondary"),
        }
    }
}

/// Why an MSHR organization refused a miss, forcing a structural stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rejection {
    /// Every MSHR entry is in use and the miss is to a new block.
    NoFreeMshr,
    /// The configured cap on total outstanding misses (the paper's `mc=N`)
    /// is already reached.
    MissLimit,
    /// The configured cap on in-flight fetches to this cache set (the
    /// paper's `fs=N`, or the in-cache organization's one-per-line rule)
    /// is already reached.
    PerSetFetchLimit,
    /// The block is being fetched but no target field can hold this miss
    /// (e.g. a second miss to the same word of an implicitly addressed
    /// MSHR — the paper's canonical structural-stall miss).
    TargetConflict,
    /// The miss destination already has fetch data outstanding (inverted
    /// MSHR; cannot occur under the scoreboarded processor model).
    DestinationBusy,
    /// The organization supports no outstanding misses at all (blocking
    /// cache, `mc=0`).
    Blocking,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rejection::NoFreeMshr => "no free MSHR",
            Rejection::MissLimit => "outstanding-miss limit reached",
            Rejection::PerSetFetchLimit => "per-set fetch limit reached",
            Rejection::TargetConflict => "no target field available",
            Rejection::DestinationBusy => "destination already waiting",
            Rejection::Blocking => "blocking cache",
        };
        write!(f, "{s}")
    }
}

/// The MSHR organization's answer to a [`MissRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrResponse {
    /// The miss is tracked; if [`MissKind::Primary`], the caller must launch
    /// a fetch for the block.
    Accepted(MissKind),
    /// Structural stall: the processor must wait until resources free up
    /// (i.e. until an outstanding fetch completes) and retry.
    Rejected(Rejection),
}

impl MshrResponse {
    /// `true` if the miss was accepted.
    #[inline]
    pub fn is_accepted(self) -> bool {
        matches!(self, MshrResponse::Accepted(_))
    }
}

/// One waiting load recorded in an MSHR, drained by `fill_into`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetRecord {
    /// Destination of the fetched data.
    pub dest: Dest,
    /// Byte offset within the block (the explicit "address in block" field,
    /// or the implicit position of the word field).
    pub offset: u32,
    /// Load completion information.
    pub format: LoadFormat,
}

/// Static configuration choosing an MSHR organization.
///
/// Construct the paper's named configurations with the `nbl-sim` crate's
/// presets, or directly:
///
/// ```
/// use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
/// use nbl_core::limit::Limit;
///
/// // "fc=2": two MSHRs, unlimited explicitly addressed target fields.
/// let cfg = MshrConfig::Register(RegisterFileConfig {
///     entries: Limit::Finite(2),
///     targets: TargetPolicy::explicit(Limit::Unlimited),
///     max_outstanding_misses: Limit::Unlimited,
///     max_fetches_per_set: Limit::Unlimited,
/// });
/// assert!(!cfg.is_blocking());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MshrConfig {
    /// No MSHRs: every load miss blocks the processor (`mc=0`).
    Blocking,
    /// A file of discrete register MSHRs (Kroft-style; `mc=`, `fc=`, `fs=`).
    Register(RegisterFileConfig),
    /// In-cache MSHR storage: transit bit per line, state stored in the
    /// line being fetched (§2.3). One in-flight fetch per cache line, so
    /// at most `ways` per set; the bank is a register file with that
    /// per-set cap and no other limit.
    InCache {
        /// Target-field layout stored in the transit line.
        targets: TargetPolicy,
        /// Extra cycles to read the MSHR state out of the line when fetch
        /// data arrives — §2.3: "if the read port width of the cache is
        /// much smaller than the line size ... it may take several cycles
        /// to read the entire cache line when fetch data arrives." 0
        /// models a full-line read port.
        read_extra_cycles: u32,
    },
    /// Inverted MSHR: one entry per destination of fetch data (§2.4).
    Inverted(InvertedConfig),
}

impl MshrConfig {
    /// `true` for the blocking (lockup) configuration.
    #[inline]
    pub fn is_blocking(&self) -> bool {
        matches!(self, MshrConfig::Blocking)
    }

    /// `true` if a primary miss must evict the victim line at miss time
    /// (in-cache MSHR storage reuses the line as MSHR state) rather than at
    /// fill time (discrete MSHRs).
    #[inline]
    pub fn evicts_on_miss(&self) -> bool {
        matches!(self, MshrConfig::InCache { .. })
    }

    /// Extra cycles added to every fill while MSHR state is read back out
    /// of the transit line (§2.3). Zero for all discrete organizations.
    #[inline]
    pub fn fill_extra_cycles(&self) -> u32 {
        match self {
            MshrConfig::InCache {
                read_extra_cycles, ..
            } => *read_extra_cycles,
            _ => 0,
        }
    }
}

/// A runtime MSHR bank: the dynamic state of whichever organization was
/// configured, behind one dispatching interface.
#[derive(Debug, Clone)]
pub enum MshrBank {
    /// No miss may be outstanding.
    Blocking,
    /// Discrete register MSHRs, or in-cache storage as the file shape
    /// with `ways` fetches per set.
    Register(RegisterMshrFile),
    /// Per-destination inverted organization.
    Inverted(InvertedMshr),
}

impl MshrBank {
    /// Instantiates the organization described by `config` for a cache of
    /// the given geometry.
    pub fn new(config: &MshrConfig, geometry: &CacheGeometry) -> MshrBank {
        match config {
            MshrConfig::Blocking => MshrBank::Blocking,
            MshrConfig::Register(cfg) => {
                MshrBank::Register(RegisterMshrFile::new(cfg.clone(), geometry))
            }
            MshrConfig::InCache { targets, .. } => MshrBank::Register(RegisterMshrFile::new(
                RegisterFileConfig {
                    entries: Limit::Unlimited,
                    targets: *targets,
                    max_outstanding_misses: Limit::Unlimited,
                    max_fetches_per_set: Limit::Finite(geometry.ways()),
                },
                geometry,
            )),
            MshrConfig::Inverted(_) => MshrBank::Inverted(InvertedMshr::default()),
        }
    }

    /// Presents a load miss; classifies it or rejects it.
    pub fn try_load_miss(&mut self, req: &MissRequest) -> MshrResponse {
        match self {
            MshrBank::Blocking => MshrResponse::Rejected(Rejection::Blocking),
            MshrBank::Register(f) => f.try_load_miss(req),
            MshrBank::Inverted(m) => m.try_load_miss(req),
        }
    }

    /// Completes the fetch of `block`: releases the tracking resources and
    /// appends every waiting target to `out`, so the caller can deliver
    /// data to all of them simultaneously. Appends nothing if no fetch for
    /// `block` was outstanding (e.g. a blocking-cache fill).
    pub fn fill_into(&mut self, block: BlockAddr, out: &mut Vec<TargetRecord>) {
        match self {
            MshrBank::Blocking => {}
            MshrBank::Register(f) => f.fill_into(block, out),
            MshrBank::Inverted(m) => m.fill_into(block, out),
        }
    }

    /// Clears all dynamic state while keeping internal allocations for reuse
    /// by the next run on the same worker.
    pub fn reset(&mut self) {
        match self {
            MshrBank::Blocking => {}
            MshrBank::Register(f) => f.reset(),
            MshrBank::Inverted(m) => m.reset(),
        }
    }

    /// `true` if a fetch for `block` is outstanding.
    pub fn is_in_transit(&self, block: BlockAddr) -> bool {
        match self {
            MshrBank::Blocking => false,
            MshrBank::Register(f) => f.is_in_transit(block),
            MshrBank::Inverted(m) => m.is_in_transit(block),
        }
    }

    /// Number of outstanding fetches (blocks in flight).
    pub fn outstanding_fetches(&self) -> usize {
        match self {
            MshrBank::Blocking => 0,
            MshrBank::Register(f) => f.outstanding_fetches(),
            MshrBank::Inverted(m) => m.outstanding_fetches(),
        }
    }

    /// Number of outstanding misses (waiting target records, i.e. primary
    /// plus merged secondary misses).
    pub fn outstanding_misses(&self) -> usize {
        match self {
            MshrBank::Blocking => 0,
            MshrBank::Register(f) => f.outstanding_misses(),
            MshrBank::Inverted(m) => m.outstanding_misses(),
        }
    }

    /// Number of in-flight fetches whose block maps to `set`.
    pub fn fetches_in_set(&self, set: u32) -> usize {
        match self {
            MshrBank::Blocking => 0,
            MshrBank::Register(f) => f.fetches_in_set(set),
            MshrBank::Inverted(m) => m.fetches_in_set(set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limit::Limit;
    use crate::types::PhysReg;

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
    fn blocking_bank_rejects_everything() {
        let geom = CacheGeometry::baseline();
        let mut bank = MshrBank::new(&MshrConfig::Blocking, &geom);
        assert_eq!(
            bank.try_load_miss(&req(1, 1, 0, 0)),
            MshrResponse::Rejected(Rejection::Blocking)
        );
        assert_eq!(bank.outstanding_fetches(), 0);
        assert_eq!(bank.outstanding_misses(), 0);
        assert!(!bank.is_in_transit(BlockAddr(1)));
        let mut woken = Vec::new();
        bank.fill_into(BlockAddr(1), &mut woken);
        assert!(woken.is_empty());
    }

    #[test]
    fn config_predicates() {
        assert!(MshrConfig::Blocking.is_blocking());
        assert!(!MshrConfig::Blocking.evicts_on_miss());
        let incache = MshrConfig::InCache {
            targets: TargetPolicy::explicit(Limit::Unlimited),
            read_extra_cycles: 2,
        };
        assert!(incache.evicts_on_miss());
        assert!(!incache.is_blocking());
        assert_eq!(incache.fill_extra_cycles(), 2);
        assert_eq!(MshrConfig::Blocking.fill_extra_cycles(), 0);
    }

    /// An in-cache bank (explicit, unlimited target fields) for `geom`.
    fn in_cache(geom: &CacheGeometry, targets: TargetPolicy) -> MshrBank {
        let config = MshrConfig::InCache {
            targets,
            read_extra_cycles: 0,
        };
        MshrBank::new(&config, geom)
    }

    /// In-cache storage holds at most `ways` fetches per set: a set's
    /// lines are its MSHRs. Secondaries to a line in transit merge, a
    /// fill drains its targets in arrival order and frees the line, and
    /// a reset frees every line.
    #[test]
    fn in_cache_allows_ways_fetches_per_set() {
        for ways in [1u32, 2] {
            let geom = CacheGeometry::new(8 * 1024, 32, ways).unwrap();
            let mut bank = in_cache(&geom, TargetPolicy::explicit(Limit::Unlimited));
            for b in 0..u64::from(ways) {
                assert_eq!(
                    bank.try_load_miss(&req(0x100 * (b + 1), 0, 0, b as u8)),
                    MshrResponse::Accepted(MissKind::Primary),
                    "{ways} ways"
                );
            }
            // One more block in the same set: every line is in transit.
            let blocked = req(0x1000, 0, 0, 9);
            assert_eq!(
                bank.try_load_miss(&blocked),
                MshrResponse::Rejected(Rejection::PerSetFetchLimit),
                "{ways} ways"
            );
            assert_eq!(bank.fetches_in_set(0), ways as usize);
            // Secondary misses to an in-transit block merge freely.
            assert_eq!(
                bank.try_load_miss(&req(0x100, 0, 8, 10)),
                MshrResponse::Accepted(MissKind::Secondary)
            );
            assert_eq!(
                bank.try_load_miss(&req(0x100, 0, 16, 11)),
                MshrResponse::Accepted(MissKind::Secondary)
            );
            // A different set is independent.
            assert!(bank.try_load_miss(&req(0x101, 1, 0, 12)).is_accepted());
            assert_eq!(bank.outstanding_fetches(), ways as usize + 1);
            assert_eq!(bank.outstanding_misses(), ways as usize + 3);
            // The fill wakes the primary and both secondaries, in order.
            let mut woken = Vec::new();
            bank.fill_into(BlockAddr(0x100), &mut woken);
            let order: Vec<(u32, Dest)> = woken.iter().map(|t| (t.offset, t.dest)).collect();
            let reg = |i| Dest::Reg(PhysReg::int(i));
            assert_eq!(order, [(0, reg(0)), (8, reg(10)), (16, reg(11))]);
            assert!(!bank.is_in_transit(BlockAddr(0x100)));
            assert_eq!(bank.fetches_in_set(0), ways as usize - 1);
            assert!(
                bank.try_load_miss(&blocked).is_accepted(),
                "the line is free"
            );
            // A reset frees every line.
            bank.reset();
            assert_eq!(bank.outstanding_fetches(), 0);
            assert_eq!(bank.outstanding_misses(), 0);
            assert_eq!(bank.fetches_in_set(0), 0);
            for b in 0..u64::from(ways) {
                assert!(bank
                    .try_load_miss(&req(0x2000 * (b + 1), 0, 0, 1))
                    .is_accepted());
            }
            let mut woken = Vec::new();
            bank.fill_into(BlockAddr(0x100), &mut woken);
            assert!(woken.is_empty(), "a reset drops the old fetches");
        }
    }

    #[test]
    fn in_cache_limited_targets_reject_like_any_mshr() {
        let geom = CacheGeometry::baseline();
        let mut bank = in_cache(&geom, TargetPolicy::implicit_sub_blocks(4));
        assert!(bank.try_load_miss(&req(0x100, 0, 0, 1)).is_accepted());
        assert_eq!(
            bank.try_load_miss(&req(0x100, 0, 4, 2)),
            MshrResponse::Rejected(Rejection::TargetConflict)
        );
        let mut woken = Vec::new();
        bank.fill_into(BlockAddr(12), &mut woken);
        assert!(woken.is_empty());
        assert!(!bank.is_in_transit(BlockAddr(12)));
    }

    #[test]
    fn response_and_kind_display() {
        assert!(MshrResponse::Accepted(MissKind::Primary).is_accepted());
        assert!(!MshrResponse::Rejected(Rejection::NoFreeMshr).is_accepted());
        assert_eq!(MissKind::Primary.to_string(), "primary");
        assert_eq!(MissKind::Secondary.to_string(), "secondary");
        for r in [
            Rejection::NoFreeMshr,
            Rejection::MissLimit,
            Rejection::PerSetFetchLimit,
            Rejection::TargetConflict,
            Rejection::DestinationBusy,
            Rejection::Blocking,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
