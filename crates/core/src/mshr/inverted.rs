//! The inverted MSHR organization (paper §2.4, Fig. 3).
//!
//! Instead of one entry per outstanding *fetch*, the inverted MSHR keeps one
//! entry per possible *destination* of fetch data: every integer and
//! floating-point register, the program counter, write-buffer entries and
//! prefetch-buffer slots — typically 65–75 entries. Each entry stores the
//! block request address, formatting information and the address within the
//! block, plus a comparator; a match-entry encoder identifies waiting
//! destinations when a block returns.
//!
//! The organization therefore has **no restriction** on the number of blocks
//! being fetched or misses per block — only that each destination can wait
//! for at most one load, which the processor's scoreboard already
//! guarantees. This is the paper's "no restrict" curve.

use super::slots::FREE;
use super::{MissKind, MissRequest, MshrResponse, Rejection, TargetRecord};
use crate::types::{BlockAddr, Dest, LoadFormat, REGS_PER_CLASS};

/// Sizing of an [`InvertedMshr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvertedConfig {
    /// Write-buffer entries that can receive fetch data (for write-allocate
    /// merging). Present for hardware-cost accounting; the baseline
    /// write-around cache never uses them.
    pub write_buffer_entries: u8,
    /// Instruction-prefetch buffer slots. Cost accounting only.
    pub prefetch_entries: u8,
}

impl InvertedConfig {
    /// The paper's "typical" sizing: 64 registers + PC + a handful of write
    /// buffer and prefetch entries, landing in the 65–75 entry range.
    pub fn typical() -> InvertedConfig {
        InvertedConfig {
            write_buffer_entries: 6,
            prefetch_entries: 4,
        }
    }

    /// Total number of destination entries.
    pub fn total_entries(&self) -> usize {
        2 * REGS_PER_CLASS as usize // integer + fp register files
            + 1 // program counter
            + self.write_buffer_entries as usize
            + self.prefetch_entries as usize
    }
}

impl Default for InvertedConfig {
    fn default() -> Self {
        InvertedConfig::typical()
    }
}

/// Destination slots before the write-buffer range: the 64 registers
/// (by dense index) and the program counter.
const WB_BASE: usize = 2 * REGS_PER_CLASS as usize + 1;

/// First prefetch-buffer slot: one write-buffer slot per possible index.
const PF_BASE: usize = WB_BASE + 256;

/// One destination entry: the block it waits for ([`FREE`] when the
/// valid bit is clear) and what to deliver.
#[derive(Debug, Clone, Copy)]
struct EntryState {
    block: BlockAddr,
    dest: Dest,
    offset: u32,
    format: LoadFormat,
}

impl EntryState {
    const INVALID: EntryState = EntryState {
        block: FREE,
        dest: Dest::Pc,
        offset: 0,
        format: LoadFormat::WORD,
    };
}

/// Dynamic state of the inverted MSHR.
#[derive(Debug, Clone)]
pub struct InvertedMshr {
    /// One entry per destination, indexed by [`slot_of`] (the
    /// per-destination field rows of Fig. 3). Grown on first use of a
    /// slot, so a register-only run holds 65 entries.
    entries: Vec<EntryState>,
    /// The valid entries' slots, in allocation order: the match encoder
    /// of a fill walks only these.
    valid: Vec<u16>,
    /// The blocks being fetched (the short fetch list).
    fetches: Vec<BlockAddr>,
}

/// The entry slot of a destination: registers by dense index, then the
/// program counter, then one slot per write-buffer and prefetch index.
#[inline]
fn slot_of(dest: Dest) -> usize {
    match dest {
        Dest::Reg(r) => r.dense_index(),
        Dest::Pc => WB_BASE - 1,
        Dest::WriteBuffer(i) => WB_BASE + usize::from(i),
        Dest::Prefetch(i) => PF_BASE + usize::from(i),
    }
}

impl Default for InvertedMshr {
    /// An empty inverted MSHR. Its [`InvertedConfig`] sizes only the cost
    /// model: entries grow on first use of a destination.
    fn default() -> InvertedMshr {
        InvertedMshr {
            entries: vec![EntryState::INVALID; WB_BASE],
            valid: Vec::new(),
            fetches: Vec::new(),
        }
    }
}

impl InvertedMshr {
    /// Clears all dynamic state while keeping the arrays' capacity for
    /// reuse by the next run on the same worker.
    pub fn reset(&mut self) {
        for &slot in &self.valid {
            self.entries[usize::from(slot)].block = FREE;
        }
        self.valid.clear();
        self.fetches.clear();
    }

    /// Presents a load miss.
    ///
    /// A primary miss (no outstanding fetch for the block) launches a fetch;
    /// otherwise the entry is simply marked and no request goes off-chip
    /// (secondary). The only rejection is a destination already waiting,
    /// which a scoreboarded in-order processor never produces.
    pub fn try_load_miss(&mut self, req: &MissRequest) -> MshrResponse {
        debug_assert!(
            req.block != FREE,
            "block address collides with the free marker"
        );
        let slot = slot_of(req.dest);
        if slot >= self.entries.len() {
            self.entries.resize(slot + 1, EntryState::INVALID);
        }
        if self.entries[slot].block != FREE {
            return MshrResponse::Rejected(Rejection::DestinationBusy);
        }
        self.entries[slot] = EntryState {
            block: req.block,
            dest: req.dest,
            offset: req.offset,
            format: req.format,
        };
        // Slots stop below PF_BASE + 256, so they fit a u16.
        self.valid.push(slot as u16);
        if self.fetches.contains(&req.block) {
            MshrResponse::Accepted(MissKind::Secondary)
        } else {
            self.fetches.push(req.block);
            MshrResponse::Accepted(MissKind::Primary)
        }
    }

    /// Completes the fetch of `block`: probes all entries (the match
    /// encoder) and appends every destination waiting on this block to
    /// `out`, in the order their entries became valid.
    pub fn fill_into(&mut self, block: BlockAddr, out: &mut Vec<TargetRecord>) {
        let Some(pos) = self.fetches.iter().position(|&b| b == block) else {
            return;
        };
        self.fetches.swap_remove(pos);
        let entries = &mut self.entries;
        self.valid.retain(|&slot| {
            let entry = &mut entries[usize::from(slot)];
            if entry.block != block {
                return true;
            }
            out.push(TargetRecord {
                dest: entry.dest,
                offset: entry.offset,
                format: entry.format,
            });
            entry.block = FREE;
            false
        });
    }

    /// `true` if a fetch for `block` is outstanding.
    #[inline]
    pub fn is_in_transit(&self, block: BlockAddr) -> bool {
        self.fetches.contains(&block)
    }

    /// Number of distinct blocks being fetched.
    #[inline]
    pub fn outstanding_fetches(&self) -> usize {
        self.fetches.len()
    }

    /// Number of destinations waiting for data.
    #[inline]
    pub fn outstanding_misses(&self) -> usize {
        self.valid.len()
    }

    /// Always 0: the inverted organization imposes no per-set limit, so
    /// it keeps no per-set count.
    #[inline]
    pub fn fetches_in_set(&self, _set: u32) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PhysReg;

    /// The targets [`InvertedMshr::fill_into`] drains for `block`.
    fn drain(m: &mut InvertedMshr, block: u64) -> Vec<TargetRecord> {
        let mut out = Vec::new();
        m.fill_into(BlockAddr(block), &mut out);
        out
    }

    fn req(block: u64, reg: u8) -> MissRequest {
        MissRequest {
            block: BlockAddr(block),
            set: (block % 256) as u32,
            offset: 0,
            dest: Dest::Reg(PhysReg::int(reg)),
            format: LoadFormat::WORD,
        }
    }

    #[test]
    fn typical_sizing_is_in_paper_range() {
        let c = InvertedConfig::typical();
        assert!(
            c.total_entries() >= 65 && c.total_entries() <= 75,
            "got {}",
            c.total_entries()
        );
    }

    #[test]
    fn unlimited_fetches_and_merges() {
        let mut m = InvertedMshr::default();
        // 30 distinct blocks in flight at once — no restriction.
        for b in 0..30u64 {
            assert_eq!(
                m.try_load_miss(&req(b, b as u8)),
                MshrResponse::Accepted(MissKind::Primary)
            );
        }
        assert_eq!(m.outstanding_fetches(), 30);
        assert_eq!(m.outstanding_misses(), 30);
        // A second miss to block 0 from an fp register merges.
        let second = MissRequest {
            block: BlockAddr(0),
            set: 0,
            offset: 8,
            dest: Dest::Reg(PhysReg::fp(0)),
            format: LoadFormat::DOUBLE,
        };
        assert_eq!(
            m.try_load_miss(&second),
            MshrResponse::Accepted(MissKind::Secondary)
        );
        let t = drain(&mut m, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(m.outstanding_fetches(), 29);
        assert_eq!(m.outstanding_misses(), 29);
    }

    #[test]
    fn busy_destination_rejects() {
        let mut m = InvertedMshr::default();
        assert!(m.try_load_miss(&req(1, 4)).is_accepted());
        // Same destination register, different block.
        assert_eq!(
            m.try_load_miss(&req(2, 4)),
            MshrResponse::Rejected(Rejection::DestinationBusy)
        );
        drain(&mut m, 1);
        assert!(m.try_load_miss(&req(2, 4)).is_accepted());
    }

    #[test]
    fn fill_returns_only_matching_destinations() {
        let mut m = InvertedMshr::default();
        m.try_load_miss(&req(1, 1));
        m.try_load_miss(&req(2, 2));
        m.try_load_miss(&MissRequest {
            offset: 16,
            ..req(1, 3)
        });
        let t = drain(&mut m, 1);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|r| r.offset == 0 || r.offset == 16));
        assert!(m.is_in_transit(BlockAddr(2)));
        assert!(!m.is_in_transit(BlockAddr(1)));
    }

    #[test]
    fn fill_unknown_block_is_empty() {
        let mut m = InvertedMshr::default();
        assert!(drain(&mut m, 77).is_empty());
    }
}
