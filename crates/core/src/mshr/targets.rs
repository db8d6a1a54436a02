//! Target-field layouts of a single MSHR.
//!
//! An MSHR tracks one outstanding fetch, but may record several waiting
//! loads ("targets"). How many, and for which addresses within the block,
//! depends on the field layout:
//!
//! * **Implicitly addressed** (paper Fig. 1): one positional field per
//!   sub-block of the line. A second miss to the *same* sub-block while the
//!   fetch is outstanding cannot be recorded — structural stall. In
//!   particular, two loads of the exact same address stall.
//! * **Explicitly addressed** (paper Fig. 2): `n` generic fields, each
//!   carrying its own address-in-block. Four fields can hold four misses to
//!   the *same* word, or four misses scattered anywhere in the block.
//! * **Hybrid** (paper Fig. 14): the line is divided into sub-blocks and
//!   each sub-block has `k` explicitly addressed fields.
//!
//! All three are expressed by [`TargetPolicy`], which normalizes to
//! (sub-block count × fields-per-sub-block). Implicit = (words × 1),
//! explicit = (1 × n).

use super::{Rejection, TargetRecord};
use crate::geometry::CacheGeometry;
use crate::limit::Limit;
use std::fmt;

/// How an MSHR's target fields are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetPolicy {
    /// Number of sub-blocks the line is divided into. 1 = fully explicit.
    sub_blocks: u32,
    /// Fields available per sub-block. `Unlimited` models the paper's
    /// idealized `fc=` curves ("for now we assume an infinite number of
    /// fields in the MSHR").
    fields_per_sub_block: Limit,
}

impl TargetPolicy {
    /// Implicitly addressed MSHR with one positional field per `word_bytes`
    /// of the line (paper Fig. 1). With 32-byte lines, `word_bytes = 8`
    /// gives the basic 4-field MSHR; `word_bytes = 4` the 8-field variant.
    ///
    /// The sub-block count is resolved against a concrete geometry by
    /// [`TargetStorage::new`]; here we record granularity via sub-blocks
    /// directly. Use [`TargetPolicy::implicit_sub_blocks`] when thinking in
    /// sub-block counts, as Fig. 14 does.
    pub fn implicit_sub_blocks(sub_blocks: u32) -> TargetPolicy {
        assert!(sub_blocks >= 1, "an MSHR needs at least one sub-block");
        TargetPolicy {
            sub_blocks,
            fields_per_sub_block: Limit::Finite(1),
        }
    }

    /// Explicitly addressed MSHR with `fields` generic fields (paper Fig. 2).
    pub fn explicit(fields: Limit) -> TargetPolicy {
        if let Limit::Finite(n) = fields {
            assert!(
                n >= 1,
                "an explicitly addressed MSHR needs at least one field"
            );
        }
        TargetPolicy {
            sub_blocks: 1,
            fields_per_sub_block: fields,
        }
    }

    /// Hybrid organization (paper Fig. 14): `sub_blocks` sub-blocks, each
    /// with `fields_per_sub_block` explicitly addressed fields.
    pub fn hybrid(sub_blocks: u32, fields_per_sub_block: u32) -> TargetPolicy {
        assert!(sub_blocks >= 1 && fields_per_sub_block >= 1);
        TargetPolicy {
            sub_blocks,
            fields_per_sub_block: Limit::Finite(fields_per_sub_block),
        }
    }

    /// Number of sub-blocks the line is divided into.
    #[inline]
    pub fn sub_blocks(&self) -> u32 {
        self.sub_blocks
    }

    /// Fields available per sub-block.
    #[inline]
    pub fn fields_per_sub_block(&self) -> Limit {
        self.fields_per_sub_block
    }

    /// Total fields across the MSHR, if finite.
    pub fn total_fields(&self) -> Limit {
        match self.fields_per_sub_block {
            Limit::Unlimited => Limit::Unlimited,
            Limit::Finite(k) => Limit::Finite(k * self.sub_blocks),
        }
    }

    /// `true` if this is a purely positional (implicitly addressed) layout.
    pub fn is_implicit(&self) -> bool {
        self.sub_blocks > 1 && self.fields_per_sub_block == Limit::Finite(1)
    }

    /// `true` if this is a purely explicit layout (one sub-block).
    pub fn is_explicit(&self) -> bool {
        self.sub_blocks == 1
    }
}

impl fmt::Display for TargetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_explicit() {
            write!(f, "explicit({})", self.fields_per_sub_block)
        } else if self.is_implicit() {
            write!(f, "implicit({} sub-blocks)", self.sub_blocks)
        } else {
            write!(
                f,
                "hybrid({}x{})",
                self.sub_blocks, self.fields_per_sub_block
            )
        }
    }
}

impl Default for TargetPolicy {
    /// The idealized unlimited-field layout used by the paper's `fc=` and
    /// unrestricted curves.
    fn default() -> Self {
        TargetPolicy::explicit(Limit::Unlimited)
    }
}

/// The dynamic target-field state of one in-flight MSHR entry.
#[derive(Debug, Clone)]
pub struct TargetStorage {
    policy: TargetPolicy,
    /// Bytes covered by one sub-block, derived from the line size.
    sub_block_bytes: u32,
    /// Occupancy count per sub-block (length = `policy.sub_blocks`).
    /// Empty for single-sub-block (explicit) layouts, where the record
    /// count is the occupancy — explicit MSHRs are allocated on every
    /// primary miss, so they skip this buffer entirely.
    occupancy: Vec<u32>,
    /// The recorded targets, in arrival order.
    records: Vec<TargetRecord>,
}

impl TargetStorage {
    /// Creates empty target storage for one fetch of a line of
    /// `geometry.line_bytes()` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the policy has more sub-blocks than the line has bytes.
    pub fn new(policy: TargetPolicy, geometry: &CacheGeometry) -> TargetStorage {
        let line = geometry.line_bytes();
        assert!(
            policy.sub_blocks <= line,
            "policy wants {} sub-blocks but the line is only {} bytes",
            policy.sub_blocks,
            line
        );
        TargetStorage {
            policy,
            sub_block_bytes: line / policy.sub_blocks,
            occupancy: if policy.sub_blocks == 1 {
                Vec::new()
            } else {
                vec![0; policy.sub_blocks as usize]
            },
            records: Vec::new(),
        }
    }

    /// Which sub-block a byte offset falls into.
    #[inline]
    fn sub_block_of(&self, offset: u32) -> usize {
        (offset / self.sub_block_bytes) as usize
    }

    /// Attempts to record one more waiting load at byte `offset` within the
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`Rejection::TargetConflict`] if the responsible sub-block
    /// has no free field — the paper's structural-stall miss.
    pub fn try_add(&mut self, record: TargetRecord) -> Result<(), Rejection> {
        if self.policy.sub_blocks == 1 {
            // Explicit layout: every record shares the one sub-block.
            if !self
                .policy
                .fields_per_sub_block
                .allows_one_more(self.records.len())
            {
                return Err(Rejection::TargetConflict);
            }
            self.records.push(record);
            return Ok(());
        }
        let sb = self.sub_block_of(record.offset);
        debug_assert!(sb < self.occupancy.len(), "offset beyond line size");
        if !self
            .policy
            .fields_per_sub_block
            .allows_one_more(self.occupancy[sb] as usize)
        {
            return Err(Rejection::TargetConflict);
        }
        self.occupancy[sb] += 1;
        self.records.push(record);
        Ok(())
    }

    /// Number of waiting loads recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no loads are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Discards all recorded targets, keeping the buffers' capacity (the
    /// recycling twin of [`TargetStorage::drain_into`] for resets where
    /// nobody wants the records).
    pub fn clear(&mut self) {
        for o in &mut self.occupancy {
            *o = 0;
        }
        self.records.clear();
    }

    /// Appends all recorded targets to `out` (called on fill) and resets
    /// the storage for reuse. The record buffer keeps its capacity, so the
    /// slot's next fetch records its targets without allocating (the
    /// warm-replay fill path).
    pub fn drain_into(&mut self, out: &mut Vec<TargetRecord>) {
        for o in &mut self.occupancy {
            *o = 0;
        }
        out.append(&mut self.records);
    }

    /// The policy this storage was built with.
    #[inline]
    pub fn policy(&self) -> TargetPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Dest, LoadFormat, PhysReg};

    fn rec(offset: u32, reg: u8) -> TargetRecord {
        TargetRecord {
            dest: Dest::Reg(PhysReg::int(reg)),
            offset,
            format: LoadFormat::WORD,
        }
    }

    fn geom() -> CacheGeometry {
        CacheGeometry::baseline() // 32-byte lines
    }

    #[test]
    fn policy_constructors_normalize() {
        let imp = TargetPolicy::implicit_sub_blocks(4);
        assert!(imp.is_implicit());
        assert_eq!(imp.total_fields(), Limit::Finite(4));

        let exp = TargetPolicy::explicit(Limit::Finite(4));
        assert!(exp.is_explicit());
        assert_eq!(exp.total_fields(), Limit::Finite(4));

        let hyb = TargetPolicy::hybrid(2, 2);
        assert!(!hyb.is_implicit());
        assert!(!hyb.is_explicit());
        assert_eq!(hyb.total_fields(), Limit::Finite(4));

        assert_eq!(TargetPolicy::default().total_fields(), Limit::Unlimited);
    }

    #[test]
    fn implicit_stalls_on_second_miss_to_same_word() {
        // 4 sub-blocks of 8 bytes on a 32-byte line: the paper's basic MSHR.
        let mut st = TargetStorage::new(TargetPolicy::implicit_sub_blocks(4), &geom());
        st.try_add(rec(0, 1)).unwrap();
        // Different word: fine.
        st.try_add(rec(8, 2)).unwrap();
        // Same word as the first (offset 4 is in sub-block 0): structural stall.
        assert_eq!(st.try_add(rec(4, 3)), Err(Rejection::TargetConflict));
        // Exact same address also stalls (paper §2.2's second limitation).
        assert_eq!(st.try_add(rec(0, 4)), Err(Rejection::TargetConflict));
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn implicit_fills_every_word_slot() {
        let mut st = TargetStorage::new(TargetPolicy::implicit_sub_blocks(4), &geom());
        for (i, off) in [0u32, 8, 16, 24].iter().enumerate() {
            st.try_add(rec(*off, i as u8)).unwrap();
        }
        assert_eq!(st.len(), 4);
        assert_eq!(st.try_add(rec(16, 9)), Err(Rejection::TargetConflict));
    }

    #[test]
    fn explicit_allows_repeated_addresses_up_to_field_count() {
        // The paper: an explicitly addressed MSHR with 4 fields "could handle
        // four misses to the exact same address without stalling".
        let mut st = TargetStorage::new(TargetPolicy::explicit(Limit::Finite(4)), &geom());
        for i in 0..4 {
            st.try_add(rec(12, i)).unwrap();
        }
        assert_eq!(st.try_add(rec(12, 5)), Err(Rejection::TargetConflict));
        assert_eq!(st.try_add(rec(0, 5)), Err(Rejection::TargetConflict));
    }

    #[test]
    fn unlimited_explicit_never_conflicts() {
        let mut st = TargetStorage::new(TargetPolicy::default(), &geom());
        for i in 0..100u32 {
            st.try_add(rec(i % 32, (i % 32) as u8)).unwrap();
        }
        assert_eq!(st.len(), 100);
    }

    #[test]
    fn hybrid_two_by_two() {
        // 2 sub-blocks of 16 bytes, 2 fields each (Fig. 14's hybrid point).
        let mut st = TargetStorage::new(TargetPolicy::hybrid(2, 2), &geom());
        st.try_add(rec(0, 0)).unwrap(); // sub-block 0
        st.try_add(rec(4, 1)).unwrap(); // sub-block 0 (second field)
        assert_eq!(st.try_add(rec(8, 2)), Err(Rejection::TargetConflict)); // sub-block 0 full
        st.try_add(rec(16, 3)).unwrap(); // sub-block 1
        st.try_add(rec(31, 4)).unwrap(); // sub-block 1
        assert_eq!(st.try_add(rec(20, 5)), Err(Rejection::TargetConflict));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn drain_returns_targets_in_arrival_order_and_resets() {
        let mut st = TargetStorage::new(TargetPolicy::explicit(Limit::Finite(2)), &geom());
        st.try_add(rec(0, 1)).unwrap();
        st.try_add(rec(8, 2)).unwrap();
        let mut drained = Vec::new();
        st.drain_into(&mut drained);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].dest, Dest::Reg(PhysReg::int(1)));
        assert_eq!(drained[1].dest, Dest::Reg(PhysReg::int(2)));
        assert!(st.is_empty());
        // Fields are free again.
        st.try_add(rec(0, 3)).unwrap();
        st.try_add(rec(0, 4)).unwrap();
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TargetPolicy::implicit_sub_blocks(8).to_string(),
            "implicit(8 sub-blocks)"
        );
        assert_eq!(
            TargetPolicy::explicit(Limit::Finite(4)).to_string(),
            "explicit(4)"
        );
        assert_eq!(TargetPolicy::hybrid(2, 2).to_string(), "hybrid(2x2)");
        assert_eq!(TargetPolicy::default().to_string(), "explicit(inf)");
    }

    #[test]
    #[should_panic(expected = "sub-blocks")]
    fn storage_rejects_policy_finer_than_bytes() {
        let _ = TargetStorage::new(TargetPolicy::implicit_sub_blocks(64), &geom());
    }
}
