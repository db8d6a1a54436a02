//! The register scoreboard: which architectural registers are waiting for
//! outstanding load data.
//!
//! With non-blocking loads, a load miss does not stall the processor; the
//! *use* of the load's destination register does ("a data-miss induced
//! stall will only occur if the register target of the load is used by an
//! instruction before the register is filled", paper §1). The scoreboard
//! tracks exactly that pending state.

use nbl_core::types::PhysReg;

/// Pending-register tracking for the 64 architectural registers, packed
/// into one `u64` bitmask word (bit `i` = register with dense index `i`):
/// `any_pending` is a zero test, `pending_count` a popcount, and the whole
/// state clones/resets as one machine word.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    pending: u64,
}

impl Scoreboard {
    /// A scoreboard with every register valid.
    pub fn new() -> Scoreboard {
        Scoreboard { pending: 0 }
    }

    #[inline]
    fn bit(reg: PhysReg) -> u64 {
        1u64 << reg.dense_index()
    }

    /// `true` if `reg` is waiting for load data.
    #[inline]
    pub fn is_pending(&self, reg: PhysReg) -> bool {
        self.pending & Self::bit(reg) != 0
    }

    /// Marks `reg` as waiting for load data.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the register is already pending — the
    /// in-order pipeline must stall WAW hazards before reissuing a load to
    /// a pending register.
    #[inline]
    pub fn set_pending(&mut self, reg: PhysReg) {
        debug_assert!(
            self.pending & Self::bit(reg) == 0,
            "register {reg} already pending (unstalled WAW hazard)"
        );
        self.pending |= Self::bit(reg);
    }

    /// Marks every register in `mask` valid at once (bit `i` = dense
    /// index `i`): how a fill wakes all of its waiting registers.
    /// Idempotent: clearing a register that is not pending is a no-op.
    #[inline]
    pub fn clear_mask(&mut self, mask: u64) {
        self.pending &= !mask;
    }

    /// Number of registers currently pending (one popcount of the word).
    #[inline]
    pub fn pending_count(&self) -> usize {
        self.pending.count_ones() as usize
    }

    /// `true` if any register is pending (a zero test, O(1)).
    #[inline]
    pub fn any_pending(&self) -> bool {
        self.pending != 0
    }
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_roundtrip() {
        let mut sb = Scoreboard::new();
        let r = PhysReg::int(5);
        let f = PhysReg::fp(5);
        assert!(!sb.is_pending(r));
        sb.set_pending(r);
        assert!(sb.is_pending(r));
        assert!(!sb.is_pending(f), "int and fp files are distinct");
        sb.set_pending(f);
        assert_eq!(sb.pending_count(), 2);
        sb.clear_mask(Scoreboard::bit(r));
        assert!(!sb.is_pending(r));
        assert!(sb.is_pending(f));
        sb.clear_mask(Scoreboard::bit(f));
        assert!(!sb.any_pending());
    }

    #[test]
    fn clear_mask_wakes_exactly_the_masked_registers() {
        let mut sb = Scoreboard::new();
        for r in [PhysReg::int(2), PhysReg::int(9), PhysReg::fp(9)] {
            sb.set_pending(r);
        }
        sb.clear_mask(1 << PhysReg::int(2).dense_index() | 1 << PhysReg::fp(9).dense_index());
        assert!(!sb.is_pending(PhysReg::int(2)));
        assert!(sb.is_pending(PhysReg::int(9)));
        assert!(!sb.is_pending(PhysReg::fp(9)));
        assert_eq!(sb.pending_count(), 1);
    }

    #[test]
    fn clear_is_idempotent() {
        let mut sb = Scoreboard::new();
        sb.set_pending(PhysReg::int(0));
        sb.clear_mask(Scoreboard::bit(PhysReg::int(0)));
        sb.clear_mask(Scoreboard::bit(PhysReg::int(0)));
        assert_eq!(sb.pending_count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already pending")]
    fn double_set_panics_in_debug() {
        let mut sb = Scoreboard::new();
        sb.set_pending(PhysReg::int(1));
        sb.set_pending(PhysReg::int(1));
    }
}
