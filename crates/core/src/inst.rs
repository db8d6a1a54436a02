//! The dynamic instruction vocabulary shared by the processor models and
//! the trace executor.
//!
//! The paper's processor model (§3.1) is a single-issue machine with
//! 3-operand instructions and single-cycle latencies, where the only
//! events that matter for timing are (a) register def/use relations and
//! (b) memory accesses. A [`DynInst`](crate::inst::DynInst) captures
//! exactly that: up to two
//! source registers, and a kind that is either an ALU/branch operation
//! (with an optional destination) or a memory access carrying its
//! already-resolved effective address.

use crate::types::{Addr, LoadFormat, PhysReg};
use std::fmt;

/// What a dynamic instruction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynKind {
    /// A load of `format.size` bytes at `addr` into `dst`.
    Load {
        /// Effective byte address.
        addr: Addr,
        /// Destination register.
        dst: PhysReg,
        /// Width / sign-extension information.
        format: LoadFormat,
    },
    /// A store at `addr` (the value stored is immaterial to timing).
    Store {
        /// Effective byte address.
        addr: Addr,
    },
    /// A single-cycle computational instruction writing `dst` (if any).
    /// Branches are `dst: None` — with perfect branch prediction and no
    /// delay slots they cost exactly their issue cycle.
    Alu {
        /// Destination register, if the instruction produces a value.
        dst: Option<PhysReg>,
    },
}

/// One dynamic (executed) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Source registers read at issue (3-operand ISA: at most two).
    pub srcs: [Option<PhysReg>; 2],
    /// Operation.
    pub kind: DynKind,
}

impl DynInst {
    /// A load with no register-carried address dependence (address from an
    /// induction variable kept in a register that is never a load target).
    pub fn load(addr: Addr, dst: PhysReg, format: LoadFormat) -> DynInst {
        DynInst {
            srcs: [None, None],
            kind: DynKind::Load { addr, dst, format },
        }
    }

    /// A load whose address depends on `addr_src` (e.g. pointer chasing:
    /// the load cannot issue until `addr_src` is valid).
    pub fn load_via(addr: Addr, addr_src: PhysReg, dst: PhysReg, format: LoadFormat) -> DynInst {
        DynInst {
            srcs: [Some(addr_src), None],
            kind: DynKind::Load { addr, dst, format },
        }
    }

    /// A store of the value in `data_src` (if given) to `addr`.
    pub fn store(addr: Addr, data_src: Option<PhysReg>) -> DynInst {
        DynInst {
            srcs: [data_src, None],
            kind: DynKind::Store { addr },
        }
    }

    /// An ALU instruction `dst <- op(srcs)`.
    pub fn alu(dst: PhysReg, srcs: [Option<PhysReg>; 2]) -> DynInst {
        DynInst {
            srcs,
            kind: DynKind::Alu { dst: Some(dst) },
        }
    }

    /// A branch or other value-less single-cycle instruction.
    pub fn branch(srcs: [Option<PhysReg>; 2]) -> DynInst {
        DynInst {
            srcs,
            kind: DynKind::Alu { dst: None },
        }
    }

    /// The register this instruction writes, if any.
    #[inline]
    pub fn dst(&self) -> Option<PhysReg> {
        match self.kind {
            DynKind::Load { dst, .. } => Some(dst),
            DynKind::Store { .. } => None,
            DynKind::Alu { dst } => dst,
        }
    }

    /// `true` if this instruction accesses memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self.kind, DynKind::Load { .. } | DynKind::Store { .. })
    }

    /// `true` if this instruction is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self.kind, DynKind::Load { .. })
    }

    /// `true` if this instruction is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self.kind, DynKind::Store { .. })
    }
}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DynKind::Load { addr, dst, format } => {
                write!(f, "ld.{} {dst} <- [{addr}]", format.size)
            }
            DynKind::Store { addr } => write!(f, "st [{addr}]"),
            DynKind::Alu { dst: Some(d) } => write!(f, "alu {d}"),
            DynKind::Alu { dst: None } => write!(f, "br"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let r1 = PhysReg::int(1);
        let r2 = PhysReg::int(2);
        let ld = DynInst::load(Addr(0x10), r1, LoadFormat::WORD);
        assert!(ld.is_load() && ld.is_mem() && !ld.is_store());
        assert_eq!(ld.dst(), Some(r1));
        assert_eq!(ld.srcs, [None, None]);

        let chase = DynInst::load_via(Addr(0x20), r1, r2, LoadFormat::DOUBLE);
        assert_eq!(chase.srcs, [Some(r1), None]);

        let st = DynInst::store(Addr(0x30), Some(r2));
        assert!(st.is_store() && st.is_mem());
        assert_eq!(st.dst(), None);

        let alu = DynInst::alu(r2, [Some(r1), None]);
        assert!(!alu.is_mem());
        assert_eq!(alu.dst(), Some(r2));

        let br = DynInst::branch([Some(r2), None]);
        assert_eq!(br.dst(), None);
    }

    #[test]
    fn display() {
        let s = DynInst::load(Addr(0x40), PhysReg::fp(3), LoadFormat::DOUBLE).to_string();
        assert!(s.contains("f3") && s.contains("0x40"));
        assert_eq!(DynInst::branch([None, None]).to_string(), "br");
    }
}
