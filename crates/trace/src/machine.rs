//! The compiled (post-scheduling, post-register-allocation) program
//! representation that the executor runs.
//!
//! `nbl-sched` lowers each IR [`crate::ir::Block`] into a [`MachineBlock`]:
//! the same operations, reordered for a target load latency, rewritten over
//! *physical* registers, possibly with spill stores/reloads inserted.

use crate::ir::{AddrPattern, PatternId, ScriptNode};
use nbl_core::inst::DynInst;
use nbl_core::types::{LoadFormat, PhysReg};

/// One machine operation over physical registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineOp {
    /// Load the next address of `pattern` into `dst`.
    Load {
        /// Destination register.
        dst: PhysReg,
        /// Address stream.
        pattern: PatternId,
        /// Width / sign extension.
        format: LoadFormat,
        /// Register the address depends on, if any.
        addr_src: Option<PhysReg>,
    },
    /// Store to the next address of `pattern`.
    Store {
        /// Address stream.
        pattern: PatternId,
        /// Register holding the stored value, if any.
        data: Option<PhysReg>,
        /// Register the address depends on, if any.
        addr_src: Option<PhysReg>,
    },
    /// Single-cycle computation.
    Alu {
        /// Destination register.
        dst: PhysReg,
        /// Operands.
        srcs: [Option<PhysReg>; 2],
    },
    /// Branch / compare.
    Branch {
        /// Operands.
        srcs: [Option<PhysReg>; 2],
    },
}

impl MachineOp {
    /// `true` for loads.
    pub fn is_load(&self) -> bool {
        matches!(self, MachineOp::Load { .. })
    }

    /// `true` for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, MachineOp::Store { .. })
    }

    /// The register written, if any.
    pub fn dst(&self) -> Option<PhysReg> {
        match self {
            MachineOp::Load { dst, .. } | MachineOp::Alu { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

/// A scheduled, register-allocated basic block.
#[derive(Debug, Clone, Default, Hash)]
pub struct MachineBlock {
    /// Operations in final schedule order.
    pub ops: Vec<MachineOp>,
    /// Spill operations inserted by register allocation (loads + stores),
    /// for reporting (the paper's Fig. 4 reference-count variation).
    pub spill_ops: usize,
}

impl MachineBlock {
    /// Counts (loads, stores, other) in one execution.
    pub fn op_mix(&self) -> (usize, usize, usize) {
        let loads = self.ops.iter().filter(|o| o.is_load()).count();
        let stores = self.ops.iter().filter(|o| o.is_store()).count();
        (loads, stores, self.ops.len() - loads - stores)
    }
}

/// A fully compiled program: machine blocks + (possibly extended) pattern
/// table + the unchanged script.
#[derive(Debug, Clone, Hash)]
pub struct CompiledProgram {
    /// Benchmark name.
    pub name: String,
    /// Scheduled load latency this program was compiled for.
    pub load_latency: u32,
    /// Pattern table (the IR table plus compiler-added spill slots).
    pub patterns: Vec<AddrPattern>,
    /// Compiled blocks, same indices as the IR program.
    pub blocks: Vec<MachineBlock>,
    /// Control structure.
    pub script: Vec<ScriptNode>,
}

impl CompiledProgram {
    /// Total dynamic instructions this program will execute.
    pub fn dynamic_instructions(&self) -> u64 {
        let per_block: Vec<u64> = self.blocks.iter().map(|b| b.ops.len() as u64).collect();
        fn walk(nodes: &[ScriptNode], per_block: &[u64], mult: u64) -> u64 {
            nodes
                .iter()
                .map(|n| match n {
                    ScriptNode::Run { block, times } => mult * times * per_block[block.0 as usize],
                    ScriptNode::Loop { body, trips } => walk(body, per_block, mult * trips),
                })
                .sum()
        }
        walk(&self.script, &per_block, 1)
    }

    /// Dynamic (loads, stores, other) across the whole run.
    pub fn dynamic_mix(&self) -> (u64, u64, u64) {
        let mixes: Vec<(u64, u64, u64)> = self
            .blocks
            .iter()
            .map(|b| {
                let (l, s, o) = b.op_mix();
                (l as u64, s as u64, o as u64)
            })
            .collect();
        fn walk(nodes: &[ScriptNode], mixes: &[(u64, u64, u64)], mult: u64) -> (u64, u64, u64) {
            let mut acc = (0, 0, 0);
            for n in nodes {
                let (l, s, o) = match n {
                    ScriptNode::Run { block, times } => {
                        let m = mixes[block.0 as usize];
                        (mult * times * m.0, mult * times * m.1, mult * times * m.2)
                    }
                    ScriptNode::Loop { body, trips } => walk(body, mixes, mult * trips),
                };
                acc.0 += l;
                acc.1 += s;
                acc.2 += o;
            }
            acc
        }
        walk(&self.script, &mixes, 1)
    }
}

/// Consumer of the dynamic instruction stream produced by the executor.
///
/// [`crate::tape::TraceTape`] implements it (recording is one executor
/// walk into a tape); tests implement it with plain collectors such as
/// `Vec<DynInst>`.
pub trait InstSink {
    /// Executes one dynamic instruction.
    fn exec(&mut self, inst: DynInst);
}

impl InstSink for Vec<DynInst> {
    fn exec(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

/// An [`InstSink`] that only counts, for cheap dry runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Instructions observed.
    pub instructions: u64,
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
}

impl InstSink for CountingSink {
    fn exec(&mut self, inst: DynInst) {
        self.instructions += 1;
        if inst.is_load() {
            self.loads += 1;
        } else if inst.is_store() {
            self.stores += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BlockId;
    use nbl_core::types::Addr;

    #[test]
    fn machine_op_accessors() {
        let ld = MachineOp::Load {
            dst: PhysReg::int(1),
            pattern: PatternId(0),
            format: LoadFormat::WORD,
            addr_src: None,
        };
        assert!(ld.is_load());
        assert_eq!(ld.dst(), Some(PhysReg::int(1)));
        let st = MachineOp::Store {
            pattern: PatternId(0),
            data: None,
            addr_src: None,
        };
        assert!(st.is_store());
        assert_eq!(st.dst(), None);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.exec(DynInst::load(Addr(0), PhysReg::int(0), LoadFormat::WORD));
        s.exec(DynInst::store(Addr(8), None));
        s.exec(DynInst::branch([None, None]));
        assert_eq!(
            s,
            CountingSink {
                instructions: 3,
                loads: 1,
                stores: 1
            }
        );
    }

    #[test]
    fn dynamic_counting() {
        let block = MachineBlock {
            ops: vec![
                MachineOp::Load {
                    dst: PhysReg::int(0),
                    pattern: PatternId(0),
                    format: LoadFormat::WORD,
                    addr_src: None,
                },
                MachineOp::Alu {
                    dst: PhysReg::int(1),
                    srcs: [Some(PhysReg::int(0)), None],
                },
                MachineOp::Branch { srcs: [None, None] },
            ],
            spill_ops: 0,
        };
        let p = CompiledProgram {
            name: "t".into(),
            load_latency: 1,
            patterns: vec![],
            blocks: vec![block],
            script: vec![ScriptNode::Loop {
                body: vec![ScriptNode::Run {
                    block: BlockId(0),
                    times: 2,
                }],
                trips: 10,
            }],
        };
        assert_eq!(p.dynamic_instructions(), 60);
        assert_eq!(p.dynamic_mix(), (20, 0, 40));
    }
}
