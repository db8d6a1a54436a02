//! The trace executor: walks a [`CompiledProgram`]'s script, resolves each
//! memory operation's address from its pattern state, and feeds the
//! resulting dynamic instructions to an [`InstSink`] (normally a processor
//! model).
//!
//! Pattern state advances deterministically, so two runs of the same
//! compiled program produce bit-identical instruction streams — the
//! property that lets the harness compare MSHR organizations on exactly
//! the same trace.

use crate::ir::{AddrPattern, ScriptNode};
use crate::machine::{CompiledProgram, InstSink, MachineOp};
use nbl_core::inst::DynInst;
use nbl_core::rng::SplitMix64;
use nbl_core::types::Addr;

/// Runtime state of one address pattern.
#[derive(Debug, Clone)]
enum PatternState {
    Strided { index: u64 },
    Gather { lcg: u64 },
    Chase { current: u64, successor: Vec<u32> },
    Fixed,
}

impl PatternState {
    fn new(pattern: &AddrPattern) -> PatternState {
        match pattern {
            AddrPattern::Strided { .. } => PatternState::Strided { index: 0 },
            AddrPattern::Gather { seed, .. } => PatternState::Gather { lcg: *seed | 1 },
            AddrPattern::Chase { nodes, seed, .. } => PatternState::Chase {
                current: 0,
                successor: single_cycle_permutation(*nodes, *seed),
            },
            AddrPattern::Fixed { .. } => PatternState::Fixed,
        }
    }

    /// Computes the next address and advances the state.
    fn next(&mut self, pattern: &AddrPattern) -> Addr {
        match (pattern, self) {
            (
                AddrPattern::Strided {
                    base,
                    elem_bytes,
                    stride,
                    length,
                },
                PatternState::Strided { index },
            ) => {
                let addr = base + *index * u64::from(*elem_bytes);
                let len = (*length).max(1) as i128;
                let next = ((*index as i128) + (*stride as i128)).rem_euclid(len);
                *index = next as u64;
                Addr(addr)
            }
            (
                AddrPattern::Gather {
                    base,
                    elem_bytes,
                    length,
                    ..
                },
                PatternState::Gather { lcg },
            ) => {
                *lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (*lcg >> 33) % (*length).max(1);
                Addr(base + idx * u64::from(*elem_bytes))
            }
            (
                AddrPattern::Chase {
                    base,
                    node_bytes,
                    field_offset,
                    ..
                },
                PatternState::Chase { current, successor },
            ) => {
                let addr = base + *current * u64::from(*node_bytes) + u64::from(*field_offset);
                *current = u64::from(successor[*current as usize]);
                Addr(addr)
            }
            (AddrPattern::Fixed { addr }, PatternState::Fixed) => Addr(*addr),
            // nbl-allow(no-panic): PatternState is derived 1:1 from AddrPattern at build time
            _ => unreachable!("pattern state built from the same table"),
        }
    }
}

/// Builds a random single-cycle permutation (Sattolo's algorithm): every
/// node's successor chain visits all nodes before returning — a worst-case
/// pointer chase with no short cycles.
fn single_cycle_permutation(nodes: u64, seed: u64) -> Vec<u32> {
    let n = nodes.max(1) as usize;
    assert!(
        n <= u32::MAX as usize,
        "chase arenas are bounded by u32 node indices"
    );
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::new(seed);
    // Sattolo: shuffle into a single cycle.
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64) as usize;
        order.swap(i, j);
    }
    // order is a cyclic arrangement; successor of order[i] is order[i+1].
    let mut succ = vec![0u32; n];
    for i in 0..n {
        succ[order[i] as usize] = order[(i + 1) % n];
    }
    succ
}

/// The executor. Create one per (compiled program, run).
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p CompiledProgram,
    states: Vec<PatternState>,
}

impl<'p> Executor<'p> {
    /// Prepares pattern state for `program`.
    pub fn new(program: &'p CompiledProgram) -> Executor<'p> {
        let states = program.patterns.iter().map(PatternState::new).collect();
        Executor { program, states }
    }

    /// Runs the whole program into `sink`.
    pub fn run<S: InstSink>(&mut self, sink: &mut S) {
        let script = &self.program.script;
        self.run_nodes(script, sink);
    }

    fn run_nodes<S: InstSink>(&mut self, nodes: &[ScriptNode], sink: &mut S) {
        for node in nodes {
            match node {
                ScriptNode::Run { block, times } => {
                    for _ in 0..*times {
                        self.run_block(block.0 as usize, sink);
                    }
                }
                ScriptNode::Loop { body, trips } => {
                    for _ in 0..*trips {
                        self.run_nodes(body, sink);
                    }
                }
            }
        }
    }

    #[inline]
    fn next_addr(&mut self, pattern: crate::ir::PatternId) -> Addr {
        let idx = pattern.0 as usize;
        self.states[idx].next(&self.program.patterns[idx])
    }

    fn run_block<S: InstSink>(&mut self, block: usize, sink: &mut S) {
        // Indexing by value avoids borrowing `self.program` across the
        // mutable pattern-state updates.
        let num_ops = self.program.blocks[block].ops.len();
        for i in 0..num_ops {
            let op = self.program.blocks[block].ops[i];
            let inst = match op {
                MachineOp::Load {
                    dst,
                    pattern,
                    format,
                    addr_src,
                } => {
                    let addr = self.next_addr(pattern);
                    match addr_src {
                        Some(src) => DynInst::load_via(addr, src, dst, format),
                        None => DynInst::load(addr, dst, format),
                    }
                }
                MachineOp::Store {
                    pattern,
                    data,
                    addr_src,
                } => {
                    let addr = self.next_addr(pattern);
                    DynInst {
                        srcs: [data, addr_src],
                        kind: nbl_core::inst::DynKind::Store { addr },
                    }
                }
                MachineOp::Alu { dst, srcs } => DynInst::alu(dst, srcs),
                MachineOp::Branch { srcs } => DynInst::branch(srcs),
            };
            sink.exec(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockId, PatternId};
    use crate::machine::{CountingSink, MachineBlock};
    use nbl_core::inst::DynKind;
    use nbl_core::types::{LoadFormat, PhysReg};
    use std::collections::HashSet;

    fn one_block_program(
        patterns: Vec<AddrPattern>,
        ops: Vec<MachineOp>,
        times: u64,
    ) -> CompiledProgram {
        CompiledProgram {
            name: "t".into(),
            load_latency: 1,
            patterns,
            blocks: vec![MachineBlock { ops, spill_ops: 0 }],
            script: vec![ScriptNode::Run {
                block: BlockId(0),
                times,
            }],
        }
    }

    fn collect_addrs(p: &CompiledProgram) -> Vec<u64> {
        let mut sink: Vec<DynInst> = Vec::new();
        Executor::new(p).run(&mut sink);
        sink.iter()
            .filter_map(|i| match i.kind {
                DynKind::Load { addr, .. } | DynKind::Store { addr } => Some(addr.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strided_pattern_walks_and_wraps() {
        let p = one_block_program(
            vec![AddrPattern::Strided {
                base: 0x1000,
                elem_bytes: 8,
                stride: 1,
                length: 4,
            }],
            vec![MachineOp::Load {
                dst: PhysReg::int(1),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: None,
            }],
            6,
        );
        assert_eq!(
            collect_addrs(&p),
            vec![0x1000, 0x1008, 0x1010, 0x1018, 0x1000, 0x1008]
        );
    }

    #[test]
    fn negative_stride_wraps_backwards() {
        let p = one_block_program(
            vec![AddrPattern::Strided {
                base: 0,
                elem_bytes: 4,
                stride: -1,
                length: 3,
            }],
            vec![MachineOp::Store {
                pattern: PatternId(0),
                data: None,
                addr_src: None,
            }],
            4,
        );
        assert_eq!(collect_addrs(&p), vec![0, 8, 4, 0]);
    }

    #[test]
    fn gather_is_deterministic_and_in_range() {
        let pat = AddrPattern::Gather {
            base: 0x8000,
            elem_bytes: 4,
            length: 100,
            seed: 7,
        };
        let p = one_block_program(
            vec![pat],
            vec![MachineOp::Load {
                dst: PhysReg::int(1),
                pattern: PatternId(0),
                format: LoadFormat::WORD,
                addr_src: None,
            }],
            200,
        );
        let a1 = collect_addrs(&p);
        let a2 = collect_addrs(&p);
        assert_eq!(a1, a2, "deterministic");
        assert!(a1.iter().all(|&a| (0x8000..0x8000 + 400).contains(&a)));
        let distinct: HashSet<_> = a1.iter().collect();
        assert!(distinct.len() > 20, "gather spreads over the region");
    }

    #[test]
    fn chase_visits_every_node_once_per_lap() {
        let nodes = 64;
        let p = one_block_program(
            vec![AddrPattern::Chase {
                base: 0,
                node_bytes: 16,
                nodes,
                field_offset: 0,
                seed: 3,
            }],
            vec![MachineOp::Load {
                dst: PhysReg::int(1),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: Some(PhysReg::int(1)),
            }],
            nodes,
        );
        let addrs = collect_addrs(&p);
        let distinct: HashSet<_> = addrs.iter().collect();
        assert_eq!(
            distinct.len(),
            nodes as usize,
            "single cycle: one lap covers all nodes"
        );
        // Second lap repeats the first in the same order.
        let p2 = one_block_program(
            vec![AddrPattern::Chase {
                base: 0,
                node_bytes: 16,
                nodes,
                field_offset: 0,
                seed: 3,
            }],
            vec![MachineOp::Load {
                dst: PhysReg::int(1),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: Some(PhysReg::int(1)),
            }],
            nodes * 2,
        );
        let addrs2 = collect_addrs(&p2);
        assert_eq!(&addrs2[..nodes as usize], &addrs2[nodes as usize..]);
    }

    #[test]
    fn chase_load_carries_address_dependence() {
        let p = one_block_program(
            vec![AddrPattern::Chase {
                base: 0,
                node_bytes: 16,
                nodes: 8,
                field_offset: 0,
                seed: 1,
            }],
            vec![MachineOp::Load {
                dst: PhysReg::int(1),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: Some(PhysReg::int(1)),
            }],
            3,
        );
        let mut sink: Vec<DynInst> = Vec::new();
        Executor::new(&p).run(&mut sink);
        for inst in &sink {
            assert_eq!(inst.srcs, [Some(PhysReg::int(1)), None]);
            assert_eq!(inst.dst(), Some(PhysReg::int(1)));
        }
    }

    #[test]
    fn fixed_pattern_repeats() {
        let p = one_block_program(
            vec![AddrPattern::Fixed { addr: 0xdead0 }],
            vec![MachineOp::Store {
                pattern: PatternId(0),
                data: Some(PhysReg::int(2)),
                addr_src: None,
            }],
            3,
        );
        assert_eq!(collect_addrs(&p), vec![0xdead0; 3]);
    }

    #[test]
    fn counting_sink_matches_static_count() {
        let p = one_block_program(
            vec![AddrPattern::Fixed { addr: 0 }],
            vec![
                MachineOp::Load {
                    dst: PhysReg::int(1),
                    pattern: PatternId(0),
                    format: LoadFormat::WORD,
                    addr_src: None,
                },
                MachineOp::Alu {
                    dst: PhysReg::int(2),
                    srcs: [Some(PhysReg::int(1)), None],
                },
                MachineOp::Branch { srcs: [None, None] },
            ],
            50,
        );
        let mut sink = CountingSink::default();
        Executor::new(&p).run(&mut sink);
        assert_eq!(sink.instructions, p.dynamic_instructions());
        assert_eq!(sink.loads, 50);
        assert_eq!(sink.stores, 0);
    }

    #[test]
    fn permutation_is_single_cycle() {
        for n in [1u64, 2, 3, 17, 256] {
            let succ = single_cycle_permutation(n, 42);
            let mut seen = HashSet::new();
            let mut cur = 0u32;
            for _ in 0..n {
                assert!(
                    seen.insert(cur),
                    "revisited node before completing the cycle"
                );
                cur = succ[cur as usize];
            }
            assert_eq!(cur, 0, "returns to start after exactly n steps");
        }
    }
}
