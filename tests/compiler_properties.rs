//! Properties of the scheduler and the compiler on random basic blocks.
//!
//! The paper's load latency reaches the simulation only through the
//! compiled schedule, so the schedule must be a dependence-respecting
//! permutation that actually spreads loads from their uses, and
//! compilation — reordering, register renaming, spill code — must not
//! change *what is computed*: the value stored by each store must be
//! built from the same loads and operations after compilation as before.
//! Dataflow is checked by evaluating both the IR block (in source order)
//! and the compiled machine block (in schedule order) over symbolic
//! values — structural expression hashes — and comparing the sequence of
//! stored expressions (the scheduler preserves store order, so the
//! sequences must match element-wise). That catches scheduling that
//! breaks dependences, allocation that assigns overlapping live ranges to
//! one register, and spill code that reloads the wrong slot.
//!
//! Cases come from the seeded `nbl_core::prop` harness.

use nonblocking_loads::core::prop;
use nonblocking_loads::core::rng::SplitMix64;
use nonblocking_loads::core::types::{LoadFormat, PhysReg, RegClass};
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sched::list_schedule::{respects_dependences, schedule};
use nonblocking_loads::trace::ir::{
    AddrPattern, Block, BlockId, IrOp, PatternId, Program, ScriptNode, VirtReg,
};
use nonblocking_loads::trace::machine::MachineOp;
use nonblocking_loads::trace::workloads::{build, Scale};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Structural expression hash: a value is identified by how it was
/// computed, not by where it lives.
fn node(tag: &str, parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    parts.hash(&mut h);
    h.finish()
}

/// Evaluates the IR block in source order; returns the stored expressions
/// in store order.
fn eval_ir(block: &Block) -> Vec<Option<u64>> {
    let mut vals: HashMap<VirtReg, u64> = HashMap::new();
    let mut stores = Vec::new();
    for op in &block.ops {
        match *op {
            IrOp::Load {
                dst,
                pattern,
                addr_src,
                ..
            } => {
                let addr = addr_src.map(|s| vals[&s]).unwrap_or(0);
                vals.insert(dst, node("load", &[u64::from(pattern.0), addr]));
            }
            IrOp::Store { data, .. } => {
                stores.push(data.map(|d| vals[&d]));
            }
            IrOp::Alu { dst, srcs } => {
                let parts: Vec<u64> = srcs.iter().flatten().map(|s| vals[s]).collect();
                vals.insert(dst, node("alu", &parts));
            }
            IrOp::Branch { .. } => {}
        }
    }
    stores
}

/// Evaluates the compiled machine block in schedule order; spill slots
/// (patterns beyond the original table) act as symbolic memory.
fn eval_machine(ops: &[MachineOp], original_patterns: usize) -> Vec<Option<u64>> {
    let mut regs: HashMap<PhysReg, u64> = HashMap::new();
    let mut spill_mem: HashMap<PatternId, u64> = HashMap::new();
    let mut stores = Vec::new();
    let is_spill = |p: PatternId| (p.0 as usize) >= original_patterns;
    let read = |regs: &HashMap<PhysReg, u64>, r: PhysReg| {
        *regs
            .get(&r)
            .unwrap_or_else(|| panic!("{r:?} read before any write"))
    };
    for op in ops {
        match *op {
            MachineOp::Load {
                dst,
                pattern,
                addr_src,
                ..
            } => {
                let v = if is_spill(pattern) {
                    *spill_mem.get(&pattern).expect("reload before spill store")
                } else {
                    let addr = addr_src.map(|s| read(&regs, s)).unwrap_or(0);
                    node("load", &[u64::from(pattern.0), addr])
                };
                regs.insert(dst, v);
            }
            MachineOp::Store { pattern, data, .. } => {
                let v = data.map(|d| read(&regs, d));
                if is_spill(pattern) {
                    spill_mem.insert(pattern, v.expect("spill stores carry data"));
                } else {
                    stores.push(v);
                }
            }
            MachineOp::Alu { dst, srcs } => {
                let parts: Vec<u64> = srcs.iter().flatten().map(|&s| read(&regs, s)).collect();
                regs.insert(dst, node("alu", &parts));
            }
            MachineOp::Branch { .. } => {}
        }
    }
    stores
}

/// A random basic block of `ops` operations, def-before-use and without
/// loop-carried registers, as the builder guarantees: direct and
/// address-dependent loads, stores to the three patterns of
/// [`program_around`], and two-operand ALU operations, over registers of
/// both classes. Up to six stores of the last values defined make them
/// observable, and a branch on a random value closes the block. High ALU
/// fan-in plus those stores maximize the chance that a bad schedule or
/// allocation changes an observable output.
fn random_block(rng: &mut SplitMix64, ops: usize) -> Block {
    fn pick(rng: &mut SplitMix64, defined: &[VirtReg]) -> Option<VirtReg> {
        let i = rng.next_below(defined.len() as u64) as usize;
        defined.get(i).copied()
    }
    let mut block = Block::default();
    let mut defined: Vec<VirtReg> = Vec::new();
    for _ in 0..ops {
        let kind = rng.next_below(5);
        if kind == 2 {
            block.ops.push(IrOp::Store {
                pattern: PatternId(rng.next_below(3) as u32),
                data: pick(rng, &defined),
                addr_src: None,
            });
            continue;
        }
        let dst = VirtReg(block.classes.len() as u32);
        block.classes.push(if rng.next_below(2) == 0 {
            RegClass::Int
        } else {
            RegClass::Fp
        });
        block.ops.push(match kind {
            0 | 1 => IrOp::Load {
                dst,
                pattern: PatternId(rng.next_below(3) as u32),
                format: LoadFormat::DOUBLE,
                addr_src: if kind == 1 { pick(rng, &defined) } else { None },
            },
            _ => IrOp::Alu {
                dst,
                srcs: [pick(rng, &defined), pick(rng, &defined)],
            },
        });
        defined.push(dst);
    }
    for &data in defined.iter().rev().take(6) {
        block.ops.push(IrOp::Store {
            pattern: PatternId(0),
            data: Some(data),
            addr_src: None,
        });
    }
    block.ops.push(IrOp::Branch {
        srcs: [pick(rng, &defined), None],
    });
    block
}

fn program_around(block: Block) -> Program {
    Program {
        name: "prop".into(),
        patterns: vec![
            AddrPattern::Strided {
                base: 0x1000,
                elem_bytes: 8,
                stride: 1,
                length: 64,
            },
            AddrPattern::Gather {
                base: 0x8000,
                elem_bytes: 8,
                length: 64,
                seed: 1,
            },
            AddrPattern::Fixed { addr: 0x20000 },
        ],
        blocks: vec![block],
        script: vec![ScriptNode::Run {
            block: BlockId(0),
            times: 1,
        }],
    }
}

/// The compiled block stores exactly the IR block's expressions, in the
/// same order, when scheduled for `lat`.
fn assert_dataflow_preserved(block: Block, lat: u32) {
    let expected = eval_ir(&block);
    let program = program_around(block);
    let compiled = compile(&program, lat).expect("random blocks compile");
    let got = eval_machine(&compiled.blocks[0].ops, program.patterns.len());
    assert_eq!(got, expected, "stored expressions at latency {lat}");
}

#[test]
fn compilation_preserves_dataflow() {
    prop::check("compilation preserves dataflow", 64, 0xda7a, |rng| {
        let ops = 4 + rng.next_below(56) as usize;
        let lat = 1 + rng.next_below(24) as u32;
        assert_dataflow_preserved(random_block(rng, ops), lat);
    });
    // The one failure the retired proptest suite recorded shrank to
    // `n = 34, lat = 10`: a 34-operation block scheduled for latency 10.
    // Its block cannot be rebuilt outside that suite's generator, so the
    // shape is pinned as fixed cases.
    prop::check("recorded failure: 34 ops, latency 10", 16, 34, |rng| {
        assert_dataflow_preserved(random_block(rng, 34), 10);
    });
}

/// Dataflow preservation holds under extreme register pressure too (the
/// fpppp workload spills at every scheduled latency from 2 up),
/// exercising the spill store/reload path end to end.
#[test]
fn spill_code_preserves_dataflow() {
    let program = build("fpppp", Scale::quick()).expect("fpppp exists");
    assert!(
        program.blocks[0].carried.is_empty(),
        "eval assumes no carried registers"
    );
    let expected = eval_ir(&program.blocks[0]);
    for lat in 2..25 {
        let compiled = compile(&program, lat).expect("fpppp compiles");
        assert!(
            compiled.blocks[0].spill_ops > 0,
            "fpppp must spill at latency {lat}"
        );
        let got = eval_machine(&compiled.blocks[0].ops, program.patterns.len());
        assert_eq!(got, expected, "stored expressions at latency {lat}");
    }
}

/// The list schedule is a dependence-respecting permutation at every
/// latency.
#[test]
fn schedules_are_valid_permutations() {
    prop::check("schedules are valid permutations", 256, 0x5c4e, |rng| {
        let ops = 1 + rng.next_below(39) as usize;
        let block = random_block(rng, ops);
        let lat = 1 + rng.next_below(24) as u32;
        let order = schedule(&block, lat);
        assert_eq!(order.len(), block.ops.len());
        let distinct: HashSet<_> = order.iter().collect();
        assert_eq!(
            distinct.len(),
            order.len(),
            "a permutation has no duplicates"
        );
        assert!(respects_dependences(&block, &order), "latency {lat}");
    });
}

/// Mean distance in `order` from each load to the first use of its value.
fn mean_load_use_distance(block: &Block, order: &[usize]) -> f64 {
    let mut pos = vec![0usize; block.ops.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    let mut total = 0isize;
    let mut n = 0;
    for (i, op) in block.ops.iter().enumerate() {
        if !op.is_load() {
            continue;
        }
        let Some(dst) = op.dst() else { continue };
        let first_use = block
            .ops
            .iter()
            .enumerate()
            .filter(|(j, o)| *j != i && o.srcs().contains(&dst))
            .map(|(j, _)| pos[j] as isize)
            .min();
        if let Some(u) = first_use {
            total += u - pos[i] as isize;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Longer scheduled latencies never shrink the average load-use distance
/// below the latency-1 schedule's by more than noise — the scheduler's
/// entire purpose.
#[test]
fn longer_latency_never_packs_loads_tighter() {
    prop::check("longer latency spreads loads", 256, 0x1a7e, |rng| {
        let ops = 1 + rng.next_below(39) as usize;
        let block = random_block(rng, ops);
        let d1 = mean_load_use_distance(&block, &schedule(&block, 1));
        let d20 = mean_load_use_distance(&block, &schedule(&block, 20));
        assert!(
            d20 + 1e-9 >= d1 - 1.0,
            "latency 20 distance {d20} collapsed below latency 1 {d1}"
        );
    });
}
