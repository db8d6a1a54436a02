//! Linear-scan register allocation with spill-everywhere splitting.
//!
//! Runs after list scheduling, as in the paper's Multiflow-derived
//! compiler ("register allocation occurs after instruction scheduling"),
//! which is why "code schedules prepared with different load latencies are
//! likely to have different register-use profiles. Hence, the number of
//! register spills to memory may vary thereby changing the number of data
//! and instruction references" — the Fig. 4 effect, reproduced here: the
//! spill loads and stores inserted by this allocator are real memory
//! operations that go through the simulated cache.
//!
//! Loop-carried virtual registers arrive pre-assigned (they are allocated
//! globally by `compile` and never spilled); everything else is scanned
//! over its live interval in schedule order. When a class runs out of
//! registers, the live range with the furthest end is spilled: its value
//! is stored to a stack slot right after its definition and reloaded (into
//! a fresh short-lived register) before each use. The scan then repeats on
//! the rewritten code until it fits.

use nbl_core::hash::FastMap;
use nbl_core::types::{LoadFormat, PhysReg, RegClass};
use nbl_trace::ir::{AddrPattern, IrOp, PatternId, VirtReg};
use nbl_trace::machine::{MachineBlock, MachineOp};

/// Inputs that don't change across spill iterations.
pub struct AllocContext<'a> {
    /// Pre-assigned loop-carried registers (never spilled).
    pub carried: &'a FastMap<VirtReg, PhysReg>,
    /// Scratch pool for integer virtual registers.
    pub int_pool: &'a [PhysReg],
    /// Scratch pool for floating-point virtual registers.
    pub fp_pool: &'a [PhysReg],
    /// Pattern table to extend with spill slots.
    pub patterns: &'a mut Vec<AddrPattern>,
    /// First byte of this block's spill area.
    pub spill_base: u64,
}

/// Errors from allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Even after spilling, the instantaneous operand pressure exceeds the
    /// pool (cannot happen with ≤3-operand instructions and pools ≥ 4).
    Unallocatable(RegClass),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Unallocatable(c) => write!(f, "operand pressure exceeds the {c:?} pool"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Working state: the op sequence plus a growable class table.
struct Working {
    ops: Vec<IrOp>,
    classes: Vec<RegClass>,
    spill_ops: usize,
    next_slot: u64,
}

impl Working {
    fn fresh_vreg(&mut self, class: RegClass) -> VirtReg {
        let v = VirtReg(self.classes.len() as u32);
        self.classes.push(class);
        v
    }
}

/// Live interval (positions in the op sequence, inclusive).
#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VirtReg,
    start: usize,
    end: usize,
}

fn intervals(ops: &[IrOp], carried: &FastMap<VirtReg, PhysReg>) -> Vec<Interval> {
    let mut first: FastMap<VirtReg, usize> = FastMap::default();
    let mut last: FastMap<VirtReg, usize> = FastMap::default();
    for (i, op) in ops.iter().enumerate() {
        for v in op.srcs().into_iter().chain(op.dst()) {
            if carried.contains_key(&v) {
                continue;
            }
            first.entry(v).or_insert(i);
            last.insert(v, i);
        }
    }
    let mut out: Vec<Interval> = first
        .into_iter()
        .map(|(v, s)| Interval {
            vreg: v,
            start: s,
            end: last[&v],
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.end, iv.vreg.0));
    out
}

/// One linear-scan pass. Returns the assignment, or the vreg to spill.
fn scan(
    ops: &[IrOp],
    classes: &[RegClass],
    carried: &FastMap<VirtReg, PhysReg>,
    int_pool: &[PhysReg],
    fp_pool: &[PhysReg],
) -> Result<FastMap<VirtReg, PhysReg>, Result<VirtReg, AllocError>> {
    let ivs = intervals(ops, carried);
    let mut assignment: FastMap<VirtReg, PhysReg> = FastMap::default();
    // Free registers per class: `free[slot(class)]`.
    let mut free = [int_pool.to_vec(), fp_pool.to_vec()];
    let slot = |class| match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    };
    // Active intervals per class, with their ends.
    let mut active: Vec<Interval> = Vec::new();
    for iv in &ivs {
        let class = classes[iv.vreg.0 as usize];
        // Expire intervals that ended strictly before this start: an
        // interval ending at position p frees its register for a vreg
        // starting at p+1 (same-op src/dst may not share a register,
        // because the source is read while the destination is written).
        active.retain(|a| {
            if a.end < iv.start {
                free[slot(classes[a.vreg.0 as usize])].push(assignment[&a.vreg]);
                false
            } else {
                true
            }
        });
        let pool = &mut free[slot(class)];
        if let Some(reg) = pool.pop() {
            assignment.insert(iv.vreg, reg);
            active.push(*iv);
        } else {
            // Spill the splittable interval (same class, longer than a
            // single op — a one-op interval cannot be shortened) with the
            // furthest end, considering both the active set and the
            // incoming interval.
            let victim = active
                .iter()
                .chain(std::iter::once(iv))
                .filter(|a| classes[a.vreg.0 as usize] == class && a.end > a.start)
                .max_by_key(|a| a.end)
                .copied();
            return match victim {
                Some(v) => Err(Ok(v.vreg)),
                None => Err(Err(AllocError::Unallocatable(class))),
            };
        }
    }
    Ok(assignment)
}

/// Rewrites `w.ops`, spilling `victim` to a fresh stack slot: store after
/// its definition, reload into a fresh register before each use.
fn spill(w: &mut Working, victim: VirtReg, ctx: &mut AllocContext<'_>) {
    let slot_addr = ctx.spill_base + w.next_slot * 8;
    w.next_slot += 1;
    let slot = PatternId(ctx.patterns.len() as u32);
    ctx.patterns.push(AddrPattern::Fixed { addr: slot_addr });
    let class = w.classes[victim.0 as usize];

    let old = std::mem::take(&mut w.ops);
    let mut out = Vec::with_capacity(old.len() + 4);
    for mut op in old {
        let uses_victim = op.srcs().contains(&victim);
        if uses_victim {
            // Reload into a fresh register and rewrite this op's sources.
            let fresh = w.fresh_vreg(class);
            out.push(IrOp::Load {
                dst: fresh,
                pattern: slot,
                format: LoadFormat::DOUBLE,
                addr_src: None,
            });
            w.spill_ops += 1;
            rewrite_srcs(&mut op, victim, fresh);
        }
        let defines_victim = op.dst() == Some(victim);
        out.push(op);
        if defines_victim {
            out.push(IrOp::Store {
                pattern: slot,
                data: Some(victim),
                addr_src: None,
            });
            w.spill_ops += 1;
        }
    }
    w.ops = out;
}

fn rewrite_srcs(op: &mut IrOp, from: VirtReg, to: VirtReg) {
    match op {
        IrOp::Load { addr_src, .. } => {
            if *addr_src == Some(from) {
                *addr_src = Some(to);
            }
        }
        IrOp::Store { data, addr_src, .. } => {
            if *data == Some(from) {
                *data = Some(to);
            }
            if *addr_src == Some(from) {
                *addr_src = Some(to);
            }
        }
        IrOp::Alu { srcs, .. } | IrOp::Branch { srcs } => {
            for s in srcs.iter_mut() {
                if *s == Some(from) {
                    *s = Some(to);
                }
            }
        }
    }
}

/// Allocates the scheduled `ops` (with vreg classes from `classes`) and
/// lowers to machine operations.
///
/// # Errors
///
/// [`AllocError::Unallocatable`] if the pools cannot hold even the
/// instantaneous operand pressure (requires pools of at least ~4 registers).
pub fn allocate(
    scheduled_ops: Vec<IrOp>,
    classes: Vec<RegClass>,
    ctx: &mut AllocContext<'_>,
) -> Result<MachineBlock, AllocError> {
    let mut w = Working {
        ops: scheduled_ops,
        classes,
        spill_ops: 0,
        next_slot: 0,
    };
    // Iterate scan → spill until the code fits. Each spill splits a
    // multi-op live range into one-op ranges, so progress is monotone; the
    // cap catches genuinely unallocatable pressure (an op whose own
    // operands exceed the pool), which would otherwise re-spill reloads
    // forever.
    let max_rounds = 8 * w.ops.len() + 16;
    let mut rounds = 0;
    let assignment = loop {
        match scan(&w.ops, &w.classes, ctx.carried, ctx.int_pool, ctx.fp_pool) {
            Ok(a) => break a,
            Err(Ok(victim)) => {
                rounds += 1;
                if rounds > max_rounds {
                    return Err(AllocError::Unallocatable(w.classes[victim.0 as usize]));
                }
                spill(&mut w, victim, ctx);
            }
            Err(Err(e)) => return Err(e),
        }
    };
    let reg_of = |v: VirtReg| -> PhysReg {
        ctx.carried
            .get(&v)
            .copied()
            .unwrap_or_else(|| assignment[&v])
    };
    let ops = w
        .ops
        .iter()
        .map(|op| match *op {
            IrOp::Load {
                dst,
                pattern,
                format,
                addr_src,
            } => MachineOp::Load {
                dst: reg_of(dst),
                pattern,
                format,
                addr_src: addr_src.map(reg_of),
            },
            IrOp::Store {
                pattern,
                data,
                addr_src,
            } => MachineOp::Store {
                pattern,
                data: data.map(reg_of),
                addr_src: addr_src.map(reg_of),
            },
            IrOp::Alu { dst, srcs } => MachineOp::Alu {
                dst: reg_of(dst),
                srcs: srcs.map(|s| s.map(reg_of)),
            },
            IrOp::Branch { srcs } => MachineOp::Branch {
                srcs: srcs.map(|s| s.map(reg_of)),
            },
        })
        .collect();
    Ok(MachineBlock {
        ops,
        spill_ops: w.spill_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_trace::ir::PatternId;

    fn pools(n: usize) -> (Vec<PhysReg>, Vec<PhysReg>) {
        let ints = (0..n).map(|i| PhysReg::int(i as u8)).collect();
        let fps = (0..n).map(|i| PhysReg::fp(i as u8)).collect();
        (ints, fps)
    }

    /// n independent (load, use) pairs with all loads first: peak pressure n.
    fn hoisted_pairs(n: u32) -> (Vec<IrOp>, Vec<RegClass>) {
        let mut ops = Vec::new();
        let mut classes = Vec::new();
        for i in 0..n {
            classes.push(RegClass::Fp);
            ops.push(IrOp::Load {
                dst: VirtReg(i),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: None,
            });
        }
        for i in 0..n {
            classes.push(RegClass::Fp);
            ops.push(IrOp::Alu {
                dst: VirtReg(n + i),
                srcs: [Some(VirtReg(i)), None],
            });
        }
        (ops, classes)
    }

    /// Checks that every register the machine code touches came from the
    /// given pools (allocation never invents registers).
    fn check_regs_from_pools(block: &MachineBlock, int_pool: &[PhysReg], fp_pool: &[PhysReg]) {
        let ok = |r: PhysReg| int_pool.contains(&r) || fp_pool.contains(&r);
        for op in &block.ops {
            let mut regs: Vec<PhysReg> = Vec::new();
            match op {
                MachineOp::Load { dst, addr_src, .. } => {
                    regs.push(*dst);
                    regs.extend(addr_src.iter());
                }
                MachineOp::Store { data, addr_src, .. } => {
                    regs.extend(data.iter());
                    regs.extend(addr_src.iter());
                }
                MachineOp::Alu { dst, srcs } => {
                    regs.push(*dst);
                    regs.extend(srcs.iter().flatten());
                }
                MachineOp::Branch { srcs } => regs.extend(srcs.iter().flatten()),
            }
            for r in regs {
                assert!(ok(r), "register {r} not in any pool");
            }
        }
    }

    #[test]
    fn fits_without_spills_when_pool_is_big() {
        let (ops, classes) = hoisted_pairs(6);
        let (ip, fp) = pools(8);
        let mut patterns = vec![AddrPattern::Fixed { addr: 0 }];
        let carried = FastMap::default();
        let mut ctx = AllocContext {
            carried: &carried,
            int_pool: &ip,
            fp_pool: &fp,
            patterns: &mut patterns,
            spill_base: 1 << 40,
        };
        let mb = allocate(ops, classes, &mut ctx).unwrap();
        assert_eq!(mb.spill_ops, 0);
        assert_eq!(mb.ops.len(), 12);
        check_regs_from_pools(&mb, &ip, &fp);
    }

    #[test]
    fn spills_when_pressure_exceeds_pool() {
        let (ops, classes) = hoisted_pairs(10);
        let (ip, fp) = pools(6);
        let mut patterns = vec![AddrPattern::Fixed { addr: 0 }];
        let carried = FastMap::default();
        let mut ctx = AllocContext {
            carried: &carried,
            int_pool: &ip,
            fp_pool: &fp,
            patterns: &mut patterns,
            spill_base: 1 << 40,
        };
        let mb = allocate(ops, classes, &mut ctx).unwrap();
        assert!(
            mb.spill_ops > 0,
            "10 simultaneous lives cannot fit 6 registers"
        );
        assert_eq!(mb.ops.len(), 20 + mb.spill_ops);
        // Spill slots were added to the pattern table.
        assert!(patterns.len() > 1);
        // Spill stores/reloads reference the spill area.
        let spill_addrs: Vec<u64> = patterns[1..]
            .iter()
            .map(|p| match p {
                AddrPattern::Fixed { addr } => *addr,
                _ => panic!("spill slots are fixed"),
            })
            .collect();
        assert!(spill_addrs.iter().all(|&a| a >= 1 << 40));
        check_regs_from_pools(&mb, &ip, &fp);
    }

    #[test]
    fn carried_registers_pass_through_and_never_spill() {
        let mut carried = FastMap::default();
        carried.insert(VirtReg(0), PhysReg::int(31));
        let ops = vec![
            IrOp::Alu {
                dst: VirtReg(1),
                srcs: [Some(VirtReg(0)), None],
            },
            IrOp::Alu {
                dst: VirtReg(0),
                srcs: [Some(VirtReg(1)), None],
            },
        ];
        let classes = vec![RegClass::Int, RegClass::Int];
        let (ip, fp) = pools(4);
        let mut patterns = Vec::new();
        let mut ctx = AllocContext {
            carried: &carried,
            int_pool: &ip,
            fp_pool: &fp,
            patterns: &mut patterns,
            spill_base: 1 << 40,
        };
        let mb = allocate(ops, classes, &mut ctx).unwrap();
        assert_eq!(mb.spill_ops, 0);
        match mb.ops[0] {
            MachineOp::Alu { srcs, .. } => assert_eq!(srcs[0], Some(PhysReg::int(31))),
            _ => panic!(),
        }
        match mb.ops[1] {
            MachineOp::Alu { dst, .. } => assert_eq!(dst, PhysReg::int(31)),
            _ => panic!(),
        }
    }

    #[test]
    fn unallocatable_reports_error() {
        // Two simultaneously-live fp values with a 1-register pool and the
        // second outliving the first: spilling flips between them but the
        // op itself needs both at once.
        let ops = vec![
            IrOp::Load {
                dst: VirtReg(0),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: None,
            },
            IrOp::Load {
                dst: VirtReg(1),
                pattern: PatternId(0),
                format: LoadFormat::DOUBLE,
                addr_src: None,
            },
            IrOp::Alu {
                dst: VirtReg(2),
                srcs: [Some(VirtReg(0)), Some(VirtReg(1))],
            },
        ];
        let classes = vec![RegClass::Fp; 3];
        let ip = vec![PhysReg::int(0)];
        let fp = vec![PhysReg::fp(0)];
        let carried = FastMap::default();
        let mut patterns = vec![AddrPattern::Fixed { addr: 0 }];
        let mut ctx = AllocContext {
            carried: &carried,
            int_pool: &ip,
            fp_pool: &fp,
            patterns: &mut patterns,
            spill_base: 1 << 40,
        };
        let r = allocate(ops, classes, &mut ctx);
        assert!(matches!(r, Err(AllocError::Unallocatable(RegClass::Fp))));
    }
}
