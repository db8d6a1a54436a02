//! List scheduling for a target load latency.
//!
//! This is the paper's central *software* knob (§3.3): "the load latency is
//! the time in cycles that the compiler assumes is required to fetch data
//! from the cache on a cache hit... This parameter indicates to the
//! compiler how many instructions it should try to insert between the load
//! instruction and the first use." The simulator always uses a 1-cycle hit;
//! only the *schedule* changes with this parameter.
//!
//! A classic latency-weighted list scheduler: build the dependence DAG of
//! the block, weight load→use edges with the scheduled load latency and
//! everything else with one cycle, and repeatedly emit the ready operation
//! with the greatest critical-path height. At latency 1 the schedule stays
//! close to source order (uses right after loads); at latency 20 loads are
//! hoisted and grouped ahead of their consumers — exactly the behaviour
//! whose cache-level consequences (more overlap, but also more conflict
//! misses from clustered loads, Fig. 8) the paper measures.

use nbl_core::hash::FastMap;
use nbl_trace::ir::{Block, IrOp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Builds the dependence edges of `ops` with the given scheduled load
/// latency. Returns `(successors, indegrees)`; each successor edge carries
/// its latency.
fn build_dag(ops: &[IrOp], load_latency: u32) -> (Vec<Vec<(usize, u32)>>, Vec<usize>) {
    let n = ops.len();
    let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    let add_edge = |succs: &mut Vec<Vec<(usize, u32)>>,
                    indeg: &mut Vec<usize>,
                    a: usize,
                    b: usize,
                    lat: u32| {
        if a != b {
            succs[a].push((b, lat));
            indeg[b] += 1;
        }
    };

    // Register dependences: last def / all uses since that def.
    let mut last_def: FastMap<u32, usize> = FastMap::default();
    let mut uses_since_def: FastMap<u32, Vec<usize>> = FastMap::default();
    // Memory: keep stores ordered relative to each other.
    let mut last_store: Option<usize> = None;

    for (i, op) in ops.iter().enumerate() {
        for src in op.srcs() {
            if let Some(&d) = last_def.get(&src.0) {
                // RAW: a load's consumer waits the scheduled load latency.
                let lat = if ops[d].is_load() { load_latency } else { 1 };
                add_edge(&mut succs, &mut indeg, d, i, lat);
            }
            uses_since_def.entry(src.0).or_default().push(i);
        }
        if let Some(dst) = op.dst() {
            // WAR: this def must not move above earlier uses of the old value.
            if let Some(users) = uses_since_def.get(&dst.0) {
                for &u in users {
                    add_edge(&mut succs, &mut indeg, u, i, 0);
                }
            }
            // WAW: keep defs of the same register ordered.
            if let Some(&d) = last_def.get(&dst.0) {
                add_edge(&mut succs, &mut indeg, d, i, 1);
            }
            last_def.insert(dst.0, i);
            uses_since_def.insert(dst.0, Vec::new());
        }
        if op.is_store() {
            if let Some(s) = last_store {
                add_edge(&mut succs, &mut indeg, s, i, 1);
            }
            last_store = Some(i);
        }
    }

    // The block terminator (a trailing branch) stays last: it is the
    // loop back-edge, and hoisting it would be meaningless.
    if let Some(IrOp::Branch { .. }) = ops.last() {
        let t = n - 1;
        for i in 0..t {
            if !succs[i].iter().any(|&(s, _)| s == t) {
                add_edge(&mut succs, &mut indeg, i, t, 0);
            }
        }
    }
    (succs, indeg)
}

/// Critical-path height of every op (longest latency-weighted path to any
/// sink). Ops are emitted highest-first among the ready set.
fn heights(ops: &[IrOp], succs: &[Vec<(usize, u32)>]) -> Vec<u64> {
    let n = ops.len();
    let mut h = vec![0u64; n];
    // succs edges always go forward (i < j), so a reverse sweep is a
    // topological order.
    for i in (0..n).rev() {
        for &(s, lat) in &succs[i] {
            h[i] = h[i].max(h[s] + u64::from(lat));
        }
    }
    h
}

/// Schedules `block` for `load_latency`, returning the op indices in their
/// new order. The permutation respects every dependence in the block. It
/// is short of `block.ops.len()` only if the dependences form a cycle,
/// which cannot happen: every edge runs forward in source order.
/// [`crate::compile::compile`] reports a short order as
/// [`crate::compile::CompileError::Unscheduled`].
///
/// # Examples
///
/// ```
/// use nbl_sched::list_schedule::schedule;
/// use nbl_trace::builder::ProgramBuilder;
/// use nbl_trace::ir::AddrPattern;
/// use nbl_core::types::{LoadFormat, RegClass};
///
/// let mut pb = ProgramBuilder::new("demo");
/// let a = pb.pattern(AddrPattern::Strided { base: 0, elem_bytes: 8, stride: 1, length: 64 });
/// let mut b = pb.block();
/// let x = b.load(a, RegClass::Fp, LoadFormat::DOUBLE);
/// let y = b.alu(RegClass::Fp, Some(x), None); // the use of the load
/// let z = b.load(a, RegClass::Fp, LoadFormat::DOUBLE); // independent
/// b.branch(Some(y));
/// let _ = (z, b.finish());
/// let p = pb.build();
/// // At latency 1 the use may follow its load; at a long latency the
/// // independent load is pulled between them.
/// let order = schedule(&p.blocks[0], 20);
/// assert_eq!(order[0], 0); // first load
/// assert_eq!(order[1], 2); // independent load hoisted over the use
/// ```
pub fn schedule(block: &Block, load_latency: u32) -> Vec<usize> {
    let ops = &block.ops;
    let n = ops.len();
    if n == 0 {
        return Vec::new();
    }
    let (succs, mut indeg) = build_dag(ops, load_latency);
    let h = heights(ops, &succs);

    // Classic cycle-driven list scheduling: among the ops *ready this
    // cycle*, emit the one with the greatest critical-path height (source
    // order breaks ties, which keeps latency-1 schedules near the original
    // order). Ops whose operands are not ready yet wait in `pending`.
    let mut ready_time = vec![0u64; n];
    // pending: min-heap by ready time; ready: max-heap by (height, -index).
    let mut pending: BinaryHeap<(Reverse<u64>, usize)> = BinaryHeap::new();
    let mut ready: BinaryHeap<(u64, Reverse<usize>)> = BinaryHeap::new();
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            pending.push((Reverse(0), i));
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut clock = 0u64;
    while order.len() < n {
        // Promote everything ready by `clock`.
        while let Some(&(Reverse(rt), i)) = pending.peek() {
            if rt <= clock {
                pending.pop();
                ready.push((h[i], Reverse(i)));
            } else {
                break;
            }
        }
        let Some((_, Reverse(i))) = ready.pop() else {
            // Nothing ready: jump to the next ready time (the machine
            // would be idle; the *sequence* simply continues there).
            // Nothing pending either: only a dependence cycle strands
            // ops, and the caller reports the short order.
            let Some(&(Reverse(rt), _)) = pending.peek() else {
                break;
            };
            clock = rt;
            continue;
        };
        order.push(i);
        let issue_at = clock;
        clock += 1;
        for &(s, lat) in &succs[i] {
            ready_time[s] = ready_time[s].max(issue_at + u64::from(lat));
            indeg[s] -= 1;
            if indeg[s] == 0 {
                pending.push((Reverse(ready_time[s]), s));
            }
        }
    }
    order
}

/// Verifies that `order` respects every dependence of `block` — used by
/// tests and exposed for property testing.
pub fn respects_dependences(block: &Block, order: &[usize]) -> bool {
    let ops = &block.ops;
    let mut position = vec![0usize; ops.len()];
    for (pos, &i) in order.iter().enumerate() {
        position[i] = pos;
    }
    let (succs, _) = build_dag(ops, 1);
    for (i, edges) in succs.iter().enumerate() {
        for &(s, _) in edges {
            if position[i] >= position[s] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::types::{LoadFormat, RegClass};
    use nbl_trace::builder::ProgramBuilder;
    use nbl_trace::ir::AddrPattern;

    fn demo_block() -> nbl_trace::ir::Program {
        let mut pb = ProgramBuilder::new("demo");
        let arr = pb.pattern(AddrPattern::Strided {
            base: 0,
            elem_bytes: 8,
            stride: 1,
            length: 1024,
        });
        let out = pb.pattern(AddrPattern::Strided {
            base: 65536,
            elem_bytes: 8,
            stride: 1,
            length: 1024,
        });
        let mut b = pb.block();
        // 4 independent (load, use, store) triples in source order.
        for _ in 0..4 {
            let x = b.load(arr, RegClass::Fp, LoadFormat::DOUBLE);
            let y = b.alu(RegClass::Fp, Some(x), None);
            b.store(out, Some(y));
        }
        b.branch(None);
        b.finish();
        pb.build()
    }

    /// Distance in the schedule from each load to the first use of its
    /// result, averaged.
    fn mean_load_use_distance(block: &nbl_trace::ir::Block, order: &[usize]) -> f64 {
        let mut pos = vec![0usize; block.ops.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        let mut total = 0usize;
        let mut count = 0usize;
        for (i, op) in block.ops.iter().enumerate() {
            if !op.is_load() {
                continue;
            }
            let dst = op.dst().unwrap();
            let first_use = block
                .ops
                .iter()
                .enumerate()
                .filter(|(j, o)| *j != i && o.srcs().contains(&dst))
                .map(|(j, _)| pos[j])
                .min();
            if let Some(u) = first_use {
                total += u.saturating_sub(pos[i]);
                count += 1;
            }
        }
        total as f64 / count as f64
    }

    #[test]
    fn latency_one_stays_near_source_order() {
        let p = demo_block();
        let order = schedule(&p.blocks[0], 1);
        assert!(respects_dependences(&p.blocks[0], &order));
        let d = mean_load_use_distance(&p.blocks[0], &order);
        assert!(
            d <= 2.0,
            "latency-1 schedule keeps uses near loads (got {d})"
        );
    }

    #[test]
    fn long_latency_spreads_load_use_pairs() {
        let p = demo_block();
        let o1 = schedule(&p.blocks[0], 1);
        let o10 = schedule(&p.blocks[0], 10);
        assert!(respects_dependences(&p.blocks[0], &o10));
        let d1 = mean_load_use_distance(&p.blocks[0], &o1);
        let d10 = mean_load_use_distance(&p.blocks[0], &o10);
        assert!(
            d10 > d1,
            "longer scheduled latency must widen load-use distance ({d1} -> {d10})"
        );
        // With 4 independent triples and latency 10, the loads group ahead.
        let first_four: Vec<_> = o10.iter().take(4).copied().collect();
        let loads_in_front = first_four
            .iter()
            .filter(|&&i| p.blocks[0].ops[i].is_load())
            .count();
        assert_eq!(loads_in_front, 4, "all loads hoist to the front: {o10:?}");
    }

    #[test]
    fn stores_keep_their_order() {
        let p = demo_block();
        for lat in [1, 2, 3, 6, 10, 20] {
            let order = schedule(&p.blocks[0], lat);
            let store_positions: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, &i)| p.blocks[0].ops[i].is_store())
                .map(|(p, _)| p)
                .collect();
            let mut sorted_by_source: Vec<(usize, usize)> = order
                .iter()
                .enumerate()
                .filter(|(_, &i)| p.blocks[0].ops[i].is_store())
                .map(|(pos, &i)| (i, pos))
                .collect();
            sorted_by_source.sort();
            let positions_in_source_order: Vec<usize> =
                sorted_by_source.iter().map(|&(_, pos)| pos).collect();
            assert_eq!(
                store_positions, positions_in_source_order,
                "stores reordered at lat {lat}"
            );
        }
    }

    #[test]
    fn terminator_branch_stays_last() {
        let p = demo_block();
        for lat in [1, 6, 20] {
            let order = schedule(&p.blocks[0], lat);
            assert_eq!(*order.last().unwrap(), p.blocks[0].ops.len() - 1);
        }
    }

    #[test]
    fn dependent_chain_cannot_be_reordered() {
        let mut pb = ProgramBuilder::new("chain");
        let ring = pb.pattern(AddrPattern::Chase {
            base: 0,
            node_bytes: 32,
            nodes: 64,
            field_offset: 0,
            seed: 1,
        });
        let mut b = pb.block();
        let ptr = b.carried(RegClass::Int);
        b.chase(ring, ptr, LoadFormat::DOUBLE);
        let t = b.alu(RegClass::Int, Some(ptr), None);
        let t2 = b.alu_chain(RegClass::Int, t, 3);
        b.branch(Some(t2));
        b.finish();
        let p = pb.build();
        for lat in [1, 20] {
            let order = schedule(&p.blocks[0], lat);
            assert_eq!(
                order,
                vec![0, 1, 2, 3, 4, 5],
                "a serial chain has only one order"
            );
        }
    }

    #[test]
    fn empty_block_schedules_empty() {
        let block = nbl_trace::ir::Block::default();
        assert!(schedule(&block, 10).is_empty());
    }
}
