//! Record-once / replay-many trace tapes.
//!
//! Every figure in the paper sweeps one `(benchmark, scheduled load
//! latency)` program across many MSHR/hardware configurations, and the
//! dynamic instruction stream is **identical at every grid point** — the
//! hardware configuration changes how the stream is timed, never what it
//! contains. Re-walking the [`CompiledProgram`] script through
//! [`crate::exec::Executor`] for each configuration therefore repeats the
//! same work: loop control, IR dispatch, pattern-state updates (including
//! an `i128` modulus per strided address and a Sattolo permutation build
//! per chase pattern) and a [`DynInst`] construction per instruction.
//!
//! A [`TraceTape`] flattens that stream once into a struct-of-arrays
//! encoding that replays with nothing but sequential array reads:
//!
//! | array     | type       | bytes/inst | contents                        |
//! |-----------|------------|------------|---------------------------------|
//! | `kinds`   | `TapeKind` | 1          | Alu / Branch / Load / Store     |
//! | `dsts`    | `u8`       | 1          | dense register index, `0xff` = none |
//! | `srcs`    | `[u8; 2]`  | 2          | dense register indices, `0xff` = none |
//! | `addrs`   | `u64`      | 8          | effective address (mem ops only) |
//! | `formats` | `u8`       | 1          | packed [`LoadFormat`] (loads only) |
//!
//! plus a side index of **barrier** entries (`u32` each): the memory
//! operations and the entries that read or rewrite a register whose most
//! recent writer is a load. Only a barrier can stall or touch the memory
//! system — a register is pending only while an outstanding load owns it,
//! so an entry whose registers were all last written by non-loads can
//! never wait ([`TraceTape::barriers`]). Replay exploits this by issuing
//! everything between barriers in bulk.
//!
//! A packed flag plane (one `u64` word per 64 barriers, bit set = memory
//! operation) shadows the barrier index so the replay loop's quiescent
//! scan ([`TraceTape::next_mem_barrier`]) strides over non-memory spans
//! 64 barriers at a time instead of probing bit 31 entry by entry.
//!
//! 13 bytes per dynamic instruction plus 4 per barrier (~40 % of entries
//! on the paper's workload mixes) plus 8 per 64-barrier flag word, laid
//! out so a replay touches each array linearly: ~0.6 MiB for a
//! quick-scale (~40 k instruction) run and ~6 MiB for a full-scale
//! (~400 k) one — see [`TraceTape::bytes`] and DESIGN.md §12 for the
//! footprint bounds.
//!
//! The tape is itself an [`InstSink`], so recording is just running the
//! executor once into it ([`TraceTape::record`]); `nbl-sim` caches the
//! result per `(benchmark, latency, fingerprint)` and replays it through
//! the processor models for every grid point.

use crate::exec::Executor;
use crate::machine::{CompiledProgram, InstSink};
use nbl_core::inst::{DynInst, DynKind};
use nbl_core::types::{AccessSize, Addr, LoadFormat, PhysReg};

/// Versioned, checksummed binary (de)serialization of tapes — the byte
/// format the artifact store persists (DESIGN.md §16).
pub mod io;

/// Dense register encoding for "no register".
const REG_NONE: u8 = u8::MAX;

/// Bit 31 of a barrier entry: set when the barrier is a memory operation
/// (see [`TraceTape::barriers`]). Instruction indices stay well below
/// 2³¹, so the top bit is free for the flag the replay loop's quiescent
/// scan needs on every entry — reading it from the packed entry avoids a
/// random-stride lookup into the `kinds` array.
pub const BARRIER_MEM: u32 = 1 << 31;

/// Instruction index of a packed barrier entry.
#[inline]
#[must_use]
pub fn barrier_index(entry: u32) -> usize {
    (entry & !BARRIER_MEM) as usize
}

/// `true` if a packed barrier entry is a memory operation.
#[inline]
#[must_use]
pub fn barrier_is_mem(entry: u32) -> bool {
    entry & BARRIER_MEM != 0
}

/// What one tape entry does. One byte per entry; the split of
/// [`DynKind::Alu`] into `Alu` (has a destination) and `Branch` (none)
/// keeps the destination array sentinel-free on the hot load path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeKind {
    /// Single-cycle computation writing a destination register.
    Alu = 0,
    /// Branch / compare: single-cycle, no destination.
    Branch = 1,
    /// Load: reads `addrs[i]`, writes `dsts[i]`, format in `formats[i]`.
    Load = 2,
    /// Store: writes memory at `addrs[i]`.
    Store = 3,
}

/// One memory operation of a tape, as yielded by [`TraceTape::mem_ops`]:
/// the flattened (instruction index, kind, address) triple the static
/// cache oracle classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Position of the instruction in the tape.
    pub index: usize,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// Effective byte address.
    pub addr: Addr,
}

#[inline]
fn pack_reg(r: Option<PhysReg>) -> u8 {
    r.map_or(REG_NONE, |r| r.dense_index() as u8)
}

/// Bitmap bit of a packed register (`0` for the `REG_NONE` sentinel — the
/// 64 dense register indices all fit a `u64`).
#[inline]
fn reg_bit(packed: u8) -> u64 {
    if packed == REG_NONE {
        0
    } else {
        1u64 << packed
    }
}

#[inline]
fn unpack_reg(b: u8) -> Option<PhysReg> {
    (b != REG_NONE).then(|| PhysReg::from_dense(b as usize))
}

#[inline]
fn pack_format(f: LoadFormat) -> u8 {
    let size = match f.size {
        AccessSize::B1 => 0u8,
        AccessSize::B2 => 1,
        AccessSize::B4 => 2,
        AccessSize::B8 => 3,
    };
    size | (u8::from(f.sign_extend) << 2)
}

#[inline]
fn unpack_format(b: u8) -> LoadFormat {
    let size = match b & 0b11 {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    };
    LoadFormat {
        size,
        sign_extend: b & 0b100 != 0,
    }
}

/// A recorded dynamic instruction stream in struct-of-arrays form. See the
/// module docs for the encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTape {
    name: String,
    load_latency: u32,
    static_spill_ops: usize,
    kinds: Vec<TapeKind>,
    dsts: Vec<u8>,
    srcs: Vec<[u8; 2]>,
    addrs: Vec<u64>,
    formats: Vec<u8>,
    barriers: Vec<u32>,
    /// Packed flag plane over barrier *positions*: bit `k` of word `w` is
    /// set when `barriers[w * 64 + k]` is a memory operation. Redundant
    /// with bit 31 of each barrier entry, but laid out so the replay
    /// loop's quiescent scan ([`TraceTape::next_mem_barrier`]) advances
    /// in 64-barrier strides instead of probing entries one at a time.
    mem_flags: Vec<u64>,
    /// Bitmap of registers whose most recent writer (so far) is a load —
    /// recording state for the barrier computation in [`TraceTape::push`].
    load_written: u64,
    loads: u64,
    stores: u64,
}

impl TraceTape {
    /// An empty tape with the given identity and reserved capacity.
    pub fn with_capacity(
        name: &str,
        load_latency: u32,
        static_spill_ops: usize,
        capacity: usize,
    ) -> TraceTape {
        TraceTape {
            name: name.to_string(),
            load_latency,
            static_spill_ops,
            kinds: Vec::with_capacity(capacity),
            dsts: Vec::with_capacity(capacity),
            srcs: Vec::with_capacity(capacity),
            addrs: Vec::with_capacity(capacity),
            formats: Vec::with_capacity(capacity),
            barriers: Vec::new(),
            mem_flags: Vec::new(),
            load_written: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Records `compiled` by running the executor once into a fresh tape.
    /// The stream is bit-identical to what any processor-backed sink would
    /// have received — the tape just stores it instead of timing it.
    pub fn record(compiled: &CompiledProgram) -> TraceTape {
        let capacity = usize::try_from(compiled.dynamic_instructions()).unwrap_or(0);
        let mut tape = TraceTape::with_capacity(
            &compiled.name,
            compiled.load_latency,
            compiled.blocks.iter().map(|b| b.spill_ops).sum(),
            capacity,
        );
        Executor::new(compiled).run(&mut tape);
        debug_assert_eq!(tape.len() as u64, compiled.dynamic_instructions());
        tape.barriers.shrink_to_fit();
        tape.mem_flags.shrink_to_fit();
        tape
    }

    /// Appends one instruction (the [`InstSink`] implementation calls this).
    ///
    /// Besides the packed arrays this maintains the barrier index: the
    /// entry is a barrier when it is a memory operation, or when any of
    /// its registers (sources or destination) was most recently written
    /// by a load — the only way a register can be pending when the entry
    /// issues. The "most recent writer is a load" bitmap is then updated
    /// for the entry's own destination: a load sets its bit, an ALU write
    /// clears it, branches and stores write no register.
    pub fn push(&mut self, inst: DynInst) {
        let (kind, dst, addr, format) = match inst.kind {
            DynKind::Load { addr, dst, format } => {
                self.loads += 1;
                (TapeKind::Load, Some(dst), addr.0, pack_format(format))
            }
            DynKind::Store { addr } => {
                self.stores += 1;
                (TapeKind::Store, None, addr.0, 0)
            }
            DynKind::Alu { dst: Some(dst) } => (TapeKind::Alu, Some(dst), 0, 0),
            DynKind::Alu { dst: None } => (TapeKind::Branch, None, 0, 0),
        };
        let d = pack_reg(dst);
        let [s0, s1] = [pack_reg(inst.srcs[0]), pack_reg(inst.srcs[1])];
        let is_mem = matches!(kind, TapeKind::Load | TapeKind::Store);
        if is_mem || (reg_bit(d) | reg_bit(s0) | reg_bit(s1)) & self.load_written != 0 {
            let slot = self.barriers.len();
            if slot.is_multiple_of(64) {
                self.mem_flags.push(0);
            }
            if is_mem {
                self.mem_flags[slot / 64] |= 1u64 << (slot % 64);
            }
            let flag = if is_mem { BARRIER_MEM } else { 0 };
            self.barriers.push(self.kinds.len() as u32 | flag);
        }
        match kind {
            TapeKind::Load => self.load_written |= reg_bit(d),
            TapeKind::Alu => self.load_written &= !reg_bit(d),
            TapeKind::Branch | TapeKind::Store => {}
        }
        self.kinds.push(kind);
        self.dsts.push(d);
        self.srcs.push([s0, s1]);
        self.addrs.push(addr);
        self.formats.push(format);
    }

    /// Benchmark name the tape was recorded from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scheduled load latency the recorded program was compiled for.
    pub fn load_latency(&self) -> u32 {
        self.load_latency
    }

    /// Spill memory operations the compiler added, per static program
    /// (carried so replay can build a full `RunResult` without the
    /// [`CompiledProgram`]).
    pub fn static_spill_ops(&self) -> usize {
        self.static_spill_ops
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Loads recorded.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores recorded.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Heap footprint of the instruction arrays, in bytes (13 per entry
    /// plus 4 per barrier plus 8 per 64-barrier flag word; the instruction
    /// `Vec`s reserve exact capacity at record time via
    /// [`CompiledProgram::dynamic_instructions`], and [`TraceTape::record`]
    /// shrinks the barrier index and flag plane when done).
    pub fn bytes(&self) -> usize {
        self.kinds.capacity()
            + self.dsts.capacity()
            + self.srcs.capacity() * 2
            + self.addrs.capacity() * 8
            + self.formats.capacity()
            + self.barriers.capacity() * 4
            + self.mem_flags.capacity() * 8
    }

    /// Kind of entry `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> TapeKind {
        self.kinds[i]
    }

    /// Effective address of entry `i` (meaningful for memory operations).
    #[inline]
    pub fn addr(&self, i: usize) -> Addr {
        Addr(self.addrs[i])
    }

    /// Destination register of entry `i`, if it writes one.
    #[inline]
    pub fn dst(&self, i: usize) -> Option<PhysReg> {
        unpack_reg(self.dsts[i])
    }

    /// Source registers of entry `i` (positional, as recorded).
    #[inline]
    pub fn srcs(&self, i: usize) -> [Option<PhysReg>; 2] {
        let [a, b] = self.srcs[i];
        [unpack_reg(a), unpack_reg(b)]
    }

    /// Load format of entry `i` (meaningful for loads).
    #[inline]
    pub fn format(&self, i: usize) -> LoadFormat {
        unpack_format(self.formats[i])
    }

    /// `true` if entry `i` is a memory operation.
    #[inline]
    pub fn is_mem(&self, i: usize) -> bool {
        matches!(self.kinds[i], TapeKind::Load | TapeKind::Store)
    }

    /// Walks the tape's memory operations in program order: one
    /// [`MemOp`] per load or store, carrying the instruction index and
    /// effective address. This is the walk API the static cache oracle
    /// consumes — its classification vector and the simulator's
    /// `AccessOutcome` log both index accesses in this order, so the
    /// *n*-th item here lines up with the *n*-th resolved outcome.
    #[inline]
    pub fn mem_ops(&self) -> impl Iterator<Item = MemOp> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(move |(i, &k)| match k {
                TapeKind::Load => Some(MemOp {
                    index: i,
                    is_store: false,
                    addr: Addr(self.addrs[i]),
                }),
                TapeKind::Store => Some(MemOp {
                    index: i,
                    is_store: true,
                    addr: Addr(self.addrs[i]),
                }),
                TapeKind::Alu | TapeKind::Branch => None,
            })
    }

    /// The barrier entries, in ascending instruction order: the memory
    /// operations plus every entry that reads or rewrites a register
    /// whose most recent writer is a load. A register is pending only
    /// while the load that last wrote it is outstanding, so entries *not*
    /// in this index can never stall and never touch the memory system —
    /// the replay loop issues the gaps between barriers in bulk (one
    /// instruction, one cycle each) and runs the full
    /// drain/hazard/execute machinery only at the barriers themselves.
    ///
    /// Each entry packs the instruction index in its low 31 bits
    /// ([`barrier_index`]) and the memory-operation flag in bit 31
    /// ([`barrier_is_mem`], [`BARRIER_MEM`]), so the replay loop's
    /// quiescent scan classifies a barrier without touching the `kinds`
    /// array.
    #[inline]
    pub fn barriers(&self) -> &[u32] {
        &self.barriers
    }

    /// Index (into [`TraceTape::barriers`]) of the first barrier at or
    /// after `from` that is a memory operation, or `barriers().len()` when
    /// none remains.
    ///
    /// This is the vectorized form of the scalar scan
    /// `while from < n && !barrier_is_mem(barriers[from]) { from += 1 }`:
    /// it reads the packed flag plane in `u64` words, so a span of
    /// non-memory barriers is skipped 64 entries per iteration instead of
    /// one. The replay loop leans on this whenever the engine is
    /// quiescent — every barrier until the next memory operation then
    /// bulk-issues, and the scan is the only per-entry work left.
    #[inline]
    #[must_use]
    pub fn next_mem_barrier(&self, from: usize) -> usize {
        let n = self.barriers.len();
        if from >= n {
            return n;
        }
        let mut word = from / 64;
        let mut bits = self.mem_flags[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            if word >= self.mem_flags.len() {
                return n;
            }
            bits = self.mem_flags[word];
        }
        // A set bit only ever marks a real barrier slot, so the result is
        // in bounds by construction.
        word * 64 + bits.trailing_zeros() as usize
    }

    /// `true` if entry `j` reads or rewrites the register entry `i` writes
    /// — [`DynInst::conflicts_with`] evaluated on the packed encoding (a
    /// byte compare against the `0xff` sentinel, no decode).
    #[inline]
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        let d = self.dsts[i];
        if d == REG_NONE {
            return false;
        }
        let [s0, s1] = self.srcs[j];
        s0 == d || s1 == d || self.dsts[j] == d
    }

    /// Reconstructs entry `i` as a [`DynInst`].
    pub fn get(&self, i: usize) -> DynInst {
        let srcs = self.srcs(i);
        let kind = match self.kinds[i] {
            TapeKind::Alu => DynKind::Alu { dst: self.dst(i) },
            TapeKind::Branch => DynKind::Alu { dst: None },
            TapeKind::Load => DynKind::Load {
                addr: self.addr(i),
                // nbl-allow(no-panic): InstSink::record stores a dst for every load
                dst: self.dst(i).expect("loads always record a destination"),
                format: self.format(i),
            },
            TapeKind::Store => DynKind::Store { addr: self.addr(i) },
        };
        DynInst { srcs, kind }
    }

    /// Iterates the tape as reconstructed [`DynInst`]s (for consumers that
    /// need owned instructions, e.g. the dual-issue pairing buffer; the
    /// single-issue replay loop reads the arrays directly instead).
    pub fn iter(&self) -> impl Iterator<Item = DynInst> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl InstSink for TraceTape {
    #[inline]
    fn exec(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

/// Property suite for the chunked mem-barrier scan, gated behind the
/// off-by-default `scan-prop` feature (run with
/// `cargo test -p nbl-trace --features scan-prop`). Uses the in-tree
/// [`SplitMix64`](nbl_core::rng::SplitMix64) so the cases are
/// deterministic and the workspace stays dependency-free.
#[cfg(all(test, feature = "scan-prop"))]
mod scan_prop {
    use super::*;
    use nbl_core::rng::SplitMix64;

    fn scalar_next_mem_barrier(tape: &TraceTape, mut from: usize) -> usize {
        let barriers = tape.barriers();
        while from < barriers.len() && !barrier_is_mem(barriers[from]) {
            from += 1;
        }
        from
    }

    fn check_all_starts(tape: &TraceTape, label: &str) {
        for from in 0..=tape.barriers().len() + 65 {
            assert_eq!(
                tape.next_mem_barrier(from),
                scalar_next_mem_barrier(tape, from.min(tape.barriers().len())),
                "{label}: scan diverged at start {from}"
            );
        }
    }

    /// One random instruction; `mem_bias`/1000 is the memory-op rate, so
    /// seeds can steer tapes toward all-mem, no-mem or mixed layouts.
    fn random_inst(rng: &mut SplitMix64, mem_bias: u64) -> DynInst {
        let reg = |rng: &mut SplitMix64| PhysReg::from_dense(rng.next_below(64) as usize);
        let maybe_reg = |rng: &mut SplitMix64| {
            if rng.next_below(2) == 0 {
                None
            } else {
                Some(reg(rng))
            }
        };
        if rng.next_below(1000) < mem_bias {
            if rng.next_below(2) == 0 {
                DynInst::load(Addr(rng.next_below(1 << 20)), reg(rng), LoadFormat::WORD)
            } else {
                DynInst::store(Addr(rng.next_below(1 << 20)), maybe_reg(rng))
            }
        } else if rng.next_below(4) == 0 {
            DynInst::branch([maybe_reg(rng), maybe_reg(rng)])
        } else {
            DynInst::alu(reg(rng), [maybe_reg(rng), maybe_reg(rng)])
        }
    }

    #[test]
    fn chunked_scan_agrees_with_scalar_on_random_layouts() {
        let mut rng = SplitMix64::new(0x5ca9);
        // Mixed rates, including all-mem (1000) and no-mem (0) spans, and
        // lengths chosen to land both short of and straddling word
        // boundaries (tail-word coverage).
        for &mem_bias in &[0, 15, 120, 500, 930, 1000] {
            for case in 0..24 {
                let len = 1 + rng.next_below(400) as usize;
                let mut tape = TraceTape::with_capacity("prop", 1, 0, len);
                for _ in 0..len {
                    let inst = random_inst(&mut rng, mem_bias);
                    tape.push(inst);
                }
                check_all_starts(&tape, &format!("bias {mem_bias} case {case}"));
            }
        }
    }

    #[test]
    fn chunked_scan_handles_exact_word_multiples() {
        let mut rng = SplitMix64::new(0xb0b);
        // Exactly 64 and 128 barriers: the tail word is full, exercising
        // the word-boundary exit paths.
        for &barriers_wanted in &[64usize, 128] {
            let mut tape = TraceTape::with_capacity("prop", 1, 0, barriers_wanted);
            while tape.barriers().len() < barriers_wanted {
                let inst = random_inst(&mut rng, 700);
                tape.push(inst);
            }
            check_all_starts(&tape, &format!("{barriers_wanted} barriers"));
        }
    }

    #[test]
    fn empty_tape_scan_is_a_no_op() {
        let tape = TraceTape::with_capacity("prop", 1, 0, 0);
        assert_eq!(tape.next_mem_barrier(0), 0);
        assert_eq!(tape.next_mem_barrier(10), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AddrPattern, BlockId, PatternId, ScriptNode};
    use crate::machine::{MachineBlock, MachineOp};

    /// A program exercising every pattern kind and op shape: a chase load,
    /// a strided store, a gather load, ALU and branch — looped so the
    /// pattern states advance through wrap-around and re-seeding.
    fn exercise_program() -> CompiledProgram {
        CompiledProgram {
            name: "exercise".into(),
            load_latency: 6,
            patterns: vec![
                AddrPattern::Chase {
                    base: 0x1_0000,
                    node_bytes: 32,
                    nodes: 16,
                    field_offset: 8,
                    seed: 5,
                },
                AddrPattern::Strided {
                    base: 0x2_0000,
                    elem_bytes: 8,
                    stride: 3,
                    length: 7,
                },
                AddrPattern::Gather {
                    base: 0x3_0000,
                    elem_bytes: 4,
                    length: 50,
                    seed: 11,
                },
            ],
            blocks: vec![MachineBlock {
                ops: vec![
                    MachineOp::Load {
                        dst: PhysReg::int(1),
                        pattern: PatternId(0),
                        format: LoadFormat::DOUBLE,
                        addr_src: Some(PhysReg::int(1)),
                    },
                    MachineOp::Alu {
                        dst: PhysReg::fp(2),
                        srcs: [Some(PhysReg::int(1)), Some(PhysReg::fp(3))],
                    },
                    MachineOp::Store {
                        pattern: PatternId(1),
                        data: Some(PhysReg::fp(2)),
                        addr_src: None,
                    },
                    MachineOp::Load {
                        dst: PhysReg::int(4),
                        pattern: PatternId(2),
                        format: LoadFormat {
                            size: AccessSize::B2,
                            sign_extend: true,
                        },
                        addr_src: None,
                    },
                    MachineOp::Branch {
                        srcs: [Some(PhysReg::int(4)), None],
                    },
                ],
                spill_ops: 3,
            }],
            script: vec![ScriptNode::Loop {
                body: vec![ScriptNode::Run {
                    block: BlockId(0),
                    times: 4,
                }],
                trips: 25,
            }],
        }
    }

    #[test]
    fn recorded_tape_matches_the_executor_stream_exactly() {
        let c = exercise_program();
        let mut interpreted: Vec<DynInst> = Vec::new();
        Executor::new(&c).run(&mut interpreted);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len(), interpreted.len());
        assert_eq!(tape.len() as u64, c.dynamic_instructions());
        let replayed: Vec<DynInst> = tape.iter().collect();
        assert_eq!(replayed, interpreted, "streams must be identical");
    }

    #[test]
    fn mem_ops_projects_exactly_the_memory_stream() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        let ops: Vec<MemOp> = tape.mem_ops().collect();
        assert_eq!(ops.len() as u64, tape.loads() + tape.stores());
        // Every projected op points back at a matching tape entry, in
        // strictly increasing instruction order.
        let mut last = None;
        for op in &ops {
            assert!(last.is_none_or(|l| op.index > l), "indices must ascend");
            last = Some(op.index);
            match tape.kind(op.index) {
                TapeKind::Load => assert!(!op.is_store),
                TapeKind::Store => assert!(op.is_store),
                other => panic!("mem_ops yielded a {other:?}"),
            }
            assert_eq!(op.addr, tape.addr(op.index));
        }
    }

    #[test]
    fn identity_and_counts_come_from_the_program() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        assert_eq!(tape.name(), "exercise");
        assert_eq!(tape.load_latency(), 6);
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads);
        assert_eq!(tape.stores(), stores);
        assert_eq!(tape.static_spill_ops(), 3);
    }

    #[test]
    fn footprint_is_thirteen_bytes_per_instruction_plus_barriers() {
        let tape = TraceTape::record(&exercise_program());
        let flag_words = tape.barriers().len().div_ceil(64);
        assert_eq!(
            tape.bytes(),
            tape.len() * 13 + tape.barriers().len() * 4 + flag_words * 8
        );
        assert!(!tape.is_empty());
    }

    /// Scalar reference for [`TraceTape::next_mem_barrier`]: the per-entry
    /// bit-31 probe the chunked scan replaced.
    fn scalar_next_mem_barrier(tape: &TraceTape, mut from: usize) -> usize {
        let barriers = tape.barriers();
        while from < barriers.len() && !barrier_is_mem(barriers[from]) {
            from += 1;
        }
        from
    }

    #[test]
    fn chunked_mem_scan_matches_scalar_probe_on_a_recorded_tape() {
        let tape = TraceTape::record(&exercise_program());
        assert!(tape.barriers().len() > 64, "needs a multi-word flag plane");
        for from in 0..=tape.barriers().len() + 2 {
            assert_eq!(
                tape.next_mem_barrier(from),
                scalar_next_mem_barrier(&tape, from.min(tape.barriers().len())),
                "scan diverged at {from}"
            );
        }
    }

    #[test]
    fn barriers_cover_exactly_the_entries_that_can_stall() {
        let tape = TraceTape::record(&exercise_program());
        // Reference computation: walk the stream tracking which registers
        // were most recently written by a load.
        let mut loadw: u64 = 0;
        let mut expected = Vec::new();
        for (i, inst) in tape.iter().enumerate() {
            let touches_loadw = inst
                .srcs
                .iter()
                .copied()
                .chain([inst.dst()])
                .flatten()
                .any(|r| loadw & (1u64 << r.dense_index()) != 0);
            if inst.is_mem() || touches_loadw {
                expected.push(i as u32 | if inst.is_mem() { BARRIER_MEM } else { 0 });
            }
            if let Some(d) = inst.dst() {
                match inst.kind {
                    DynKind::Load { .. } => loadw |= 1u64 << d.dense_index(),
                    DynKind::Alu { .. } => loadw &= !(1u64 << d.dense_index()),
                    DynKind::Store { .. } => unreachable!("stores write no register"),
                }
            }
        }
        assert_eq!(tape.barriers(), expected.as_slice());
        // Every memory operation must be a barrier, flagged as one.
        let mem_barriers: Vec<usize> = tape
            .barriers()
            .iter()
            .filter(|&&e| barrier_is_mem(e))
            .map(|&e| barrier_index(e))
            .collect();
        let mem_entries: Vec<usize> = (0..tape.len()).filter(|&i| tape.is_mem(i)).collect();
        assert_eq!(mem_barriers, mem_entries);
    }

    #[test]
    fn alu_rewrite_retires_a_load_written_register() {
        let mut tape = TraceTape::with_capacity("t", 1, 0, 8);
        let (r1, r2, r3) = (PhysReg::int(1), PhysReg::int(2), PhysReg::int(3));
        // ALU chain touching no load results: no barriers.
        tape.push(DynInst::alu(r2, [None, None]));
        tape.push(DynInst::alu(r3, [Some(r2), None]));
        // A load, a consumer, a WAW rewrite: all barriers.
        tape.push(DynInst::load(Addr(0x100), r1, LoadFormat::WORD));
        tape.push(DynInst::alu(r2, [Some(r1), None]));
        tape.push(DynInst::alu(r1, [None, None]));
        // r1 now ALU-owned again: reading it is no barrier.
        tape.push(DynInst::alu(r3, [Some(r1), None]));
        assert_eq!(tape.barriers(), &[2 | BARRIER_MEM, 3, 4]);
    }

    #[test]
    fn format_packing_round_trips() {
        for size in [
            AccessSize::B1,
            AccessSize::B2,
            AccessSize::B4,
            AccessSize::B8,
        ] {
            for sign_extend in [false, true] {
                let f = LoadFormat { size, sign_extend };
                assert_eq!(unpack_format(pack_format(f)), f);
            }
        }
    }

    #[test]
    fn register_packing_round_trips() {
        assert_eq!(unpack_reg(pack_reg(None)), None);
        for dense in 0..64 {
            let r = PhysReg::from_dense(dense);
            assert_eq!(unpack_reg(pack_reg(Some(r))), Some(r));
        }
    }

    #[test]
    fn packed_conflict_check_matches_dyninst() {
        let tape = TraceTape::record(&exercise_program());
        for i in 0..tape.len() - 1 {
            let (a, b) = (tape.get(i), tape.get(i + 1));
            assert_eq!(
                tape.conflicts(i, i + 1),
                a.conflicts_with(&b),
                "entry {i}: packed conflict check must agree"
            );
            assert_eq!(tape.is_mem(i), a.is_mem());
        }
        // The exercise block contains both a true conflict (load feeding
        // the ALU) and a non-conflict (store then gather load).
        assert!(tape.conflicts(0, 1));
        assert!(!tape.conflicts(2, 3));
    }

    #[test]
    fn per_entry_accessors_agree_with_reconstruction() {
        let tape = TraceTape::record(&exercise_program());
        for i in 0..tape.len() {
            let inst = tape.get(i);
            assert_eq!(tape.dst(i), inst.dst());
            assert_eq!(tape.srcs(i), inst.srcs);
            match inst.kind {
                DynKind::Load { addr, format, .. } => {
                    assert_eq!(tape.kind(i), TapeKind::Load);
                    assert_eq!(tape.addr(i), addr);
                    assert_eq!(tape.format(i), format);
                }
                DynKind::Store { addr } => {
                    assert_eq!(tape.kind(i), TapeKind::Store);
                    assert_eq!(tape.addr(i), addr);
                }
                DynKind::Alu { dst: Some(_) } => assert_eq!(tape.kind(i), TapeKind::Alu),
                DynKind::Alu { dst: None } => assert_eq!(tape.kind(i), TapeKind::Branch),
            }
        }
    }
}
