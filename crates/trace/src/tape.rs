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
//! encoding that replays with nothing but sequential array reads. Three
//! arrays run per instruction:
//!
//! | array   | type      | bytes/inst | contents                                  |
//! |---------|-----------|------------|-------------------------------------------|
//! | `kinds` | `u8`      | 1          | [`TapeKind`] in bits 0–1, packed [`LoadFormat`] in bits 2–4 (loads only) |
//! | `dsts`  | `u8`      | 1          | dense register index, `0xff` = none       |
//! | `srcs`  | `[u8; 2]` | 2          | dense register indices, `0xff` = none     |
//!
//! Effective addresses live apart, in one dense `u64` array in
//! memory-operation order: the *k*-th address belongs to the *k*-th load
//! or store. Nothing indexes it by instruction; replay reads it through an
//! [`AddrCursor`] that advances once per memory barrier, in program
//! order — exactly the memory-access sequence the static cache oracle
//! consumes ([`TraceTape::mem_ops`]).
//!
//! A side index of **barrier** entries (`u32` each) lists the memory
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
//! The footprint is 4 bytes per dynamic instruction, plus 8 per memory
//! operation (~26 % of entries on the paper's workload mixes), plus 4 per
//! barrier (~46 %), plus 8 per 64-barrier flag word — about 8 bytes per
//! instruction in all, laid out so a replay touches each array linearly:
//! ~0.3 MiB for a quick-scale (~40 k instruction) run and ~3 MiB for a
//! full-scale (~400 k) one. [`TraceTape::bytes`] and the codec share the
//! arithmetic; DESIGN.md §12 gives the measured bounds.
//!
//! The tape is itself an [`InstSink`], so recording is just running the
//! executor once into it ([`TraceTape::record`]). A tape carries no load
//! latency: scheduled latencies past a block's slack compile to the same
//! schedule and so record the same stream, and `nbl-sim` keeps one tape
//! per `(benchmark, schedule fingerprint)`, replayed through the processor
//! models for every grid point of every latency that shares it.

use crate::exec::Executor;
use crate::machine::{CompiledProgram, InstSink};
use nbl_core::inst::{DynInst, DynKind};
use nbl_core::types::{AccessSize, Addr, LoadFormat, PhysReg};

/// Versioned, checksummed binary (de)serialization of tapes — the byte
/// format the artifact store persists (DESIGN.md §16).
pub mod io;

/// Dense register encoding for "no register".
const REG_NONE: u8 = u8::MAX;

/// Bits of a kind byte holding the [`TapeKind`].
const KIND_MASK: u8 = 0b11;

/// Shift of the packed [`LoadFormat`] within a load's kind byte.
const FORMAT_SHIFT: u32 = 2;

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

/// Bytes of a tape's arrays for `insts` entries, `mem_ops` memory
/// operations, `barriers` barriers and `flag_words` flag-plane words:
/// 4 per instruction (kind, destination, two sources), 8 per memory
/// operation (its address), 4 per barrier, 8 per flag word. `None` on
/// overflow. [`TraceTape::bytes`] and the codec's artifact length both
/// use this one formula.
pub(crate) fn layout_bytes(
    insts: usize,
    mem_ops: usize,
    barriers: usize,
    flag_words: usize,
) -> Option<usize> {
    insts
        .checked_mul(4)?
        .checked_add(mem_ops.checked_mul(8)?)?
        .checked_add(barriers.checked_mul(4)?)?
        .checked_add(flag_words.checked_mul(8)?)
}

/// What one tape entry does: bits 0–1 of its kind byte. The split of
/// [`DynKind::Alu`] into `Alu` (has a destination) and `Branch` (none)
/// keeps the destination array sentinel-free on the hot load path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeKind {
    /// Single-cycle computation writing a destination register.
    Alu = 0,
    /// Branch / compare: single-cycle, no destination.
    Branch = 1,
    /// Load: reads the next address, writes `dsts[i]`, format in bits
    /// 2–4 of its kind byte.
    Load = 2,
    /// Store: writes memory at the next address.
    Store = 3,
}

impl TapeKind {
    /// The kind a kind byte carries in its low two bits.
    #[inline]
    fn of(byte: u8) -> TapeKind {
        match byte & KIND_MASK {
            0 => TapeKind::Alu,
            1 => TapeKind::Branch,
            2 => TapeKind::Load,
            _ => TapeKind::Store,
        }
    }
}

/// `true` if a kind byte is a load or a store (kinds 2 and 3 share bit 1).
#[inline]
fn is_mem_byte(byte: u8) -> bool {
    byte & 0b10 != 0
}

/// `true` if `byte` is a kind byte [`TraceTape::push`] can write: format
/// bits only on a load, the top three bits always clear. Keeping the
/// encoding canonical keeps "equal tapes" and "equal bytes" one relation.
#[inline]
fn is_canonical_kind(byte: u8) -> bool {
    let rest = byte >> FORMAT_SHIFT;
    (rest == 0) | ((byte & KIND_MASK == TapeKind::Load as u8) & (rest < 0b1000))
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

/// A read position in a tape's dense address array
/// ([`TraceTape::addr_cursor`]). It yields the effective address of each
/// memory operation in program order; a replay loop takes one address
/// per memory barrier it executes, so the cursor and the barrier walk
/// stay in step without ever indexing addresses by instruction. A cursor
/// that runs dry before the walk ends yields `None`, which replay reports
/// as a malformed tape.
#[derive(Debug, Clone)]
pub struct AddrCursor<'a> {
    rest: std::slice::Iter<'a, u64>,
}

impl AddrCursor<'_> {
    /// The next address if `is_mem`, else `None` without advancing — one
    /// call per executed entry keeps the cursor in step with the walk.
    #[inline]
    pub fn step(&mut self, is_mem: bool) -> Option<Addr> {
        if is_mem {
            self.next()
        } else {
            None
        }
    }

    /// `true` once every address has been consumed — where a full replay
    /// of the tape must leave its cursor.
    #[inline]
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.rest.as_slice().is_empty()
    }
}

impl Iterator for AddrCursor<'_> {
    type Item = Addr;

    #[inline]
    fn next(&mut self) -> Option<Addr> {
        self.rest.next().map(|&a| Addr(a))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rest.size_hint()
    }
}

impl ExactSizeIterator for AddrCursor<'_> {}

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

/// `true` if `b` is a register byte [`unpack_reg`] accepts: the sentinel
/// or one of the 64 dense register indices.
#[inline]
fn is_valid_reg(b: u8) -> bool {
    (b == REG_NONE) | (b < 64)
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
    static_spill_ops: usize,
    /// One byte per entry: [`TapeKind`] in bits 0–1, a load's packed
    /// [`LoadFormat`] in bits 2–4.
    kinds: Vec<u8>,
    dsts: Vec<u8>,
    srcs: Vec<[u8; 2]>,
    /// Effective addresses of the memory operations, in program order.
    addrs: Vec<u64>,
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
    /// An empty tape with the given identity and room for `capacity`
    /// instructions (the address array grows as memory operations arrive).
    pub fn with_capacity(name: &str, static_spill_ops: usize, capacity: usize) -> TraceTape {
        TraceTape {
            name: name.to_string(),
            static_spill_ops,
            kinds: Vec::with_capacity(capacity),
            dsts: Vec::with_capacity(capacity),
            srcs: Vec::with_capacity(capacity),
            addrs: Vec::new(),
            barriers: Vec::new(),
            mem_flags: Vec::new(),
            load_written: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Records `compiled` by running the executor once into a fresh tape.
    /// The stream is bit-identical to what any processor-backed sink would
    /// have received — the tape just stores it instead of timing it. The
    /// instruction arrays and the address array are reserved exactly from
    /// [`CompiledProgram::dynamic_mix`].
    pub fn record(compiled: &CompiledProgram) -> TraceTape {
        let (loads, stores, other) = compiled.dynamic_mix();
        let count = |n: u64| usize::try_from(n).unwrap_or(0);
        let mut tape = TraceTape::with_capacity(
            &compiled.name,
            compiled.blocks.iter().map(|b| b.spill_ops).sum(),
            count(loads + stores + other),
        );
        tape.addrs.reserve_exact(count(loads + stores));
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
        let (kind, dst) = match inst.kind {
            DynKind::Load { addr, dst, format } => {
                self.loads += 1;
                self.addrs.push(addr.0);
                (
                    TapeKind::Load as u8 | pack_format(format) << FORMAT_SHIFT,
                    Some(dst),
                )
            }
            DynKind::Store { addr } => {
                self.stores += 1;
                self.addrs.push(addr.0);
                (TapeKind::Store as u8, None)
            }
            DynKind::Alu { dst: Some(dst) } => (TapeKind::Alu as u8, Some(dst)),
            DynKind::Alu { dst: None } => (TapeKind::Branch as u8, None),
        };
        let d = pack_reg(dst);
        let [s0, s1] = [pack_reg(inst.srcs[0]), pack_reg(inst.srcs[1])];
        let is_mem = is_mem_byte(kind);
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
        match TapeKind::of(kind) {
            TapeKind::Load => self.load_written |= reg_bit(d),
            TapeKind::Alu => self.load_written &= !reg_bit(d),
            TapeKind::Branch | TapeKind::Store => {}
        }
        self.kinds.push(kind);
        self.dsts.push(d);
        self.srcs.push([s0, s1]);
    }

    /// Benchmark name the tape was recorded from.
    pub fn name(&self) -> &str {
        &self.name
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

    /// Length of the dense address array: one address per memory
    /// operation, so `loads() + stores()`.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// Bytes the tape's arrays hold: 4 per entry, plus 8 per memory
    /// operation, plus 4 per barrier, plus 8 per 64-barrier flag word —
    /// the same arithmetic the codec sizes an artifact's streams with.
    /// [`TraceTape::record`] and the decoder allocate every array to
    /// exactly its length, so this is also their heap footprint.
    pub fn bytes(&self) -> usize {
        layout_bytes(
            self.len(),
            self.addrs.len(),
            self.barriers.len(),
            self.mem_flags.len(),
        )
        .unwrap_or(usize::MAX)
    }

    /// A cursor at the first address of the dense address array.
    #[inline]
    pub fn addr_cursor(&self) -> AddrCursor<'_> {
        AddrCursor {
            rest: self.addrs.iter(),
        }
    }

    /// Kind of entry `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> TapeKind {
        TapeKind::of(self.kinds[i])
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

    /// Load format of entry `i` (meaningful for loads), from bits 2–4 of
    /// its kind byte.
    #[inline]
    pub fn format(&self, i: usize) -> LoadFormat {
        unpack_format(self.kinds[i] >> FORMAT_SHIFT)
    }

    /// `true` if entry `i` is a memory operation.
    #[inline]
    pub fn is_mem(&self, i: usize) -> bool {
        is_mem_byte(self.kinds[i])
    }

    /// Walks the tape's memory operations in program order: one
    /// [`MemOp`] per load or store, carrying the instruction index and
    /// effective address. This is the walk API the static cache oracle
    /// consumes — its classification vector and the simulator's
    /// `AccessOutcome` log both index accesses in this order, so the
    /// *n*-th item here lines up with the *n*-th resolved outcome. The
    /// addresses come from the dense array in order, paired with the
    /// memory entries of the kind stream.
    #[inline]
    pub fn mem_ops(&self) -> impl Iterator<Item = MemOp> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(|&(_, &k)| is_mem_byte(k))
            .zip(self.addr_cursor())
            .map(|((index, &k), addr)| MemOp {
                index,
                is_store: TapeKind::of(k) == TapeKind::Store,
                addr,
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

    /// Reconstructs entry `i` as a [`DynInst`], taking its address (if it
    /// is a memory operation) from `addrs`, which must stand at entry
    /// `i`'s place in the address order. `None` if the tape is malformed
    /// there: a load without a destination, or a memory operation with
    /// the cursor run dry.
    pub fn get(&self, i: usize, addrs: &mut AddrCursor<'_>) -> Option<DynInst> {
        let srcs = self.srcs(i);
        let kind = match self.kind(i) {
            TapeKind::Alu => DynKind::Alu { dst: self.dst(i) },
            TapeKind::Branch => DynKind::Alu { dst: None },
            TapeKind::Load => DynKind::Load {
                addr: addrs.next()?,
                dst: self.dst(i)?,
                format: self.format(i),
            },
            TapeKind::Store => DynKind::Store {
                addr: addrs.next()?,
            },
        };
        Some(DynInst { srcs, kind })
    }

    /// Iterates the tape as reconstructed [`DynInst`]s (for consumers that
    /// need owned instructions, e.g. the dual-issue pairing buffer's
    /// push-path fallback; the replay loops read the arrays directly
    /// instead). Walks one address cursor alongside the entries.
    pub fn iter(&self) -> impl Iterator<Item = DynInst> + '_ {
        let mut addrs = self.addr_cursor();
        (0..self.len()).map_while(move |i| self.get(i, &mut addrs))
    }
}

impl InstSink for TraceTape {
    #[inline]
    fn exec(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

/// Reference for [`TraceTape::mem_ops`]: the memory operations of an
/// instruction stream, filtered straight out of it. Shared by the unit
/// tests and both property suites.
#[cfg(test)]
pub(crate) fn reference_mem_ops(stream: &[DynInst]) -> Vec<MemOp> {
    stream
        .iter()
        .enumerate()
        .filter_map(|(index, inst)| match inst.kind {
            DynKind::Load { addr, .. } => Some(MemOp {
                index,
                is_store: false,
                addr,
            }),
            DynKind::Store { addr } => Some(MemOp {
                index,
                is_store: true,
                addr,
            }),
            DynKind::Alu { .. } => None,
        })
        .collect()
}

/// A random load format, so a kind byte's format bits take every value.
#[cfg(all(test, any(feature = "scan-prop", feature = "codec-prop")))]
pub(crate) fn random_format(rng: &mut nbl_core::rng::SplitMix64) -> LoadFormat {
    let size = match rng.next_below(4) {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    };
    LoadFormat {
        size,
        sign_extend: rng.next_below(2) == 1,
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
                DynInst::load(Addr(rng.next_below(1 << 20)), reg(rng), random_format(rng))
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
                let mut tape = TraceTape::with_capacity("prop", 0, len);
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
            let mut tape = TraceTape::with_capacity("prop", 0, barriers_wanted);
            while tape.barriers().len() < barriers_wanted {
                let inst = random_inst(&mut rng, 700);
                tape.push(inst);
            }
            check_all_starts(&tape, &format!("{barriers_wanted} barriers"));
        }
    }

    /// The replay loops' barrier walk reduced to its cursor traffic: at
    /// each step the walk either takes the quiescent stride (straight to
    /// the next memory barrier) or steps one barrier, at random; every
    /// barrier it executes takes [`AddrCursor::step`]. Returns the memory
    /// operations it met, with the address the cursor gave each.
    fn cursor_walk<'t>(tape: &'t TraceTape, rng: &mut SplitMix64) -> (Vec<MemOp>, AddrCursor<'t>) {
        let barriers = tape.barriers();
        let mut addrs = tape.addr_cursor();
        let mut met = Vec::new();
        let mut j = 0;
        while j < barriers.len() {
            if rng.next_below(2) == 0 {
                j = tape.next_mem_barrier(j);
                let Some(&entry) = barriers.get(j) else { break };
                assert!(barrier_is_mem(entry));
            }
            let entry = barriers[j];
            if let Some(addr) = addrs.step(barrier_is_mem(entry)) {
                let index = barrier_index(entry);
                let is_store = tape.kind(index) == TapeKind::Store;
                met.push(MemOp {
                    index,
                    is_store,
                    addr,
                });
            }
            j += 1;
        }
        (met, addrs)
    }

    #[test]
    fn cursor_walks_reproduce_the_pushed_stream() {
        let mut rng = SplitMix64::new(0xc0de_5ca9);
        for &mem_bias in &[0, 15, 120, 500, 930, 1000] {
            for case in 0..24 {
                let len = rng.next_below(400) as usize;
                let mut tape = TraceTape::with_capacity("prop", 0, len);
                let pushed: Vec<DynInst> =
                    (0..len).map(|_| random_inst(&mut rng, mem_bias)).collect();
                for &inst in &pushed {
                    tape.push(inst);
                }
                let label = format!("bias {mem_bias} case {case}");
                let expected = reference_mem_ops(&pushed);
                assert_eq!(tape.iter().collect::<Vec<_>>(), pushed, "{label}: iter");
                assert_eq!(
                    tape.mem_ops().collect::<Vec<_>>(),
                    expected,
                    "{label}: mem_ops"
                );
                // A full walk, whatever mix of strides and single steps it
                // takes, meets every memory operation with its own address
                // and leaves the cursor exactly at the address count.
                let (met, addrs) = cursor_walk(&tape, &mut rng);
                assert_eq!(met, expected, "{label}: cursor walk");
                assert!(addrs.is_drained(), "{label}: addresses left over");
                assert_eq!(tape.addr_count(), expected.len(), "{label}");
            }
        }
    }

    #[test]
    fn empty_tape_scan_is_a_no_op() {
        let tape = TraceTape::with_capacity("prop", 0, 0);
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
        let mut interpreted: Vec<DynInst> = Vec::new();
        Executor::new(&c).run(&mut interpreted);
        let tape = TraceTape::record(&c);
        let ops: Vec<MemOp> = tape.mem_ops().collect();
        assert_eq!(ops.len() as u64, tape.loads() + tape.stores());
        assert_eq!(ops.len(), tape.addr_count());
        assert_eq!(ops, reference_mem_ops(&interpreted));
        // Every projected op points back at a matching tape entry.
        for op in &ops {
            match tape.kind(op.index) {
                TapeKind::Load => assert!(!op.is_store),
                TapeKind::Store => assert!(op.is_store),
                other => panic!("mem_ops yielded a {other:?}"),
            }
        }
    }

    #[test]
    fn identity_and_counts_come_from_the_program() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        assert_eq!(tape.name(), "exercise");
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads);
        assert_eq!(tape.stores(), stores);
        assert_eq!(tape.static_spill_ops(), 3);
    }

    #[test]
    fn footprint_is_four_bytes_per_instruction_plus_addresses_and_barriers() {
        let tape = TraceTape::record(&exercise_program());
        let mem_ops = (tape.loads() + tape.stores()) as usize;
        let flag_words = tape.barriers().len().div_ceil(64);
        assert_eq!(
            tape.bytes(),
            4 * tape.len() + 8 * mem_ops + 4 * tape.barriers().len() + 8 * flag_words
        );
        assert!(!tape.is_empty());
        // Recording reserves every array exactly, so `bytes` is also the
        // heap footprint.
        assert_eq!(tape.kinds.capacity(), tape.len());
        assert_eq!(tape.dsts.capacity(), tape.len());
        assert_eq!(tape.srcs.capacity(), tape.len());
        assert_eq!(tape.addrs.capacity(), mem_ops);
        assert_eq!(tape.barriers.capacity(), tape.barriers().len());
        assert_eq!(tape.mem_flags.capacity(), flag_words);
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
        let mut tape = TraceTape::with_capacity("t", 0, 8);
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
        // One cursor walks the whole tape, reconstructing each entry once.
        let mut addrs = tape.addr_cursor();
        let mut a = tape.get(0, &mut addrs).unwrap();
        for i in 0..tape.len() - 1 {
            let b = tape.get(i + 1, &mut addrs).unwrap();
            assert_eq!(
                tape.conflicts(i, i + 1),
                a.conflicts_with(&b),
                "entry {i}: packed conflict check must agree"
            );
            assert_eq!(tape.is_mem(i), a.is_mem());
            a = b;
        }
        assert!(addrs.is_drained());
        // The exercise block contains both a true conflict (load feeding
        // the ALU) and a non-conflict (store then gather load).
        assert!(tape.conflicts(0, 1));
        assert!(!tape.conflicts(2, 3));
    }

    #[test]
    fn per_entry_accessors_agree_with_reconstruction() {
        let c = exercise_program();
        let mut interpreted: Vec<DynInst> = Vec::new();
        Executor::new(&c).run(&mut interpreted);
        let tape = TraceTape::record(&c);
        // Two cursors in step: one feeding `get`, one read directly at
        // each memory entry.
        let mut for_get = tape.addr_cursor();
        let mut direct = tape.addr_cursor();
        for (i, expected) in interpreted.iter().enumerate() {
            let inst = tape.get(i, &mut for_get).unwrap();
            assert_eq!(inst, *expected, "entry {i}");
            assert_eq!(tape.dst(i), inst.dst());
            assert_eq!(tape.srcs(i), inst.srcs);
            assert_eq!(tape.is_mem(i), inst.is_mem());
            let addr = direct.step(tape.is_mem(i));
            match inst.kind {
                DynKind::Load {
                    addr: a, format, ..
                } => {
                    assert_eq!(tape.kind(i), TapeKind::Load);
                    assert_eq!(addr, Some(a));
                    assert_eq!(tape.format(i), format);
                }
                DynKind::Store { addr: a } => {
                    assert_eq!(tape.kind(i), TapeKind::Store);
                    assert_eq!(addr, Some(a));
                }
                DynKind::Alu { dst: Some(_) } => assert_eq!(tape.kind(i), TapeKind::Alu),
                DynKind::Alu { dst: None } => assert_eq!(tape.kind(i), TapeKind::Branch),
            }
            assert_eq!(for_get.len(), direct.len());
        }
        // Both walks end exactly at the address count, and a dry cursor
        // makes a memory entry unreconstructible instead of wrong.
        assert!(for_get.is_drained() && direct.is_drained());
        let last_mem = (0..tape.len()).rev().find(|&i| tape.is_mem(i)).unwrap();
        assert_eq!(tape.get(last_mem, &mut for_get), None);
        assert_eq!(direct.step(true), None);
    }

    #[test]
    fn kind_bytes_carry_the_load_format_and_stay_canonical() {
        let tape = TraceTape::record(&exercise_program());
        for (i, &k) in tape.kinds.iter().enumerate() {
            assert!(is_canonical_kind(k), "entry {i}: kind byte {k:#04x}");
            assert_eq!(TapeKind::of(k), tape.kind(i));
            if tape.kind(i) != TapeKind::Load {
                assert_eq!(k >> FORMAT_SHIFT, 0, "entry {i}: format bits off a load");
            }
        }
        // Every kind byte `push` can write is canonical; nothing else is.
        let mut writable = Vec::new();
        for kind in [TapeKind::Alu, TapeKind::Branch, TapeKind::Store] {
            writable.push(kind as u8);
        }
        for size in [
            AccessSize::B1,
            AccessSize::B2,
            AccessSize::B4,
            AccessSize::B8,
        ] {
            for sign_extend in [false, true] {
                let f = LoadFormat { size, sign_extend };
                writable.push(TapeKind::Load as u8 | pack_format(f) << FORMAT_SHIFT);
            }
        }
        for byte in 0..=u8::MAX {
            assert_eq!(
                is_canonical_kind(byte),
                writable.contains(&byte),
                "{byte:#04x}"
            );
        }
    }
}
