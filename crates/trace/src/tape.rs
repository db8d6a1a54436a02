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
//! [`AddrCursor`] that advances once per memory operation, in program
//! order — exactly the memory-access sequence the static cache oracle
//! consumes ([`TraceTape::mem_ops`]).
//!
//! A **barrier plane** (one bit per instruction, packed in `u64` words)
//! marks the memory operations and the entries that read or rewrite a
//! register whose most recent writer is a load. Only a barrier can stall
//! or touch the memory system — a register is pending only while an
//! outstanding load owns it, so an entry whose registers were all last
//! written by non-loads can never wait. Replay exploits this by issuing
//! everything between barriers in bulk: [`TraceTape::next_barrier`]
//! strides over the plane 64 instructions per word, and the quiescent
//! scan [`TraceTape::next_mem`] reads the kind bytes eight at a time
//! (memory-ness is bit 1 of the kind byte, so it needs no plane of its
//! own).
//!
//! The footprint is 4 bytes per dynamic instruction, plus 8 per memory
//! operation (~26 % of entries on the paper's workload mixes), plus one
//! bit per instruction for the barrier plane — about 6.2 bytes per
//! instruction in all, laid out so a replay touches each array linearly:
//! ~0.25 MiB for a quick-scale (~40 k instruction) run and ~2.5 MiB for a
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

/// A little-endian `u64` read over eight kind bytes, masked to bit 1 of
/// each byte: non-zero exactly where a byte is a load or store.
const MEM_BYTES: u64 = 0x0202_0202_0202_0202;

/// Words of a barrier plane over `insts` instructions: one bit each.
pub(crate) fn plane_words(insts: usize) -> usize {
    insts.div_ceil(64)
}

/// Bytes of a tape's arrays for `insts` entries and `mem_ops` memory
/// operations: 4 per instruction (kind, destination, two sources), 8 per
/// memory operation (its address), 8 per 64-instruction barrier-plane
/// word. `None` on overflow. [`TraceTape::bytes`] and the codec's
/// artifact length both use this one formula.
pub(crate) fn layout_bytes(insts: usize, mem_ops: usize) -> Option<usize> {
    insts
        .checked_mul(4)?
        .checked_add(mem_ops.checked_mul(8)?)?
        .checked_add(plane_words(insts).checked_mul(8)?)
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
/// per memory operation it executes, so the cursor and the barrier walk
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
    /// Barrier plane over instruction indices: bit `i % 64` of word
    /// `i / 64` is set when entry `i` is a barrier. Every load and store
    /// is one, and no bit is set at or past `len()`.
    barrier_plane: Vec<u64>,
    /// Bitmap of registers whose most recent writer (so far) is a load —
    /// recording state for the barrier computation in [`TraceTape::push`].
    load_written: u64,
    loads: u64,
    stores: u64,
}

impl TraceTape {
    /// An empty tape with the given identity and room for `capacity`
    /// instructions and their barrier plane (the address array grows as
    /// memory operations arrive).
    pub fn with_capacity(name: &str, static_spill_ops: usize, capacity: usize) -> TraceTape {
        TraceTape {
            name: name.to_string(),
            static_spill_ops,
            kinds: Vec::with_capacity(capacity),
            dsts: Vec::with_capacity(capacity),
            srcs: Vec::with_capacity(capacity),
            addrs: Vec::new(),
            barrier_plane: Vec::with_capacity(plane_words(capacity)),
            load_written: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Records `compiled` by running the executor once into a fresh tape.
    /// The stream is bit-identical to what any processor-backed sink would
    /// have received — the tape just stores it instead of timing it. The
    /// instruction arrays, the barrier plane and the address array are
    /// reserved exactly from [`CompiledProgram::dynamic_mix`].
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
        tape
    }

    /// Appends one instruction (the [`InstSink`] implementation calls this).
    ///
    /// Besides the packed arrays this maintains the barrier plane: the
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
        let barrier =
            is_mem_byte(kind) || (reg_bit(d) | reg_bit(s0) | reg_bit(s1)) & self.load_written != 0;
        let at = self.kinds.len();
        if at.is_multiple_of(64) {
            self.barrier_plane.push(0);
        }
        if let Some(word) = self.barrier_plane.last_mut() {
            *word |= u64::from(barrier) << (at % 64);
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
    /// operation, plus 8 per 64-entry barrier-plane word — the same
    /// arithmetic the codec sizes an artifact's streams with.
    /// [`TraceTape::record`] and the decoder allocate every array to
    /// exactly its length, so this is also their heap footprint.
    pub fn bytes(&self) -> usize {
        layout_bytes(self.len(), self.addrs.len()).unwrap_or(usize::MAX)
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

    /// Index of the first barrier at or after `from`, or `len()` when
    /// none remains. The barriers are the memory operations plus every
    /// entry that reads or rewrites a register whose most recent writer
    /// is a load. A register is pending only while the load that last
    /// wrote it is outstanding, so entries between barriers can never
    /// stall and never touch the memory system — the replay loop issues
    /// them in bulk (one instruction, one cycle each) and runs the full
    /// drain/hazard/execute machinery only at the barriers themselves.
    ///
    /// The scan reads the barrier plane a `u64` word (64 instructions) at
    /// a time.
    #[inline]
    #[must_use]
    pub fn next_barrier(&self, from: usize) -> usize {
        let n = self.len();
        if from >= n {
            return n;
        }
        let mut word = from / 64;
        let mut bits = self.barrier_plane[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            match self.barrier_plane.get(word) {
                Some(&w) => bits = w,
                None => return n,
            }
        }
        // No bit is set at or past `len()`, so the result is in bounds.
        word * 64 + bits.trailing_zeros() as usize
    }

    /// Index of the first memory operation at or after `from`, or `len()`
    /// when none remains. Every memory operation is a barrier, so this is
    /// where a quiescent replay must next stop: every barrier before it
    /// bulk-issues. The scan reads the kind bytes eight at a time (bit 1
    /// of a kind byte marks a load or store).
    #[inline]
    #[must_use]
    pub fn next_mem(&self, from: usize) -> usize {
        let n = self.len();
        let mut at = from.min(n);
        while let Some(group) = self.kinds.get(at..at + 8) {
            let mut eight = [0u8; 8];
            eight.copy_from_slice(group);
            let bits = u64::from_le_bytes(eight) & MEM_BYTES;
            if bits != 0 {
                return at + bits.trailing_zeros() as usize / 8;
            }
            at += 8;
        }
        while at < n && !is_mem_byte(self.kinds[at]) {
            at += 1;
        }
        at
    }

    /// Number of barriers: the barrier plane's population count, a
    /// measure of a replay's full-machinery steps.
    #[must_use]
    pub fn barrier_count(&self) -> usize {
        self.barrier_plane
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// `true` if entry `j` reads or rewrites the register entry `i` writes
    /// (RAW or WAW) — the condition forbidding same-cycle dual issue with
    /// single-cycle latencies — evaluated on the packed encoding (a byte
    /// compare against the `0xff` sentinel, no decode).
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
    /// need owned instructions, e.g. the workspace's independent reference
    /// machine and the codec round-trip checks; the replay loops read the
    /// arrays directly instead). Walks one address cursor alongside the
    /// entries.
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

/// Reference for the barrier plane: per entry of an instruction stream,
/// whether it is a memory operation or reads or rewrites a register whose
/// most recent writer is a load — the recurrence [`TraceTape::push`]
/// implements, written out over [`DynInst`]s. Shared by the unit tests
/// and the plane property suite.
#[cfg(test)]
pub(crate) fn reference_barriers(stream: &[DynInst]) -> Vec<bool> {
    let mut load_written: u64 = 0;
    stream
        .iter()
        .map(|inst| {
            let touches = inst
                .srcs
                .iter()
                .copied()
                .chain([inst.dst()])
                .flatten()
                .any(|r| load_written & (1u64 << r.dense_index()) != 0);
            if let Some(d) = inst.dst() {
                match inst.kind {
                    DynKind::Load { .. } => load_written |= 1u64 << d.dense_index(),
                    DynKind::Alu { .. } => load_written &= !(1u64 << d.dense_index()),
                    DynKind::Store { .. } => unreachable!("stores write no register"),
                }
            }
            inst.is_mem() || touches
        })
        .collect()
}

/// The set bits of a tape's barrier plane, read bit by bit (no scan).
#[cfg(test)]
pub(crate) fn plane_bits(tape: &TraceTape) -> Vec<bool> {
    (0..tape.barrier_plane.len() * 64)
        .map(|i| tape.barrier_plane[i / 64] >> (i % 64) & 1 != 0)
        .collect()
}

/// A tape of `len` random instructions of `mix`, with the stream pushed.
#[cfg(test)]
pub(crate) fn random_tape(
    rng: &mut nbl_core::rng::SplitMix64,
    len: usize,
    mix: nbl_core::prop::InstMix,
) -> (TraceTape, Vec<DynInst>) {
    let pushed: Vec<DynInst> = (0..len)
        .map(|_| nbl_core::prop::random_inst(rng, mix))
        .collect();
    let mut tape = TraceTape::with_capacity("prop", 0, len);
    for &inst in &pushed {
        tape.push(inst);
    }
    (tape, pushed)
}

/// Property suite for the barrier plane, its two scans and the address
/// cursor, on random tapes from the seeded [`nbl_core::prop`] harness.
#[cfg(test)]
mod plane_prop {
    use super::*;
    use nbl_core::prop::{self, InstMix};
    use nbl_core::rng::SplitMix64;

    /// Memory-op rates per thousand, including all-mem (1000) and no-mem
    /// (0) spans, so tapes take all-mem, no-mem and mixed layouts.
    const MEM_RATES: [u64; 6] = [0, 15, 120, 500, 930, 1000];

    fn mix(mem_per_mille: u64) -> InstMix {
        InstMix {
            mem_per_mille,
            addr_bits: 20,
        }
    }

    /// The first index at or after `from` where `marked` holds, else
    /// `marked.len()`: one entry at a time.
    fn scalar_next(marked: &[bool], from: usize) -> usize {
        (from..marked.len())
            .find(|&i| marked[i])
            .unwrap_or(marked.len())
    }

    /// Checks the recorded plane against the reference recurrence over
    /// the pushed stream, both scans against a scalar scan of it from
    /// every start (and past the end), and the codec's round trip.
    fn check_plane(tape: &TraceTape, pushed: &[DynInst]) {
        let barriers = reference_barriers(pushed);
        let mems: Vec<bool> = pushed.iter().map(DynInst::is_mem).collect();
        let mut bits = plane_bits(tape);
        assert_eq!(tape.barrier_plane.len(), plane_words(pushed.len()));
        assert!(bits.drain(pushed.len()..).all(|b| !b), "a bit past len");
        assert_eq!(bits, barriers, "plane vs reference recurrence");
        assert_eq!(
            tape.barrier_count(),
            barriers.iter().filter(|&&b| b).count()
        );
        for from in 0..=pushed.len() + 65 {
            let at = from.min(pushed.len());
            assert_eq!(
                tape.next_barrier(from),
                scalar_next(&barriers, at),
                "next_barrier({from})"
            );
            assert_eq!(
                tape.next_mem(from),
                scalar_next(&mems, at),
                "next_mem({from})"
            );
        }
        let back = TraceTape::from_bytes(&tape.to_bytes()).expect("decode");
        assert_eq!(&back, tape, "decode of encode");
    }

    #[test]
    fn plane_and_scans_agree_with_the_pushed_stream() {
        // Lengths land both short of and straddling word boundaries
        // (tail-word coverage).
        for rate in MEM_RATES {
            let suite = format!("plane, mem rate {rate}");
            prop::check(&suite, 24, 0x5ca9 + rate, |rng| {
                let len = rng.next_below(400) as usize;
                let (tape, pushed) = random_tape(rng, len, mix(rate));
                check_plane(&tape, &pushed);
            });
        }
    }

    #[test]
    fn plane_handles_word_boundaries() {
        // Exactly one and two full words, and one entry either side: the
        // tail word is full, or holds a single entry, or is one short.
        prop::check("plane, word boundaries", 4, 0xb0b, |rng| {
            for len in [63, 64, 65, 127, 128, 129] {
                let (tape, pushed) = random_tape(rng, len, mix(700));
                check_plane(&tape, &pushed);
            }
        });
    }

    /// The replay loops' walk reduced to its cursor traffic: at each step
    /// the walk either takes the quiescent stride (straight to the next
    /// memory operation) or steps to the next barrier, at random; every
    /// barrier it executes takes [`AddrCursor::step`]. Returns the memory
    /// operations it met, with the address the cursor gave each.
    fn cursor_walk<'t>(tape: &'t TraceTape, rng: &mut SplitMix64) -> (Vec<MemOp>, AddrCursor<'t>) {
        let mut addrs = tape.addr_cursor();
        let mut met = Vec::new();
        let mut at = 0;
        while at < tape.len() {
            let b = if rng.next_below(2) == 0 {
                tape.next_mem(at)
            } else {
                tape.next_barrier(at)
            };
            if b == tape.len() {
                break;
            }
            if let Some(addr) = addrs.step(tape.is_mem(b)) {
                let is_store = tape.kind(b) == TapeKind::Store;
                met.push(MemOp {
                    index: b,
                    is_store,
                    addr,
                });
            }
            at = b + 1;
        }
        (met, addrs)
    }

    #[test]
    fn cursor_walks_reproduce_the_pushed_stream() {
        for rate in MEM_RATES {
            let suite = format!("cursor walk, mem rate {rate}");
            prop::check(&suite, 24, 0xc0de_5ca9 + rate, |rng| {
                let len = rng.next_below(400) as usize;
                let (tape, pushed) = random_tape(rng, len, mix(rate));
                let expected = reference_mem_ops(&pushed);
                assert_eq!(tape.iter().collect::<Vec<_>>(), pushed, "iter");
                assert_eq!(tape.mem_ops().collect::<Vec<_>>(), expected, "mem_ops");
                // A full walk, whatever mix of strides and single steps it
                // takes, meets every memory operation with its own address
                // and leaves the cursor exactly at the address count.
                let (met, addrs) = cursor_walk(&tape, rng);
                assert_eq!(met, expected, "cursor walk");
                assert!(addrs.is_drained(), "addresses left over");
                assert_eq!(tape.addr_count(), expected.len());
            });
        }
    }

    #[test]
    fn empty_tape_scans_are_no_ops() {
        let tape = TraceTape::with_capacity("prop", 0, 0);
        for from in [0, 10] {
            assert_eq!(tape.next_barrier(from), 0);
            assert_eq!(tape.next_mem(from), 0);
        }
        assert_eq!(tape.barrier_count(), 0);
        assert_eq!(tape.bytes(), 0);
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
    fn footprint_is_four_bytes_per_instruction_plus_addresses_and_a_bit_plane() {
        let tape = TraceTape::record(&exercise_program());
        let mem_ops = (tape.loads() + tape.stores()) as usize;
        let words = tape.len().div_ceil(64);
        assert_eq!(tape.bytes(), 4 * tape.len() + 8 * mem_ops + 8 * words);
        assert!(!tape.is_empty());
        // Recording reserves every array exactly, so `bytes` is also the
        // heap footprint.
        assert_eq!(tape.kinds.capacity(), tape.len());
        assert_eq!(tape.dsts.capacity(), tape.len());
        assert_eq!(tape.srcs.capacity(), tape.len());
        assert_eq!(tape.addrs.capacity(), mem_ops);
        assert_eq!(tape.barrier_plane.len(), words);
        assert_eq!(tape.barrier_plane.capacity(), words);
    }

    #[test]
    fn scans_match_a_scalar_probe_on_a_recorded_tape() {
        let tape = TraceTape::record(&exercise_program());
        assert!(tape.len() > 128, "needs a multi-word plane");
        let n = tape.len();
        let bits = plane_bits(&tape);
        for from in 0..=n + 2 {
            let at = from.min(n);
            let barrier = (at..n).find(|&i| bits[i]).unwrap_or(n);
            let mem = (at..n).find(|&i| tape.is_mem(i)).unwrap_or(n);
            assert_eq!(tape.next_barrier(from), barrier, "next_barrier({from})");
            assert_eq!(tape.next_mem(from), mem, "next_mem({from})");
        }
    }

    #[test]
    fn barriers_cover_exactly_the_entries_that_can_stall() {
        let tape = TraceTape::record(&exercise_program());
        let stream: Vec<DynInst> = tape.iter().collect();
        let mut bits = plane_bits(&tape);
        assert!(bits.drain(tape.len()..).all(|b| !b), "a bit past len");
        assert_eq!(bits, reference_barriers(&stream));
        // Every memory operation must be a barrier.
        assert!((0..tape.len()).all(|i| !tape.is_mem(i) || bits[i]));
        assert!(tape.barrier_count() > tape.addr_count());
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
        assert_eq!(tape.barrier_plane, [0b11100]);
        assert_eq!(tape.barrier_count(), 3);
        assert_eq!(tape.next_barrier(0), 2);
        assert_eq!(tape.next_barrier(5), tape.len());
        assert_eq!(tape.next_mem(3), tape.len());
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

    /// The RAW/WAW rule on owned instructions: `b` reads or rewrites the
    /// register `a` writes.
    fn reads_or_rewrites(a: &DynInst, b: &DynInst) -> bool {
        let d = a.dst();
        d.is_some() && (b.srcs.contains(&d) || b.dst() == d)
    }

    #[test]
    fn packed_conflict_check_matches_dyninst() {
        // Producer/consumer pairs: RAW, WAW, independent, and a store
        // (which writes nothing) as producer.
        let (r1, r2) = (PhysReg::int(1), PhysReg::int(2));
        let producer = DynInst::load(Addr(0), r1, LoadFormat::WORD);
        let raw = DynInst::alu(r2, [Some(r1), None]);
        let waw = DynInst::alu(r1, [None, None]);
        let indep = DynInst::alu(r2, [Some(r2), None]);
        let st = DynInst::store(Addr(0), Some(r1));
        let mut pairs = TraceTape::with_capacity("pairs", 0, 8);
        for inst in [producer, raw, producer, waw, producer, indep, st, raw] {
            pairs.push(inst);
        }
        let verdicts: Vec<bool> = (0..4).map(|k| pairs.conflicts(2 * k, 2 * k + 1)).collect();
        assert_eq!(verdicts, [true, true, false, false]);

        let tape = TraceTape::record(&exercise_program());
        // One cursor walks the whole tape, reconstructing each entry once.
        let mut addrs = tape.addr_cursor();
        let mut a = tape.get(0, &mut addrs).unwrap();
        for i in 0..tape.len() - 1 {
            let b = tape.get(i + 1, &mut addrs).unwrap();
            assert_eq!(
                tape.conflicts(i, i + 1),
                reads_or_rewrites(&a, &b),
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
