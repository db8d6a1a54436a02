//! The shared execution engine underlying every processor model.
//!
//! [`Core`] owns the issue clock, the register scoreboard and the stall
//! accounting, and drives all memory traffic through the narrow
//! [`MemorySystem`] port (which composes L1 + MSHRs, the optional L2 and
//! the pipelined memory). The engine implements the event mechanics the
//! paper's model requires:
//!
//! * fills complete in issue order (the memory is a constant-latency pipe)
//!   and wake **all** waiting registers simultaneously (multi-write-port
//!   register file, §3.1);
//! * an instruction that reads (or rewrites) a pending register stalls
//!   until the fill that frees it — a *true data dependency* stall;
//! * a load miss rejected by the MSHRs stalls until the earliest
//!   outstanding fetch completes and then retries — a *structural* stall;
//! * under a blocking cache (or a write-allocate store miss) the whole
//!   miss penalty is exposed as a *blocking* stall.
//!
//! The single-issue, dual-issue and replaying models are the three
//! [`crate::issue::IssuePolicy`] values of one [`crate::issue::IssueEngine`]
//! over this engine. Both single-width models replay a recorded tape
//! through one walk, [`Core::replay_fused`], whether it drives one
//! configuration or a fused sweep row of many; they differ only in the
//! memory step (`Core::execute_entry`), where a replaying core sends
//! its loads and stores through the speculative port.

use crate::scoreboard::Scoreboard;
use crate::stats::{CpuStats, InFlightSampler, ReplayAttribution, StallCause};
use nbl_core::cache::{CacheConfig, LockupFreeCache};
use nbl_core::geometry::{CacheGeometry, DecodedAddr, GeometryError};
use nbl_core::mshr::MissKind;
use nbl_core::types::{Addr, Cycle, Dest, LoadFormat, PhysReg};
use nbl_mem::event::ReplayCause;
use nbl_mem::system::{
    FillEvent, LoadResponse, MemSystemConfig, MemorySystem, ReplayLoadResponse, StoreResponse,
};
use nbl_trace::tape::{AddrCursor, TapeKind, TraceTape};

/// Replay-bubble length for the *fast* causes (bank conflict, dcache
/// NACK): the load re-enters from the replay queue after a short
/// pipeline loop.
const REPLAY_FAST_CYCLES: u64 = 2;

/// Replay-bubble length for the *slow* causes (forwarding failure): the
/// load re-executes only after the blocking condition resolves.
const REPLAY_SLOW_CYCLES: u64 = 4;

/// Bubble length and [`CpuStats`] stall bucket for a replay cause: a
/// forwarding failure is a (store-to-load) data dependency, bank
/// conflicts and NACKs are structural hazards. A real miss never bubbles
/// here — its cost shows up at the consumer, via the scoreboard.
fn replay_bubble(cause: ReplayCause) -> (u64, StallCause) {
    match cause {
        ReplayCause::ForwardFail => (REPLAY_SLOW_CYCLES, StallCause::DataDependency),
        ReplayCause::DcacheReplay | ReplayCause::BankConflict => {
            (REPLAY_FAST_CYCLES, StallCause::Structural)
        }
        ReplayCause::DcacheMiss => (0, StallCause::DataDependency),
    }
}

pub use nbl_mem::system::L2Params;

/// The end-of-walk check on a replay's address cursor: a full replay of
/// an `n`-entry tape takes exactly one address per memory operation, so
/// an address left over means the walk skipped a memory barrier.
pub(crate) fn check_drained(addrs: &AddrCursor<'_>, n: usize) -> Result<(), EngineError> {
    if addrs.is_drained() {
        Ok(())
    } else {
        Err(EngineError::MalformedTape { index: n })
    }
}

/// A recoverable engine failure, reported instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The engine had to wait for a fill (a pending register, or a retry
    /// after an MSHR rejection) but no fetch was outstanding. This means
    /// the scoreboard and the memory system disagree — a model invariant
    /// violation the caller can surface instead of a panic.
    NoOutstandingFetch,
    /// A trace-tape entry was structurally invalid — a load without a
    /// recorded destination register, a memory operation whose address
    /// cursor ran dry, or addresses left over when the walk ended. The
    /// recorder and the decoder uphold this by construction, so hitting
    /// it means a corrupted tape or a replay loop that lost step with its
    /// cursor; replay surfaces the entry index instead of panicking
    /// mid-sweep.
    MalformedTape {
        /// Index of the offending tape entry (the tape length when
        /// addresses were left over at the end).
        index: usize,
    },
    /// The configuration asks for a second-level cache whose geometry
    /// cannot exist (e.g. a size that is not a power of two), so no
    /// engine can be built for it.
    InvalidL2 {
        /// The requested L2 size in bytes.
        size_bytes: u64,
        /// Why the geometry was refused.
        reason: GeometryError,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoOutstandingFetch => {
                write!(f, "engine waited for a fill but no fetch is outstanding")
            }
            EngineError::MalformedTape { index } => {
                write!(f, "malformed trace tape at entry {index}")
            }
            EngineError::InvalidL2 { size_bytes, reason } => {
                write!(f, "invalid {size_bytes}-byte L2: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Configuration of the shared engine. Equality is structural — the
/// worker arena uses it to decide whether a pooled processor can be
/// reused for an incoming run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Data cache (geometry, write policy, MSHR organization).
    pub cache: CacheConfig,
    /// Miss penalty in cycles (paper baseline: 16).
    pub miss_penalty: u32,
    /// If `true`, every data access hits: used to measure each workload's
    /// ideal cycle count (dual-issue IPC for the paper's §6 scaling).
    pub perfect_cache: bool,
    /// Minimum cycles between successive fetch completions: 0 is the
    /// paper's fully pipelined memory; larger values model a
    /// bandwidth-limited bus (ablation only).
    pub memory_gap: u32,
    /// Optional second-level cache (extension; `None` reproduces the
    /// paper's flat L1 + memory hierarchy).
    pub l2: Option<L2Params>,
}

impl EngineConfig {
    /// Baseline memory (16-cycle penalty) over the given cache.
    pub fn with_cache(cache: CacheConfig) -> EngineConfig {
        EngineConfig {
            cache,
            miss_penalty: 16,
            perfect_cache: false,
            memory_gap: 0,
            l2: None,
        }
    }

    /// The memory-system side of this configuration.
    fn mem_config(&self) -> MemSystemConfig {
        MemSystemConfig {
            cache: self.cache.clone(),
            miss_penalty: self.miss_penalty,
            memory_gap: self.memory_gap,
            l2: self.l2.clone(),
        }
    }
}

/// The operation of a decoded memory entry. Decoding validates the tape
/// structure (a load must carry a destination), so the per-engine step
/// is infallible on the fast path.
enum GroupOp {
    /// A load with its (validated) destination and format.
    Load {
        /// Destination register the fill will wake.
        dst: PhysReg,
        /// Access width/sign.
        format: LoadFormat,
    },
    /// A store.
    Store,
}

/// One memory entry decoded once: the packed-array fields (operation,
/// destination, load format) plus the address split — block, set, tag,
/// offset — under an L1 geometry. The fused walk decodes each memory
/// barrier once for its whole group; the dual walk decodes per access.
struct GroupEntry {
    op: GroupOp,
    decoded: DecodedAddr,
}

impl GroupEntry {
    /// Decodes memory entry `i` at `addr` under `geometry`.
    #[inline]
    fn decode(
        tape: &TraceTape,
        i: usize,
        addr: Option<Addr>,
        geometry: &CacheGeometry,
    ) -> Result<GroupEntry, EngineError> {
        let malformed = EngineError::MalformedTape { index: i };
        let op = match tape.kind(i) {
            TapeKind::Load => GroupOp::Load {
                dst: tape.dst(i).ok_or(malformed)?,
                format: tape.format(i),
            },
            TapeKind::Store => GroupOp::Store,
            TapeKind::Alu | TapeKind::Branch => return Err(malformed),
        };
        Ok(GroupEntry {
            op,
            decoded: geometry.decode(addr.ok_or(malformed)?),
        })
    }
}

/// The shared execution engine. See the module docs.
#[derive(Debug, Clone)]
pub struct Core {
    mem: MemorySystem,
    scoreboard: Scoreboard,
    now: Cycle,
    stats: CpuStats,
    sampler: InFlightSampler,
    perfect: bool,
    /// The replaying pipeline model: memory operations go through the
    /// speculative port ([`crate::issue::IssuePolicy::ReplayCause`]).
    pub(crate) replaying: bool,
    attribution: ReplayAttribution,
}

impl Core {
    /// Creates an engine at cycle zero with a cold cache.
    pub fn new(config: EngineConfig) -> Core {
        Core {
            mem: MemorySystem::new(config.mem_config()),
            scoreboard: Scoreboard::new(),
            now: Cycle::ZERO,
            stats: CpuStats::default(),
            sampler: InFlightSampler::new(),
            perfect: config.perfect_cache,
            replaying: false,
            attribution: ReplayAttribution::default(),
        }
    }

    /// Returns the core to its freshly-built state — cold cache, empty
    /// scoreboard, cycle zero, zero counters — while keeping the memory
    /// system's internal allocations for reuse. A reset core produces
    /// bit-identical results to a newly constructed one; only the
    /// allocator traffic differs.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.scoreboard = Scoreboard::new();
        self.now = Cycle::ZERO;
        self.stats = CpuStats::default();
        self.sampler = InFlightSampler::new();
        self.attribution = ReplayAttribution::default();
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Per-cause replay accounting (all zero unless the core replays);
    /// complete once [`Core::finish`] has run.
    #[inline]
    pub fn attribution(&self) -> &ReplayAttribution {
        &self.attribution
    }

    /// The in-flight occupancy sampler (Fig. 6 histograms).
    #[inline]
    pub fn sampler(&self) -> &InFlightSampler {
        &self.sampler
    }

    /// The memory system behind the port (counters, trace access).
    #[inline]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The data cache (for miss-rate counters).
    #[inline]
    pub fn cache(&self) -> &LockupFreeCache {
        self.mem.l1()
    }

    /// Starts the memory system's one observer (see [`nbl_mem::event`]):
    /// the lifecycle stats and one [`nbl_mem::AccessOutcome`] per
    /// resolved access.
    pub fn enable_mem_tracing(&mut self) {
        self.mem.enable_tracing();
    }

    /// Stops tracing and returns the recorded trace, if any.
    pub fn take_mem_trace(&mut self) -> Option<nbl_mem::event::MemTrace> {
        self.mem.take_trace()
    }

    /// Advances time to `to` (clamped), charging the elapsed cycles to
    /// `cause`.
    fn stall_until(&mut self, to: Cycle, cause: StallCause) {
        if to <= self.now {
            return;
        }
        let cycles = to.since(self.now);
        self.stats.add_stall(cause, cycles);
        self.now = to;
    }

    /// Applies one fill on the processor side: wakes every waiting
    /// register with one scoreboard mask clear and updates the sampler at
    /// the fill's own timestamp.
    fn apply_fill(scoreboard: &mut Scoreboard, sampler: &mut InFlightSampler, fill: FillEvent) {
        sampler.advance(fill.at);
        scoreboard.clear_mask(fill.woken_regs);
        sampler.on_fill(fill.targets as usize);
    }

    /// Processes every fetch that has completed by the current time.
    pub fn drain_fills(&mut self) {
        let Core {
            mem,
            scoreboard,
            sampler,
            now,
            ..
        } = self;
        mem.advance_to(*now, |fill| Self::apply_fill(scoreboard, sampler, fill));
    }

    /// Stalls (charging `cause`) until the earliest outstanding fetch
    /// completes, and applies it.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoOutstandingFetch`] if nothing is in flight — the
    /// caller believed a fill was owed (a pending register or a rejected
    /// miss) but the memory system disagrees.
    fn wait_for_next_fill(&mut self, cause: StallCause) -> Result<(), EngineError> {
        let fill = self
            .mem
            .advance_to_next_event()
            .map_err(|_| EngineError::NoOutstandingFetch)?;
        self.stall_until(fill.at, cause);
        Self::apply_fill(&mut self.scoreboard, &mut self.sampler, fill);
        Ok(())
    }

    /// Stalls until `reg` is valid (true-data-dependency stall).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoOutstandingFetch`] if `reg` is pending but no
    /// fetch is in flight to wake it.
    pub fn wait_for_reg(&mut self, reg: PhysReg) -> Result<(), EngineError> {
        while self.scoreboard.is_pending(reg) {
            self.wait_for_next_fill(StallCause::DataDependency)?;
        }
        Ok(())
    }

    /// Resolves entry `i`'s register hazards straight from the tape's
    /// packed arrays: its sources (RAW), in recorded order, then its
    /// destination (WAW — the fill of an earlier load must not clobber
    /// this instruction's result), each waited for with
    /// [`Core::wait_for_reg`].
    ///
    /// # Errors
    ///
    /// [`EngineError::NoOutstandingFetch`] on a scoreboard/memory-system
    /// disagreement (see [`Core::wait_for_reg`]).
    pub fn replay_hazards(&mut self, tape: &TraceTape, i: usize) -> Result<(), EngineError> {
        if !self.scoreboard.any_pending() {
            return Ok(());
        }
        let [s0, s1] = tape.srcs(i);
        if let Some(s) = s0 {
            self.wait_for_reg(s)?;
        }
        if let Some(s) = s1 {
            self.wait_for_reg(s)?;
        }
        if let Some(d) = tape.dst(i) {
            self.wait_for_reg(d)?;
        }
        Ok(())
    }

    /// `true` if entry `i` could issue right now without waiting on any
    /// pending register (the dual-issue pairing check).
    pub fn replay_hazards_clear(&self, tape: &TraceTape, i: usize) -> bool {
        let [s0, s1] = tape.srcs(i);
        s0.is_none_or(|s| !self.scoreboard.is_pending(s))
            && s1.is_none_or(|s| !self.scoreboard.is_pending(s))
            && tape.dst(i).is_none_or(|d| !self.scoreboard.is_pending(d))
    }

    /// Performs entry `i`'s operation and stats accounting directly from
    /// the tape's packed arrays at the current cycle, resolving structural
    /// stalls internally: a memory operation is decoded under this
    /// engine's L1 geometry and executed as the fused walk executes it
    /// (`Core::execute_entry`). Does **not** advance the issue clock;
    /// the issue policy does that (it may place two instructions in one
    /// cycle). `addr` is the entry's address as the walk's [`AddrCursor`]
    /// yielded it ([`AddrCursor::step`]): `Some` for a memory operation,
    /// `None` otherwise.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoOutstandingFetch`] if a structural retry had no
    /// fill to wait on, and [`EngineError::MalformedTape`] if entry `i` is
    /// a load with no recorded destination or a memory operation with no
    /// address.
    pub fn replay_execute(
        &mut self,
        tape: &TraceTape,
        i: usize,
        addr: Option<Addr>,
    ) -> Result<(), EngineError> {
        if tape.is_mem(i) {
            let geometry = self.mem.l1().config().geometry;
            self.execute_entry(&GroupEntry::decode(tape, i, addr, &geometry)?)?;
        } else {
            self.stats.instructions += 1;
        }
        Ok(())
    }

    /// Issues `count` consecutive hazard-free non-memory instructions in
    /// bulk — the replay fast path for the gaps between a tape's barrier
    /// entries (see [`TraceTape::next_barrier`]). Each such entry is Alu or
    /// Branch and touches no register whose most recent writer is a load,
    /// so it cannot stall and its issue iteration reduces to one
    /// instruction counted and one cycle elapsed. Fills may still be in
    /// flight: they carry their own completion timestamps, so deferring
    /// the drain to the next barrier (which drains before doing anything
    /// else) leaves every observable — stall accounting, sampler
    /// timeline, cache state — bit-identical to `count` ordinary issue
    /// iterations.
    #[inline]
    pub fn issue_free_run(&mut self, count: usize) {
        self.stats.instructions += count as u64;
        self.now = self.now.plus(count as u64);
    }

    /// Replays one recorded tape through a group of engines in lockstep:
    /// the one tape walk of both single-width models (stalling and
    /// replaying engines may share a group), for one configuration (a
    /// group of one) or a fused sweep row. The tape's barrier plane is
    /// walked, and each memory barrier's packed fields and address split
    /// decoded, once for the whole group instead of once per engine.
    ///
    /// Each engine keeps its own instruction cursor. The hazard-free gaps
    /// between barriers ([`TraceTape::next_barrier`]) bulk-issue
    /// ([`Core::issue_free_run`]); a *memory* barrier is stepped by every
    /// engine, a non-memory barrier only by the engines with a fetch
    /// outstanding. A *quiescent* engine (no fetch outstanding — which
    /// also means no register is pending, since a pending register always
    /// awaits a fill) cannot stall on or observe a non-memory barrier, so
    /// it defers that barrier into its next bulk issue; when the whole
    /// group is quiescent the walk strides straight to the next memory
    /// operation ([`TraceTape::next_mem`]). Every engine thus steps
    /// exactly what a per-instruction machine would, and the walk is
    /// bit-identical to replaying each engine alone (pinned against the
    /// workspace's cycle-stepped reference machine,
    /// `tests/reference/mod.rs`, and by the sweep-level goldens).
    ///
    /// What remains to select comes from the group itself: a group of
    /// more than 64 engines walks in chunks of 64 (the width of the
    /// quiescence mask), and a chunk whose engines do not share one L1
    /// geometry — so one address decode cannot serve them all — replays
    /// engine by engine.
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any engine hits; engines earlier in the
    /// slice will have advanced past later ones when this happens, so the
    /// group's results must be discarded as a unit.
    pub fn replay_fused(tape: &TraceTape, cores: &mut [&mut Core]) -> Result<(), EngineError> {
        for chunk in cores.chunks_mut(64) {
            let geometry = chunk.first().map(|c| c.cache().config().geometry);
            match geometry {
                Some(g) if chunk.iter().all(|c| c.cache().config().geometry == g) => {
                    Self::replay_group(tape, chunk, &g)?
                }
                _ => {
                    for core in chunk.iter_mut() {
                        Self::replay_fused(tape, std::slice::from_mut(core))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The walk of [`Core::replay_fused`] over at most 64 engines that
    /// share the L1 `geometry`. Each memory barrier is decoded once
    /// ([`GroupEntry::decode`]) and executed by every engine
    /// ([`Core::execute_entry`]). Group quiescence lives in a bitmask, so
    /// the all-quiescent check is one compare and non-memory barriers
    /// visit only the engines with a fetch in flight.
    fn replay_group(
        tape: &TraceTape,
        cores: &mut [&mut Core],
        geometry: &CacheGeometry,
    ) -> Result<(), EngineError> {
        debug_assert!(cores.len() <= 64, "the quiescence mask holds 64 engines");
        let n = tape.len();
        let mut cursors = vec![0usize; cores.len()];
        let mut addrs = tape.addr_cursor();
        let all: u64 = if cores.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << cores.len()) - 1
        };
        let mut quiescent: u64 = 0;
        for (k, core) in cores.iter().enumerate() {
            if core.mem.next_event().is_none() {
                quiescent |= 1 << k;
            }
        }
        // The group's walk position: the next entry no engine has visited.
        let mut at = 0;
        while at < n {
            // Whole group quiescent: one shared scan straight to the next
            // memory operation.
            let b = if quiescent == all {
                tape.next_mem(at)
            } else {
                tape.next_barrier(at)
            };
            if b == n {
                break;
            }
            if tape.is_mem(b) {
                let e = GroupEntry::decode(tape, b, addrs.next(), geometry)?;
                for (k, (core, i)) in cores.iter_mut().zip(&mut cursors).enumerate() {
                    let was_quiescent = quiescent & (1 << k) != 0;
                    if b > *i {
                        core.issue_free_run(b - *i);
                    }
                    if !was_quiescent {
                        core.drain_fills();
                        core.replay_hazards(tape, b)?;
                    }
                    let hit = core.execute_entry(&e)?;
                    core.tick();
                    *i = b + 1;
                    // A hit on a quiescent engine cannot launch a fetch,
                    // so it stays quiescent; anything else (a launch, or a
                    // drain that may have emptied the pipe) re-probes.
                    if !(was_quiescent && hit) {
                        if core.mem.next_event().is_none() {
                            quiescent |= 1 << k;
                        } else {
                            quiescent &= !(1 << k);
                        }
                    }
                }
            } else {
                // Non-memory barrier: quiescent engines defer it into
                // their next bulk issue; the mask walk visits only the
                // engines with work.
                let mut busy = !quiescent & all;
                while busy != 0 {
                    let k = busy.trailing_zeros() as usize;
                    busy &= busy - 1;
                    let core = &mut *cores[k];
                    let i = &mut cursors[k];
                    if b > *i {
                        core.issue_free_run(b - *i);
                    }
                    core.drain_fills();
                    core.replay_hazards(tape, b)?;
                    core.issue_free_run(1);
                    *i = b + 1;
                    if core.mem.next_event().is_none() {
                        quiescent |= 1 << k;
                    }
                }
            }
            at = b + 1;
        }
        for (core, i) in cores.iter_mut().zip(&cursors) {
            if *i < n {
                core.issue_free_run(n - *i);
            }
        }
        check_drained(&addrs, n)
    }

    /// One engine's access for a decoded memory entry, its hazards
    /// already resolved: the hit probe
    /// ([`MemorySystem::load_hit_decoded`]), the miss path only when that
    /// misses, and the counters; the caller advances the clock. A miss
    /// goes straight to [`MemorySystem::load_miss_decoded`], since the
    /// probe just missed; a structural retry probes again in full, since
    /// the fill it waited for may have brought the line in. A perfect
    /// cache hits without touching its memory system. A replaying core
    /// sends the access through the speculative port instead
    /// ([`MemorySystem::access_load_replay`],
    /// [`MemorySystem::access_store_replay`]). Returns whether the access
    /// hit with no fetch launched.
    #[inline]
    fn execute_entry(&mut self, e: &GroupEntry) -> Result<bool, EngineError> {
        let hit = match e.op {
            GroupOp::Load { dst, format } => {
                let hit = if self.perfect {
                    true
                } else if self.replaying {
                    self.execute_load_speculative(&e.decoded, dst, format)?
                } else if self.mem.load_hit_decoded(&e.decoded, self.now) {
                    true
                } else {
                    let resp =
                        self.mem
                            .load_miss_decoded(&e.decoded, Dest::Reg(dst), format, self.now);
                    self.complete_load(resp, &e.decoded, dst, format)?;
                    false
                };
                self.stats.loads += 1;
                hit
            }
            GroupOp::Store => {
                let hit = self.perfect
                    || (!self.replaying && self.mem.store_hit_decoded(&e.decoded, self.now));
                if !hit {
                    let resp = if self.replaying {
                        self.mem.access_store_replay(&e.decoded, self.now)
                    } else {
                        self.mem.access_store_decoded(&e.decoded, self.now)
                    };
                    self.apply_store_response(resp);
                }
                self.stats.stores += 1;
                hit
            }
        };
        self.stats.instructions += 1;
        Ok(hit)
    }

    /// Applies a load's port response on the processor side, waiting for
    /// a fill and retrying the access after each structural rejection.
    fn complete_load(
        &mut self,
        mut resp: LoadResponse,
        decoded: &DecodedAddr,
        dst: PhysReg,
        format: LoadFormat,
    ) -> Result<(), EngineError> {
        let mut stalled_structurally = false;
        loop {
            match resp {
                LoadResponse::Hit => break,
                LoadResponse::VictimHit => {
                    // One cycle to swap the line back from the victim
                    // buffer; the data is then as good as a hit.
                    self.stall_until(self.now.plus(1), StallCause::Blocking);
                    break;
                }
                LoadResponse::Pending { kind } => {
                    self.sampler.advance(self.now);
                    self.sampler.on_miss(kind == MissKind::Primary);
                    self.scoreboard.set_pending(dst);
                    break;
                }
                LoadResponse::Ready { at } => {
                    // Lockup cache: the port serviced the whole miss; the
                    // processor exposes the full penalty as a blocking
                    // stall and the register is then valid.
                    self.stats.blocking_load_misses += 1;
                    self.stall_until(at, StallCause::Blocking);
                    self.sampler.advance(self.now);
                    break;
                }
                LoadResponse::Retry(_reason) => {
                    // Structural hazard: wait for a fetch to complete, retry.
                    if !stalled_structurally {
                        stalled_structurally = true;
                        self.stats.structural_stall_misses += 1;
                    }
                    self.wait_for_next_fill(StallCause::Structural)?;
                    resp = self
                        .mem
                        .access_load_decoded(decoded, Dest::Reg(dst), format, self.now);
                }
            }
        }
        Ok(())
    }

    fn apply_store_response(&mut self, resp: StoreResponse) {
        match resp {
            StoreResponse::Done => {}
            StoreResponse::Ready { at } => {
                // `mc=0 + wma`: the port fetched the line synchronously;
                // expose the full penalty as a blocking stall.
                self.stats.blocking_store_misses += 1;
                self.stall_until(at, StallCause::Blocking);
                self.sampler.advance(self.now);
            }
            StoreResponse::Pending { kind } => {
                // Non-blocking write allocate: the store data waits in the
                // write buffer for the line; the processor does not stall.
                self.stats.nonblocking_store_misses += 1;
                self.sampler.advance(self.now);
                self.sampler.on_miss(kind == MissKind::Primary);
            }
        }
    }

    /// One speculatively issued load. A thrown-back access charges its
    /// cause's replay-bubble penalty (fast for bank conflicts and NACKs,
    /// slow for forwarding failures) and reissues; a second consecutive
    /// NACK falls back to the stalling pipeline's wait-for-a-fill, with
    /// the elapsed cycles still attributed to [`ReplayCause::DcacheReplay`].
    /// An access that reaches the data array completes as in the stalling
    /// model ([`Core::complete_load`]): a genuine miss completes out of
    /// order through the scoreboard and is counted under
    /// [`ReplayCause::DcacheMiss`]. Returns whether the load hit.
    fn execute_load_speculative(
        &mut self,
        decoded: &DecodedAddr,
        dst: PhysReg,
        format: LoadFormat,
    ) -> Result<bool, EngineError> {
        let mut reissue = false;
        let mut nacked = false;
        let mut stalled_structurally = false;
        loop {
            let resp = match self.mem.access_load_replay(
                decoded,
                Dest::Reg(dst),
                format,
                self.now,
                reissue,
                nacked,
            ) {
                ReplayLoadResponse::Proceed(resp) => resp,
                ReplayLoadResponse::Replay(cause) => {
                    if cause == ReplayCause::DcacheReplay {
                        if !stalled_structurally {
                            stalled_structurally = true;
                            self.stats.structural_stall_misses += 1;
                        }
                        if nacked {
                            // Second consecutive NACK: the replay queue
                            // stops spinning and waits for a fill to free
                            // MSHR resources, like the stalling pipeline.
                            let before = self.now;
                            self.wait_for_next_fill(StallCause::Structural)?;
                            self.attribution.stall_cycles[cause.index()] += self.now.since(before);
                            continue;
                        }
                        nacked = true;
                    }
                    self.attribution.counts[cause.index()] += 1;
                    let (penalty, bucket) = replay_bubble(cause);
                    let before = self.now;
                    self.stall_until(self.now.plus(penalty), bucket);
                    self.attribution.stall_cycles[cause.index()] += self.now.since(before);
                    // Fills that landed during the bubble wake their
                    // registers before the reissue probes the cache.
                    self.drain_fills();
                    reissue = true;
                    continue;
                }
            };
            if matches!(resp, LoadResponse::Pending { .. }) {
                self.attribution.counts[ReplayCause::DcacheMiss.index()] += 1;
            }
            let hit = resp == LoadResponse::Hit;
            self.complete_load(resp, decoded, dst, format)?;
            return Ok(hit);
        }
    }

    /// Advances the issue clock by one cycle (every instruction or
    /// co-issued group costs one cycle).
    pub fn tick(&mut self) {
        self.now = self.now.plus(1);
    }

    /// Finalizes the run: applies every outstanding fill (data that is
    /// still in flight when the program's last instruction issues wakes no
    /// one, so no stall is charged) and closes out the sampler. A
    /// replaying core's data-dependency stalls are forward-fail bubbles or
    /// consumers waiting on a miss, so the miss cause's stall cycles are
    /// the data-dependency total less the forward-fail bubbles.
    pub fn finish(&mut self) {
        while let Ok(fill) = self.mem.advance_to_next_event() {
            if fill.at > self.now {
                self.now = fill.at;
            }
            Self::apply_fill(&mut self.scoreboard, &mut self.sampler, fill);
        }
        self.sampler.advance(self.now);
        if self.replaying {
            let stalls = &mut self.attribution.stall_cycles;
            stalls[ReplayCause::DcacheMiss.index()] =
                self.stats.data_dep_stall_cycles - stalls[ReplayCause::ForwardFail.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::inst::DynInst;
    use nbl_core::limit::Limit;
    use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
    use nbl_core::types::LoadFormat;

    fn engine(mshr: MshrConfig) -> Core {
        Core::new(EngineConfig::with_cache(CacheConfig::baseline(mshr)))
    }

    /// Records `stream` into a tape and replays it on `core` through the
    /// single-issue walk, without finishing: the state after the last
    /// instruction issued is left to inspect.
    fn replay(core: &mut Core, stream: &[DynInst]) {
        let mut tape = TraceTape::with_capacity("t", 0, stream.len());
        for inst in stream {
            tape.push(*inst);
        }
        Core::replay_fused(&tape, &mut [core]).unwrap();
    }

    fn load(addr: u64, reg: u8) -> DynInst {
        DynInst::load(Addr(addr), PhysReg::int(reg), LoadFormat::WORD)
    }

    fn mc1() -> MshrConfig {
        MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(1),
            targets: TargetPolicy::explicit(Limit::Finite(1)),
            max_outstanding_misses: Limit::Finite(1),
            max_fetches_per_set: Limit::Unlimited,
        })
    }

    #[test]
    fn load_use_stall_is_penalty_minus_distance() {
        let mut core = engine(mc1());
        let r1 = PhysReg::int(1);
        // Load (miss), three independent ALU ops, then a use of the load,
        // which issues after stalling until the fill at cycle 16.
        let mut stream = vec![load(0x1000, 1)];
        stream.extend((0..3).map(|_| DynInst::alu(PhysReg::int(2), [None, None])));
        stream.push(DynInst::alu(PhysReg::int(3), [Some(r1), None]));
        replay(&mut core, &stream);
        // Load at cy0 (fill at 16), 3 ALU ops at cy1..3, use stalls 4..16.
        assert_eq!(core.stats().data_dep_stall_cycles, 12);
        assert_eq!(core.now(), Cycle(17));
    }

    #[test]
    fn blocking_cache_exposes_full_penalty() {
        let mut core = engine(MshrConfig::Blocking);
        replay(&mut core, &[load(0x40, 1)]);
        assert_eq!(core.stats().blocking_stall_cycles, 16);
        assert_eq!(core.stats().blocking_load_misses, 1);
        assert_eq!(core.now(), Cycle(17));
        // The line is now resident: a reuse hits with no stall.
        replay(&mut core, &[load(0x48, 2)]);
        assert_eq!(core.stats().total_stall_cycles(), 16);
    }

    #[test]
    fn structural_stall_waits_for_fill_then_retries() {
        let mut core = engine(mc1());
        // Second load to a different line: mc=1 rejects; stalls until the
        // first fill (cycle 16), then becomes a fresh primary miss.
        replay(&mut core, &[load(0x1000, 1), load(0x2000, 2)]);
        assert_eq!(core.stats().structural_stall_cycles, 15); // 1 -> 16
        assert_eq!(core.stats().structural_stall_misses, 1);
        assert_eq!(core.cache().counters().load_primary_misses, 2);
        assert!(!core.scoreboard.is_pending(PhysReg::int(1)));
        assert!(core.scoreboard.is_pending(PhysReg::int(2)));
    }

    #[test]
    fn secondary_miss_rides_the_same_fetch() {
        let fc1 = MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(1),
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        });
        let mut core = engine(fc1);
        // Two loads of one line, then a use of the second register, which
        // stalls only until the shared fill at 16.
        replay(
            &mut core,
            &[
                load(0x1000, 1),
                load(0x1008, 2),
                DynInst::branch([Some(PhysReg::int(2)), None]),
            ],
        );
        assert_eq!(core.cache().counters().load_secondary_misses, 1);
        assert_eq!(core.stats().data_dep_stall_cycles, 14); // 2 -> 16
        assert!(
            !core.scoreboard.is_pending(PhysReg::int(1)),
            "fill wakes all targets at once"
        );
    }

    #[test]
    fn waw_hazard_stalls() {
        let mut core = engine(mc1());
        // An ALU write to the load's register must wait for the fill.
        replay(
            &mut core,
            &[load(0x1000, 1), DynInst::alu(PhysReg::int(1), [None, None])],
        );
        assert_eq!(core.stats().data_dep_stall_cycles, 15);
    }

    #[test]
    fn perfect_cache_never_stalls() {
        let mut cfg = EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Blocking));
        cfg.perfect_cache = true;
        let mut core = Core::new(cfg);
        let loads: Vec<_> = (0..100u64).map(|i| load(i * 64, (i % 30) as u8)).collect();
        replay(&mut core, &loads);
        assert_eq!(core.stats().total_stall_cycles(), 0);
        assert_eq!(core.now(), Cycle(100));
    }

    #[test]
    fn stores_never_stall_under_write_around() {
        let mut core = engine(mc1());
        let stores: Vec<_> = (0..50u64)
            .map(|i| DynInst::store(Addr(i * 4096), None))
            .collect();
        replay(&mut core, &stores);
        assert_eq!(core.stats().total_stall_cycles(), 0);
        assert_eq!(core.stats().stores, 50);
        let c = core.cache().counters();
        assert_eq!(c.store_hits + c.store_misses, 50);
    }

    #[test]
    fn nonblocking_write_allocate_never_stalls() {
        let mut cache_cfg = CacheConfig::baseline(MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(4),
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        }));
        cache_cfg.write_miss = nbl_core::cache::WriteMissPolicy::WriteAllocate;
        let mut core = Core::new(EngineConfig::with_cache(cache_cfg));
        // Distinct sets: one cache size + one line apart.
        let store = |i: u64| DynInst::store(Addr(i * 8224), None);
        replay(&mut core, &(0..4).map(store).collect::<Vec<_>>());
        assert_eq!(
            core.stats().total_stall_cycles(),
            0,
            "tracked store misses do not stall"
        );
        assert_eq!(core.stats().nonblocking_store_misses, 4);
        assert_eq!(core.stats().blocking_store_misses, 0);
        // A fifth store miss finds no free MSHR and falls back to blocking.
        replay(&mut core, &[store(5)]);
        assert_eq!(core.stats().blocking_store_misses, 1);
        assert!(core.stats().blocking_stall_cycles > 0);
        core.finish();
        assert_eq!(core.sampler().fetches_now(), 0);
        // After the fills, the lines are resident: stores now hit.
        replay(&mut core, &[store(0)]);
        assert_eq!(
            core.stats().nonblocking_store_misses,
            4,
            "no new tracked miss"
        );
    }

    #[test]
    fn l2_hits_shorten_the_penalty() {
        use nbl_core::geometry::CacheGeometry;
        let mk = |l2: Option<L2Params>| {
            let mut cfg = EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Blocking));
            cfg.miss_penalty = 30;
            cfg.l2 = l2;
            Core::new(cfg)
        };
        let l2 = L2Params {
            geometry: CacheGeometry::direct_mapped(256 * 1024, 32).unwrap(),
            hit_penalty: 6,
            replacement: nbl_core::tag_array::ReplacementKind::Lru,
        };
        // a and b conflict in the 8KB L1, not in the L2.
        let (a, b) = (0x10000, 0x20000);
        let stream = [load(a, 1), load(b, 1), load(a, 1)];

        // Flat hierarchy: every blocking miss costs 30.
        let mut flat = mk(None);
        replay(&mut flat, &stream);
        assert_eq!(flat.stats().blocking_stall_cycles, 90);

        // Two-level: first touches miss L2 (30 each); the conflict re-miss
        // of `a` hits the L2 and costs only 6.
        let mut two = mk(Some(l2));
        replay(&mut two, &stream);
        assert_eq!(two.stats().blocking_stall_cycles, 30 + 30 + 6);
    }

    #[test]
    fn l2_hits_complete_out_of_order_under_nonblocking_l1() {
        use nbl_core::geometry::CacheGeometry;
        let mut cfg = EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Register(
            RegisterFileConfig {
                entries: Limit::Finite(4),
                targets: TargetPolicy::explicit(Limit::Unlimited),
                max_outstanding_misses: Limit::Unlimited,
                max_fetches_per_set: Limit::Unlimited,
            },
        )));
        cfg.miss_penalty = 30;
        cfg.l2 = Some(L2Params {
            geometry: CacheGeometry::direct_mapped(256 * 1024, 32).unwrap(),
            hit_penalty: 6,
            replacement: nbl_core::tag_array::ReplacementKind::Lru,
        });
        let mut core = Core::new(cfg);
        let (a, b) = (0x10000, 0x20000);
        // Warm the L2 with `a` (L1 conflict evicts it from L1 via `b`).
        replay(&mut core, &[load(a, 1), load(b, 1)]);
        core.finish();
        let t0 = core.now();
        // Now: `b` is L1-resident; `a` was evicted but lives in L2. Issue a
        // long L2-missing load (new line), then the L2-hitting reload of
        // `a`, then a use of its result: the later fetch finishes first
        // and wakes its register first, about 6 cycles after issue, while
        // the L2-missing fetch is still outstanding.
        replay(
            &mut core,
            &[
                load(0x40000, 2),
                load(a, 3),
                DynInst::branch([Some(PhysReg::int(3)), None]),
            ],
        );
        let waited = core.now().since(t0);
        assert!(
            waited < 12,
            "L2 hit must not wait behind the L2 miss (waited {waited})"
        );
        assert!(
            core.scoreboard.is_pending(PhysReg::int(2)),
            "the long fetch is still in flight"
        );
        core.finish();
    }

    #[test]
    fn finish_drains_outstanding_fills() {
        let mut core = engine(mc1());
        replay(&mut core, &[load(0x1000, 1)]);
        core.finish();
        assert_eq!(core.sampler().misses_now(), 0);
        assert_eq!(core.sampler().fetches_now(), 0);
    }

    #[test]
    fn waiting_with_nothing_in_flight_is_a_typed_error() {
        // Force the invariant violation by hand: mark a register pending
        // with no fetch outstanding, then wait for it.
        let mut core = engine(mc1());
        core.scoreboard.set_pending(PhysReg::int(1));
        assert_eq!(
            core.wait_for_reg(PhysReg::int(1)),
            Err(EngineError::NoOutstandingFetch)
        );
        assert_eq!(
            EngineError::NoOutstandingFetch.to_string(),
            "engine waited for a fill but no fetch is outstanding"
        );
    }

    #[test]
    fn mem_tracing_round_trip_through_the_engine() {
        let mut core = engine(mc1());
        core.enable_mem_tracing();
        replay(&mut core, &[load(0x1000, 1), load(0x2000, 2)]);
        core.finish();
        let trace = core.take_mem_trace().expect("tracing enabled");
        // mc=1: second load is rejected once, retries as a fresh primary.
        assert_eq!(trace.stats.rejected, 1);
        assert_eq!(trace.stats.fetches, 2);
        assert_eq!(trace.stats.fills, 2);
    }
}
