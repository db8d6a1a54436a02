//! The port-based memory system the processor models drive.
//!
//! [`MemorySystem`] composes the hierarchy of the paper's §3.1 machine —
//! L1 + MSHRs → optional L2 tags → pipelined main memory, with the write
//! buffer alongside — behind a narrow port:
//!
//! * [`MemorySystem::access_load`] / [`MemorySystem::access_store`] submit
//!   one access and report how it resolved ([`LoadResponse`] /
//!   [`StoreResponse`]);
//! * [`MemorySystem::next_event`] peeks the next fill completion time;
//! * [`MemorySystem::advance_to`] applies every fill due by a given cycle,
//!   in completion order, handing each [`FillEvent`] to the caller;
//! * [`MemorySystem::advance_to_next_event`] force-applies the earliest
//!   outstanding fill regardless of the clock — the stall primitive.
//!
//! The processor owns *when* (its issue clock, stall accounting, register
//! scoreboard); the memory system owns *what happens to memory traffic*
//! (MSHR tracking, fetch launch and latency selection, fill ordering,
//! write buffering). Each non-hit access moves through the explicit
//! lifecycle `Issued → Merged | Rejected | FetchLaunched → Filled →
//! TargetsWoken`, and every access that does not retry ends in one
//! `Resolved` outcome; both are observable through the one observer armed
//! by [`MemorySystem::enable_tracing`] — see [`crate::event`].

use crate::event::{
    AccessKind, AccessOutcome, MemEvent, MemEventSink, MemTrace, ReplayCause, ServiceLevel,
};
use crate::memory::{CompletedFetch, MemoryError, PipelinedMemory};
use crate::write_buffer::{RetirePolicy, WriteBuffer, WriteBufferStats};
use nbl_core::cache::{CacheConfig, LoadAccess, LockupFreeCache, StoreAccess};
use nbl_core::geometry::{CacheGeometry, DecodedAddr};
use nbl_core::mshr::{MissKind, Rejection, TargetRecord};
use nbl_core::tag_array::{ReplacementKind, TagArray};
use nbl_core::types::{Addr, BlockAddr, Cycle, Dest, LoadFormat};
use std::fmt;

/// A second-level cache between the L1 and main memory — an extension
/// beyond the paper, which studies only on-chip first-level caches and
/// cites two-level caching as adjacent work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Params {
    /// L2 geometry (must have the same line size as the L1).
    pub geometry: CacheGeometry,
    /// Cycles for an L1 miss that hits in the L2 (instead of the full
    /// miss penalty).
    pub hit_penalty: u32,
    /// Replacement policy of the L2 tag array.
    pub replacement: ReplacementKind,
}

/// Configuration of the memory system.
#[derive(Debug, Clone)]
pub struct MemSystemConfig {
    /// Data cache (geometry, write policy, MSHR organization).
    pub cache: CacheConfig,
    /// Miss penalty in cycles (paper baseline: 16).
    pub miss_penalty: u32,
    /// Minimum cycles between successive fetch completions: 0 is the
    /// paper's fully pipelined memory; larger values model a
    /// bandwidth-limited bus (ablation only).
    pub memory_gap: u32,
    /// Optional second-level cache (extension; `None` reproduces the
    /// paper's flat L1 + memory hierarchy).
    pub l2: Option<L2Params>,
    /// Write-buffer retirement policy (paper: free).
    pub retire: RetirePolicy,
}

impl MemSystemConfig {
    /// Baseline memory (16-cycle penalty, free-retirement write buffer)
    /// over the given cache.
    pub fn with_cache(cache: CacheConfig) -> MemSystemConfig {
        MemSystemConfig {
            cache,
            miss_penalty: 16,
            memory_gap: 0,
            l2: None,
            retire: RetirePolicy::Free,
        }
    }
}

/// How a load access resolved at the port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadResponse {
    /// The line is resident: data this cycle.
    Hit,
    /// The line was recovered from the victim buffer; the swap costs the
    /// processor one cycle.
    VictimHit,
    /// A non-blocking miss is now tracked (primary: a fetch was launched;
    /// secondary: merged into an in-flight fetch). The destination
    /// register becomes valid at the fill.
    Pending {
        /// Primary or secondary.
        kind: MissKind,
    },
    /// A blocking miss was serviced synchronously: the line is resident,
    /// but the data is usable only at `at` — the processor stalls until
    /// then.
    Ready {
        /// When the miss service completes.
        at: Cycle,
    },
    /// The MSHR organization could not track the miss. The processor must
    /// wait for a fill ([`MemorySystem::advance_to_next_event`]) and
    /// retry the access.
    Retry(Rejection),
}

/// How a store access resolved at the port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreResponse {
    /// Hit or write-around miss: the store is buffered, the processor
    /// continues immediately.
    Done,
    /// A non-blocking write-allocate miss is tracked; the store data
    /// waits in the write buffer for the line, the processor continues.
    Pending {
        /// Primary or secondary.
        kind: MissKind,
    },
    /// A blocking write-allocate miss was serviced synchronously; the
    /// processor stalls until `at`.
    Ready {
        /// When the miss service completes.
        at: Cycle,
    },
}

/// How a *speculative* load access resolved at the port (the replaying
/// pipeline model's view of [`MemorySystem::access_load_replay`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayLoadResponse {
    /// The access reached the data array; the inner [`LoadResponse`] says
    /// how it resolved (a miss still completes out of order via the MSHRs).
    Proceed(LoadResponse),
    /// The access was thrown back before (or at) the data array and must
    /// be replayed; the processor charges the cause's replay penalty and
    /// reissues.
    Replay(ReplayCause),
}

/// Number of data-array banks the replaying model's conflict check uses
/// (8-byte interleaving, so bits `[3..6]` of the address select the bank).
const LOAD_BANKS: usize = 8;

/// How long one access occupies its bank.
const BANK_BUSY_CYCLES: u64 = 2;

/// Window (in cycles) after a store during which an overlapping load
/// cannot forward cleanly and replays with [`ReplayCause::ForwardFail`].
const FWD_WINDOW: u64 = 4;

/// Pre-access state the replaying pipeline model classifies against:
/// per-bank busy times for the bank-conflict check and the most recent
/// store for the forwarding-failure window. The stalling models never
/// touch it, so their timing is unaffected.
#[derive(Debug, Clone, Default)]
struct ReplayClassifier {
    /// `bank_free_at[b]` = first cycle bank `b` accepts a new access.
    bank_free_at: [u64; LOAD_BANKS],
    /// Block and time of the most recent store, for the forwarding window.
    last_store: Option<(BlockAddr, Cycle)>,
}

impl ReplayClassifier {
    #[inline]
    fn bank_of(addr: Addr) -> usize {
        ((addr.0 >> 3) as usize) % LOAD_BANKS
    }

    #[inline]
    fn forward_fail(&self, block: BlockAddr, now: Cycle) -> bool {
        self.last_store
            .is_some_and(|(b, at)| b == block && now.0 < at.0 + FWD_WINDOW)
    }
}

/// One applied fill: the line is installed and all of its waiting targets
/// woke simultaneously at `at`.
///
/// The registers woken form one bitmask (bit `i` = the register with dense
/// index `i`, [`nbl_core::types::PhysReg::dense_index`]), so the processor
/// applies a fill with one scoreboard mask clear. `targets` counts every
/// waiting target, registers or not (write-buffer slots, prefetch tags),
/// so `woken_regs.count_ones() <= targets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillEvent {
    /// The filled block.
    pub block: BlockAddr,
    /// Completion time.
    pub at: Cycle,
    /// The registers the fill made valid, as a dense-index bitmask.
    pub woken_regs: u64,
    /// Number of targets that were waiting on the line.
    pub targets: u32,
}

/// Why a [`FusedMemGroup`] could not be formed over a set of memory
/// systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// The group has no members: there is nothing to share a decode with.
    Empty,
    /// A member decodes addresses differently from the first, so one
    /// shared set/tag split would be unsound for it.
    GeometryMismatch {
        /// The first member's L1 geometry, which the group adopted.
        expected: CacheGeometry,
        /// The mismatching member's L1 geometry.
        found: CacheGeometry,
    },
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::Empty => write!(f, "fused memory group is empty"),
            GroupError::GeometryMismatch { expected, found } => {
                write!(
                    f,
                    "fused memory group mixes geometries {expected} and {found}"
                )
            }
        }
    }
}

impl std::error::Error for GroupError {}

/// Shared-decode driver for a fused group of memory systems replaying
/// one address stream. Configurations in a fused group see the *same*
/// addresses, so the set-index/tag/block split is shared structure, not
/// per-config work — but only when every member decodes addresses
/// identically. Construction checks exactly that (one common L1
/// geometry); [`FusedMemGroup::decode`] then derives each address's
/// [`DecodedAddr`] once, and per-system
/// [`MemorySystem::access_load_decoded`] /
/// [`MemorySystem::access_store_decoded`] calls (behind the
/// direct-mapped [`MemorySystem::load_hit_direct`] fast path) fan it out
/// to the per-config MSHR banks and write buffers. Tag *state* still diverges
/// across members (fill timing differs per config), so probe results are
/// never shared — only the decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedMemGroup {
    geometry: CacheGeometry,
}

impl FusedMemGroup {
    /// Forms a group over `systems`, validating that every member shares
    /// the first member's L1 geometry.
    ///
    /// # Errors
    ///
    /// [`GroupError::Empty`] for an empty iterator and
    /// [`GroupError::GeometryMismatch`] when members disagree on how to
    /// decode an address.
    pub fn new<'a>(
        systems: impl IntoIterator<Item = &'a MemorySystem>,
    ) -> Result<FusedMemGroup, GroupError> {
        let mut geometry = None;
        for system in systems {
            let g = system.l1.config().geometry;
            match geometry {
                None => geometry = Some(g),
                Some(expected) if expected != g => {
                    return Err(GroupError::GeometryMismatch { expected, found: g })
                }
                Some(_) => {}
            }
        }
        geometry
            .map(|geometry| FusedMemGroup { geometry })
            .ok_or(GroupError::Empty)
    }

    /// The geometry every member decodes addresses under.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Decodes `addr` once for the whole group.
    #[inline]
    pub fn decode(&self, addr: Addr) -> DecodedAddr {
        self.geometry.decode(addr)
    }
}

/// The composed memory hierarchy behind the port. See the module docs.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: LockupFreeCache,
    /// Tag-only second-level cache (extension): a bare [`TagArray`] and
    /// its hit penalty. Probed once per L1 fetch.
    l2: Option<(TagArray, u32)>,
    memory: PipelinedMemory,
    write_buffer: WriteBuffer,
    /// The one observer (lifecycle ring, stats and outcome log); `None`
    /// (the default) records nothing and costs one pointer null-check per
    /// emission.
    trace: Option<Box<MemTrace>>,
    next_txn: u64,
    /// The one buffer every fill drains its MSHR targets through before
    /// they fold into a [`FillEvent`]; always empty between fills.
    fill_targets: Vec<TargetRecord>,
    /// Replay-cause classification state (only the replaying pipeline
    /// model reads or writes it).
    replay: ReplayClassifier,
}

impl MemorySystem {
    /// Builds the hierarchy. In-cache MSHR storage with a narrow read
    /// port pays extra cycles to recover the MSHR state on every fill
    /// (§2.3); it is modeled as added fill latency on every service path.
    ///
    /// # Panics
    ///
    /// Panics if an L2 is configured with a different line size than the
    /// L1.
    pub fn new(config: MemSystemConfig) -> MemorySystem {
        let effective_penalty = config.miss_penalty + config.cache.mshr.fill_extra_cycles();
        let l2 = config.l2.as_ref().map(|p| {
            assert_eq!(
                p.geometry.line_bytes(),
                config.cache.geometry.line_bytes(),
                "L1 and L2 must share a line size"
            );
            let tags = TagArray::new(p.geometry, p.replacement);
            (tags, p.hit_penalty + config.cache.mshr.fill_extra_cycles())
        });
        MemorySystem {
            memory: PipelinedMemory::with_gap(effective_penalty, config.memory_gap),
            l2,
            l1: LockupFreeCache::new(config.cache),
            write_buffer: WriteBuffer::new(config.retire),
            trace: None,
            next_txn: 0,
            fill_targets: Vec::new(),
            replay: ReplayClassifier::default(),
        }
    }

    /// Returns the hierarchy to its freshly-built state — caches invalid,
    /// nothing in flight, counters zero, tracing off — while keeping every
    /// internal allocation for reuse by the next run on this worker.
    pub fn reset(&mut self) {
        self.l1.reset();
        if let Some((l2, _)) = self.l2.as_mut() {
            l2.reset();
        }
        self.memory.reset();
        self.write_buffer.reset();
        self.trace = None;
        self.next_txn = 0;
        self.replay = ReplayClassifier::default();
    }

    /// Starts recording every event into a fresh [`MemTrace`]: lifecycle
    /// events into its ring (the last `ring_capacity` kept) and stats, and
    /// each access's final outcome into its outcome log.
    pub fn enable_tracing(&mut self, ring_capacity: usize) {
        self.trace = Some(Box::new(MemTrace::new(ring_capacity)));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&MemTrace> {
        self.trace.as_deref()
    }

    /// Stops tracing and returns the recorded trace.
    pub fn take_trace(&mut self) -> Option<MemTrace> {
        self.trace.take().map(|b| *b)
    }

    #[inline]
    fn emit(&mut self, event: MemEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            // nbl-allow(event-guard): this wrapper IS the guard every other emit site routes through
            t.record(&event);
        }
    }

    /// Emits the final resolution of one access.
    #[inline]
    fn resolve(&mut self, kind: AccessKind, outcome: AccessOutcome, block: BlockAddr, at: Cycle) {
        self.emit(MemEvent::Resolved {
            kind,
            outcome,
            block,
            at,
        });
    }

    #[inline]
    fn fresh_txn(&mut self) -> u64 {
        let t = self.next_txn;
        self.next_txn += 1;
        t
    }

    /// The first-level data cache (read-only: counters, geometry).
    #[inline]
    pub fn l1(&self) -> &LockupFreeCache {
        &self.l1
    }

    /// Write-buffer statistics.
    #[inline]
    pub fn write_buffer_stats(&self) -> WriteBufferStats {
        self.write_buffer.stats()
    }

    /// Number of fetches in flight.
    #[inline]
    pub fn outstanding_fetches(&self) -> usize {
        self.memory.outstanding()
    }

    /// The block containing `addr` under the L1 geometry.
    #[inline]
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        self.l1.block_of(addr)
    }

    /// `true` when a second-level cache is configured.
    #[inline]
    pub fn has_l2(&self) -> bool {
        self.l2.is_some()
    }

    /// Direct-mapped load-hit fast path over a pre-decoded address: the
    /// monomorphic fused kernel's first probe. Returns `true` — and
    /// counts the hit — exactly when [`MemorySystem::access_load`] would
    /// answer [`LoadResponse::Hit`] under a `ways == 1` L1 (a hit never
    /// reaches the MSHRs, the L2 or the write buffer; its only event is
    /// the `Resolved` hit). On `false` nothing is recorded; the caller
    /// falls back to the full port.
    #[inline]
    pub fn load_hit_direct(&mut self, decoded: &DecodedAddr, now: Cycle) -> bool {
        if self.l1.load_hit_direct(decoded.set, decoded.tag) {
            self.resolve(AccessKind::Load, AccessOutcome::Hit, decoded.block, now);
            return true;
        }
        false
    }

    /// Direct-mapped store-hit fast path: the [`StoreResponse::Done`]
    /// hit twin of [`MemorySystem::load_hit_direct`] — counts the hit and
    /// buffers the store. Same fall-back contract on `false`.
    #[inline]
    pub fn store_hit_direct(&mut self, decoded: &DecodedAddr, now: Cycle) -> bool {
        if self.l1.store_hit_direct(decoded.set, decoded.tag) {
            self.resolve(AccessKind::Store, AccessOutcome::Hit, decoded.block, now);
            self.write_buffer.push(decoded.addr, now);
            return true;
        }
        false
    }

    /// Latency of fetching `block`: the L2 hit penalty when an L2 is
    /// configured and holds the line, otherwise the full miss penalty.
    /// Probing also updates the (inclusive) L2 tags: a hit touches the
    /// line for the replacement policy, and a missing line is installed,
    /// modeling the fill on its way to the L1.
    fn fetch_latency(&mut self, block: BlockAddr) -> (u32, ServiceLevel) {
        let Some((l2, hit_penalty)) = self.l2.as_mut() else {
            return (self.memory.miss_penalty(), ServiceLevel::Memory);
        };
        if l2.touch(block) {
            (*hit_penalty, ServiceLevel::L2Hit)
        } else {
            l2.install(block); // tag-only and write-through: evictions drop
            (self.memory.miss_penalty(), ServiceLevel::Memory)
        }
    }

    /// Enters a non-blocking miss into the pipeline: a primary miss
    /// launches its fetch, a secondary merges into the one in flight.
    fn track_miss(&mut self, kind: AccessKind, miss: MissKind, block: BlockAddr, now: Cycle) {
        let txn = self.fresh_txn();
        self.emit(MemEvent::Issued {
            txn,
            kind,
            block,
            at: now,
        });
        match miss {
            MissKind::Primary => {
                let (latency, level) = self.fetch_latency(block);
                let fill_at = self.memory.issue_fetch_after(block, now, latency);
                self.emit(MemEvent::FetchLaunched {
                    txn,
                    block,
                    at: now,
                    fill_at,
                    level,
                });
            }
            MissKind::Secondary => self.emit(MemEvent::Merged {
                txn,
                block,
                at: now,
            }),
        }
    }

    /// Services a blocking miss synchronously: probes the hierarchy for
    /// the latency, installs the line, and returns the completion time
    /// plus the number of targets the fill drained (none under a lockup
    /// cache; the caller wakes no register for them).
    fn blocking_service(&mut self, kind: AccessKind, block: BlockAddr, now: Cycle) -> (Cycle, u32) {
        let txn = self.fresh_txn();
        self.emit(MemEvent::Issued {
            txn,
            kind,
            block,
            at: now,
        });
        let (latency, level) = self.fetch_latency(block);
        let at = now.plus(u64::from(latency));
        self.emit(MemEvent::FetchLaunched {
            txn,
            block,
            at: now,
            fill_at: at,
            level,
        });
        let (_, targets) = self.install_fill(block);
        self.emit(MemEvent::Filled { block, at });
        self.emit(MemEvent::TargetsWoken { block, at, targets });
        (at, targets)
    }

    /// Installs `block` in the L1 and drains its waiting MSHR targets
    /// through the fill buffer: returns the woken-register mask and the
    /// target count.
    fn install_fill(&mut self, block: BlockAddr) -> (u64, u32) {
        self.l1.fill_into(block, &mut self.fill_targets);
        let targets = self.fill_targets.len() as u32;
        let mut woken_regs = 0u64;
        for r in self.fill_targets.drain(..) {
            if let Dest::Reg(reg) = r.dest {
                woken_regs |= 1u64 << reg.dense_index();
            }
        }
        debug_assert!(woken_regs.count_ones() <= targets);
        (woken_regs, targets)
    }

    /// Submits a load at time `now`. Hits resolve immediately; misses are
    /// tracked, serviced synchronously (blocking cache), or rejected —
    /// see [`LoadResponse`]. The port never advances the clock; the
    /// caller charges whatever stall the response implies.
    pub fn access_load(
        &mut self,
        addr: Addr,
        dest: Dest,
        format: LoadFormat,
        now: Cycle,
    ) -> LoadResponse {
        let decoded = self.l1.config().geometry.decode(addr);
        self.access_load_decoded(&decoded, dest, format, now)
    }

    /// [`MemorySystem::access_load`] with the address already decoded
    /// under this system's L1 geometry — the per-system half of the fused
    /// group step ([`FusedMemGroup::decode`]): the shared decode happens
    /// once, the MSHR/write-buffer state transition stays here.
    pub fn access_load_decoded(
        &mut self,
        decoded: &DecodedAddr,
        dest: Dest,
        format: LoadFormat,
        now: Cycle,
    ) -> LoadResponse {
        let access = self.l1.access_load_decoded(decoded, dest, format);
        self.complete_load(access, decoded.block, now)
    }

    /// The miss half of [`MemorySystem::access_load_decoded`] for the
    /// direct-mapped fused kernel: `decoded`'s tag probe has just missed
    /// ([`MemorySystem::load_hit_direct`] returned `false`, with no fill
    /// applied since), so the L1 goes straight to its victim buffer and
    /// MSHRs without probing the tags again. Answers exactly what
    /// [`MemorySystem::access_load_decoded`] would.
    pub fn load_miss_direct(
        &mut self,
        decoded: &DecodedAddr,
        dest: Dest,
        format: LoadFormat,
        now: Cycle,
    ) -> LoadResponse {
        let access = self.l1.load_miss_decoded(decoded, dest, format);
        self.complete_load(access, decoded.block, now)
    }

    /// Carries a load's L1 outcome through the rest of the hierarchy:
    /// tracks or services a miss, or reports a rejection, and emits the
    /// access's lifecycle and resolution events.
    fn complete_load(&mut self, access: LoadAccess, block: BlockAddr, now: Cycle) -> LoadResponse {
        let (response, outcome) = match access {
            LoadAccess::Hit => (LoadResponse::Hit, AccessOutcome::Hit),
            LoadAccess::VictimHit => (LoadResponse::VictimHit, AccessOutcome::VictimHit),
            LoadAccess::Miss(kind) => {
                self.track_miss(AccessKind::Load, kind, block, now);
                (LoadResponse::Pending { kind }, AccessOutcome::Miss)
            }
            LoadAccess::Stalled(Rejection::Blocking) => {
                // Lockup cache: service the whole miss synchronously; the
                // data is then in the cache and usable at `at`.
                let (at, woken) = self.blocking_service(AccessKind::Load, block, now);
                debug_assert_eq!(woken, 0, "blocking cache has no waiting targets");
                (LoadResponse::Ready { at }, AccessOutcome::Miss)
            }
            LoadAccess::Stalled(reason) => {
                // A rejection leaves the tag state untouched and resolves
                // nothing; the retried access resolves later.
                let txn = self.fresh_txn();
                self.emit(MemEvent::Issued {
                    txn,
                    kind: AccessKind::Load,
                    block,
                    at: now,
                });
                self.emit(MemEvent::Rejected {
                    txn,
                    block,
                    reason,
                    at: now,
                });
                return LoadResponse::Retry(reason);
            }
        };
        self.resolve(AccessKind::Load, outcome, block, now);
        response
    }

    /// Submits a store at time `now`. Write-around misses and hits are
    /// buffered immediately; write-allocate misses fetch their line,
    /// non-blocking when the MSHRs can track them — see [`StoreResponse`].
    pub fn access_store(&mut self, addr: Addr, now: Cycle) -> StoreResponse {
        let decoded = self.l1.config().geometry.decode(addr);
        self.access_store_decoded(&decoded, now)
    }

    /// [`MemorySystem::access_store`] with the address already decoded
    /// under this system's L1 geometry (the store half of the fused group
    /// step).
    pub fn access_store_decoded(&mut self, decoded: &DecodedAddr, now: Cycle) -> StoreResponse {
        let (addr, block) = (decoded.addr, decoded.block);
        let access = self.l1.access_store_decoded(decoded);
        let response = match access {
            StoreAccess::Hit | StoreAccess::MissAround => {
                self.write_buffer.push(addr, now);
                StoreResponse::Done
            }
            StoreAccess::MissAllocate => {
                // Blocking write allocate: fetch the line synchronously;
                // the store is buffered once the line arrives.
                let (at, _woken) = self.blocking_service(AccessKind::Store, block, now);
                self.write_buffer.push(addr, at);
                StoreResponse::Ready { at }
            }
            StoreAccess::MissAllocateTracked(kind) => {
                // Non-blocking write allocate: the store data waits in the
                // write buffer for the line; the processor does not stall.
                self.track_miss(AccessKind::Store, kind, block, now);
                self.write_buffer.push(addr, now);
                StoreResponse::Pending { kind }
            }
        };
        let outcome = if access == StoreAccess::Hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        };
        self.resolve(AccessKind::Store, outcome, block, now);
        response
    }

    /// Submits a *speculatively issued* load at time `now` for the
    /// replaying pipeline model. A first issue (`reissue == false`) runs
    /// the pre-access replay checks in priority order — forwarding failure,
    /// then bank conflict — and a structurally rejected access maps to a
    /// [`ReplayCause::DcacheReplay`] NACK instead of [`LoadResponse::Retry`].
    /// A reissue from the replay queue skips the pre-access checks (the
    /// queue re-schedules around the original hazard), so every cause fires
    /// at most once per triggering access; only a repeated NACK can recur,
    /// and the processor then falls back to waiting for a fill —
    /// `nacked` marks such an already-NACKed access so the recurrence is
    /// not recorded as a fresh replay. An access that reaches the data
    /// array occupies its bank for the busy window; a replayed access
    /// never reaches the array and leaves the bank state untouched.
    pub fn access_load_replay(
        &mut self,
        addr: Addr,
        dest: Dest,
        format: LoadFormat,
        now: Cycle,
        reissue: bool,
        nacked: bool,
    ) -> ReplayLoadResponse {
        let block = self.l1.block_of(addr);
        if !reissue {
            if self.replay.forward_fail(block, now) {
                self.emit(MemEvent::LoadReplayed {
                    block,
                    cause: ReplayCause::ForwardFail,
                    at: now,
                });
                return ReplayLoadResponse::Replay(ReplayCause::ForwardFail);
            }
            if now.0 < self.replay.bank_free_at[ReplayClassifier::bank_of(addr)] {
                self.emit(MemEvent::LoadReplayed {
                    block,
                    cause: ReplayCause::BankConflict,
                    at: now,
                });
                return ReplayLoadResponse::Replay(ReplayCause::BankConflict);
            }
        }
        match self.access_load(addr, dest, format, now) {
            LoadResponse::Retry(_) => {
                if !nacked {
                    self.emit(MemEvent::LoadReplayed {
                        block,
                        cause: ReplayCause::DcacheReplay,
                        at: now,
                    });
                }
                ReplayLoadResponse::Replay(ReplayCause::DcacheReplay)
            }
            resp => {
                self.replay.bank_free_at[ReplayClassifier::bank_of(addr)] =
                    now.0 + BANK_BUSY_CYCLES;
                if matches!(resp, LoadResponse::Pending { .. }) {
                    self.emit(MemEvent::LoadReplayed {
                        block,
                        cause: ReplayCause::DcacheMiss,
                        at: now,
                    });
                }
                ReplayLoadResponse::Proceed(resp)
            }
        }
    }

    /// Submits a store at time `now` for the replaying pipeline model.
    /// Stores themselves never replay (they commit from the store queue at
    /// their own pace), but they feed the classifier: the store opens the
    /// forwarding-failure window on its block and occupies its data-array
    /// bank for the busy window.
    pub fn access_store_replay(&mut self, addr: Addr, now: Cycle) -> StoreResponse {
        let block = self.l1.block_of(addr);
        self.replay.last_store = Some((block, now));
        self.replay.bank_free_at[ReplayClassifier::bank_of(addr)] = now.0 + BANK_BUSY_CYCLES;
        self.access_store(addr, now)
    }

    /// Completion time of the earliest outstanding fetch, if any.
    #[inline]
    pub fn next_event(&self) -> Option<Cycle> {
        self.memory.next_completion().ok()
    }

    /// Applies every fetch that completes by `now` (inclusive), in
    /// completion order: each line is installed, its waiting targets fold
    /// into a [`FillEvent`], and the event is handed to `on_fill` (the
    /// processor wakes registers and samples from it).
    pub fn advance_to(&mut self, now: Cycle, mut on_fill: impl FnMut(FillEvent)) {
        while let Some(f) = self.memory.drain_ready(now).next() {
            on_fill(self.apply_fill(f));
        }
    }

    /// Applies the earliest outstanding fetch regardless of the current
    /// time — the stall primitive: the processor calls this when it must
    /// wait for *some* fill (a pending register, or an MSHR rejection)
    /// and advances its clock to the returned event's `at`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::NoFetchOutstanding`] when nothing is in flight — a
    /// processor bug if it believed a fill was owed (the typed error the
    /// engine propagates instead of panicking), and the normal
    /// termination condition for end-of-run drains.
    pub fn advance_to_next_event(&mut self) -> Result<FillEvent, MemoryError> {
        let f = self.memory.pop_next()?;
        Ok(self.apply_fill(f))
    }

    /// Applies one completed fetch: installs the line, wakes its targets
    /// and emits the fill's events.
    fn apply_fill(&mut self, f: CompletedFetch) -> FillEvent {
        let (woken_regs, targets) = self.install_fill(f.block);
        self.emit(MemEvent::Filled {
            block: f.block,
            at: f.at,
        });
        self.emit(MemEvent::TargetsWoken {
            block: f.block,
            at: f.at,
            targets,
        });
        FillEvent {
            block: f.block,
            at: f.at,
            woken_regs,
            targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::cache::WriteMissPolicy;
    use nbl_core::limit::Limit;
    use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
    use nbl_core::types::PhysReg;

    fn mc(n: u32) -> MshrConfig {
        MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(n),
            targets: TargetPolicy::explicit(Limit::Finite(4)),
            max_outstanding_misses: Limit::Finite(n),
            max_fetches_per_set: Limit::Unlimited,
        })
    }

    fn system(mshr: MshrConfig) -> MemorySystem {
        MemorySystem::new(MemSystemConfig::with_cache(CacheConfig::baseline(mshr)))
    }

    #[test]
    fn load_miss_fill_wake_roundtrip() {
        let mut m = system(mc(2));
        let r = m.access_load(
            Addr(0x1000),
            Dest::Reg(PhysReg::int(1)),
            LoadFormat::WORD,
            Cycle(0),
        );
        assert_eq!(
            r,
            LoadResponse::Pending {
                kind: MissKind::Primary
            }
        );
        assert_eq!(m.outstanding_fetches(), 1);
        assert_eq!(m.next_event(), Some(Cycle(16)));
        // Nothing due yet at cycle 10.
        let mut fills = Vec::new();
        m.advance_to(Cycle(10), |f| fills.push(f));
        assert!(fills.is_empty());
        m.advance_to(Cycle(16), |f| fills.push(f));
        assert_eq!(fills.len(), 1);
        assert_eq!(fills[0].at, Cycle(16));
        assert_eq!(fills[0].targets, 1);
        assert_eq!(fills[0].woken_regs, 1 << PhysReg::int(1).dense_index());
        assert_eq!(m.next_event(), None);
        // The line is now resident.
        let r = m.access_load(
            Addr(0x1000),
            Dest::Reg(PhysReg::int(2)),
            LoadFormat::WORD,
            Cycle(17),
        );
        assert_eq!(r, LoadResponse::Hit);
    }

    #[test]
    fn fill_folds_every_merged_target_into_one_event() {
        // Write-allocate over fc=1: a store miss (write-buffer target)
        // launches the fetch, two loads to the same line merge into it.
        let mut cfg = CacheConfig::baseline(MshrConfig::Register(RegisterFileConfig {
            entries: Limit::Finite(1),
            targets: TargetPolicy::explicit(Limit::Unlimited),
            max_outstanding_misses: Limit::Unlimited,
            max_fetches_per_set: Limit::Unlimited,
        }));
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut m = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        assert_eq!(
            m.access_store(Addr(0x1000), Cycle(0)),
            StoreResponse::Pending {
                kind: MissKind::Primary
            }
        );
        for (reg, addr) in [(PhysReg::int(3), 0x1008), (PhysReg::fp(5), 0x1010)] {
            assert_eq!(
                m.access_load(Addr(addr), Dest::Reg(reg), LoadFormat::WORD, Cycle(1)),
                LoadResponse::Pending {
                    kind: MissKind::Secondary
                }
            );
        }
        let fill = m.advance_to_next_event().expect("one fetch outstanding");
        assert_eq!(fill.at, Cycle(16));
        // Three targets woke; only the two registers are in the mask.
        assert_eq!(fill.targets, 3);
        assert_eq!(
            fill.woken_regs,
            1 << PhysReg::int(3).dense_index() | 1 << PhysReg::fp(5).dense_index()
        );
        assert_eq!(
            m.advance_to_next_event(),
            Err(MemoryError::NoFetchOutstanding)
        );
    }

    #[test]
    fn rejection_then_forced_advance() {
        let mut m = system(mc(1));
        let first = m.access_load(
            Addr(0x1000),
            Dest::Reg(PhysReg::int(1)),
            LoadFormat::WORD,
            Cycle(0),
        );
        assert_eq!(
            first,
            LoadResponse::Pending {
                kind: MissKind::Primary
            }
        );
        let second = m.access_load(
            Addr(0x2000),
            Dest::Reg(PhysReg::int(2)),
            LoadFormat::WORD,
            Cycle(1),
        );
        assert!(matches!(second, LoadResponse::Retry(_)));
        let fill = m.advance_to_next_event().expect("one fetch outstanding");
        assert_eq!(fill.at, Cycle(16));
        // Retry now succeeds as a fresh primary miss.
        let retried = m.access_load(
            Addr(0x2000),
            Dest::Reg(PhysReg::int(2)),
            LoadFormat::WORD,
            Cycle(16),
        );
        assert_eq!(
            retried,
            LoadResponse::Pending {
                kind: MissKind::Primary
            }
        );
    }

    #[test]
    fn empty_advance_is_typed_error() {
        let mut m = system(mc(1));
        assert_eq!(
            m.advance_to_next_event().unwrap_err(),
            MemoryError::NoFetchOutstanding
        );
    }

    #[test]
    fn blocking_load_ready_at_full_penalty() {
        let mut m = system(MshrConfig::Blocking);
        let r = m.access_load(
            Addr(0x40),
            Dest::Reg(PhysReg::int(1)),
            LoadFormat::WORD,
            Cycle(5),
        );
        assert_eq!(r, LoadResponse::Ready { at: Cycle(21) });
        assert_eq!(
            m.outstanding_fetches(),
            0,
            "blocking service is synchronous"
        );
        let again = m.access_load(
            Addr(0x48),
            Dest::Reg(PhysReg::int(2)),
            LoadFormat::WORD,
            Cycle(21),
        );
        assert_eq!(again, LoadResponse::Hit);
    }

    #[test]
    fn store_paths() {
        // Baseline is write-around: store misses are buffered, done.
        let mut m = system(mc(2));
        assert_eq!(m.access_store(Addr(0x5000), Cycle(0)), StoreResponse::Done);
        assert_eq!(m.write_buffer_stats().writes, 1);

        // Write-allocate with MSHRs: tracked, non-blocking.
        let mut cfg = CacheConfig::baseline(mc(2));
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut wa = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        assert_eq!(
            wa.access_store(Addr(0x5000), Cycle(0)),
            StoreResponse::Pending {
                kind: MissKind::Primary
            }
        );
        assert_eq!(wa.outstanding_fetches(), 1);

        // Write-allocate blocking: synchronous, ready at the penalty.
        let mut cfg = CacheConfig::baseline(MshrConfig::Blocking);
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut blk = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        assert_eq!(
            blk.access_store(Addr(0x5000), Cycle(0)),
            StoreResponse::Ready { at: Cycle(16) }
        );
    }

    #[test]
    fn group_step_matches_independent_access_calls() {
        // Two configs (different MSHR depth) replaying one stream: one
        // group decode per address, fanned out to every member, must
        // answer exactly what independent ports answer.
        let addrs = [0x1000u64, 0x1008, 0x2000, 0x1000, 0x3000, 0x2008];
        let mut solo = [system(mc(1)), system(mc(4))];
        let mut fused = [system(mc(1)), system(mc(4))];
        let group = FusedMemGroup::new(fused.iter()).expect("same geometry");
        for (i, &a) in addrs.iter().enumerate() {
            let dest = Dest::Reg(PhysReg::int(i as u8));
            let nows = [Cycle(i as u64), Cycle(2 * i as u64)];
            let expected: Vec<LoadResponse> = solo
                .iter_mut()
                .zip(nows)
                .map(|(m, now)| m.access_load(Addr(a), dest, LoadFormat::WORD, now))
                .collect();
            let decoded = group.decode(Addr(a));
            let responses: Vec<LoadResponse> = fused
                .iter_mut()
                .zip(nows)
                .map(|(m, now)| m.access_load_decoded(&decoded, dest, LoadFormat::WORD, now))
                .collect();
            assert_eq!(responses, expected, "access {i} to {a:#x}");
        }
    }

    #[test]
    fn group_rejects_mismatched_geometries_and_empty_groups() {
        let small = system(mc(1));
        let mut cfg = CacheConfig::baseline(mc(1));
        cfg.geometry = CacheGeometry::direct_mapped(64 * 1024, 32).unwrap();
        let large = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        let err = FusedMemGroup::new([&small, &large]).unwrap_err();
        assert!(matches!(err, GroupError::GeometryMismatch { .. }));
        assert!(err.to_string().contains("8KB"));
        assert_eq!(FusedMemGroup::new([]).unwrap_err(), GroupError::Empty);
    }

    #[test]
    fn direct_hit_fast_paths_match_the_full_port() {
        let mut m = system(mc(2));
        m.enable_tracing(0);
        let addr = Addr(0x1000);
        let d = m.l1().config().geometry.decode(addr);
        // Cold: the fast paths refuse and record nothing.
        assert!(!m.load_hit_direct(&d, Cycle(0)));
        assert!(!m.store_hit_direct(&d, Cycle(0)));
        assert_eq!(m.l1().counters().load_hits, 0);
        assert_eq!(m.write_buffer_stats().writes, 0);
        // Fill the line; both fast paths now hit, with side effects
        // matching the full port (counters, write buffering).
        let _ = m.access_load(addr, Dest::Reg(PhysReg::int(1)), LoadFormat::WORD, Cycle(0));
        m.advance_to(Cycle(16), |_| {});
        assert!(m.load_hit_direct(&d, Cycle(17)));
        assert_eq!(m.l1().counters().load_hits, 1);
        assert!(m.store_hit_direct(&d, Cycle(17)));
        assert_eq!(m.l1().counters().store_hits, 1);
        assert_eq!(m.write_buffer_stats().writes, 1);
        // ...and each hit resolves exactly as the full port's would.
        let outcomes = m.take_trace().expect("tracing was enabled").outcomes;
        assert_eq!(
            outcomes,
            vec![AccessOutcome::Miss, AccessOutcome::Hit, AccessOutcome::Hit]
        );
    }

    #[test]
    fn tracing_observes_the_full_lifecycle() {
        let mut m = system(mc(2));
        m.enable_tracing(64);
        // Primary miss, then a secondary to the same line, then the fill.
        let _ = m.access_load(
            Addr(0x1000),
            Dest::Reg(PhysReg::int(1)),
            LoadFormat::WORD,
            Cycle(0),
        );
        let _ = m.access_load(
            Addr(0x1008),
            Dest::Reg(PhysReg::int(2)),
            LoadFormat::WORD,
            Cycle(1),
        );
        m.advance_to(Cycle(16), |_| {});
        let trace = m.take_trace().expect("tracing was enabled");
        assert!(m.trace().is_none(), "take_trace disables tracing");
        let s = &trace.stats;
        assert_eq!(s.issued, 2);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.merged, 1);
        assert_eq!(s.fills, 1);
        assert_eq!(s.targets_woken, 2);
        assert_eq!(s.merge_depth[1], 1);
        assert_eq!(s.fanout[2], 1);
        assert_eq!(s.time_in_flight[16], 1);
        assert_eq!(trace.ring.total(), s.total_events());
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut m = system(mc(2));
        let _ = m.access_load(
            Addr(0x1000),
            Dest::Reg(PhysReg::int(1)),
            LoadFormat::WORD,
            Cycle(0),
        );
        assert!(m.trace().is_none());
        assert!(m.take_trace().is_none());
    }

    #[test]
    fn resolved_events_record_final_resolutions_without_perturbing() {
        let run = |traced: bool| {
            let mut m = system(mc(2));
            if traced {
                m.enable_tracing(64);
            }
            let mut log = Vec::new();
            for (i, addr) in [0x1000u64, 0x1008, 0x2000, 0x1000].into_iter().enumerate() {
                let r = m.access_load(
                    Addr(addr),
                    Dest::Reg(PhysReg::int(i as u8)),
                    LoadFormat::WORD,
                    Cycle(i as u64),
                );
                log.push(format!("{r:?}"));
            }
            m.advance_to(Cycle(100), |f| log.push(format!("{f:?}")));
            let r = m.access_load(
                Addr(0x1000),
                Dest::Reg(PhysReg::int(5)),
                LoadFormat::WORD,
                Cycle(100),
            );
            log.push(format!("{r:?}"));
            (log, m.take_trace())
        };
        let (untraced_log, none) = run(false);
        let (traced_log, trace) = run(true);
        assert_eq!(untraced_log, traced_log, "tracing must not perturb timing");
        assert_eq!(none, None, "no observer, no log");
        let trace = trace.expect("tracing was enabled");
        // Primary miss to 0x1000; the 0x1008 and repeated 0x1000
        // accesses are rejected (mc=2 MSHRs hold one target each) and a
        // rejection resolves *nothing* — only final resolutions count.
        // Then a second primary miss to 0x2000, and a genuine hit after
        // the fills land.
        assert_eq!(
            trace.outcomes,
            vec![AccessOutcome::Miss, AccessOutcome::Miss, AccessOutcome::Hit]
        );
        // Resolutions stay out of the lifecycle ring and stats.
        assert_eq!(trace.ring.total(), trace.stats.total_events());
        assert_eq!(trace.stats.rejected, 2);
    }

    #[test]
    fn traced_and_untraced_runs_are_cycle_identical() {
        let run = |traced: bool| {
            let mut m = system(mc(1));
            if traced {
                m.enable_tracing(16);
            }
            let mut log = Vec::new();
            for (i, addr) in [0x1000u64, 0x1008, 0x2000, 0x1000].into_iter().enumerate() {
                let r = m.access_load(
                    Addr(addr),
                    Dest::Reg(PhysReg::int(i as u8)),
                    LoadFormat::WORD,
                    Cycle(i as u64),
                );
                log.push(format!("{r:?}"));
            }
            m.advance_to(Cycle(100), |f| log.push(format!("{f:?}")));
            log
        };
        assert_eq!(run(false), run(true), "tracing must not perturb timing");
    }
}
