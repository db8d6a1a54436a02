//! The port-based memory system the processor models drive.
//!
//! [`MemorySystem`] composes the hierarchy of the paper's §3.1 machine —
//! L1 + MSHRs → optional L2 tags → pipelined main memory — behind a
//! narrow port:
//!
//! * [`MemorySystem::access_load_decoded`] /
//!   [`MemorySystem::access_store_decoded`] submit one access, its address
//!   split under the L1 geometry, and report how it resolved
//!   ([`LoadResponse`] / [`StoreResponse`]);
//! * [`MemorySystem::next_event`] peeks the next fill completion time;
//! * [`MemorySystem::advance_to`] applies every fill due by a given cycle,
//!   in completion order, handing each [`FillEvent`] to the caller;
//! * [`MemorySystem::advance_to_next_event`] force-applies the earliest
//!   outstanding fill regardless of the clock — the stall primitive.
//!
//! The processor owns *when* (its issue clock, stall accounting, register
//! scoreboard); the memory system owns *what happens to memory traffic*
//! (MSHR tracking, fetch launch and latency selection, fill ordering).
//! Writes retire from the paper's write buffer for free (§3.1), so a
//! store costs nothing past its L1 access and, under write allocate, its
//! line fetch. Each non-hit access moves through the explicit lifecycle
//! `Issued → Merged | Rejected | FetchLaunched → Filled → TargetsWoken`,
//! and every access that does not retry ends in one `Resolved` outcome;
//! both are observable through the one observer armed by
//! [`MemorySystem::enable_tracing`] — see [`crate::event`].

use crate::event::{
    AccessKind, AccessOutcome, MemEvent, MemEventSink, MemTrace, ReplayCause, ServiceLevel,
};
use crate::memory::{CompletedFetch, MemoryError, PipelinedMemory};
use nbl_core::cache::{CacheConfig, LoadAccess, LockupFreeCache, StoreAccess};
use nbl_core::geometry::{CacheGeometry, DecodedAddr};
use nbl_core::mshr::{MissKind, Rejection, TargetRecord};
use nbl_core::tag_array::{ReplacementKind, TagArray};
use nbl_core::types::{Addr, BlockAddr, Cycle, Dest, LoadFormat};

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
}

impl MemSystemConfig {
    /// Baseline memory (16-cycle penalty, fully pipelined, no L2) over
    /// the given cache.
    pub fn with_cache(cache: CacheConfig) -> MemSystemConfig {
        MemSystemConfig {
            cache,
            miss_penalty: 16,
            memory_gap: 0,
            l2: None,
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

/// The composed memory hierarchy behind the port. See the module docs.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: LockupFreeCache,
    /// Tag-only second-level cache (extension): a bare [`TagArray`] and
    /// its hit penalty. Probed once per L1 fetch.
    l2: Option<(TagArray, u32)>,
    memory: PipelinedMemory,
    /// The one observer (lifecycle stats and outcome log); `None`
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
        self.trace = None;
        self.next_txn = 0;
        self.replay = ReplayClassifier::default();
    }

    /// Starts recording every event into a fresh [`MemTrace`]: lifecycle
    /// events into its stats, and each access's final outcome into its
    /// outcome log.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Box::default());
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

    /// Number of fetches in flight.
    #[inline]
    pub fn outstanding_fetches(&self) -> usize {
        self.memory.outstanding()
    }

    /// Load-hit probe over a pre-decoded address: the fused walk's first
    /// probe. Returns `true` — and counts the hit, moving the L1's
    /// replacement state as the full port does — exactly when
    /// [`MemorySystem::access_load_decoded`] would answer [`LoadResponse::Hit`]
    /// (a hit never reaches the MSHRs or the L2; its only event is the `Resolved` hit). On `false` nothing is recorded;
    /// the caller goes on to [`MemorySystem::load_miss_decoded`].
    #[inline]
    pub fn load_hit_decoded(&mut self, decoded: &DecodedAddr, now: Cycle) -> bool {
        if self.l1.load_hit_decoded(decoded) {
            self.resolve(AccessKind::Load, AccessOutcome::Hit, decoded.block, now);
            return true;
        }
        false
    }

    /// Store-hit probe: the [`StoreResponse::Done`] hit twin of
    /// [`MemorySystem::load_hit_decoded`] — counts the hit. On `false` nothing is recorded; the caller falls back to
    /// [`MemorySystem::access_store_decoded`].
    #[inline]
    pub fn store_hit_decoded(&mut self, decoded: &DecodedAddr, now: Cycle) -> bool {
        if self.l1.store_hit_decoded(decoded) {
            self.resolve(AccessKind::Store, AccessOutcome::Hit, decoded.block, now);
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

    /// Submits a load at time `now`, its address already decoded under
    /// this system's L1 geometry — the per-system half of the fused group
    /// step: the shared decode happens once, the MSHR state transition
    /// stays here. Hits resolve
    /// immediately; misses are tracked, serviced synchronously (blocking
    /// cache), or rejected — see [`LoadResponse`]. The port never
    /// advances the clock; the caller charges whatever stall the response
    /// implies.
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

    /// The miss half of [`MemorySystem::access_load_decoded`]:
    /// `decoded`'s tag probe has just missed
    /// ([`MemorySystem::load_hit_decoded`] returned `false`, with no fill
    /// applied since), so the L1 goes straight to its victim buffer and
    /// MSHRs without probing the tags again. Answers exactly what
    /// [`MemorySystem::access_load_decoded`] would.
    pub fn load_miss_decoded(
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

    /// Submits a store at time `now`, its address already decoded under
    /// this system's L1 geometry (the store half of the fused group step).
    /// Write-around misses and hits are done at once; write-allocate
    /// misses fetch their line, non-blocking when the MSHRs can track
    /// them — see [`StoreResponse`].
    pub fn access_store_decoded(&mut self, decoded: &DecodedAddr, now: Cycle) -> StoreResponse {
        let block = decoded.block;
        let access = self.l1.access_store_decoded(decoded);
        let response = match access {
            StoreAccess::Hit | StoreAccess::MissAround => StoreResponse::Done,
            StoreAccess::MissAllocate => {
                // Blocking write allocate: fetch the line synchronously.
                let (at, _woken) = self.blocking_service(AccessKind::Store, block, now);
                StoreResponse::Ready { at }
            }
            StoreAccess::MissAllocateTracked(kind) => {
                // Non-blocking write allocate: the store data waits in the
                // write buffer for the line; the processor does not stall.
                self.track_miss(AccessKind::Store, kind, block, now);
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
    /// never reaches the array and leaves the bank state untouched. The
    /// address comes decoded, as the fused walk's group step decodes it.
    pub fn access_load_replay(
        &mut self,
        decoded: &DecodedAddr,
        dest: Dest,
        format: LoadFormat,
        now: Cycle,
        reissue: bool,
        nacked: bool,
    ) -> ReplayLoadResponse {
        let (addr, block) = (decoded.addr, decoded.block);
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
        match self.access_load_decoded(decoded, dest, format, now) {
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
    pub fn access_store_replay(&mut self, decoded: &DecodedAddr, now: Cycle) -> StoreResponse {
        self.replay.last_store = Some((decoded.block, now));
        self.replay.bank_free_at[ReplayClassifier::bank_of(decoded.addr)] =
            now.0 + BANK_BUSY_CYCLES;
        self.access_store_decoded(decoded, now)
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

    /// The full port for a raw address, decoded under the system's own L1
    /// geometry.
    trait Port {
        fn load(&mut self, addr: Addr, dest: Dest, now: Cycle) -> LoadResponse;
        fn store(&mut self, addr: Addr, now: Cycle) -> StoreResponse;
    }

    impl Port for MemorySystem {
        fn load(&mut self, addr: Addr, dest: Dest, now: Cycle) -> LoadResponse {
            let decoded = self.l1.config().geometry.decode(addr);
            self.access_load_decoded(&decoded, dest, LoadFormat::WORD, now)
        }

        fn store(&mut self, addr: Addr, now: Cycle) -> StoreResponse {
            let decoded = self.l1.config().geometry.decode(addr);
            self.access_store_decoded(&decoded, now)
        }
    }

    fn system(mshr: MshrConfig) -> MemorySystem {
        MemorySystem::new(MemSystemConfig::with_cache(CacheConfig::baseline(mshr)))
    }

    /// The count-level conservation law of a trace with nothing left in
    /// flight: every issued transaction merged, was rejected or launched
    /// a fetch, and every fetch filled.
    fn assert_conserved(s: &crate::event::MissLifecycleStats) {
        assert_eq!(s.issued, s.merged + s.rejected + s.fetches, "issued");
        assert_eq!(s.fills, s.fetches, "filled");
    }

    #[test]
    fn load_miss_fill_wake_roundtrip() {
        let mut m = system(mc(2));
        let r = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(1)), Cycle(0));
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
        let r = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(2)), Cycle(17));
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
            m.store(Addr(0x1000), Cycle(0)),
            StoreResponse::Pending {
                kind: MissKind::Primary
            }
        );
        for (reg, addr) in [(PhysReg::int(3), 0x1008), (PhysReg::fp(5), 0x1010)] {
            assert_eq!(
                m.load(Addr(addr), Dest::Reg(reg), Cycle(1)),
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
        let first = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(1)), Cycle(0));
        assert_eq!(
            first,
            LoadResponse::Pending {
                kind: MissKind::Primary
            }
        );
        let second = m.load(Addr(0x2000), Dest::Reg(PhysReg::int(2)), Cycle(1));
        assert!(matches!(second, LoadResponse::Retry(_)));
        let fill = m.advance_to_next_event().expect("one fetch outstanding");
        assert_eq!(fill.at, Cycle(16));
        // Retry now succeeds as a fresh primary miss.
        let retried = m.load(Addr(0x2000), Dest::Reg(PhysReg::int(2)), Cycle(16));
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
        let r = m.load(Addr(0x40), Dest::Reg(PhysReg::int(1)), Cycle(5));
        assert_eq!(r, LoadResponse::Ready { at: Cycle(21) });
        assert_eq!(
            m.outstanding_fetches(),
            0,
            "blocking service is synchronous"
        );
        let again = m.load(Addr(0x48), Dest::Reg(PhysReg::int(2)), Cycle(21));
        assert_eq!(again, LoadResponse::Hit);
    }

    #[test]
    fn store_paths() {
        // Baseline is write-around: store misses are buffered, done.
        let mut m = system(mc(2));
        assert_eq!(m.store(Addr(0x5000), Cycle(0)), StoreResponse::Done);
        assert_eq!(m.l1().counters().store_misses, 1);
        assert_eq!(m.outstanding_fetches(), 0, "write-around fetches nothing");

        // Write-allocate with MSHRs: tracked, non-blocking.
        let mut cfg = CacheConfig::baseline(mc(2));
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut wa = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        assert_eq!(
            wa.store(Addr(0x5000), Cycle(0)),
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
            blk.store(Addr(0x5000), Cycle(0)),
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
        let geometry = fused[0].l1().config().geometry;
        for (i, &a) in addrs.iter().enumerate() {
            let dest = Dest::Reg(PhysReg::int(i as u8));
            let nows = [Cycle(i as u64), Cycle(2 * i as u64)];
            let expected: Vec<LoadResponse> = solo
                .iter_mut()
                .zip(nows)
                .map(|(m, now)| m.load(Addr(a), dest, now))
                .collect();
            let decoded = geometry.decode(Addr(a));
            let responses: Vec<LoadResponse> = fused
                .iter_mut()
                .zip(nows)
                .map(|(m, now)| m.access_load_decoded(&decoded, dest, LoadFormat::WORD, now))
                .collect();
            assert_eq!(responses, expected, "access {i} to {a:#x}");
        }
    }

    #[test]
    fn decoded_hit_probes_match_the_full_port() {
        // Direct-mapped (the one-compare probe), 4-way LRU (probe plus
        // policy touch) and fully associative (the indexed probe): one
        // system hits through the decoded probes, its twin through the
        // full port, and both must agree on counters, traces and the
        // victim the next miss evicts.
        let dest = Dest::Reg(PhysReg::int(1));
        for geometry in [
            CacheGeometry::baseline(),
            CacheGeometry::new(8 * 1024, 32, 4).unwrap(),
            CacheGeometry::fully_associative(8 * 1024, 32).unwrap(),
        ] {
            let mk = || {
                let mut cfg = CacheConfig::baseline(mc(2));
                cfg.geometry = geometry;
                let mut m = MemorySystem::new(MemSystemConfig::with_cache(cfg));
                m.enable_tracing();
                m
            };
            let (mut probed, mut port) = (mk(), mk());
            // `ways + 1` blocks of one set: the first `ways` fill it, the
            // last one evicts.
            let ways = u64::from(geometry.ways());
            let stride = geometry.num_sets() * u64::from(geometry.line_bytes());
            let addrs: Vec<Addr> = (0..=ways).map(|k| Addr(0x1000 + k * stride)).collect();
            let first = geometry.decode(addrs[0]);
            // Cold: the probes refuse and record nothing.
            assert!(!probed.load_hit_decoded(&first, Cycle(0)));
            assert!(!probed.store_hit_decoded(&first, Cycle(0)));
            assert_eq!(probed.l1().counters().load_hits, 0);
            assert_eq!(probed.l1().counters().store_hits, 0);
            let mut now = 0;
            for &a in &addrs[..ways as usize] {
                for m in [&mut probed, &mut port] {
                    let _ = m.load(a, dest, Cycle(now));
                    m.advance_to(Cycle(now + 16), |_| {});
                }
                now += 17;
            }
            // Hit the set's oldest line: through the probes on one side,
            // the full port on the other.
            assert!(probed.load_hit_decoded(&first, Cycle(now)));
            assert!(probed.store_hit_decoded(&first, Cycle(now)));
            assert_eq!(port.load(addrs[0], dest, Cycle(now)), LoadResponse::Hit);
            assert_eq!(port.store(addrs[0], Cycle(now)), StoreResponse::Done);
            // The next miss to the set evicts the same victim on both: the
            // probe moved the replacement state exactly as the port did.
            for m in [&mut probed, &mut port] {
                let _ = m.load(addrs[ways as usize], dest, Cycle(now + 1));
                m.advance_to(Cycle(now + 17), |_| {});
            }
            let resident = |m: &MemorySystem| -> Vec<bool> {
                addrs
                    .iter()
                    .map(|&a| m.l1().contains_block(geometry.block_of(a)))
                    .collect()
            };
            assert_eq!(resident(&probed), resident(&port), "{geometry}: victims");
            assert_eq!(
                resident(&probed)[0],
                ways > 1,
                "{geometry}: the hit line survives under LRU"
            );
            assert_eq!(probed.l1().counters(), port.l1().counters(), "{geometry}");
            assert_eq!(probed.l1().counters().load_hits, 1, "{geometry}");
            let trace = probed.take_trace().expect("tracing");
            assert_conserved(&trace.stats);
            assert_eq!(Some(trace), port.take_trace(), "{geometry}");
        }
    }

    #[test]
    fn tracing_observes_the_full_lifecycle() {
        let mut m = system(mc(2));
        m.enable_tracing();
        // Primary miss, then a secondary to the same line, then the fill.
        let _ = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(1)), Cycle(0));
        let _ = m.load(Addr(0x1008), Dest::Reg(PhysReg::int(2)), Cycle(1));
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
        assert_conserved(s);
    }

    #[test]
    fn blocking_service_traces_a_whole_lifecycle() {
        // A lockup cache with write allocate services a load miss and a
        // store miss synchronously; each still launches and fills.
        let mut cfg = CacheConfig::baseline(MshrConfig::Blocking);
        cfg.write_miss = WriteMissPolicy::WriteAllocate;
        let mut m = MemorySystem::new(MemSystemConfig::with_cache(cfg));
        m.enable_tracing();
        let _ = m.load(Addr(0x40), Dest::Reg(PhysReg::int(1)), Cycle(0));
        let _ = m.store(Addr(0x5000), Cycle(16));
        let trace = m.take_trace().expect("tracing was enabled");
        assert_eq!((trace.stats.issued, trace.stats.fills), (2, 2));
        assert_conserved(&trace.stats);
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut m = system(mc(2));
        let _ = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(1)), Cycle(0));
        assert!(m.trace().is_none());
        assert!(m.take_trace().is_none());
    }

    #[test]
    fn resolved_events_record_final_resolutions_without_perturbing() {
        let run = |traced: bool| {
            let mut m = system(mc(2));
            if traced {
                m.enable_tracing();
            }
            let mut log = Vec::new();
            for (i, addr) in [0x1000u64, 0x1008, 0x2000, 0x1000].into_iter().enumerate() {
                let r = m.load(
                    Addr(addr),
                    Dest::Reg(PhysReg::int(i as u8)),
                    Cycle(i as u64),
                );
                log.push(format!("{r:?}"));
            }
            m.advance_to(Cycle(100), |f| log.push(format!("{f:?}")));
            let r = m.load(Addr(0x1000), Dest::Reg(PhysReg::int(5)), Cycle(100));
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
        assert_eq!(trace.stats.rejected, 2);
        assert_conserved(&trace.stats);
    }

    #[test]
    fn traced_and_untraced_runs_are_cycle_identical() {
        let run = |traced: bool| {
            let mut m = system(mc(1));
            if traced {
                m.enable_tracing();
            }
            let mut log = Vec::new();
            for (i, addr) in [0x1000u64, 0x1008, 0x2000, 0x1000].into_iter().enumerate() {
                let r = m.load(
                    Addr(addr),
                    Dest::Reg(PhysReg::int(i as u8)),
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
