//! The policy-parameterized issue engine: the one processor type, with
//! each processor model an [`IssuePolicy`] value (enum dispatch, the same
//! seam shape as the tag arrays' `ReplacementPolicy`):
//!
//! * [`IssuePolicy::SingleInOrder`] — the paper's §3.1 machine, which all
//!   baseline figures use. One instruction issues per cycle with
//!   single-cycle latency, perfect I-cache and branch prediction, so the
//!   measured stall cycles per instruction are exactly the miss CPI.
//! * [`IssuePolicy::DualInOrder`] — the §6 machine that validates the
//!   IPC-scaling rule (Fig. 19). Up to two instructions issue per cycle,
//!   strictly in order; at most one is a memory operation (one data-cache
//!   port); the follower may not read or rewrite the leader's destination
//!   and must be free of pending-register hazards, and the leader never
//!   waits for the follower. Run the same stream with `perfect_cache` for
//!   the no-miss cycle count: [`IssueEngine::mcpi_against`] gives
//!   `(cycles − perfect_cycles) / instructions`, the dual-issue MCPI.
//! * [`IssuePolicy::ReplayCause`] — a modern speculative load pipeline:
//!   loads issue without waiting for hit/miss resolution and are
//!   *replayed* on a prioritized set of causes (XiangShan's
//!   `LoadReplayCauses` design space) instead of stalling the whole
//!   pipeline, with per-cause counts and stall cycles accumulated into a
//!   [`ReplayAttribution`].
//!
//! Every simulation replays a recorded tape ([`IssueEngine::run_tape`],
//! then [`IssueEngine::finish`]), and each model has one tape walk: both
//! single-width models step through [`Core::replay_fused`] over a group
//! of one (the replaying model differs only in its memory step), the dual
//! model through its pairing loop. A stream of
//! [`nbl_core::inst::DynInst`]s is recorded into a tape first
//! ([`TraceTape::push`]). The walks are checked against an independent,
//! cycle-stepped reference machine (`tests/reference/mod.rs` at the
//! workspace root) that shares no simulation code with this crate.

use crate::core_engine::{check_drained, Core, EngineConfig, EngineError};
use crate::stats::{CpuStats, InFlightSampler, ReplayAttribution};
use nbl_core::cache::LockupFreeCache;
use nbl_core::types::Cycle;
use nbl_mem::system::MemorySystem;
use nbl_trace::tape::TraceTape;

/// Which issue discipline the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IssuePolicy {
    /// The paper's §3.1 machine: one instruction per cycle, strictly in
    /// order, stalling on every hazard.
    #[default]
    SingleInOrder,
    /// The §6 machine: up to two instructions per cycle, one memory port,
    /// leader-never-waits-for-follower pairing.
    DualInOrder,
    /// Single-issue width, but loads issue speculatively and are replayed
    /// on XiangShan-style causes (forward-fail, NACK, bank conflict)
    /// instead of the access stalling in place; real misses complete out
    /// of order and their cost is attributed to the consumer.
    ReplayCause,
}

/// The shared issue engine: a [`Core`] (scoreboard + clock + stats +
/// memory port + replay attribution) plus the dual-issue pair count.
///
/// # Examples
///
/// ```
/// use nbl_cpu::core_engine::EngineConfig;
/// use nbl_cpu::issue::{IssueEngine, IssuePolicy};
/// use nbl_core::cache::CacheConfig;
/// use nbl_core::mshr::MshrConfig;
/// use nbl_core::mshr::inverted::InvertedConfig;
/// use nbl_core::inst::DynInst;
/// use nbl_core::types::{Addr, LoadFormat, PhysReg};
/// use nbl_trace::tape::TraceTape;
///
/// let mut tape = TraceTape::with_capacity("example", 0, 2);
/// tape.push(DynInst::load(Addr(0x100), PhysReg::int(1), LoadFormat::WORD));
/// tape.push(DynInst::alu(PhysReg::int(2), [Some(PhysReg::int(1)), None]));
/// let config = EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Inverted(
///     InvertedConfig::typical(),
/// )));
/// let mut cpu = IssueEngine::new(config, IssuePolicy::SingleInOrder);
/// cpu.run_tape(&tape).unwrap();
/// cpu.finish().unwrap();
/// // The dependent use stalled for the miss penalty (16 - 1 issue cycle).
/// assert_eq!(cpu.stats().data_dep_stall_cycles, 15);
/// ```
#[derive(Debug, Clone)]
pub struct IssueEngine {
    core: Core,
    policy: IssuePolicy,
    /// Cycles in which two instructions issued together (dual only).
    pairs_issued: u64,
}

impl IssueEngine {
    /// Creates an engine at cycle zero with a cold cache.
    pub fn new(config: EngineConfig, policy: IssuePolicy) -> IssueEngine {
        let mut core = Core::new(config);
        core.replaying = policy == IssuePolicy::ReplayCause;
        IssueEngine {
            core,
            policy,
            pairs_issued: 0,
        }
    }

    /// The issue discipline this engine runs.
    pub fn policy(&self) -> IssuePolicy {
        self.policy
    }

    /// Replays a recorded tape, driven straight off its packed arrays:
    /// the dual model runs its pairing loop, both single-width models the
    /// fused walk ([`Core::replay_fused`]) over a group of one.
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any entry hits.
    pub fn run_tape(&mut self, tape: &TraceTape) -> Result<(), EngineError> {
        match self.policy {
            IssuePolicy::DualInOrder => self.run_tape_dual(tape),
            IssuePolicy::SingleInOrder | IssuePolicy::ReplayCause => {
                Core::replay_fused(tape, &mut [&mut self.core])
            }
        }
    }

    /// The dual pairing loop over packed tape entries: each leader
    /// resolves its hazards and issues, and the next entry co-issues
    /// beside it when it neither reads nor rewrites the leader's
    /// destination, the two do not both need the one memory port, and its
    /// registers are valid. Conflict and port checks use the byte-compare
    /// forms ([`TraceTape::conflicts`], [`TraceTape::is_mem`]), and
    /// addresses come from one cursor stepped at each executed entry. The
    /// last entry, when no leader takes it as a follower, issues alone.
    fn run_tape_dual(&mut self, tape: &TraceTape) -> Result<(), EngineError> {
        let n = tape.len();
        let mut addrs = tape.addr_cursor();
        let mut i = 0;
        while i < n {
            self.core.drain_fills();
            self.core.replay_hazards(tape, i)?;
            self.core
                .replay_execute(tape, i, addrs.step(tape.is_mem(i)))?;
            let coissue = i + 1 < n
                && !(tape.conflicts(i, i + 1) || tape.is_mem(i) && tape.is_mem(i + 1))
                && {
                    // Fills that completed during the leader's stalls may
                    // have freed the follower's registers this very cycle.
                    self.core.drain_fills();
                    self.core.replay_hazards_clear(tape, i + 1)
                };
            if coissue {
                self.core
                    .replay_execute(tape, i + 1, addrs.step(tape.is_mem(i + 1)))?;
                self.pairs_issued += 1;
                self.core.tick();
                i += 2;
            } else {
                self.core.tick();
                i += 1;
            }
        }
        check_drained(&addrs, n)
    }

    /// Finalizes the run ([`Core::finish`]): every fetch still in flight
    /// lands, the sampler closes out and the replay attribution is
    /// completed.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the run/finish pair uniform for
    /// callers that propagate [`EngineError`]s.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        self.core.finish();
        Ok(())
    }

    /// Returns the engine to its freshly-built state (cold cache, cycle
    /// zero, zero counters) while keeping internal
    /// allocations, so a pooled worker can be reused run-to-run without
    /// touching the heap. Results after a reset are bit-identical to a new
    /// engine's.
    pub fn reset(&mut self) {
        self.core.reset();
        self.pairs_issued = 0;
    }

    /// Mutable access to the underlying core, for the fused multi-config
    /// replay entry point ([`Core::replay_fused`] — valid for the two
    /// single-width models, [`IssuePolicy::SingleInOrder`] and
    /// [`IssuePolicy::ReplayCause`], which may share one group).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.core.now()
    }

    /// Accumulated statistics.
    ///
    /// Under [`IssuePolicy::DualInOrder`], `stats().mcpi()` (stall cycles
    /// per instruction) undercounts the paper's memory CPI, because a miss
    /// also suppresses co-issue opportunities; use
    /// [`IssueEngine::mcpi_against`] with a perfect-cache run.
    pub fn stats(&self) -> &CpuStats {
        self.core.stats()
    }

    /// Per-cause replay accounting (all zero outside
    /// [`IssuePolicy::ReplayCause`]; complete after
    /// [`IssueEngine::finish`]).
    pub fn attribution(&self) -> &ReplayAttribution {
        self.core.attribution()
    }

    /// Number of cycles in which two instructions issued together.
    pub fn pairs_issued(&self) -> u64 {
        self.pairs_issued
    }

    /// Memory CPI relative to a perfect-cache cycle count of the same
    /// instruction stream: `(cycles − perfect_cycles) / instructions`.
    pub fn mcpi_against(&self, perfect_cycles: Cycle) -> f64 {
        let n = self.core.stats().instructions;
        if n == 0 {
            return 0.0;
        }
        (self.now().0.saturating_sub(perfect_cycles.0)) as f64 / n as f64
    }

    /// The in-flight occupancy sampler.
    pub fn sampler(&self) -> &InFlightSampler {
        self.core.sampler()
    }

    /// The data cache.
    pub fn cache(&self) -> &LockupFreeCache {
        self.core.cache()
    }

    /// The memory system behind the port.
    pub fn memory(&self) -> &MemorySystem {
        self.core.memory()
    }

    /// Starts the memory system's one observer (see [`nbl_mem::event`]):
    /// lifecycle events, their stats, and the per-access outcome log.
    pub fn enable_mem_tracing(&mut self) {
        self.core.enable_mem_tracing();
    }

    /// Stops tracing and returns the recorded trace, if any.
    pub fn take_mem_trace(&mut self) -> Option<nbl_mem::event::MemTrace> {
        self.core.take_mem_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::cache::CacheConfig;
    use nbl_core::inst::DynInst;
    use nbl_core::limit::Limit;
    use nbl_core::mshr::inverted::InvertedConfig;
    use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
    use nbl_core::types::{Addr, LoadFormat, PhysReg};
    use nbl_mem::event::ReplayCause;

    fn unrestricted() -> EngineConfig {
        EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Inverted(
            InvertedConfig::typical(),
        )))
    }

    fn mc1() -> EngineConfig {
        EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Register(
            RegisterFileConfig {
                entries: Limit::Finite(1),
                targets: TargetPolicy::explicit(Limit::Finite(1)),
                max_outstanding_misses: Limit::Finite(1),
                max_fetches_per_set: Limit::Unlimited,
            },
        )))
    }

    fn blocking() -> EngineConfig {
        EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Blocking))
    }

    fn tape_of(stream: &[DynInst]) -> TraceTape {
        let mut tape = TraceTape::with_capacity("t", 0, stream.len());
        for inst in stream {
            tape.push(*inst);
        }
        tape
    }

    /// `stream` recorded into a tape and replayed to the end under
    /// `(config, policy)`.
    fn ran(config: EngineConfig, policy: IssuePolicy, stream: &[DynInst]) -> IssueEngine {
        let mut e = IssueEngine::new(config, policy);
        e.run_tape(&tape_of(stream)).unwrap();
        e.finish().unwrap();
        e
    }

    fn single(config: EngineConfig, stream: &[DynInst]) -> IssueEngine {
        ran(config, IssuePolicy::SingleInOrder, stream)
    }

    fn dual(perfect: bool, stream: &[DynInst]) -> IssueEngine {
        let mut config = unrestricted();
        config.perfect_cache = perfect;
        ran(config, IssuePolicy::DualInOrder, stream)
    }

    fn replaying(config: EngineConfig, stream: &[DynInst]) -> IssueEngine {
        ran(config, IssuePolicy::ReplayCause, stream)
    }

    fn load(addr: u64, reg: u8) -> DynInst {
        DynInst::load(Addr(addr), PhysReg::int(reg), LoadFormat::WORD)
    }

    fn alu(dst: u8, src: Option<u8>) -> DynInst {
        DynInst::alu(PhysReg::int(dst), [src.map(PhysReg::int), None])
    }

    /// Loads to distinct lines in recurring sets, each used by an ALU op
    /// whose result is stored, plus an independent ALU op.
    fn mixed_stream() -> Vec<DynInst> {
        (0..60u64)
            .flat_map(|i| {
                [
                    DynInst::load(Addr(i * 520), PhysReg::int((i % 8) as u8), LoadFormat::WORD),
                    DynInst::alu(
                        PhysReg::int(10 + (i % 8) as u8),
                        [Some(PhysReg::int((i % 8) as u8)), None],
                    ),
                    DynInst::alu(PhysReg::int(20), [None, None]),
                    DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + (i % 8) as u8))),
                ]
            })
            .collect()
    }

    fn independent_alus(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| DynInst::alu(PhysReg::int((i % 16) as u8), [Some(PhysReg::int(20)), None]))
            .collect()
    }

    /// A two-miss independent sequence: ld A; ld B; use A; use B.
    fn two_loads_two_uses() -> Vec<DynInst> {
        vec![
            load(0x1000, 1),
            load(0x2000, 2),
            alu(3, Some(1)),
            alu(4, Some(2)),
        ]
    }

    #[test]
    fn overlapping_misses_beat_hit_under_miss() {
        // Unrestricted: both misses overlap; total stall ≈ one penalty.
        let best = single(unrestricted(), &two_loads_two_uses());
        // ld A cy0 (fill 16), ld B cy1 (fill 17), use A stalls 2..16,
        // use B issues at 17 with no stall.
        assert_eq!(best.stats().data_dep_stall_cycles, 14);
        assert_eq!(best.stats().total_stall_cycles(), 14);

        // mc=1: the second load structurally stalls until the first fill.
        let hum = single(mc1(), &two_loads_two_uses());
        // ld A cy0 (fill 16); ld B stalls 1..16 then misses (fill 32);
        // use A at 17 (no stall); use B stalls 18..32.
        assert_eq!(hum.stats().structural_stall_cycles, 15);
        assert_eq!(hum.stats().data_dep_stall_cycles, 14);
        assert!(hum.stats().total_stall_cycles() > best.stats().total_stall_cycles());

        // Blocking: both misses serialize completely.
        let blk = single(blocking(), &two_loads_two_uses());
        assert_eq!(blk.stats().blocking_stall_cycles, 32);
        assert!(blk.stats().total_stall_cycles() > hum.stats().total_stall_cycles());
    }

    #[test]
    fn mcpi_accounts_per_instruction() {
        let p = single(blocking(), &two_loads_two_uses());
        assert_eq!(p.stats().instructions, 4);
        assert!((p.stats().mcpi() - 32.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_sees_overlap_only_when_hardware_allows() {
        let best = single(unrestricted(), &two_loads_two_uses());
        assert_eq!(best.sampler().max_misses(), 2);
        assert_eq!(best.sampler().max_fetches(), 2);

        let hum = single(mc1(), &two_loads_two_uses());
        assert_eq!(hum.sampler().max_misses(), 1);
    }

    #[test]
    fn reset_matches_a_fresh_engine_bit_for_bit() {
        let tape = tape_of(&mixed_stream());
        for config in [unrestricted(), mc1(), blocking()] {
            let mut fresh = IssueEngine::new(config.clone(), IssuePolicy::SingleInOrder);
            fresh.run_tape(&tape).unwrap();
            fresh.finish().unwrap();

            let mut reused = IssueEngine::new(config, IssuePolicy::SingleInOrder);
            reused.run_tape(&tape).unwrap();
            reused.finish().unwrap();
            reused.reset();
            reused.run_tape(&tape).unwrap();
            reused.finish().unwrap();

            assert_eq!(reused.now(), fresh.now());
            assert_eq!(reused.stats(), fresh.stats());
            assert_eq!(reused.cache().counters(), fresh.cache().counters());
            assert_eq!(
                reused.sampler().max_misses(),
                fresh.sampler().max_misses(),
                "reset must clear sampler history"
            );
        }
    }

    #[test]
    fn run_of_hits_is_stall_free() {
        // Touch a line (primary miss), let the fill land behind 16 ALU ops
        // (cycles 1..=16, the fill at 16), then hammer the resident line:
        // pure hits, each costing exactly its issue cycle.
        let mut stream = vec![load(0, 1)];
        stream.extend((0..16).map(|_| alu(2, None)));
        stream.extend((0..20u64).map(|i| load(i % 32, 3 + (i % 20) as u8)));
        let p = single(mc1(), &stream);
        assert_eq!(p.stats().total_stall_cycles(), 0);
        assert_eq!(p.now(), Cycle(37), "one cycle per instruction");
        assert_eq!(p.cache().counters().load_hits, 20);
    }

    #[test]
    fn independent_alus_dual_issue_at_ipc_2() {
        let p = dual(true, &independent_alus(17));
        // 16 registers rotate, neighbours never conflict: 8 pairs + 1 single.
        assert_eq!(p.now(), Cycle(9));
        assert_eq!(p.stats().instructions, 17);
        assert_eq!(p.pairs_issued(), 8);
    }

    #[test]
    fn dependent_chain_single_issues() {
        let chain: Vec<_> = (0..10u8).map(|i| alu(i + 1, Some(i))).collect();
        let p = dual(true, &chain);
        assert_eq!(p.now(), Cycle(10));
        assert_eq!(p.pairs_issued(), 0);
    }

    #[test]
    fn only_one_memory_op_per_cycle() {
        let loads: Vec<_> = (0..10u64).map(|i| load(i * 8, i as u8)).collect();
        let p = dual(true, &loads);
        assert_eq!(p.now(), Cycle(10), "loads cannot pair with loads");
    }

    #[test]
    fn load_pairs_with_alu() {
        let stream: Vec<_> = (0..10u64)
            .flat_map(|i| [load(i * 8, i as u8), alu(20, Some(21))])
            .collect();
        let p = dual(true, &stream);
        assert_eq!(p.now(), Cycle(10));
        assert_eq!(p.pairs_issued(), 10);
    }

    #[test]
    fn follower_with_pending_source_waits_a_cycle() {
        // Leader load misses; follower uses its result: cannot co-issue and
        // then stalls as leader of the next cycle until the fill.
        let p = dual(false, &[load(0x1000, 1), alu(2, Some(1))]);
        assert_eq!(p.pairs_issued(), 0);
        assert_eq!(p.stats().data_dep_stall_cycles, 15);
    }

    #[test]
    fn follower_structural_stall_blocks_the_pair() {
        // mc=1: leader load misses, follower ALU pairs with it; then a
        // second load misses structurally and must wait for the first
        // fill before its fetch can start.
        let stream = [
            load(0x1000, 1),
            alu(9, None),
            load(0x2000, 2),
            alu(10, None),
        ];
        let p = ran(mc1(), IssuePolicy::DualInOrder, &stream);
        assert!(p.stats().structural_stall_cycles > 0);
        assert_eq!(p.stats().structural_stall_misses, 1);
        assert_eq!(p.stats().instructions, 4);
    }

    #[test]
    fn mem_mem_pairs_rejected_in_both_orders() {
        // The single memory port rejects a mem/mem pair whichever way
        // round it arrives: load-then-store and store-then-load both
        // single-issue, one memory op per cycle.
        for store_first in [false, true] {
            let stream: Vec<_> = (0..5u64)
                .flat_map(|i| {
                    let l = load(i * 8, i as u8);
                    let s = DynInst::store(Addr(0x4000 + i * 8), None);
                    if store_first {
                        [s, l]
                    } else {
                        [l, s]
                    }
                })
                .collect();
            let p = dual(true, &stream);
            assert_eq!(p.pairs_issued(), 0, "store_first={store_first}");
            assert_eq!(p.now(), Cycle(10), "store_first={store_first}");
            assert_eq!(p.stats().instructions, 10);
        }
    }

    #[test]
    fn odd_length_tail_single_issues() {
        // Odd stream: the last instruction has no partner and issues alone.
        let even = dual(true, &independent_alus(8));
        assert_eq!(even.now(), Cycle(4));
        assert_eq!(even.pairs_issued(), 4);
        let odd = dual(true, &independent_alus(9));
        assert_eq!(odd.now(), Cycle(5), "the tail costs one extra cycle");
        assert_eq!(odd.pairs_issued(), 4);
        assert_eq!(odd.stats().instructions, 9);
    }

    #[test]
    fn mcpi_against_perfect_run() {
        let stream: Vec<_> = (0..50u64)
            .flat_map(|i| {
                let r = (i % 8) as u8;
                [load(i * 4096, r), alu(10 + r, Some(r))]
            })
            .collect();
        let perfect = dual(true, &stream);
        let real = dual(false, &stream);
        let mcpi = real.mcpi_against(perfect.now());
        assert!(mcpi > 0.0, "misses must cost something: {mcpi}");
        // Every pair misses and immediately uses the data: near-worst case.
        assert!(mcpi < 16.0);
    }

    /// ld A; use A — the use's wait is attributed to the miss cause.
    #[test]
    fn replaying_model_attributes_consumer_wait_to_dcache_miss() {
        let e = replaying(unrestricted(), &[load(0x1000, 1), alu(2, Some(1))]);
        let attr = *e.attribution();
        assert_eq!(attr.count(ReplayCause::DcacheMiss), 1);
        assert_eq!(attr.count(ReplayCause::BankConflict), 0);
        assert_eq!(attr.count(ReplayCause::ForwardFail), 0);
        assert_eq!(attr.count(ReplayCause::DcacheReplay), 0);
        assert_eq!(
            attr.stalls(ReplayCause::DcacheMiss),
            e.stats().data_dep_stall_cycles
        );
        assert_eq!(e.stats().data_dep_stall_cycles, 15);
    }

    /// Back-to-back loads to the same bank: the second replays exactly once.
    #[test]
    fn bank_conflict_fires_once_per_triggering_access() {
        // Same bank (bits [3..6] of the address), different lines and
        // sets. Warm both lines first so the conflicting pair are pure
        // hits.
        let (a, b) = (0x0000, 0x0440);
        let mut warm = vec![load(a, 1)];
        warm.extend((0..40).map(|_| alu(9, None)));
        warm.push(load(b, 2));
        warm.extend((0..40).map(|_| alu(9, None)));
        let before = *replaying(unrestricted(), &warm).attribution();
        let mut stream = warm;
        stream.extend([load(a, 3), load(b, 4)]);
        let attr = *replaying(unrestricted(), &stream).attribution();
        assert_eq!(
            attr.count(ReplayCause::BankConflict) - before.count(ReplayCause::BankConflict),
            1,
            "the second back-to-back same-bank load replays exactly once"
        );
        assert_eq!(
            attr.stalls(ReplayCause::BankConflict) - before.stalls(ReplayCause::BankConflict),
            2,
            "a bank conflict costs the fast replay bubble"
        );
    }

    /// A load overlapping a just-issued store replays once for forward-fail.
    #[test]
    fn forward_fail_fires_once_per_triggering_access() {
        // Warm the line so the load would otherwise be a pure hit.
        let mut stream = vec![load(0x100, 1)];
        stream.extend((0..40).map(|_| alu(9, None)));
        stream.push(DynInst::store(Addr(0x100), Some(PhysReg::int(9))));
        stream.push(load(0x104, 2));
        let attr = *replaying(unrestricted(), &stream).attribution();
        assert_eq!(attr.count(ReplayCause::ForwardFail), 1);
        assert_eq!(
            attr.stalls(ReplayCause::ForwardFail),
            4,
            "forwarding failure costs the slow replay bubble"
        );
        assert_eq!(
            attr.count(ReplayCause::BankConflict),
            0,
            "the replay wins priority"
        );
    }

    /// mc=1: the second concurrent miss is NACKed and replays, and after a
    /// second NACK the engine waits for the fill (still attributed to the
    /// NACK cause).
    #[test]
    fn dcache_replay_nack_fires_once_then_waits() {
        let e = replaying(mc1(), &[load(0x1000, 1), load(0x2000, 2)]);
        let attr = *e.attribution();
        assert_eq!(attr.count(ReplayCause::DcacheReplay), 1);
        assert!(
            attr.stalls(ReplayCause::DcacheReplay) > REPLAY_FAST_FOR_TEST,
            "the post-NACK fill wait lands on the NACK cause: {attr:?}"
        );
        assert_eq!(e.stats().structural_stall_misses, 1);
    }

    const REPLAY_FAST_FOR_TEST: u64 = 2;

    /// The attributed stall cycles partition the non-blocking stall total.
    #[test]
    fn attribution_partitions_the_stall_total() {
        let stream: Vec<DynInst> = (0..60u64)
            .flat_map(|i| {
                let r = (i % 8) as u8;
                [
                    load(i * 520, r),
                    alu(10 + r, Some(r)),
                    DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + r))),
                ]
            })
            .collect();
        for config in [unrestricted(), mc1()] {
            let e = replaying(config, &stream);
            let attr = *e.attribution();
            assert_eq!(
                attr.total_stall_cycles(),
                e.stats().data_dep_stall_cycles + e.stats().structural_stall_cycles,
                "per-cause cycles must partition the non-blocking stalls"
            );
            assert!(attr.count(ReplayCause::DcacheMiss) > 0);
        }
    }

    /// The replaying model emits `LoadReplayed` through the lifecycle
    /// tracer, mirroring the engine-side attribution counts.
    #[test]
    fn replay_events_mirror_attribution() {
        let mut e = IssueEngine::new(mc1(), IssuePolicy::ReplayCause);
        e.enable_mem_tracing();
        e.run_tape(&tape_of(&[load(0x1000, 1), load(0x2000, 2)]))
            .unwrap();
        e.finish().unwrap();
        let attr = *e.attribution();
        let trace = e.take_mem_trace().expect("tracing was enabled");
        for cause in ReplayCause::ALL {
            assert_eq!(
                trace.stats.replays[cause.index()],
                attr.count(cause),
                "event stream and attribution disagree on {cause:?}"
            );
        }
    }
}
