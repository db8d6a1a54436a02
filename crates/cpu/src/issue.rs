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
//! Every simulation replays a recorded tape ([`IssueEngine::run_tape`]).
//! The stream rail ([`IssueEngine::push`] / [`IssueEngine::run`] over
//! [`DynInst`]s) dispatches on the same policy and is the reference the
//! tape rail is tested against, so a model is defined once and drives
//! both rails identically.

use crate::core_engine::{check_drained, Core, EngineConfig, EngineError};
use crate::stats::{CpuStats, InFlightSampler, ReplayAttribution};
use nbl_core::cache::LockupFreeCache;
use nbl_core::inst::DynInst;
use nbl_core::types::Cycle;
use nbl_mem::event::ReplayCause;
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
/// memory port) plus the policy-specific issue state (the dual pairing
/// buffer, the replay attribution counters).
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
///
/// let config = EngineConfig::with_cache(CacheConfig::baseline(MshrConfig::Inverted(
///     InvertedConfig::typical(),
/// )));
/// let mut cpu = IssueEngine::new(config, IssuePolicy::SingleInOrder);
/// cpu.push(DynInst::load(Addr(0x100), PhysReg::int(1), LoadFormat::WORD)).unwrap();
/// cpu.push(DynInst::alu(PhysReg::int(2), [Some(PhysReg::int(1)), None])).unwrap();
/// cpu.finish().unwrap();
/// // The dependent use stalled for the miss penalty (16 - 1 issue cycle).
/// assert_eq!(cpu.stats().data_dep_stall_cycles, 15);
/// ```
#[derive(Debug, Clone)]
pub struct IssueEngine {
    core: Core,
    policy: IssuePolicy,
    /// Dual-issue pairing buffer: the not-yet-issued leader candidate.
    slot: Option<DynInst>,
    /// Cycles in which two instructions issued together (dual only).
    pairs_issued: u64,
    /// Per-cause replay accounting (replaying model only).
    attribution: ReplayAttribution,
}

impl IssueEngine {
    /// Creates an engine at cycle zero with a cold cache.
    pub fn new(config: EngineConfig, policy: IssuePolicy) -> IssueEngine {
        IssueEngine {
            core: Core::new(config),
            policy,
            slot: None,
            pairs_issued: 0,
            attribution: ReplayAttribution::default(),
        }
    }

    /// The issue discipline this engine runs.
    pub fn policy(&self) -> IssuePolicy {
        self.policy
    }

    /// Feeds the next instruction of the in-order stream.
    ///
    /// # Errors
    ///
    /// [`EngineError`] if the engine had to wait on a fill that cannot
    /// arrive (a model invariant violation).
    pub fn push(&mut self, inst: DynInst) -> Result<(), EngineError> {
        match self.policy {
            IssuePolicy::SingleInOrder => {
                self.core.drain_fills();
                self.core.resolve_hazards(&inst)?;
                self.core.execute(&inst)?;
                self.core.tick();
                Ok(())
            }
            IssuePolicy::DualInOrder => self.push_dual(inst),
            IssuePolicy::ReplayCause => {
                self.core.drain_fills();
                let before = self.core.now();
                self.core.resolve_hazards(&inst)?;
                // A hazard wait is time spent waiting for a fill — the
                // consumer-side cost of a miss completing out of order.
                self.attribution.stall_cycles[ReplayCause::DcacheMiss.index()] +=
                    self.core.now().since(before);
                self.core
                    .execute_speculative(&inst, &mut self.attribution)?;
                self.core.tick();
                Ok(())
            }
        }
    }

    fn push_dual(&mut self, inst: DynInst) -> Result<(), EngineError> {
        let Some(leader) = self.slot.take() else {
            self.slot = Some(inst);
            return Ok(());
        };
        self.issue_leader(&leader)?;
        if self.can_coissue(&leader, &inst) {
            // Same cycle: the follower issues alongside the leader.
            self.core.execute(&inst)?;
            self.pairs_issued += 1;
            self.core.tick();
        } else {
            self.core.tick();
            self.slot = Some(inst);
        }
        Ok(())
    }

    /// Runs an entire instruction stream (still call
    /// [`IssueEngine::finish`] afterwards).
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any instruction hits.
    pub fn run<I>(&mut self, stream: I) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = DynInst>,
    {
        for inst in stream {
            self.push(inst)?;
        }
        Ok(())
    }

    /// Replays a recorded tape with timing and stats bit-identical to
    /// pushing the equivalent stream, driven straight off the tape's
    /// packed arrays: the single-issue model runs the fused walk
    /// ([`Core::replay_fused`]) over a group of one, the dual and
    /// replaying models their own loops.
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any entry hits.
    pub fn run_tape(&mut self, tape: &TraceTape) -> Result<(), EngineError> {
        match self.policy {
            IssuePolicy::SingleInOrder => Core::replay_fused(tape, &mut [&mut self.core]),
            IssuePolicy::DualInOrder => self.run_tape_dual(tape),
            IssuePolicy::ReplayCause => self.run_tape_replaying(tape),
        }
    }

    /// The dual pairing loop over packed tape entries: leader/follower
    /// conflict and port checks use the byte-compare forms
    /// ([`TraceTape::conflicts`], [`TraceTape::is_mem`]), addresses come
    /// from one cursor stepped at each executed entry, and only a
    /// trailing unpaired entry is ever reconstructed as a [`DynInst`] (it
    /// lands in the pairing buffer for [`IssueEngine::finish`], exactly as
    /// a pushed stream would).
    fn run_tape_dual(&mut self, tape: &TraceTape) -> Result<(), EngineError> {
        if self.slot.is_some() {
            // A partial stream was already pushed; splicing indices would
            // desynchronize the pairing, so fall back to the push path.
            return self.run(tape.iter());
        }
        let n = tape.len();
        let mut addrs = tape.addr_cursor();
        let mut i = 0;
        while i < n {
            if i + 1 == n {
                // Unpaired tail: buffered, flushed by `finish`.
                let tail = tape.get(i, &mut addrs);
                self.slot = Some(tail.ok_or(EngineError::MalformedTape { index: i })?);
                break;
            }
            self.core.drain_fills();
            self.core.replay_hazards(tape, i)?;
            self.core
                .replay_execute(tape, i, addrs.step(tape.is_mem(i)))?;
            let coissue = !(tape.conflicts(i, i + 1) || tape.is_mem(i) && tape.is_mem(i + 1)) && {
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

    /// The replaying model's barrier loop: the same gap bulk-issue and
    /// quiescent fast path as [`Core::replay_fused`] (non-barrier entries never
    /// touch the memory system or the replay classifier, and a quiescent
    /// engine has no pending register to attribute a wait to), with the
    /// speculative execute and hazard-wait attribution at the barriers.
    fn run_tape_replaying(&mut self, tape: &TraceTape) -> Result<(), EngineError> {
        let n = tape.len();
        let mut addrs = tape.addr_cursor();
        let mut i = 0; // next instruction index to account for
        while i < n {
            let quiescent = self.core.memory().next_event().is_none();
            let b = if quiescent {
                tape.next_mem(i)
            } else {
                tape.next_barrier(i)
            };
            if b > i {
                self.core.issue_free_run(b - i);
            }
            if b == n {
                break;
            }
            let addr = if quiescent {
                addrs.next()
            } else {
                self.core.drain_fills();
                let before = self.core.now();
                self.core.replay_hazards(tape, b)?;
                self.attribution.stall_cycles[ReplayCause::DcacheMiss.index()] +=
                    self.core.now().since(before);
                addrs.step(tape.is_mem(b))
            };
            self.core
                .replay_execute_speculative(tape, b, addr, &mut self.attribution)?;
            self.core.tick();
            i = b + 1;
        }
        check_drained(&addrs, n)
    }

    fn issue_leader(&mut self, leader: &DynInst) -> Result<(), EngineError> {
        self.core.drain_fills();
        self.core.resolve_hazards(leader)?;
        self.core.execute(leader)
    }

    fn can_coissue(&mut self, leader: &DynInst, follower: &DynInst) -> bool {
        if leader.conflicts_with(follower) {
            return false;
        }
        if leader.is_mem() && follower.is_mem() {
            return false;
        }
        // Fills that completed during the leader's stalls may have freed the
        // follower's registers this very cycle.
        self.core.drain_fills();
        self.core.hazards_clear(follower)
    }

    /// Flushes the dual pairing buffer (a no-op for the single-width
    /// policies, which never buffer) and finalizes the run.
    ///
    /// # Errors
    ///
    /// [`EngineError`] if issuing the last buffered instruction failed.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        if let Some(last) = self.slot.take() {
            self.issue_leader(&last)?;
            self.core.tick();
        }
        self.core.finish();
        Ok(())
    }

    /// Returns the engine to its freshly-built state (cold cache, cycle
    /// zero, zero counters, empty pairing buffer) while keeping internal
    /// allocations, so a pooled worker can be reused run-to-run without
    /// touching the heap. Results after a reset are bit-identical to a new
    /// engine's.
    pub fn reset(&mut self) {
        self.core.reset();
        self.slot = None;
        self.pairs_issued = 0;
        self.attribution = ReplayAttribution::default();
    }

    /// Mutable access to the underlying core, for the fused multi-config
    /// replay entry point ([`Core::replay_fused`] — valid only for
    /// [`IssuePolicy::SingleInOrder`] engines).
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
    /// [`IssuePolicy::ReplayCause`]).
    pub fn attribution(&self) -> &ReplayAttribution {
        &self.attribution
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
    pub fn enable_mem_tracing(&mut self, ring_capacity: usize) {
        self.core.enable_mem_tracing(ring_capacity);
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
    use nbl_core::limit::Limit;
    use nbl_core::mshr::inverted::InvertedConfig;
    use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

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

    fn perfect() -> EngineConfig {
        let mut config = unrestricted();
        config.perfect_cache = true;
        config
    }

    fn engine(config: EngineConfig, policy: IssuePolicy) -> IssueEngine {
        IssueEngine::new(config, policy)
    }

    fn single(config: EngineConfig) -> IssueEngine {
        engine(config, IssuePolicy::SingleInOrder)
    }

    fn dual(perfect: bool) -> IssueEngine {
        let mut config = unrestricted();
        config.perfect_cache = perfect;
        engine(config, IssuePolicy::DualInOrder)
    }

    /// The stream rail: `config` fed `stream` one instruction at a time,
    /// the independent reference for every tape walk.
    fn stream_rail(config: EngineConfig, stream: &[DynInst]) -> IssueEngine {
        let mut rail = single(config);
        rail.run(stream.iter().copied()).unwrap();
        rail.finish().unwrap();
        rail
    }

    /// Asserts two finished engines ended in the same observable state:
    /// clock, stall statistics, cache counters and the in-flight
    /// sampler's histograms.
    fn assert_same_state(got: &IssueEngine, want: &IssueEngine, what: &str) {
        assert_eq!(got.now(), want.now(), "{what}: cycles");
        assert_eq!(got.stats(), want.stats(), "{what}: stats");
        assert_eq!(
            got.cache().counters(),
            want.cache().counters(),
            "{what}: cache counters"
        );
        let (g, w) = (got.sampler(), want.sampler());
        assert_eq!(g.miss_histogram(), w.miss_histogram(), "{what}: misses");
        assert_eq!(g.fetch_histogram(), w.fetch_histogram(), "{what}: fetches");
        assert_eq!(g.max_misses(), w.max_misses(), "{what}: max misses");
        assert_eq!(g.max_fetches(), w.max_fetches(), "{what}: max fetches");
    }

    fn tape_of(stream: &[DynInst]) -> TraceTape {
        let mut tape = TraceTape::with_capacity("t", 0, stream.len());
        for inst in stream {
            tape.push(*inst);
        }
        tape
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
            DynInst::load(Addr(0x1000), PhysReg::int(1), LoadFormat::WORD),
            DynInst::load(Addr(0x2000), PhysReg::int(2), LoadFormat::WORD),
            DynInst::alu(PhysReg::int(3), [Some(PhysReg::int(1)), None]),
            DynInst::alu(PhysReg::int(4), [Some(PhysReg::int(2)), None]),
        ]
    }

    #[test]
    fn overlapping_misses_beat_hit_under_miss() {
        // Unrestricted: both misses overlap; total stall ≈ one penalty.
        let mut best = single(unrestricted());
        best.run(two_loads_two_uses()).unwrap();
        best.finish().unwrap();
        // ld A cy0 (fill 16), ld B cy1 (fill 17), use A stalls 2..16,
        // use B issues at 17 with no stall.
        assert_eq!(best.stats().data_dep_stall_cycles, 14);
        assert_eq!(best.stats().total_stall_cycles(), 14);

        // mc=1: the second load structurally stalls until the first fill.
        let mut hum = single(mc1());
        hum.run(two_loads_two_uses()).unwrap();
        hum.finish().unwrap();
        // ld A cy0 (fill 16); ld B stalls 1..16 then misses (fill 32);
        // use A at 17 (no stall); use B stalls 18..32.
        assert_eq!(hum.stats().structural_stall_cycles, 15);
        assert_eq!(hum.stats().data_dep_stall_cycles, 14);
        assert!(hum.stats().total_stall_cycles() > best.stats().total_stall_cycles());

        // Blocking: both misses serialize completely.
        let mut blk = single(blocking());
        blk.run(two_loads_two_uses()).unwrap();
        blk.finish().unwrap();
        assert_eq!(blk.stats().blocking_stall_cycles, 32);
        assert!(blk.stats().total_stall_cycles() > hum.stats().total_stall_cycles());
    }

    #[test]
    fn mcpi_accounts_per_instruction() {
        let mut p = single(blocking());
        p.run(two_loads_two_uses()).unwrap();
        p.finish().unwrap();
        assert_eq!(p.stats().instructions, 4);
        assert!((p.stats().mcpi() - 32.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_sees_overlap_only_when_hardware_allows() {
        let mut best = single(unrestricted());
        best.run(two_loads_two_uses()).unwrap();
        best.finish().unwrap();
        assert_eq!(best.sampler().max_misses(), 2);
        assert_eq!(best.sampler().max_fetches(), 2);

        let mut hum = single(mc1());
        hum.run(two_loads_two_uses()).unwrap();
        hum.finish().unwrap();
        assert_eq!(hum.sampler().max_misses(), 1);
    }

    #[test]
    fn single_issue_tape_replay_matches_pushed_stream() {
        let stream: Vec<DynInst> = (0..40u64)
            .flat_map(|i| {
                [
                    DynInst::load(
                        Addr(i * 520), // distinct lines, recurring sets
                        PhysReg::int((i % 8) as u8),
                        LoadFormat::WORD,
                    ),
                    DynInst::alu(
                        PhysReg::int(10 + (i % 8) as u8),
                        [Some(PhysReg::int((i % 8) as u8)), None],
                    ),
                    DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + (i % 8) as u8))),
                ]
            })
            .collect();
        let tape = tape_of(&stream);
        for (label, config) in [
            ("unrestricted", unrestricted()),
            ("mc=1", mc1()),
            ("blocking", blocking()),
            ("perfect", perfect()),
        ] {
            let pushed = stream_rail(config.clone(), &stream);
            let mut replayed = single(config);
            replayed.run_tape(&tape).unwrap();
            replayed.finish().unwrap();
            assert_same_state(&replayed, &pushed, label);
        }
        // A perfect cache hits every access without touching its memory
        // system, on both rails.
        let mut replayed = single(perfect());
        replayed.run_tape(&tape).unwrap();
        replayed.finish().unwrap();
        assert_eq!(replayed.stats().total_stall_cycles(), 0);
        assert_eq!(replayed.cache().counters().load_hits, 0);
        assert_eq!(replayed.memory().write_buffer_stats().writes, 0);
    }

    #[test]
    fn reset_matches_a_fresh_engine_bit_for_bit() {
        let tape = tape_of(&mixed_stream());
        for config in [unrestricted(), mc1(), blocking()] {
            let mut fresh = single(config.clone());
            fresh.run_tape(&tape).unwrap();
            fresh.finish().unwrap();

            let mut reused = single(config);
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
    fn fused_replay_matches_independent_replays_across_mixed_configs() {
        // `run_tape` runs the same walk as a fused group, so the
        // reference is the stream rail. The perfect-cache member shares
        // the group's geometry and walks inside it.
        let stream = mixed_stream();
        let tape = tape_of(&stream);
        let configs = [unrestricted(), mc1(), blocking(), perfect()];

        let mut fused: Vec<IssueEngine> = configs.iter().cloned().map(single).collect();
        {
            let mut cores: Vec<&mut Core> = fused.iter_mut().map(IssueEngine::core_mut).collect();
            Core::replay_fused(&tape, &mut cores).unwrap();
        }
        for p in &mut fused {
            p.finish().unwrap();
        }

        for (k, (f, config)) in fused.iter().zip(configs).enumerate() {
            let rail = stream_rail(config, &stream);
            assert_same_state(f, &rail, &format!("member {k}"));
        }
    }

    #[test]
    fn run_of_hits_is_stall_free() {
        let mut p = single(mc1());
        // Touch a line (primary miss), let the fill land behind 16 ALU ops,
        // then hammer the resident line: pure hits, no further stalls.
        p.push(DynInst::load(Addr(0), PhysReg::int(1), LoadFormat::WORD))
            .unwrap();
        for _ in 0..16 {
            p.push(DynInst::alu(PhysReg::int(2), [None, None])).unwrap();
        }
        let stalls_after_warmup = p.stats().total_stall_cycles();
        let before = p.now();
        for i in 0..20u64 {
            p.push(DynInst::load(
                Addr(i % 32),
                PhysReg::int(3 + (i % 20) as u8),
                LoadFormat::WORD,
            ))
            .unwrap();
        }
        p.finish().unwrap();
        assert_eq!(
            p.now().since(before),
            20,
            "hits cost exactly their issue cycle"
        );
        assert_eq!(p.stats().total_stall_cycles(), stalls_after_warmup);
    }

    #[test]
    fn independent_alus_dual_issue_at_ipc_2() {
        let mut p = dual(true);
        p.run(independent_alus(17)).unwrap();
        p.finish().unwrap();
        // 16 registers rotate, neighbours never conflict: 8 pairs + 1 single.
        assert_eq!(p.now(), Cycle(9));
        assert_eq!(p.stats().instructions, 17);
        assert_eq!(p.pairs_issued(), 8);
    }

    #[test]
    fn dependent_chain_single_issues() {
        let mut p = dual(true);
        let chain: Vec<_> = (0..10)
            .map(|i| {
                DynInst::alu(
                    PhysReg::int((i + 1) as u8),
                    [Some(PhysReg::int(i as u8)), None],
                )
            })
            .collect();
        p.run(chain).unwrap();
        p.finish().unwrap();
        assert_eq!(p.now(), Cycle(10));
        assert_eq!(p.pairs_issued(), 0);
    }

    #[test]
    fn only_one_memory_op_per_cycle() {
        let mut p = dual(true);
        let loads: Vec<_> = (0..10)
            .map(|i| DynInst::load(Addr(i * 8), PhysReg::int(i as u8), LoadFormat::WORD))
            .collect();
        p.run(loads).unwrap();
        p.finish().unwrap();
        assert_eq!(p.now(), Cycle(10), "loads cannot pair with loads");
    }

    #[test]
    fn load_pairs_with_alu() {
        let mut p = dual(true);
        for i in 0..10u64 {
            p.push(DynInst::load(
                Addr(i * 8),
                PhysReg::int(i as u8),
                LoadFormat::WORD,
            ))
            .unwrap();
            p.push(DynInst::alu(
                PhysReg::int(20),
                [Some(PhysReg::int(21)), None],
            ))
            .unwrap();
        }
        p.finish().unwrap();
        assert_eq!(p.now(), Cycle(10));
        assert_eq!(p.pairs_issued(), 10);
    }

    #[test]
    fn follower_with_pending_source_waits_a_cycle() {
        let mut p = dual(false);
        // Leader load misses; follower uses its result: cannot co-issue and
        // then stalls as leader of the next cycle until the fill.
        p.push(DynInst::load(
            Addr(0x1000),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        p.push(DynInst::alu(PhysReg::int(2), [Some(PhysReg::int(1)), None]))
            .unwrap();
        p.finish().unwrap();
        assert_eq!(p.pairs_issued(), 0);
        assert_eq!(p.stats().data_dep_stall_cycles, 15);
    }

    #[test]
    fn follower_structural_stall_blocks_the_pair() {
        // mc=1: a second miss cannot be tracked.
        let mut p = engine(mc1(), IssuePolicy::DualInOrder);
        // Leader load misses; follower ALU pairs with it.
        p.push(DynInst::load(
            Addr(0x1000),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        p.push(DynInst::alu(PhysReg::int(9), [None, None])).unwrap();
        // Next pair: a second load misses structurally and must wait for
        // the first fill before its fetch can start.
        p.push(DynInst::load(
            Addr(0x2000),
            PhysReg::int(2),
            LoadFormat::WORD,
        ))
        .unwrap();
        p.push(DynInst::alu(PhysReg::int(10), [None, None]))
            .unwrap();
        p.finish().unwrap();
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
            let mut p = dual(true);
            for i in 0..5u64 {
                let load = DynInst::load(Addr(i * 8), PhysReg::int(i as u8), LoadFormat::WORD);
                let store = DynInst::store(Addr(0x4000 + i * 8), None);
                let (first, second) = if store_first {
                    (store, load)
                } else {
                    (load, store)
                };
                p.push(first).unwrap();
                p.push(second).unwrap();
            }
            p.finish().unwrap();
            assert_eq!(p.pairs_issued(), 0, "store_first={store_first}");
            assert_eq!(p.now(), Cycle(10), "store_first={store_first}");
            assert_eq!(p.stats().instructions, 10);
        }
    }

    #[test]
    fn pair_split_across_stream_boundaries_matches_one_stream() {
        // A leader buffered in the issue slot at the end of one `run`
        // call must still pair with the follower that arrives at the
        // start of the next — feeding the stream in arbitrary chunks is
        // invisible in the timing.
        let stream = independent_alus(12);
        let mut whole = dual(true);
        whole.run(stream.clone()).unwrap();
        whole.finish().unwrap();
        for split in [1, 3, 5, 11] {
            let mut chunked = dual(true);
            let (head, tail) = stream.split_at(split);
            chunked.run(head.to_vec()).unwrap();
            chunked.run(tail.to_vec()).unwrap();
            chunked.finish().unwrap();
            assert_eq!(chunked.now(), whole.now(), "split at {split}");
            assert_eq!(chunked.stats(), whole.stats());
            assert_eq!(chunked.pairs_issued(), whole.pairs_issued());
        }
    }

    #[test]
    fn odd_length_tail_single_issues_on_finish() {
        // Odd stream: the last instruction has no partner and is flushed
        // by `finish` as a lone leader.
        let mut even = dual(true);
        even.run(independent_alus(8)).unwrap();
        even.finish().unwrap();
        assert_eq!(even.now(), Cycle(4));
        assert_eq!(even.pairs_issued(), 4);
        let mut odd = dual(true);
        odd.run(independent_alus(9)).unwrap();
        odd.finish().unwrap();
        assert_eq!(odd.now(), Cycle(5), "the tail costs one extra cycle");
        assert_eq!(odd.pairs_issued(), 4);
        assert_eq!(odd.stats().instructions, 9);
    }

    #[test]
    fn run_then_finish_equals_push_sequence() {
        let stream: Vec<DynInst> = (0..9)
            .map(|i| DynInst::load(Addr(i * 8), PhysReg::int(i as u8), LoadFormat::WORD))
            .collect();
        let mut a = dual(true);
        a.run(stream.clone()).unwrap();
        a.finish().unwrap();
        let mut b = dual(true);
        for i in stream {
            b.push(i).unwrap();
        }
        b.finish().unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn dual_tape_replay_matches_push_sequence() {
        // Mixed stream exercising every pairing outcome: co-issued
        // load+ALU, mem/mem port conflicts, RAW conflicts, and (for the
        // odd lengths) an unpaired tail flushed by `finish`.
        let stream: Vec<DynInst> = (0..30u64)
            .flat_map(|i| {
                [
                    DynInst::load(
                        Addr(i * 4096),
                        PhysReg::int((i % 8) as u8),
                        LoadFormat::WORD,
                    ),
                    DynInst::alu(
                        PhysReg::int(10 + (i % 4) as u8),
                        [Some(PhysReg::int((i % 8) as u8)), None],
                    ),
                    DynInst::store(Addr(i * 4096 + 8), Some(PhysReg::int(10 + (i % 4) as u8))),
                ]
            })
            .collect();
        for len in [0, 1, 2, stream.len() - 1, stream.len()] {
            let tape = tape_of(&stream[..len]);
            for perfect in [true, false] {
                let mut pushed = dual(perfect);
                pushed.run(stream[..len].iter().copied()).unwrap();
                pushed.finish().unwrap();
                let mut replayed = dual(perfect);
                replayed.run_tape(&tape).unwrap();
                replayed.finish().unwrap();
                assert_eq!(replayed.now(), pushed.now(), "len {len} perfect {perfect}");
                assert_eq!(replayed.stats(), pushed.stats());
                assert_eq!(replayed.pairs_issued(), pushed.pairs_issued());
                assert_eq!(replayed.cache().counters(), pushed.cache().counters());
            }
        }
    }

    #[test]
    fn mcpi_against_perfect_run() {
        let stream = |n: u64| {
            (0..n).flat_map(move |i| {
                [
                    DynInst::load(
                        Addr(i * 4096),
                        PhysReg::int((i % 8) as u8),
                        LoadFormat::WORD,
                    ),
                    DynInst::alu(
                        PhysReg::int(10 + (i % 8) as u8),
                        [Some(PhysReg::int((i % 8) as u8)), None],
                    ),
                ]
            })
        };
        let mut perfect = dual(true);
        perfect.run(stream(50)).unwrap();
        perfect.finish().unwrap();
        let mut real = dual(false);
        real.run(stream(50)).unwrap();
        real.finish().unwrap();
        let mcpi = real.mcpi_against(perfect.now());
        assert!(mcpi > 0.0, "misses must cost something: {mcpi}");
        // Every pair misses and immediately uses the data: near-worst case.
        assert!(mcpi < 16.0);
    }

    /// ld A; use A — the use's wait is attributed to the miss cause.
    #[test]
    fn replaying_model_attributes_consumer_wait_to_dcache_miss() {
        let mut e = engine(unrestricted(), IssuePolicy::ReplayCause);
        e.push(DynInst::load(
            Addr(0x1000),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        e.push(DynInst::alu(PhysReg::int(2), [Some(PhysReg::int(1)), None]))
            .unwrap();
        e.finish().unwrap();
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
        let mut e = engine(unrestricted(), IssuePolicy::ReplayCause);
        // Same bank (bits [3..6] of the address), different lines and
        // sets. Warm both lines first so the conflicting pair are pure
        // hits.
        let a = Addr(0x0000);
        let b = Addr(0x0440);
        e.push(DynInst::load(a, PhysReg::int(1), LoadFormat::WORD))
            .unwrap();
        for _ in 0..40 {
            e.push(DynInst::alu(PhysReg::int(9), [None, None])).unwrap();
        }
        e.push(DynInst::load(b, PhysReg::int(2), LoadFormat::WORD))
            .unwrap();
        for _ in 0..40 {
            e.push(DynInst::alu(PhysReg::int(9), [None, None])).unwrap();
        }
        let before = *e.attribution();
        e.push(DynInst::load(a, PhysReg::int(3), LoadFormat::WORD))
            .unwrap();
        e.push(DynInst::load(b, PhysReg::int(4), LoadFormat::WORD))
            .unwrap();
        e.finish().unwrap();
        let attr = *e.attribution();
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
        let mut e = engine(unrestricted(), IssuePolicy::ReplayCause);
        // Warm the line so the load would otherwise be a pure hit.
        e.push(DynInst::load(
            Addr(0x100),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        for _ in 0..40 {
            e.push(DynInst::alu(PhysReg::int(9), [None, None])).unwrap();
        }
        e.push(DynInst::store(Addr(0x100), Some(PhysReg::int(9))))
            .unwrap();
        e.push(DynInst::load(
            Addr(0x104),
            PhysReg::int(2),
            LoadFormat::WORD,
        ))
        .unwrap();
        e.finish().unwrap();
        let attr = *e.attribution();
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
        let mut e = engine(mc1(), IssuePolicy::ReplayCause);
        e.push(DynInst::load(
            Addr(0x1000),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        e.push(DynInst::load(
            Addr(0x2000),
            PhysReg::int(2),
            LoadFormat::WORD,
        ))
        .unwrap();
        e.finish().unwrap();
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
                [
                    DynInst::load(Addr(i * 520), PhysReg::int((i % 8) as u8), LoadFormat::WORD),
                    DynInst::alu(
                        PhysReg::int(10 + (i % 8) as u8),
                        [Some(PhysReg::int((i % 8) as u8)), None],
                    ),
                    DynInst::store(Addr(i * 520 + 4), Some(PhysReg::int(10 + (i % 8) as u8))),
                ]
            })
            .collect();
        for config in [unrestricted(), mc1()] {
            let mut e = engine(config, IssuePolicy::ReplayCause);
            e.run(stream.iter().copied()).unwrap();
            e.finish().unwrap();
            let attr = *e.attribution();
            assert_eq!(
                attr.total_stall_cycles(),
                e.stats().data_dep_stall_cycles + e.stats().structural_stall_cycles,
                "per-cause cycles must partition the non-blocking stalls"
            );
            assert!(attr.count(ReplayCause::DcacheMiss) > 0);
        }
    }

    /// The replaying model's tape rail is bit-identical to its push rail.
    #[test]
    fn replaying_tape_matches_pushed_stream() {
        let stream = mixed_stream();
        let tape = tape_of(&stream);
        for config in [unrestricted(), mc1()] {
            let mut pushed = engine(config.clone(), IssuePolicy::ReplayCause);
            pushed.run(stream.iter().copied()).unwrap();
            pushed.finish().unwrap();
            let mut replayed = engine(config, IssuePolicy::ReplayCause);
            replayed.run_tape(&tape).unwrap();
            replayed.finish().unwrap();
            assert_eq!(replayed.now(), pushed.now());
            assert_eq!(replayed.stats(), pushed.stats());
            assert_eq!(replayed.attribution(), pushed.attribution());
            assert_eq!(replayed.cache().counters(), pushed.cache().counters());
        }
    }

    /// The replaying model emits `LoadReplayed` through the lifecycle
    /// tracer, mirroring the engine-side attribution counts.
    #[test]
    fn replay_events_mirror_attribution() {
        let mut e = engine(mc1(), IssuePolicy::ReplayCause);
        e.enable_mem_tracing(64);
        e.push(DynInst::load(
            Addr(0x1000),
            PhysReg::int(1),
            LoadFormat::WORD,
        ))
        .unwrap();
        e.push(DynInst::load(
            Addr(0x2000),
            PhysReg::int(2),
            LoadFormat::WORD,
        ))
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
