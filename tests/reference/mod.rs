//! An independent reference of the simulated machine: the paper's §3.1
//! processor and memory (DESIGN.md §4), the memory port's semantics
//! (§10, §10.1), the tag arrays' replacement policies (§11), and the
//! dual-issue and replaying models (§15), written as one cycle-stepped
//! loop with its own data structures.
//!
//! It shares no simulation code with the engine. It reads a tape only as
//! the instructions [`TraceTape::iter`] yields, takes a [`SimConfig`], and
//! keeps its own state:
//!
//! * the fetches in flight, in a [`BTreeMap`] keyed by (completion time,
//!   launch order), each holding its explicit target list: a secondary
//!   miss is a *delayed hit* on the fetch it joins, and the MSHR
//!   admission rules of every organization read this map;
//! * the cache ways as plain vectors of resident blocks, with explicit
//!   per-set LRU and FIFO orders, tree-PLRU node bits, and a seeded
//!   stream for the random policy;
//! * the victim buffer as a FIFO of the last lines evicted, the pending
//!   registers as a set, and the write buffer not at all (it retires for
//!   free, so it is never observable).
//!
//! Each iteration of [`Machine::run`] is one cycle. Fills whose time has
//! come are applied first, in completion order. Then the instruction at
//! issue either issues or is charged one stall cycle of its cause. A
//! fetch completes `penalty` cycles after launch, where the penalty is the
//! L2 hit penalty when the L2 holds the line and the miss penalty
//! otherwise, plus the narrow read port's extra cycles under in-cache
//! MSHRs. There is no decode, no fusion, no bulk issue and no quiescence
//! shortcut.
//!
//! Three timing rules of the port are spelled out here because the
//! cycle-stepped form has to choose them explicitly:
//!
//! * An instruction waiting for a fill (a pending register, an MSHR
//!   rejection, a second NACK) re-checks after *each* fill, and issues in
//!   the cycle of the fill that frees it. A later fill of that same cycle
//!   lands after it (only an L2 makes two fills share a cycle).
//! * A blocking (lockup) miss service holds the cache until its line
//!   arrives: fills that complete meanwhile queue behind it and land,
//!   in completion order, right after the serviced line.
//! * A victim-buffer swap costs one blocking cycle; fills keep landing
//!   during it.
//!
//! Scope: every `HwConfig`, `MshrConfig`, `ReplacementKind` and
//! `ProcessorKind`, any L1 geometry, write-around and write-allocate,
//! victim buffers, an L2, perfect caches and any miss penalty. Left out:
//! a bandwidth-limited memory (`memory_gap > 0`) and a write buffer that
//! does not retire for free; [`Machine::new`] refuses the first, and a
//! `SimConfig` cannot express the second.

// Each test crate that includes this module uses a different part of it.
#![allow(dead_code)]

use nonblocking_loads::core::geometry::CacheGeometry;
use nonblocking_loads::core::inst::{DynInst, DynKind};
use nonblocking_loads::core::limit::Limit;
use nonblocking_loads::core::mshr::{MshrConfig, TargetPolicy};
use nonblocking_loads::core::rng::SplitMix64;
use nonblocking_loads::core::tag_array::ReplacementKind;
use nonblocking_loads::core::types::PhysReg;
use nonblocking_loads::sim::config::{HwConfig, ProcessorKind, SimConfig};
use nonblocking_loads::trace::tape::TraceTape;
use std::collections::{BTreeMap, BTreeSet};

/// The replaying model's causes, in the order of [`Attribution`]'s arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A load overlapping a store younger than the forwarding window.
    ForwardFail,
    /// The MSHRs NACKed the load.
    DcacheReplay,
    /// A real miss: no bubble, the consumer's wait is charged here.
    DcacheMiss,
    /// The load's bank was busy.
    BankConflict,
}

impl Cause {
    /// Every cause, in array order.
    pub const ALL: [Cause; 4] = [
        Cause::ForwardFail,
        Cause::DcacheReplay,
        Cause::DcacheMiss,
        Cause::BankConflict,
    ];

    fn slot(self) -> usize {
        match self {
            Cause::ForwardFail => 0,
            Cause::DcacheReplay => 1,
            Cause::DcacheMiss => 2,
            Cause::BankConflict => 3,
        }
    }
}

/// Per-cause replays and stall cycles (replaying model only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Replays (for `DcacheMiss`: misses completing out of order), by
    /// [`Cause`] slot.
    pub counts: [u64; 4],
    /// Stall cycles charged to each cause.
    pub stall_cycles: [u64; 4],
}

impl Attribution {
    /// Replays of `cause`.
    pub fn count(&self, cause: Cause) -> u64 {
        self.counts[cause.slot()]
    }

    /// Stall cycles of `cause`.
    pub fn stalls(&self, cause: Cause) -> u64 {
        self.stall_cycles[cause.slot()]
    }
}

/// The processor's counters, field for field the engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub data_dep_stall_cycles: u64,
    pub structural_stall_cycles: u64,
    pub blocking_stall_cycles: u64,
    /// Accesses rejected at least once.
    pub structural_stall_misses: u64,
    pub blocking_load_misses: u64,
    pub blocking_store_misses: u64,
    pub nonblocking_store_misses: u64,
}

/// The L1's event counters, field for field the engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub load_hits: u64,
    pub load_primary_misses: u64,
    pub load_secondary_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub victim_hits: u64,
    /// Lines installed by a fetch (a victim swap is not a fill).
    pub fills: u64,
}

/// Histogram buckets; counts at or above the last saturate into it.
pub const BUCKETS: usize = 65;

/// Time-weighted histograms of the misses and fetches in flight (paper
/// Fig. 6): each count is held from one change to the next.
#[derive(Debug, Clone)]
pub struct Occupancy {
    since: u64,
    misses: usize,
    fetches: usize,
    pub miss_histogram: [u64; BUCKETS],
    pub fetch_histogram: [u64; BUCKETS],
    pub max_misses: usize,
    pub max_fetches: usize,
}

impl Occupancy {
    fn new() -> Occupancy {
        Occupancy {
            since: 0,
            misses: 0,
            fetches: 0,
            miss_histogram: [0; BUCKETS],
            fetch_histogram: [0; BUCKETS],
            max_misses: 0,
            max_fetches: 0,
        }
    }

    /// Credits the counts held since the last change up to `time`.
    fn hold_until(&mut self, time: u64) {
        if time > self.since {
            let held = time - self.since;
            self.miss_histogram[self.misses.min(BUCKETS - 1)] += held;
            self.fetch_histogram[self.fetches.min(BUCKETS - 1)] += held;
            self.since = time;
        }
    }

    fn miss_tracked(&mut self, time: u64, launched: bool) {
        self.hold_until(time);
        self.misses += 1;
        self.max_misses = self.max_misses.max(self.misses);
        if launched {
            self.fetches += 1;
            self.max_fetches = self.max_fetches.max(self.fetches);
        }
    }

    fn fetch_landed(&mut self, time: u64, targets: usize) {
        self.hold_until(time);
        self.misses -= targets;
        self.fetches -= 1;
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub cycles: u64,
    pub stats: Stats,
    pub counters: Counters,
    pub occupancy: Occupancy,
    pub attribution: Attribution,
    pub pairs_issued: u64,
}

/// Runs `tape` on the machine `cfg` describes (its processor model
/// included), with a perfect data cache when `perfect`.
pub fn run(tape: &TraceTape, cfg: &SimConfig, perfect: bool) -> Outcome {
    let program: Vec<DynInst> = tape.iter().collect();
    assert_eq!(program.len(), tape.len(), "the tape decodes whole");
    Machine::new(cfg, perfect).run(&program)
}

// ---------------------------------------------------------------------
// Cache ways and replacement.

/// Replacement state of one set.
#[derive(Debug, Clone)]
enum Order {
    /// Valid ways, least recently used first.
    Lru(Vec<usize>),
    /// Valid ways, oldest fill first.
    Fifo(Vec<usize>),
    /// Victims come from the array's seeded stream.
    Random,
    /// One bit per node of a binary tree over the ways (root 0, children
    /// of node `k` at `2k + 1` and `2k + 2`); a set bit sends the victim
    /// search right.
    Plru(Vec<bool>),
}

impl Order {
    fn touched(&mut self, way: usize, ways: usize, fill: bool) {
        match self {
            Order::Lru(order) => {
                order.retain(|&w| w != way);
                order.push(way);
            }
            Order::Fifo(order) => {
                if fill {
                    order.retain(|&w| w != way);
                    order.push(way);
                }
            }
            Order::Random => {}
            Order::Plru(bits) => {
                let levels = ways.trailing_zeros();
                let mut node = 0;
                for level in (0..levels).rev() {
                    let right = (way >> level) & 1 == 1;
                    // Point the search at the half that was not touched.
                    bits[node] = !right;
                    node = 2 * node + 1 + usize::from(right);
                }
            }
        }
    }

    fn dropped(&mut self, way: usize) {
        if let Order::Lru(order) | Order::Fifo(order) = self {
            order.retain(|&w| w != way);
        }
    }
}

/// One cache level's tags: the resident block of every way, and the
/// replacement state.
#[derive(Debug, Clone)]
struct Ways {
    sets: u64,
    ways: usize,
    lines: Vec<Vec<Option<u64>>>,
    orders: Vec<Order>,
    stream: SplitMix64,
}

impl Ways {
    fn new(sets: u64, ways: usize, policy: ReplacementKind) -> Ways {
        let order = match policy {
            ReplacementKind::Lru => Order::Lru(Vec::new()),
            ReplacementKind::Fifo => Order::Fifo(Vec::new()),
            ReplacementKind::Random { .. } => Order::Random,
            ReplacementKind::TreePlru => Order::Plru(vec![false; ways.saturating_sub(1)]),
        };
        let seed = match policy {
            ReplacementKind::Random { seed } => seed,
            ReplacementKind::Lru | ReplacementKind::Fifo | ReplacementKind::TreePlru => 0,
        };
        Ways {
            sets,
            ways,
            lines: vec![vec![None; ways]; sets as usize],
            orders: vec![order; sets as usize],
            stream: SplitMix64::new(seed),
        }
    }

    fn of(geometry: &CacheGeometry, policy: ReplacementKind) -> Ways {
        let ways = geometry.ways() as u64;
        let lines = geometry.size_bytes() / u64::from(geometry.line_bytes());
        Ways::new(lines / ways, ways as usize, policy)
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets) as usize
    }

    fn way_of(&self, block: u64) -> Option<usize> {
        self.lines[self.set_of(block)]
            .iter()
            .position(|&l| l == Some(block))
    }

    fn holds(&self, block: u64) -> bool {
        self.way_of(block).is_some()
    }

    /// A lookup: on a hit the line counts as used.
    fn hit(&mut self, block: u64) -> bool {
        let Some(way) = self.way_of(block) else {
            return false;
        };
        let set = self.set_of(block);
        self.orders[set].touched(way, self.ways, false);
        true
    }

    /// The way the policy evicts from a full `set`.
    fn victim(&mut self, set: usize) -> usize {
        match &self.orders[set] {
            Order::Lru(order) | Order::Fifo(order) => order[0],
            Order::Random => self.stream.next_below(self.ways as u64) as usize,
            Order::Plru(bits) => {
                let mut node = 0;
                let mut way = 0;
                for _ in 0..self.ways.trailing_zeros() {
                    let right = bits[node];
                    way = 2 * way + usize::from(right);
                    node = 2 * node + 1 + usize::from(right);
                }
                way
            }
        }
    }

    fn evict(&mut self, set: usize) -> u64 {
        let way = self.victim(set);
        let block = self.lines[set][way]
            .take()
            .unwrap_or_else(|| panic!("set {set} was full"));
        self.orders[set].dropped(way);
        block
    }

    /// Puts `block` in its set: in place when it is already there, else
    /// in the lowest invalid way, else over the policy's victim, which
    /// is returned.
    fn install(&mut self, block: u64) -> Option<u64> {
        let set = self.set_of(block);
        let (way, evicted) = match self.way_of(block) {
            Some(way) => (way, None),
            None => match self.lines[set].iter().position(Option::is_none) {
                Some(way) => (way, None),
                None => {
                    let evicted = self.evict(set);
                    let way = self.lines[set]
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| panic!("eviction freed a way of set {set}"));
                    (way, Some(evicted))
                }
            },
        };
        self.lines[set][way] = Some(block);
        self.orders[set].touched(way, self.ways, true);
        evicted
    }

    /// In-cache MSHR storage takes a line of `block`'s set at miss time:
    /// a free way if there is one, else the policy's victim, whose
    /// contents are lost.
    fn claim(&mut self, block: u64) {
        let set = self.set_of(block);
        if self.lines[set].iter().all(Option::is_some) {
            self.evict(set);
        }
    }
}

// ---------------------------------------------------------------------
// Misses in flight.

/// Where a fetch's data is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Reg(PhysReg),
    /// A write-allocate store's data, waiting in a write-buffer slot.
    WriteBuffer(u8),
}

#[derive(Debug, Clone, Copy)]
struct Target {
    dest: Dest,
    offset: u32,
}

/// One fetch in flight and every miss waiting on it.
#[derive(Debug, Clone)]
struct Fetch {
    block: u64,
    set: usize,
    targets: Vec<Target>,
}

/// The MSHR organization, as admission rules over the fetches in flight.
#[derive(Debug, Clone)]
enum Mshrs {
    /// No miss may be outstanding: every miss is serviced while the
    /// cache is locked up.
    Lockup,
    /// Discrete registers: at most `entries` fetches, `misses` misses in
    /// all and `per_set` fetches per set, targets by `fields`.
    Register {
        entries: Limit,
        fields: TargetPolicy,
        misses: Limit,
        per_set: Limit,
    },
    /// A transit line per fetch: at most one fetch per way of a set.
    InCache { fields: TargetPolicy, extra: u32 },
    /// One entry per destination: any destination waits for one fetch.
    Inverted,
}

enum Admission {
    Launch,
    Join,
    Refused,
}

// ---------------------------------------------------------------------
// The machine.

/// What an access did at the port.
enum Port {
    /// Done this cycle (a hit, a write-around store).
    Done,
    /// A miss the MSHRs now track, launched or joined: done this cycle,
    /// its data lands with the fetch.
    Missed,
    /// Swapped back from the victim buffer: one more cycle.
    Swap,
    /// Serviced by a lockup: the cache is held until `until`.
    Locked { until: u64, block: u64 },
    /// Refused by the MSHRs: wait for a fill and present it again.
    Refused,
    /// Replaying model: thrown back before the data array.
    Replay(Cause),
}

/// How far the instruction at issue has got.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for its registers to be valid.
    Registers,
    /// Presenting its access.
    Access,
    /// Refused: presents it again after each fill.
    Refused,
    /// Replaying model: NACKed twice, presents it again after each fill.
    Nacked,
    /// A fixed stall ending at `until`, then `next`.
    Busy { until: u64, why: Charge, next: Then },
}

#[derive(Debug, Clone, Copy)]
enum Then {
    Issue,
    Reissue,
    Release { block: u64 },
}

/// The stall bucket a cycle is charged to, and the replay cause it is
/// attributed to.
#[derive(Debug, Clone, Copy)]
struct Charge {
    bucket: Bucket,
    cause: Option<Cause>,
}

#[derive(Debug, Clone, Copy)]
enum Bucket {
    DataDependency,
    Structural,
    Blocking,
}

/// The instruction at issue.
#[derive(Debug, Clone, Copy)]
struct AtIssue {
    inst: DynInst,
    phase: Phase,
    /// Dual issue: it issues beside the leader.
    follower: bool,
    /// It has been refused or NACKed once already.
    rejected: bool,
    /// Replaying model: the next presentation is a reissue.
    reissue: bool,
    /// Replaying model: it was NACKed.
    nacked: bool,
}

/// Cycles a replay bubble lasts (fast: bank conflicts, NACKs; slow:
/// forwarding failures).
const FAST_REPLAY: u64 = 2;
const SLOW_REPLAY: u64 = 4;
/// Data-array banks, interleaved on 8-byte words.
const BANKS: u64 = 8;
/// Cycles an access holds its bank.
const BANK_BUSY: u64 = 2;
/// A load fewer than this many cycles after a store to its block cannot
/// forward.
const FORWARD_WINDOW: u64 = 4;

/// The simulated machine.
pub struct Machine {
    model: ProcessorKind,
    perfect: bool,
    line: u64,
    write_allocate: bool,
    mshrs: Mshrs,
    penalty: u64,
    l1: Ways,
    l2: Option<(Ways, u64)>,
    victim_entries: usize,
    /// The last lines evicted, oldest first.
    victims: Vec<u64>,
    in_flight: BTreeMap<(u64, u64), Fetch>,
    launches: u64,
    write_buffer_slot: u8,
    pending: BTreeSet<PhysReg>,
    /// Replaying model: the first cycle each bank is free again, and the
    /// last store's block and cycle.
    bank_free: [u64; BANKS as usize],
    last_store: Option<(u64, u64)>,
    stats: Stats,
    counters: Counters,
    occupancy: Occupancy,
    attribution: Attribution,
    pairs: u64,
}

impl Machine {
    /// The machine `cfg` describes, with a perfect data cache when
    /// `perfect`.
    ///
    /// # Panics
    ///
    /// Panics for a bandwidth-limited memory, which the reference does
    /// not model.
    pub fn new(cfg: &SimConfig, perfect: bool) -> Machine {
        assert_eq!(
            cfg.memory_gap, 0,
            "the reference models a fully pipelined memory"
        );
        let write_allocate = match cfg.hw {
            HwConfig::Mc0Wma | HwConfig::FcWma(_) => true,
            HwConfig::Mc0
            | HwConfig::Mc(_)
            | HwConfig::Fc(_)
            | HwConfig::Fs(_)
            | HwConfig::InCache
            | HwConfig::InCacheNarrowPort(_)
            | HwConfig::Targets(_)
            | HwConfig::NoRestrict => false,
        };
        let mshrs = match cfg.hw.mshr_config() {
            MshrConfig::Blocking => Mshrs::Lockup,
            MshrConfig::Register(r) => Mshrs::Register {
                entries: r.entries,
                fields: r.targets,
                misses: r.max_outstanding_misses,
                per_set: r.max_fetches_per_set,
            },
            MshrConfig::InCache {
                targets,
                read_extra_cycles,
            } => Mshrs::InCache {
                fields: targets,
                extra: read_extra_cycles,
            },
            MshrConfig::Inverted(_) => Mshrs::Inverted,
        };
        let line = u64::from(cfg.geometry.line_bytes());
        let l2 = cfg.l2.map(|(size, hit_penalty)| {
            (
                Ways::new(size / line, 1, cfg.replacement),
                u64::from(hit_penalty),
            )
        });
        Machine {
            model: cfg.processor,
            perfect,
            line,
            write_allocate,
            mshrs,
            penalty: u64::from(cfg.miss_penalty),
            l1: Ways::of(&cfg.geometry, cfg.replacement),
            l2,
            victim_entries: cfg.victim_entries,
            victims: Vec::new(),
            in_flight: BTreeMap::new(),
            launches: 0,
            write_buffer_slot: 0,
            pending: BTreeSet::new(),
            bank_free: [0; BANKS as usize],
            last_store: None,
            stats: Stats::default(),
            counters: Counters::default(),
            occupancy: Occupancy::new(),
            attribution: Attribution::default(),
            pairs: 0,
        }
    }

    /// Runs `program` to the end and lets every fetch land.
    pub fn run(mut self, program: &[DynInst]) -> Outcome {
        let mut next = 0;
        let mut at_issue: Option<AtIssue> = None;
        let mut t = 0u64;
        loop {
            // Fills first: all of this cycle's, unless the instruction at
            // issue waits on fills (it takes them one at a time) or holds
            // the cache in a lockup (they queue behind it).
            let takes_fills = match at_issue.map(|a| a.phase) {
                None => true,
                Some(Phase::Registers | Phase::Refused | Phase::Nacked) => false,
                Some(Phase::Busy {
                    next: Then::Release { .. },
                    ..
                }) => false,
                Some(Phase::Access | Phase::Busy { .. }) => true,
            };
            if takes_fills {
                self.land_due(t);
            }
            let mut current = match at_issue.take() {
                Some(current) => current,
                None if next == program.len() => {
                    if self.in_flight.is_empty() {
                        break;
                    }
                    t += 1;
                    continue;
                }
                None => {
                    next += 1;
                    AtIssue::new(program[next - 1], false)
                }
            };
            // Then issue, or charge the cycle.
            loop {
                match self.step(&mut current, t) {
                    Err(charge) => {
                        self.charge(charge);
                        at_issue = Some(current);
                        break;
                    }
                    Ok(()) if current.follower => {
                        self.pairs += 1;
                        break;
                    }
                    Ok(()) => {
                        let Some(&candidate) = program.get(next) else {
                            break;
                        };
                        if !self.pairs_with(&current.inst, &candidate, t) {
                            break;
                        }
                        next += 1;
                        current = AtIssue::new(candidate, true);
                    }
                }
            }
            t += 1;
        }
        self.occupancy.hold_until(t);
        Outcome {
            cycles: t,
            stats: self.stats,
            counters: self.counters,
            occupancy: self.occupancy,
            attribution: self.attribution,
            pairs_issued: self.pairs,
        }
    }

    /// Dual issue: `follower` issues in the leader's cycle `t` when it is
    /// not the leader's consumer or overwriter, at most one of the two
    /// touches memory, and its registers are valid once this cycle's
    /// fills have landed. The leader never waits for it.
    fn pairs_with(&mut self, leader: &DynInst, follower: &DynInst, t: u64) -> bool {
        match self.model {
            ProcessorKind::DualInOrder => {}
            ProcessorKind::SingleInOrder | ProcessorKind::ReplayCause => return false,
        }
        let writes = leader.dst();
        let clashes =
            writes.is_some() && (follower.srcs.contains(&writes) || follower.dst() == writes);
        if clashes || leader.is_mem() && follower.is_mem() {
            return false;
        }
        self.land_due(t);
        self.registers_valid(follower)
    }

    fn registers_valid(&self, inst: &DynInst) -> bool {
        inst.srcs
            .iter()
            .chain(std::iter::once(&inst.dst()))
            .flatten()
            .all(|r| !self.pending.contains(r))
    }

    fn charge(&mut self, charge: Charge) {
        match charge.bucket {
            Bucket::DataDependency => self.stats.data_dep_stall_cycles += 1,
            Bucket::Structural => self.stats.structural_stall_cycles += 1,
            Bucket::Blocking => self.stats.blocking_stall_cycles += 1,
        }
        if let Some(cause) = charge.cause {
            self.attribution.stall_cycles[cause.slot()] += 1;
        }
    }

    /// Moves the instruction at issue on in cycle `t`: `Ok` when it
    /// issues, else the charge for the stalled cycle.
    fn step(&mut self, a: &mut AtIssue, t: u64) -> Result<(), Charge> {
        loop {
            match a.phase {
                Phase::Registers => {
                    while !self.registers_valid(&a.inst) {
                        if !self.land_one_due(t) {
                            let cause = (self.model == ProcessorKind::ReplayCause)
                                .then_some(Cause::DcacheMiss);
                            return Err(Charge {
                                bucket: Bucket::DataDependency,
                                cause,
                            });
                        }
                    }
                    a.phase = Phase::Access;
                }
                Phase::Access => {
                    let port = self.present(a, t);
                    match self.settle(a, port, t) {
                        Some(result) => return result,
                        None => continue,
                    }
                }
                Phase::Refused | Phase::Nacked => {
                    if !self.land_one_due(t) {
                        let nacked = matches!(a.phase, Phase::Nacked);
                        return Err(Charge {
                            bucket: Bucket::Structural,
                            cause: nacked.then_some(Cause::DcacheReplay),
                        });
                    }
                    let port = self.present(a, t);
                    match self.settle(a, port, t) {
                        Some(result) => return result,
                        None => continue,
                    }
                }
                Phase::Busy { until, why, next } => {
                    if t < until {
                        return Err(why);
                    }
                    match next {
                        Then::Issue => return Ok(()),
                        Then::Reissue => {
                            a.reissue = true;
                            a.phase = Phase::Access;
                        }
                        Then::Release { block } => {
                            // The serviced line lands, then the fills
                            // that queued behind it: their counts change
                            // now, not at their own completion times.
                            self.land(block);
                            self.occupancy.hold_until(t);
                            self.land_due(t);
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    /// Acts on what the port did with `a`'s access in cycle `t`: `None`
    /// to keep stepping in this cycle, else the cycle's result.
    fn settle(&mut self, a: &mut AtIssue, port: Port, t: u64) -> Option<Result<(), Charge>> {
        let blocking = Charge {
            bucket: Bucket::Blocking,
            cause: None,
        };
        match port {
            Port::Done | Port::Missed => Some(Ok(())),
            Port::Swap => {
                a.phase = Phase::Busy {
                    until: t + 1,
                    why: blocking,
                    next: Then::Issue,
                };
                Some(Err(blocking))
            }
            Port::Locked { until, block } => {
                a.phase = Phase::Busy {
                    until,
                    why: blocking,
                    next: Then::Release { block },
                };
                Some(Err(blocking))
            }
            Port::Refused => {
                if !a.rejected {
                    a.rejected = true;
                    self.stats.structural_stall_misses += 1;
                }
                a.phase = Phase::Refused;
                None
            }
            Port::Replay(Cause::DcacheReplay) if a.nacked => {
                a.phase = Phase::Nacked;
                None
            }
            Port::Replay(cause) => {
                let (cycles, bucket) = match cause {
                    Cause::ForwardFail => (SLOW_REPLAY, Bucket::DataDependency),
                    Cause::DcacheReplay | Cause::BankConflict => (FAST_REPLAY, Bucket::Structural),
                    Cause::DcacheMiss => unreachable!("a real miss does not replay"),
                };
                if cause == Cause::DcacheReplay {
                    a.nacked = true;
                    if !a.rejected {
                        a.rejected = true;
                        self.stats.structural_stall_misses += 1;
                    }
                }
                self.attribution.counts[cause.slot()] += 1;
                let why = Charge {
                    bucket,
                    cause: Some(cause),
                };
                a.phase = Phase::Busy {
                    until: t + cycles,
                    why,
                    next: Then::Reissue,
                };
                Some(Err(why))
            }
        }
    }

    /// Presents `a`'s operation to the cache in cycle `t`, counting it
    /// when it goes through.
    fn present(&mut self, a: &mut AtIssue, t: u64) -> Port {
        let port = match a.inst.kind {
            DynKind::Alu { .. } => Port::Done,
            DynKind::Load { addr, dst, .. } if self.model == ProcessorKind::ReplayCause => {
                self.replaying_load(addr.0, dst, a, t)
            }
            DynKind::Load { addr, dst, .. } => self.load(addr.0, dst, t),
            DynKind::Store { addr } => {
                if self.model == ProcessorKind::ReplayCause && !self.perfect {
                    let block = addr.0 / self.line;
                    self.last_store = Some((block, t));
                    self.bank_free[((addr.0 >> 3) % BANKS) as usize] = t + BANK_BUSY;
                }
                self.store(addr.0, t)
            }
        };
        if matches!(
            port,
            Port::Done | Port::Missed | Port::Swap | Port::Locked { .. }
        ) {
            self.stats.instructions += 1;
            match a.inst.kind {
                DynKind::Load { .. } => self.stats.loads += 1,
                DynKind::Store { .. } => self.stats.stores += 1,
                DynKind::Alu { .. } => {}
            }
        }
        port
    }

    /// A load issued speculatively: the forwarding and bank checks on
    /// first issue, a NACK in place of a refusal, and the bank held by
    /// any access that reaches the data array.
    fn replaying_load(&mut self, addr: u64, dst: PhysReg, a: &AtIssue, t: u64) -> Port {
        if self.perfect {
            return Port::Done;
        }
        let block = addr / self.line;
        let bank = ((addr >> 3) % BANKS) as usize;
        if !a.reissue {
            if self
                .last_store
                .is_some_and(|(b, at)| b == block && t < at + FORWARD_WINDOW)
            {
                return Port::Replay(Cause::ForwardFail);
            }
            if t < self.bank_free[bank] {
                return Port::Replay(Cause::BankConflict);
            }
        }
        match self.load(addr, dst, t) {
            Port::Refused => Port::Replay(Cause::DcacheReplay),
            port => {
                self.bank_free[bank] = t + BANK_BUSY;
                if matches!(port, Port::Missed) {
                    self.attribution.counts[Cause::DcacheMiss.slot()] += 1;
                }
                port
            }
        }
    }

    fn load(&mut self, addr: u64, dst: PhysReg, t: u64) -> Port {
        if self.perfect {
            return Port::Done;
        }
        let block = addr / self.line;
        if self.l1.hit(block) {
            self.counters.load_hits += 1;
            return Port::Done;
        }
        if self.victim_entries > 0 && self.fetch_of(block).is_none() {
            if let Some(pos) = self.victims.iter().position(|&v| v == block) {
                // A swap: the line the set gives up takes the recovered
                // line's place in the buffer, as its newest entry.
                self.victims.remove(pos);
                if let Some(displaced) = self.l1.install(block) {
                    self.victims.push(displaced);
                    if self.victims.len() > self.victim_entries {
                        self.victims.remove(0);
                    }
                }
                self.counters.victim_hits += 1;
                return Port::Swap;
            }
        }
        let target = Target {
            dest: Dest::Reg(dst),
            offset: (addr % self.line) as u32,
        };
        match self.admit(block, target, t) {
            admission @ (Admission::Launch | Admission::Join) => {
                let launched = matches!(admission, Admission::Launch);
                if launched {
                    self.counters.load_primary_misses += 1;
                } else {
                    self.counters.load_secondary_misses += 1;
                }
                self.occupancy.miss_tracked(t, launched);
                self.pending.insert(dst);
                Port::Missed
            }
            Admission::Refused if matches!(self.mshrs, Mshrs::Lockup) => {
                self.stats.blocking_load_misses += 1;
                Port::Locked {
                    until: t + self.latency(block),
                    block,
                }
            }
            Admission::Refused => Port::Refused,
        }
    }

    fn store(&mut self, addr: u64, t: u64) -> Port {
        if self.perfect {
            return Port::Done;
        }
        let block = addr / self.line;
        if self.l1.hit(block) {
            self.counters.store_hits += 1;
            return Port::Done;
        }
        self.counters.store_misses += 1;
        if !self.write_allocate {
            return Port::Done;
        }
        let slot = self.write_buffer_slot;
        self.write_buffer_slot = (slot + 1) % 16;
        let target = Target {
            dest: Dest::WriteBuffer(slot),
            offset: (addr % self.line) as u32,
        };
        match self.admit(block, target, t) {
            admission @ (Admission::Launch | Admission::Join) => {
                self.stats.nonblocking_store_misses += 1;
                self.occupancy
                    .miss_tracked(t, matches!(admission, Admission::Launch));
                Port::Missed
            }
            Admission::Refused => {
                self.stats.blocking_store_misses += 1;
                Port::Locked {
                    until: t + self.latency(block),
                    block,
                }
            }
        }
    }

    fn fetch_of(&self, block: u64) -> Option<&Fetch> {
        self.in_flight.values().find(|f| f.block == block)
    }

    /// Cycles to bring `block` in: the L2's hit penalty when it holds
    /// the line (which then counts as used), else the memory's, which
    /// also puts the line in the L2. Plus the narrow port's read-out.
    fn latency(&mut self, block: u64) -> u64 {
        let extra = match self.mshrs {
            Mshrs::InCache { extra, .. } => u64::from(extra),
            Mshrs::Lockup | Mshrs::Register { .. } | Mshrs::Inverted => 0,
        };
        let base = match &mut self.l2 {
            Some((l2, hit_penalty)) => {
                if l2.hit(block) {
                    *hit_penalty
                } else {
                    l2.install(block);
                    self.penalty
                }
            }
            None => self.penalty,
        };
        base + extra
    }

    /// The MSHRs' answer to a miss on `block` for `target` in cycle `t`:
    /// it joins the fetch in flight, launches a new one, or is refused.
    fn admit(&mut self, block: u64, target: Target, t: u64) -> Admission {
        let set = self.l1.set_of(block);
        let line = self.line as u32;
        let fits = |policy: &TargetPolicy, fetch: &Fetch| {
            let span = line / policy.sub_blocks();
            let same = fetch
                .targets
                .iter()
                .filter(|x| x.offset / span == target.offset / span)
                .count();
            policy.fields_per_sub_block().allows_one_more(same)
        };
        let joined = self.fetch_of(block);
        let admitted = match &self.mshrs {
            Mshrs::Lockup => false,
            Mshrs::Register {
                entries,
                fields,
                misses,
                per_set,
            } => {
                let waiting: usize = self.in_flight.values().map(|f| f.targets.len()).sum();
                let in_set = self.in_flight.values().filter(|f| f.set == set).count();
                misses.allows_one_more(waiting)
                    && match joined {
                        Some(fetch) => fits(fields, fetch),
                        None => {
                            entries.allows_one_more(self.in_flight.len())
                                && per_set.allows_one_more(in_set)
                        }
                    }
            }
            Mshrs::InCache { fields, .. } => match joined {
                Some(fetch) => fits(fields, fetch),
                None => self.in_flight.values().filter(|f| f.set == set).count() < self.l1.ways,
            },
            Mshrs::Inverted => !self
                .in_flight
                .values()
                .any(|f| f.targets.iter().any(|x| x.dest == target.dest)),
        };
        if !admitted {
            return Admission::Refused;
        }
        if let Some(fetch) = self.in_flight.values_mut().find(|f| f.block == block) {
            fetch.targets.push(target);
            return Admission::Join;
        }
        if matches!(self.mshrs, Mshrs::InCache { .. }) {
            self.l1.claim(block);
        }
        let at = t + self.latency(block);
        self.launches += 1;
        self.in_flight.insert(
            (at, self.launches),
            Fetch {
                block,
                set,
                targets: vec![target],
            },
        );
        Admission::Launch
    }

    /// Lands every fetch due by cycle `t`, in completion order.
    fn land_due(&mut self, t: u64) {
        while self.land_one_due(t) {}
    }

    /// Lands the earliest fetch if it is due by cycle `t`.
    fn land_one_due(&mut self, t: u64) -> bool {
        let Some(entry) = self.in_flight.first_entry() else {
            return false;
        };
        let at = entry.key().0;
        if at > t {
            return false;
        }
        let fetch = entry.remove();
        self.land(fetch.block);
        for target in &fetch.targets {
            if let Dest::Reg(r) = target.dest {
                self.pending.remove(&r);
            }
        }
        self.occupancy.fetch_landed(at, fetch.targets.len());
        true
    }

    /// Installs `block` in the L1; the line it displaces becomes the
    /// victim buffer's newest entry.
    fn land(&mut self, block: u64) {
        self.counters.fills += 1;
        if let Some(evicted) = self.l1.install(block) {
            if self.victim_entries > 0 {
                self.victims.retain(|&v| v != evicted);
                if self.victims.len() == self.victim_entries {
                    self.victims.remove(0);
                }
                self.victims.push(evicted);
            }
        }
    }
}

impl AtIssue {
    fn new(inst: DynInst, follower: bool) -> AtIssue {
        AtIssue {
            inst,
            phase: if follower {
                Phase::Access
            } else {
                Phase::Registers
            },
            follower,
            rejected: false,
            reissue: false,
            nacked: false,
        }
    }
}
