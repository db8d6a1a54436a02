//! Miss-lifecycle event tracing for the memory system.
//!
//! Every access that enters the miss pipeline of a
//! [`crate::system::MemorySystem`] moves through an explicit transaction
//! lifecycle:
//!
//! ```text
//! Issued ──► Merged              (secondary miss rides an in-flight fetch)
//!        ├─► Rejected            (structural hazard; the access retries)
//!        └─► FetchLaunched ──► Filled ──► TargetsWoken
//! ```
//!
//! Every access that does not retry also ends in one
//! [`MemEvent::Resolved`] carrying its final [`AccessOutcome`] — plain hits
//! included, which produce no other event. Tracing is **off by default**:
//! the memory system holds an `Option<Box<MemTrace>>` and the only cost
//! when disabled is one pointer null check per emission — no event is
//! even constructed.
//!
//! The observer side is the [`MemEventSink`] trait. [`MissLifecycleStats`]
//! aggregates the per-run summary the paper-adjacent delayed-hits analyses
//! need: merge depth per fetch, fill-to-wake fan-out, and time-in-flight
//! histograms. [`MemTrace`] bundles it with the per-access outcome log
//! the static cache oracle cross-checks against.

use nbl_core::mshr::Rejection;
use nbl_core::types::{BlockAddr, Cycle};
use std::collections::BTreeMap;

/// Which port the traced access came in on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (register or other read destination).
    Load,
    /// A store (write-allocate misses enter the miss pipeline too).
    Store,
}

/// Which hierarchy level services a launched fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// The optional second-level cache holds the line (short penalty).
    L2Hit,
    /// The pipelined main memory (full miss penalty).
    Memory,
}

/// Why a speculatively issued load was thrown back into the replay queue
/// instead of completing — the subset of XiangShan's `LoadReplayCauses`
/// this model implements, declared in priority order (an access that
/// qualifies for several causes reports the first): store-to-load
/// forwarding failure (`C_FF`), a data-cache resource NACK (`C_DR`), a
/// real data-cache miss (`C_DM`, which waits for the fill rather than
/// spinning), and a load-pipeline bank conflict (`C_BC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplayCause {
    /// Store-to-load forwarding failed: the load overlaps a store still
    /// in flight and the data could not be forwarded — a *slow* replay
    /// (the load re-executes from the replay queue after the store
    /// resolves).
    ForwardFail,
    /// The data cache NACKed the access (no MSHR/resource to track it) —
    /// a *fast* replay; a second NACK falls back to waiting for a fill.
    DcacheReplay,
    /// The access genuinely missed: the load completes out of order when
    /// the fill arrives, and any consumer stall is attributed here.
    DcacheMiss,
    /// Two accesses hit the same data-array bank in the same busy window —
    /// a *fast* replay through the load pipeline.
    BankConflict,
}

impl ReplayCause {
    /// Number of modeled causes (array dimension for per-cause counters).
    pub const COUNT: usize = 4;

    /// Every cause, in priority order.
    pub const ALL: [ReplayCause; ReplayCause::COUNT] = [
        ReplayCause::ForwardFail,
        ReplayCause::DcacheReplay,
        ReplayCause::DcacheMiss,
        ReplayCause::BankConflict,
    ];

    /// Dense index of this cause (its position in [`ReplayCause::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ReplayCause::ForwardFail => 0,
            ReplayCause::DcacheReplay => 1,
            ReplayCause::DcacheMiss => 2,
            ReplayCause::BankConflict => 3,
        }
    }

    /// Stable short label for CSV/JSON emitters.
    pub fn label(self) -> &'static str {
        match self {
            ReplayCause::ForwardFail => "fwd_fail",
            ReplayCause::DcacheReplay => "dcache_rep",
            ReplayCause::DcacheMiss => "dcache_miss",
            ReplayCause::BankConflict => "bank_conflict",
        }
    }
}

/// Final hit/miss resolution of one memory access, carried by
/// [`MemEvent::Resolved`]. Rejected accesses (a load answered with a
/// retry) resolve nothing — a rejection leaves the tag array untouched
/// and the retried access resolves later — so with a single in-order
/// issue stream the *n*-th outcome belongs to the *n*-th memory
/// instruction in program order. This is the observation side of the
/// static cache oracle's cross-check (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit in the L1 tag array.
    Hit,
    /// The access hit in the victim buffer (counts as resident data, but
    /// not an L1 tag hit — the oracle refuses configs where this can
    /// occur).
    VictimHit,
    /// The access missed: primary, secondary (merged into an in-flight
    /// fetch), write-around, or serviced synchronously by a blocking
    /// cache.
    Miss,
}

/// One step of a memory transaction's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemEvent {
    /// A non-hit access entered the miss pipeline. `txn` identifies this
    /// access among the trace's events; a structurally rejected access that
    /// retries re-enters with a fresh id.
    Issued {
        /// Transaction id.
        txn: u64,
        /// Load or store.
        kind: AccessKind,
        /// The missing block.
        block: BlockAddr,
        /// Access time.
        at: Cycle,
    },
    /// The transaction merged into an already in-flight fetch of its block
    /// (a secondary miss — the "delayed hit" of Manohar et al.).
    Merged {
        /// Transaction id.
        txn: u64,
        /// The in-transit block.
        block: BlockAddr,
        /// Merge time.
        at: Cycle,
    },
    /// No MSHR resource could track the transaction; the processor must
    /// wait for a fill and retry.
    Rejected {
        /// Transaction id.
        txn: u64,
        /// The missing block.
        block: BlockAddr,
        /// Why the MSHR organization refused it.
        reason: Rejection,
        /// Rejection time.
        at: Cycle,
    },
    /// A primary miss launched a fetch down the hierarchy.
    FetchLaunched {
        /// Transaction id.
        txn: u64,
        /// The fetched block.
        block: BlockAddr,
        /// Launch time.
        at: Cycle,
        /// When the data will arrive.
        fill_at: Cycle,
        /// Which level services it.
        level: ServiceLevel,
    },
    /// Fetch data arrived and the line was installed in the L1.
    Filled {
        /// The filled block.
        block: BlockAddr,
        /// Fill time.
        at: Cycle,
    },
    /// The fill woke its waiting targets (registers / write-buffer slots),
    /// all simultaneously.
    TargetsWoken {
        /// The filled block.
        block: BlockAddr,
        /// Fill time.
        at: Cycle,
        /// How many targets were waiting.
        targets: u32,
    },
    /// A speculatively issued load was thrown back for replay (or, for
    /// [`ReplayCause::DcacheMiss`], completed out of order behind a fill) —
    /// only the replaying pipeline model emits this.
    LoadReplayed {
        /// The accessed block.
        block: BlockAddr,
        /// Why the load replayed.
        cause: ReplayCause,
        /// Replay time.
        at: Cycle,
    },
    /// The access reached its final hit/miss resolution (every access
    /// except a rejected one, which resolves when it retries). Emitted
    /// after the access's lifecycle events, if any.
    Resolved {
        /// Load or store.
        kind: AccessKind,
        /// How it resolved.
        outcome: AccessOutcome,
        /// The accessed block.
        block: BlockAddr,
        /// Access time.
        at: Cycle,
    },
}

/// An observer of memory-system lifecycle events.
pub trait MemEventSink {
    /// Records one event. Called in simulation order.
    fn record(&mut self, event: &MemEvent);
}

/// Bucket count for the lifecycle histograms (`merge depth`, `fan-out`);
/// the final bucket saturates.
pub const DEPTH_BUCKETS: usize = 17;

/// Bucket count for the time-in-flight histogram; the final bucket
/// saturates.
pub const FLIGHT_BUCKETS: usize = 65;

/// Per-run summary of the miss lifecycle: how often misses merge, how many
/// targets each fill wakes, and how long fetches stay in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct MissLifecycleStats {
    /// Transactions that entered the miss pipeline.
    pub issued: u64,
    /// Transactions that merged into an in-flight fetch.
    pub merged: u64,
    /// Transactions structurally rejected.
    pub rejected: u64,
    /// Fetches launched.
    pub fetches: u64,
    /// Fetches launched that the L2 serviced (0 without an L2).
    pub l2_serviced: u64,
    /// Lines filled.
    pub fills: u64,
    /// Total targets woken by fills.
    pub targets_woken: u64,
    /// `merge_depth[d]` = fetches whose line absorbed `d` secondary misses
    /// while in flight (last bucket saturates).
    pub merge_depth: [u64; DEPTH_BUCKETS],
    /// `fanout[n]` = fills that woke exactly `n` targets (last bucket
    /// saturates).
    pub fanout: [u64; DEPTH_BUCKETS],
    /// `time_in_flight[c]` = fetches that spent `c` cycles between launch
    /// and fill (last bucket saturates).
    pub time_in_flight: [u64; FLIGHT_BUCKETS],
    /// Sum of in-flight cycles across filled fetches (for the mean).
    pub flight_cycles: u64,
    /// Longest observed launch-to-fill time.
    pub max_flight: u64,
    /// `replays[ReplayCause::index()]` = loads replayed for that cause
    /// (all zero outside the replaying pipeline model).
    pub replays: [u64; ReplayCause::COUNT],
    /// Fetches in flight at the moment of observation (launch time and
    /// merges absorbed so far).
    in_flight: BTreeMap<BlockAddr, (Cycle, u32)>,
}

impl Default for MissLifecycleStats {
    fn default() -> Self {
        MissLifecycleStats {
            issued: 0,
            merged: 0,
            rejected: 0,
            fetches: 0,
            l2_serviced: 0,
            fills: 0,
            targets_woken: 0,
            merge_depth: [0; DEPTH_BUCKETS],
            fanout: [0; DEPTH_BUCKETS],
            time_in_flight: [0; FLIGHT_BUCKETS],
            flight_cycles: 0,
            max_flight: 0,
            replays: [0; ReplayCause::COUNT],
            in_flight: BTreeMap::new(),
        }
    }
}

impl MissLifecycleStats {
    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.issued
            + self.merged
            + self.rejected
            + self.fetches
            + 2 * self.fills
            + self.total_replays()
    }

    /// Loads replayed across every cause.
    pub fn total_replays(&self) -> u64 {
        self.replays.iter().sum()
    }

    /// Mean secondary misses absorbed per fetch.
    pub fn mean_merge_depth(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.merged as f64 / self.fetches as f64
        }
    }

    /// Mean targets woken per fill.
    pub fn mean_fanout(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.targets_woken as f64 / self.fills as f64
        }
    }

    /// Mean launch-to-fill time in cycles.
    pub fn mean_time_in_flight(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.flight_cycles as f64 / self.fills as f64
        }
    }
}

impl MemEventSink for MissLifecycleStats {
    fn record(&mut self, event: &MemEvent) {
        match *event {
            MemEvent::Issued { .. } => self.issued += 1,
            MemEvent::Merged { block, .. } => {
                self.merged += 1;
                if let Some((_, merges)) = self.in_flight.get_mut(&block) {
                    *merges += 1;
                }
            }
            MemEvent::Rejected { .. } => self.rejected += 1,
            MemEvent::FetchLaunched {
                block, at, level, ..
            } => {
                self.fetches += 1;
                if level == ServiceLevel::L2Hit {
                    self.l2_serviced += 1;
                }
                self.in_flight.insert(block, (at, 0));
            }
            MemEvent::Filled { block, at } => {
                self.fills += 1;
                if let Some((launched, merges)) = self.in_flight.remove(&block) {
                    let flight = at.since(launched);
                    self.flight_cycles += flight;
                    self.max_flight = self.max_flight.max(flight);
                    self.time_in_flight[(flight as usize).min(FLIGHT_BUCKETS - 1)] += 1;
                    self.merge_depth[(merges as usize).min(DEPTH_BUCKETS - 1)] += 1;
                }
            }
            MemEvent::TargetsWoken { targets, .. } => {
                self.targets_woken += u64::from(targets);
                self.fanout[(targets as usize).min(DEPTH_BUCKETS - 1)] += 1;
            }
            MemEvent::LoadReplayed { cause, .. } => {
                self.replays[cause.index()] += 1;
            }
            // A resolution is not a lifecycle stage.
            MemEvent::Resolved { .. } => {}
        }
    }
}

/// The memory system's one observer: the [`MissLifecycleStats`]
/// aggregate and the per-access outcome log. [`MemEvent::Resolved`] goes
/// to the log only; every other event goes to the aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemTrace {
    /// The per-run aggregate.
    pub stats: MissLifecycleStats,
    /// One outcome per [`MemEvent::Resolved`], in resolution order.
    pub outcomes: Vec<AccessOutcome>,
}

impl MemEventSink for MemTrace {
    fn record(&mut self, event: &MemEvent) {
        if let MemEvent::Resolved { outcome, .. } = *event {
            self.outcomes.push(outcome);
        } else {
            self.stats.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(block: u64, at: u64, fill_at: u64) -> [MemEvent; 2] {
        [
            MemEvent::Issued {
                txn: block,
                kind: AccessKind::Load,
                block: BlockAddr(block),
                at: Cycle(at),
            },
            MemEvent::FetchLaunched {
                txn: block,
                block: BlockAddr(block),
                at: Cycle(at),
                fill_at: Cycle(fill_at),
                level: ServiceLevel::Memory,
            },
        ]
    }

    fn fill(block: u64, at: u64, targets: u32) -> [MemEvent; 2] {
        [
            MemEvent::Filled {
                block: BlockAddr(block),
                at: Cycle(at),
            },
            MemEvent::TargetsWoken {
                block: BlockAddr(block),
                at: Cycle(at),
                targets,
            },
        ]
    }

    #[test]
    fn stats_track_merge_depth_and_flight_time() {
        let mut s = MissLifecycleStats::default();
        for e in launch(7, 0, 16) {
            s.record(&e);
        }
        // Two secondary misses merge into the fetch of block 7.
        for txn in [10, 11] {
            s.record(&MemEvent::Issued {
                txn,
                kind: AccessKind::Load,
                block: BlockAddr(7),
                at: Cycle(txn),
            });
            s.record(&MemEvent::Merged {
                txn,
                block: BlockAddr(7),
                at: Cycle(txn),
            });
        }
        for e in fill(7, 16, 3) {
            s.record(&e);
        }
        assert_eq!(s.issued, 3);
        assert_eq!(s.merged, 2);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.fills, 1);
        assert_eq!(s.targets_woken, 3);
        assert_eq!(s.merge_depth[2], 1);
        assert_eq!(s.fanout[3], 1);
        assert_eq!(s.time_in_flight[16], 1);
        assert_eq!(s.max_flight, 16);
        assert!((s.mean_merge_depth() - 2.0).abs() < 1e-12);
        assert!((s.mean_fanout() - 3.0).abs() < 1e-12);
        assert!((s.mean_time_in_flight() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn histograms_saturate() {
        let mut s = MissLifecycleStats::default();
        for e in launch(1, 0, 500) {
            s.record(&e);
        }
        for e in fill(1, 500, 99) {
            s.record(&e);
        }
        assert_eq!(s.time_in_flight[FLIGHT_BUCKETS - 1], 1);
        assert_eq!(s.fanout[DEPTH_BUCKETS - 1], 1);
        assert_eq!(s.max_flight, 500);
    }

    #[test]
    fn rejection_counts() {
        let mut s = MissLifecycleStats::default();
        s.record(&MemEvent::Issued {
            txn: 0,
            kind: AccessKind::Load,
            block: BlockAddr(1),
            at: Cycle(0),
        });
        s.record(&MemEvent::Rejected {
            txn: 0,
            block: BlockAddr(1),
            reason: Rejection::NoFreeMshr,
            at: Cycle(0),
        });
        assert_eq!(s.rejected, 1);
        assert_eq!(s.total_events(), 2);
    }

    #[test]
    fn trace_splits_resolutions_from_lifecycle_events() {
        let mut t = MemTrace::default();
        for e in launch(3, 2, 18) {
            t.record(&e);
        }
        for e in fill(3, 18, 1) {
            t.record(&e);
        }
        t.record(&MemEvent::Resolved {
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            block: BlockAddr(3),
            at: Cycle(2),
        });
        assert_eq!(t.stats.fetches, 1);
        assert_eq!(
            t.stats.total_events(),
            4,
            "a resolution stays out of the stats"
        );
        assert_eq!(t.outcomes, vec![AccessOutcome::Miss]);
    }
}
