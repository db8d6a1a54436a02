//! The fully pipelined main-memory model of the paper's §3.1.
//!
//! "To avoid stalls induced by the main memory, the main memory is assumed
//! to be fully pipelined. Hence, regardless of other memory activity, a
//! constant number of cycles is required to fetch a cache line from the
//! memory into the cache."
//!
//! In-flight fetches wait in an in-order fill queue sorted by completion
//! time, ties broken by issue order. With the paper's constant latency
//! (and with a bandwidth gap, which only pushes completions later),
//! fetches complete in issue order, so every insert is an append. The
//! two-level-hierarchy extension issues fetches with *per-fetch* latency
//! ([`PipelinedMemory::issue_fetch_after`] — an L2 hit returns sooner than
//! an earlier L2 miss); such a fetch is inserted ahead of the later
//! completions it overtakes.

use nbl_core::types::{BlockAddr, Cycle};
use std::collections::VecDeque;

/// Errors from the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// `next_completion` / `advance_to_next_fill` was called with no fetch
    /// outstanding.
    NoFetchOutstanding,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::NoFetchOutstanding => write!(f, "no fetch outstanding"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A completed fetch, ready to be filled into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedFetch {
    /// The block whose data has arrived.
    pub block: BlockAddr,
    /// The cycle at which the data arrived.
    pub at: Cycle,
}

/// Fully pipelined, constant-latency main memory.
///
/// # Examples
///
/// ```
/// use nbl_mem::memory::PipelinedMemory;
/// use nbl_core::types::{BlockAddr, Cycle};
///
/// let mut mem = PipelinedMemory::new(16);
/// mem.issue_fetch(BlockAddr(7), Cycle(100));
/// mem.issue_fetch(BlockAddr(8), Cycle(101)); // pipelined: overlaps freely
/// assert_eq!(mem.drain_ready(Cycle(115)).count(), 0);
/// let ready: Vec<_> = mem.drain_ready(Cycle(117)).collect();
/// assert_eq!(ready.len(), 2);
/// assert_eq!(ready[0].at, Cycle(116));
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedMemory {
    miss_penalty: u32,
    /// Minimum cycles between successive fetch *completions*: 0 models the
    /// paper's fully pipelined memory; larger values model a
    /// bandwidth-limited bus (ablation only).
    issue_gap: u32,
    last_ready: Cycle,
    /// The fill queue: in-flight fetches sorted by (completion time,
    /// issue order), earliest at the front.
    in_flight: VecDeque<CompletedFetch>,
}

impl PipelinedMemory {
    /// Creates a memory with the given miss penalty (cycles to fill a line;
    /// paper baseline: 16).
    ///
    /// # Panics
    ///
    /// Panics if `miss_penalty` is zero.
    pub fn new(miss_penalty: u32) -> PipelinedMemory {
        PipelinedMemory::with_gap(miss_penalty, 0)
    }

    /// Creates a bandwidth-limited memory: successive fetch completions are
    /// at least `issue_gap` cycles apart. `issue_gap = 0` reproduces the
    /// paper's fully pipelined assumption.
    ///
    /// # Panics
    ///
    /// Panics if `miss_penalty` is zero.
    pub fn with_gap(miss_penalty: u32, issue_gap: u32) -> PipelinedMemory {
        assert!(miss_penalty > 0, "a miss penalty of zero is not a miss");
        PipelinedMemory {
            miss_penalty,
            issue_gap,
            last_ready: Cycle::ZERO,
            in_flight: VecDeque::new(),
        }
    }

    /// Miss penalty for a line of `line_bytes` under the paper's §5.2
    /// pipelined memory: 14 cycles for the first 16 bytes, 2 cycles per
    /// additional 16 bytes. (16-byte lines → 14; 32-byte lines → 16;
    /// 64-byte lines → 20.)
    pub fn penalty_for_line(line_bytes: u32) -> u32 {
        assert!(line_bytes >= 16 && line_bytes.is_power_of_two());
        14 + 2 * (line_bytes / 16 - 1)
    }

    /// The configured miss penalty.
    #[inline]
    pub fn miss_penalty(&self) -> u32 {
        self.miss_penalty
    }

    /// Clears all in-flight state while keeping the queue's allocation for
    /// reuse by the next run on this worker.
    pub fn reset(&mut self) {
        self.in_flight.clear();
        self.last_ready = Cycle::ZERO;
    }

    /// Launches a fetch of `block` at time `now`; its data arrives at
    /// `now + miss_penalty`.
    ///
    /// Returns the completion time.
    pub fn issue_fetch(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        self.issue_fetch_after(block, now, self.miss_penalty)
    }

    /// Launches a fetch that completes after `latency` cycles instead of
    /// the configured default — the two-level-hierarchy extension, where an
    /// L2 hit returns sooner than an L2 miss (and may complete *before*
    /// fetches issued earlier).
    ///
    /// Returns the completion time.
    pub fn issue_fetch_after(&mut self, block: BlockAddr, now: Cycle, latency: u32) -> Cycle {
        let mut at = now.plus(u64::from(latency));
        if self.issue_gap > 0 {
            let earliest = self.last_ready.plus(u64::from(self.issue_gap));
            if earliest > at {
                at = earliest;
            }
        }
        if at > self.last_ready {
            self.last_ready = at;
        }
        // The new fetch is the latest issued, so it goes after every fetch
        // completing no later than it: an append unless it overtakes.
        let pos = self.in_flight.partition_point(|f| f.at <= at);
        self.in_flight.insert(pos, CompletedFetch { block, at });
        at
    }

    /// Number of fetches in flight.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Completion time of the earliest outstanding fetch.
    ///
    /// # Errors
    ///
    /// [`MemoryError::NoFetchOutstanding`] if the pipe is empty.
    #[inline]
    pub fn next_completion(&self) -> Result<Cycle, MemoryError> {
        self.in_flight
            .front()
            .map(|f| f.at)
            .ok_or(MemoryError::NoFetchOutstanding)
    }

    /// Removes and returns every fetch that has completed by `now`
    /// (inclusive), in completion order.
    #[inline]
    pub fn drain_ready(&mut self, now: Cycle) -> DrainReady<'_> {
        DrainReady { memory: self, now }
    }

    /// Removes and returns the earliest outstanding fetch regardless of the
    /// current time — used when the processor must stall until *some* fetch
    /// completes.
    ///
    /// # Errors
    ///
    /// [`MemoryError::NoFetchOutstanding`] if the pipe is empty.
    #[inline]
    pub fn pop_next(&mut self) -> Result<CompletedFetch, MemoryError> {
        self.in_flight
            .pop_front()
            .ok_or(MemoryError::NoFetchOutstanding)
    }
}

/// Draining iterator returned by [`PipelinedMemory::drain_ready`].
#[derive(Debug)]
pub struct DrainReady<'a> {
    memory: &'a mut PipelinedMemory,
    now: Cycle,
}

impl Iterator for DrainReady<'_> {
    type Item = CompletedFetch;

    #[inline]
    fn next(&mut self) -> Option<CompletedFetch> {
        if self.memory.in_flight.front()?.at <= self.now {
            self.memory.in_flight.pop_front()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::prop;

    #[test]
    fn constant_latency() {
        let mut m = PipelinedMemory::new(16);
        assert_eq!(m.issue_fetch(BlockAddr(1), Cycle(0)), Cycle(16));
        assert_eq!(m.issue_fetch(BlockAddr(2), Cycle(5)), Cycle(21));
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.next_completion(), Ok(Cycle(16)));
    }

    #[test]
    fn drain_respects_time() {
        let mut m = PipelinedMemory::new(4);
        m.issue_fetch(BlockAddr(1), Cycle(0)); // ready at 4
        m.issue_fetch(BlockAddr(2), Cycle(1)); // ready at 5
        m.issue_fetch(BlockAddr(3), Cycle(9)); // ready at 13
        let drained: Vec<_> = m.drain_ready(Cycle(5)).collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].block, BlockAddr(1));
        assert_eq!(drained[1].block, BlockAddr(2));
        assert_eq!(m.outstanding(), 1);
        assert!(m.drain_ready(Cycle(12)).next().is_none());
        assert_eq!(m.drain_ready(Cycle(13)).next().unwrap().block, BlockAddr(3));
    }

    #[test]
    fn pop_next_for_stalls() {
        let mut m = PipelinedMemory::new(16);
        assert_eq!(m.pop_next(), Err(MemoryError::NoFetchOutstanding));
        assert_eq!(m.next_completion(), Err(MemoryError::NoFetchOutstanding));
        m.issue_fetch(BlockAddr(9), Cycle(3));
        let f = m.pop_next().unwrap();
        assert_eq!(
            f,
            CompletedFetch {
                block: BlockAddr(9),
                at: Cycle(19)
            }
        );
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn variable_latency_completes_out_of_order() {
        let mut m = PipelinedMemory::new(30);
        m.issue_fetch(BlockAddr(1), Cycle(0)); // L2 miss: ready at 30
        m.issue_fetch_after(BlockAddr(2), Cycle(1), 6); // L2 hit: ready at 7
        assert_eq!(m.next_completion(), Ok(Cycle(7)));
        let first = m.pop_next().unwrap();
        assert_eq!(
            first,
            CompletedFetch {
                block: BlockAddr(2),
                at: Cycle(7)
            }
        );
        let second = m.pop_next().unwrap();
        assert_eq!(
            second,
            CompletedFetch {
                block: BlockAddr(1),
                at: Cycle(30)
            }
        );
    }

    #[test]
    fn equal_completion_times_keep_issue_order() {
        let mut m = PipelinedMemory::new(10);
        m.issue_fetch(BlockAddr(5), Cycle(0));
        m.issue_fetch_after(BlockAddr(6), Cycle(5), 5); // also ready at 10
        assert_eq!(m.pop_next().unwrap().block, BlockAddr(5));
        assert_eq!(m.pop_next().unwrap().block, BlockAddr(6));
    }

    /// Replays a seeded mix of per-fetch latencies (L2 hits overtaking
    /// earlier misses), equal completion times and bandwidth gaps, with
    /// `drain_ready` and `pop_next` interleaved. Against a reference that
    /// sorts the queued fetches by (completion, issue sequence), every
    /// `pop_next` must yield the first of that sort and every
    /// `drain_ready` exactly its prefix completed by `now`.
    #[test]
    fn fill_queue_yields_completion_then_issue_order() {
        for gap in [0u32, 1, 3] {
            let suite = format!("fill queue, gap {gap}");
            prop::check(&suite, 20, u64::from(gap), |rng| {
                let mut m = PipelinedMemory::with_gap(12, gap);
                // (completion, issue sequence, block) of every queued fetch.
                let mut reference: Vec<(Cycle, u64, BlockAddr)> = Vec::new();
                let take = |reference: &mut Vec<(Cycle, u64, BlockAddr)>, n: usize| {
                    reference.sort();
                    reference
                        .drain(..n)
                        .map(|(at, _, block)| CompletedFetch { block, at })
                        .collect::<Vec<_>>()
                };
                let mut now = 0u64;
                let (mut overtakes, mut ties) = (0, 0);
                for seq in 0..200u64 {
                    now += rng.next_below(3);
                    let block = BlockAddr(seq);
                    let at = match rng.next_below(4) {
                        0 => m.issue_fetch(block, Cycle(now)),
                        // Short latencies overtake, long ones land later;
                        // the narrow range makes equal completions common.
                        _ => {
                            let lat = 1 + rng.next_below(14) as u32;
                            m.issue_fetch_after(block, Cycle(now), lat)
                        }
                    };
                    if reference.iter().any(|&(queued, _, _)| queued > at) {
                        overtakes += 1;
                    }
                    if reference.iter().any(|&(queued, _, _)| queued == at) {
                        ties += 1;
                    }
                    reference.push((at, seq, block));
                    match rng.next_below(8) {
                        0 => {
                            let got: Vec<_> = m.pop_next().into_iter().collect();
                            assert_eq!(got, take(&mut reference, 1));
                        }
                        1 => {
                            let got: Vec<_> = m.drain_ready(Cycle(now)).collect();
                            let due = reference.iter().filter(|f| f.0 <= Cycle(now)).count();
                            assert_eq!(got, take(&mut reference, due));
                        }
                        _ => {}
                    }
                    assert_eq!(m.outstanding(), reference.len());
                }
                let rest: Vec<_> = std::iter::from_fn(|| m.pop_next().ok()).collect();
                let n = reference.len();
                assert_eq!(rest, take(&mut reference, n));
                // A gap serializes completions, so only the fully
                // pipelined memory can be overtaken or tie.
                assert_eq!(overtakes > 0, gap == 0);
                assert_eq!(ties > 0, gap == 0);
            });
        }
    }

    #[test]
    fn issue_gap_serializes_completions() {
        let mut m = PipelinedMemory::with_gap(16, 8);
        assert_eq!(m.issue_fetch(BlockAddr(1), Cycle(0)), Cycle(16));
        // Back-to-back issues complete at least 8 cycles apart.
        assert_eq!(m.issue_fetch(BlockAddr(2), Cycle(1)), Cycle(24));
        assert_eq!(m.issue_fetch(BlockAddr(3), Cycle(2)), Cycle(32));
        // A fetch issued long after idle is unaffected.
        assert_eq!(m.issue_fetch(BlockAddr(4), Cycle(100)), Cycle(116));
    }

    #[test]
    fn zero_gap_is_fully_pipelined() {
        let mut m = PipelinedMemory::with_gap(16, 0);
        assert_eq!(m.issue_fetch(BlockAddr(1), Cycle(0)), Cycle(16));
        assert_eq!(m.issue_fetch(BlockAddr(2), Cycle(1)), Cycle(17));
    }

    #[test]
    fn line_size_penalties_match_paper_section_5_2() {
        assert_eq!(PipelinedMemory::penalty_for_line(16), 14);
        assert_eq!(PipelinedMemory::penalty_for_line(32), 16);
        assert_eq!(PipelinedMemory::penalty_for_line(64), 20);
    }

    #[test]
    #[should_panic(expected = "not a miss")]
    fn zero_penalty_rejected() {
        let _ = PipelinedMemory::new(0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            MemoryError::NoFetchOutstanding.to_string(),
            "no fetch outstanding"
        );
    }
}
