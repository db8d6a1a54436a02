//! Lightweight run telemetry: process-wide counters of simulation work
//! done, for throughput reporting (simulated instructions per second) in
//! the bench harness.
//!
//! The driver bumps the global counters once per completed simulation, so
//! the cost is a handful of relaxed atomic adds per *run*, not per
//! instruction — invisible next to the simulation itself.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of simulation work.
#[derive(Debug, Default)]
pub struct Telemetry {
    instructions: AtomicU64,
    runs: AtomicU64,
    events: AtomicU64,
    policy_runs: AtomicU64,
    arena_builds: AtomicU64,
    arena_reuses: AtomicU64,
}

/// Point-in-time copy of the counters; subtract two to get the work done
/// in an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Instructions simulated.
    pub instructions: u64,
    /// Simulation runs completed.
    pub runs: u64,
    /// Miss-lifecycle events recorded by traced runs (0 unless tracing
    /// was enabled).
    pub events: u64,
    /// Runs simulated under a non-LRU replacement policy (0 unless a
    /// policy sweep ran).
    pub policy_runs: u64,
    /// Processors constructed from scratch because no pooled worker
    /// matched the run's configuration. On a warm worker arena this stays
    /// flat run-to-run — the allocation counter the zero-alloc tests pin.
    pub arena_builds: u64,
    /// Runs served by resetting a pooled processor instead of building
    /// one.
    pub arena_reuses: u64,
}

impl TelemetrySnapshot {
    /// Work done between `earlier` and `self` (counters are monotonic, so
    /// this saturates rather than wrapping if misused).
    pub fn since(&self, earlier: TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            runs: self.runs.saturating_sub(earlier.runs),
            events: self.events.saturating_sub(earlier.events),
            policy_runs: self.policy_runs.saturating_sub(earlier.policy_runs),
            arena_builds: self.arena_builds.saturating_sub(earlier.arena_builds),
            arena_reuses: self.arena_reuses.saturating_sub(earlier.arena_reuses),
        }
    }

    /// Simulated instructions per second over `wall` seconds.
    pub fn inst_per_sec(&self, wall: f64) -> f64 {
        if wall > 0.0 {
            self.instructions as f64 / wall
        } else {
            0.0
        }
    }
}

impl Telemetry {
    /// The process-wide instance the driver records into.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: Telemetry = Telemetry {
            instructions: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            events: AtomicU64::new(0),
            policy_runs: AtomicU64::new(0),
            arena_builds: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
        };
        &GLOBAL
    }

    /// Records one completed simulation run.
    pub fn record_run(&self, instructions: u64) {
        self.instructions.fetch_add(instructions, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records lifecycle events observed by one traced run.
    pub fn record_events(&self, events: u64) {
        self.events.fetch_add(events, Ordering::Relaxed);
    }

    /// Records one run simulated under a non-default replacement policy.
    pub fn record_policy_run(&self) {
        self.policy_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one processor built from scratch for the worker arena.
    pub fn record_arena_build(&self) {
        self.arena_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one run served by resetting a pooled processor.
    pub fn record_arena_reuse(&self) {
        self.arena_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            policy_runs: self.policy_runs.load(Ordering::Relaxed),
            arena_builds: self.arena_builds.load(Ordering::Relaxed),
            arena_reuses: self.arena_reuses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let t = Telemetry::default();
        let before = t.snapshot();
        t.record_run(40_000);
        t.record_run(40_000);
        t.record_events(12);
        t.record_policy_run();
        t.record_arena_build();
        t.record_arena_reuse();
        t.record_arena_reuse();
        let d = t.snapshot().since(before);
        assert_eq!(
            d,
            TelemetrySnapshot {
                instructions: 80_000,
                runs: 2,
                events: 12,
                policy_runs: 1,
                arena_builds: 1,
                arena_reuses: 2,
            }
        );
        assert!((d.inst_per_sec(2.0) - 40_000.0).abs() < 1e-9);
        assert_eq!(d.inst_per_sec(0.0), 0.0);
    }

    #[test]
    fn global_is_monotonic() {
        let before = Telemetry::global().snapshot();
        Telemetry::global().record_run(1);
        let after = Telemetry::global().snapshot();
        let d = after.since(before);
        // Other tests may record concurrently; ours is at least included.
        assert!(d.instructions >= 1 && d.runs >= 1);
    }
}
