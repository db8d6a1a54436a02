//! # nbl-cpu — in-order processor models
//!
//! The processor side of the paper's §3.1 machine model:
//!
//! * [`scoreboard`] — pending-register tracking (loads mark their
//!   destination pending; uses of pending registers stall);
//! * [`stats`] — MCPI accounting with the paper's stall-cause breakdown
//!   (true data dependency vs. structural hazard vs. blocking miss
//!   service) and the Fig. 6 in-flight occupancy sampler;
//! * [`core_engine`] — the shared event mechanics (fills, hazards,
//!   structural-stall retry, blocking fetches), driving all memory traffic
//!   through the [`nbl_mem::system::MemorySystem`] port;
//! * [`issue`] — the one processor type, [`issue::IssueEngine`]: each
//!   processor model is an [`issue::IssuePolicy`] value — the single-issue
//!   machine all baseline figures use, the dual-issue machine of §6 /
//!   Fig. 19, and the replaying extension.

pub mod core_engine;
pub mod issue;
pub mod scoreboard;
pub mod stats;

pub use core_engine::{Core, EngineConfig, EngineError};
pub use issue::{IssueEngine, IssuePolicy};
pub use scoreboard::Scoreboard;
pub use stats::{CpuStats, InFlightSampler, ReplayAttribution, StallCause};
