//! # nbl-mem — memory-system substrate
//!
//! The parts of the paper's memory model (§3.1) that live below the data
//! cache:
//!
//! * [`memory`] — the fully pipelined, constant-latency main memory, plus
//!   the §5.2 line-size-dependent penalty formula (14 cycles for the first
//!   16 bytes, 2 per additional 16);
//! * [`write_buffer`] — the free-retirement write buffer (with a throttled
//!   variant for ablation studies);
//! * [`system`] — the [`system::MemorySystem`] port composing L1 + MSHRs,
//!   the optional L2, the pipelined memory and the write buffer behind the
//!   narrow access/advance API the processors drive;
//! * [`event`] — the miss-lifecycle event model (`Issued → Merged |
//!   Rejected | FetchLaunched → Filled → TargetsWoken`, plus one
//!   `Resolved` outcome per access) with its zero-cost-when-disabled
//!   observer.

/// Miss-lifecycle events, sinks and the zero-cost-when-disabled recorders.
pub mod event;
/// The pipelined main-memory model with its fixed service latency.
pub mod memory;
/// The port every processor drives: L1 + MSHRs -> optional L2 -> memory.
pub mod system;
/// The store write buffer with its retire policies.
pub mod write_buffer;

pub use event::{
    AccessOutcome, MemEvent, MemEventSink, MemTrace, MissLifecycleStats, RingRecorder,
};
pub use memory::{CompletedFetch, MemoryError, PipelinedMemory};
pub use system::{
    FillEvent, FusedMemGroup, GroupError, L2Params, LoadResponse, MemSystemConfig, MemorySystem,
    StoreResponse,
};
pub use write_buffer::{RetirePolicy, WriteBuffer, WriteBufferStats};
