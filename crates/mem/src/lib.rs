//! # nbl-mem — memory-system substrate
//!
//! The parts of the paper's memory model (§3.1) that live below the data
//! cache:
//!
//! * [`memory`] — the fully pipelined, constant-latency main memory, plus
//!   the §5.2 line-size-dependent penalty formula (14 cycles for the first
//!   16 bytes, 2 per additional 16);
//! * [`system`] — the [`system::MemorySystem`] port composing L1 + MSHRs,
//!   the optional L2 and the pipelined memory behind the narrow
//!   access/advance API the processors drive;
//! * [`event`] — the miss-lifecycle event model (`Issued → Merged |
//!   Rejected | FetchLaunched → Filled → TargetsWoken`, plus one
//!   `Resolved` outcome per access) with its zero-cost-when-disabled
//!   observer.
//!
//! The paper's write buffer is not modeled: it retires writes "with no
//! memory cycles" (§3.1), so it never stalls the processor and holds no
//! state a run could observe.

/// Miss-lifecycle events, their sink trait and the zero-cost-when-disabled observer.
pub mod event;
/// The pipelined main-memory model with its fixed service latency.
pub mod memory;
/// The port every processor drives: L1 + MSHRs -> optional L2 -> memory.
pub mod system;

pub use event::{AccessOutcome, MemEvent, MemEventSink, MemTrace, MissLifecycleStats};
pub use memory::{CompletedFetch, MemoryError, PipelinedMemory};
pub use system::{FillEvent, L2Params, LoadResponse, MemSystemConfig, MemorySystem, StoreResponse};
