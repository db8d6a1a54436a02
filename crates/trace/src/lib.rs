//! # nbl-trace — workloads, IR, and trace execution
//!
//! The paper drives its cache simulator with instrumented SPEC92 binaries;
//! this crate provides the equivalent substrate built from scratch:
//!
//! * [`ir`] — a small RISC-like IR (basic blocks over virtual registers,
//!   stateful address patterns, a loop-structure script);
//! * [`builder`] — fluent program construction for the generators;
//! * [`workloads`] — 18 synthetic SPEC92-archetype benchmark generators
//!   (see DESIGN.md for the substitution argument);
//! * [`machine`] — the compiled (scheduled + register-allocated) program
//!   form produced by `nbl-sched`;
//! * [`exec`] — the deterministic executor that turns a compiled program
//!   into a dynamic instruction stream (the tape recorder's input);
//! * [`tape`] — a flat struct-of-arrays recording of the fully-resolved
//!   dynamic stream, materialized once per (benchmark, latency) pair and
//!   replayed across every hardware configuration of a sweep. Its codec
//!   ([`tape::io`], `NBLT` magic) is the one on-disk instruction-stream
//!   format: trace capture to a file is `to_bytes`, replay is
//!   `from_bytes` plus a tape run.

pub mod builder;
pub mod exec;
pub mod ir;
pub mod machine;
pub mod tape;
pub mod workloads;

pub use builder::ProgramBuilder;
pub use exec::Executor;
pub use ir::{AddrPattern, Block, BlockId, IrOp, PatternId, Program, ScriptNode, VirtReg};
pub use machine::{CompiledProgram, CountingSink, InstSink, MachineBlock, MachineOp};
pub use tape::io::{TapeCodecError, TAPE_FORMAT_VERSION};
pub use tape::{MemOp, TapeKind, TraceTape};
