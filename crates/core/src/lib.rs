//! # nbl-core — lockup-free caches and MSHR organizations
//!
//! Core library of the reproduction of Farkas & Jouppi,
//! *Complexity/Performance Tradeoffs with Non-Blocking Loads*
//! (WRL 94/3 / ISCA 1994).
//!
//! A *non-blocking* (lockup-free) cache lets the processor keep issuing
//! instructions — including further cache accesses — while one or more data
//! cache misses are outstanding. The hardware that makes this possible is a
//! set of **Miss Status Holding Registers** (MSHRs), and the paper's subject
//! is how much MSHR hardware is actually worth buying. This crate implements
//! the complete design space the paper studies:
//!
//! * [`mshr::targets`] — implicitly addressed, explicitly addressed and
//!   hybrid target-field layouts (paper Figs. 1, 2 and 14);
//! * [`mshr::file`] — discrete register MSHR files with limits on entries,
//!   total outstanding misses (`mc=N`), and fetches per cache set (`fs=N`);
//! * [`mshr::incache`] — in-cache MSHR storage via a transit bit per line
//!   (paper §2.3);
//! * [`mshr::inverted`] — the inverted, per-destination MSHR the paper
//!   introduces (§2.4), which realizes the "no restriction" configuration;
//! * [`mshr::cost`] — the storage cost model that reproduces the paper's
//!   bit counts (92/140/112/106 bits);
//! * [`tag_array`] — the policy-parameterized tag array ([`TagArray`] +
//!   the [`tag_array::ReplacementPolicy`] trait: LRU, FIFO, seeded-random
//!   and tree-PLRU) shared by every cache level in the workspace;
//! * [`cache`] — the lockup-free cache proper: a [`TagArray`] combined
//!   with MSHRs, write-through + write-around (or write-allocate) stores,
//!   and fills that wake every waiting load simultaneously.
//!
//! Timing lives elsewhere: the `nbl-cpu` crate drives this cache with an
//! in-order processor model, and `nbl-mem` provides the fully pipelined
//! constant-latency memory of the paper's §3.1.
//!
//! ## Quick example
//!
//! ```
//! use nbl_core::cache::{CacheConfig, LoadAccess, LockupFreeCache};
//! use nbl_core::mshr::MshrConfig;
//! use nbl_core::mshr::inverted::InvertedConfig;
//! use nbl_core::types::{Addr, Dest, LoadFormat, PhysReg};
//!
//! // An unrestricted lockup-free cache (the paper's "no restrict" curve).
//! let cfg = CacheConfig::baseline(MshrConfig::Inverted(InvertedConfig::typical()));
//! let addr = cfg.geometry.decode(Addr(0x1000));
//! let mut cache = LockupFreeCache::new(cfg);
//! let r = cache.access_load_decoded(&addr, Dest::Reg(PhysReg::int(4)), LoadFormat::WORD);
//! assert!(matches!(r, LoadAccess::Miss(_)));
//! ```

/// The lockup-free L1 cache: tag array + MSHR bank behind one port.
pub mod cache;
/// Cross-process stable fingerprints for content-addressed artifacts.
pub mod fingerprint;
/// The byte frame, writer/reader and codec error every artifact shares.
pub mod frame;
/// Cache geometry (size, line size, associativity) and its validation.
pub mod geometry;
/// Fixed-seed hashing: [`hash::FastMap`] keeps map iteration deterministic.
pub mod hash;
/// The dynamic instruction model shared by interpreter and tape replay.
pub mod inst;
/// Resource-limit counters (ports, outstanding fetches) and their errors.
pub mod limit;
/// The four MSHR organizations from the paper and their shared target store.
pub mod mshr;
/// Seeded property cases and the shared random instruction generator.
pub mod prop;
/// In-tree SplitMix64 RNG — the workspace's only randomness source.
pub mod rng;
/// The policy-parameterized tag array shared by the L1 and L2 layers.
pub mod tag_array;
/// Core newtypes: addresses, blocks, cycles, registers, load formats.
pub mod types;

pub use cache::{CacheConfig, LoadAccess, LockupFreeCache, StoreAccess, WriteMissPolicy};
pub use fingerprint::{checksum_bytes, fingerprint_of, StableHasher, FINGERPRINT_VERSION};
pub use geometry::CacheGeometry;
pub use limit::Limit;
pub use mshr::{MissKind, MshrBank, MshrConfig, Rejection, TargetRecord};
pub use tag_array::{ReplacementKind, TagArray, WayAge};
pub use types::{Addr, BlockAddr, Cycle, Dest, LoadFormat, PhysReg, RegClass};
