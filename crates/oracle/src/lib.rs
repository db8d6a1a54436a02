//! # nbl-oracle — static must-hit/may-miss cache analysis over trace tapes
//!
//! An abstract-interpretation cache analyzer in the style of Reineke's
//! must/may age-bound analysis and Touzeau–Monniaux's exact LRU
//! analysis, specialized to this repo's setting: the program is a
//! recorded [`TraceTape`](nbl_trace::TraceTape) (a single concrete
//! path, so there is *no path nondeterminism*), and the only
//! uncertainty is *fill timing* — a non-blocking miss installs its line
//! up to `window` instructions after the access that launched it.
//!
//! The pipeline (DESIGN.md §18) is: tape walk
//! ([`TraceTape::mem_ops`](nbl_trace::TraceTape::mem_ops)) → abstract
//! domain ([`analyze_tape`], one [`Classification`] per access) →
//! cross-check ([`cross_check`] against the simulator's per-access
//! [`AccessOutcome`](nbl_mem::AccessOutcome) log of a traced replay) → report
//! ([`CellReport`], persisted verdicts in [`store`]). One runner,
//! [`run_grid`], walks a grid of such cells for both front ends and
//! renders the coverage table, CSV and JSON ([`OracleRun`]).
//!
//! Soundness is the product: a [`Classification::MustHit`] access that
//! the real [`MemorySystem`](nbl_mem::MemorySystem) misses — or a
//! [`Classification::MustMiss`] that hits — is a
//! [`CrossCheckViolation`], i.e. a tag-array/replacement regression
//! caught by an independent derivation.

pub mod check;
pub mod domain;
pub mod runner;
pub mod store;

#[cfg(test)]
mod prop;

pub use check::{cross_check, CellReport, CrossCheckViolation};
pub use domain::{analyze_tape, Classification, Coverage, OracleAnalysis};
pub use runner::{run_grid, OracleRun};
pub use store::{verdict_key, CellVerdict, VerdictArtifact};

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{ProcessorKind, SimConfig};

/// Why the oracle refused or failed a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The configuration uses a feature outside the abstract model's
    /// soundness envelope: an L2 (differing fill latencies reorder
    /// install commits), a victim buffer (an evicted line can still
    /// hit), a memory issue gap (fill times become occupancy-dependent),
    /// in-cache MSHR storage (the victim is evicted at miss time, not
    /// fill time), or a processor other than the single-issue in-order
    /// core (the window bound is derived from its drain discipline).
    Unsupported {
        /// Which feature tripped the gate.
        feature: &'static str,
    },
    /// The traced replay failed inside the engine.
    Engine(String),
    /// The runner could not build its grid: an unknown benchmark, a bad
    /// geometry, or a failed compile.
    Compile(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Unsupported { feature } => {
                write!(f, "configuration outside the oracle's envelope: {feature}")
            }
            OracleError::Engine(e) => write!(f, "traced replay failed: {e}"),
            OracleError::Compile(e) => write!(f, "grid build failed: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// The slice of a [`SimConfig`] the abstract domain consumes, plus the
/// derived uncertainty window. Build via [`OracleConfig::from_sim`],
/// which also gates out configurations the analysis cannot soundly
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// L1 geometry (sets × ways × line bytes).
    pub geometry: CacheGeometry,
    /// Replacement policy under analysis.
    pub replacement: ReplacementKind,
    /// `true` when store misses allocate (fetch + install) rather than
    /// write around the cache.
    pub write_allocate: bool,
    /// Fill-timing uncertainty in *instructions*: a miss finally
    /// accessed at instruction `i` has definitely installed its line
    /// before instruction `i + window` issues (the single-issue core
    /// retires at most one instruction per cycle and drains due fills
    /// before every access, so the effective miss penalty in cycles
    /// bounds the install delay in instructions). `0` for blocking
    /// caches, where the install happens synchronously at the access.
    pub window: u32,
}

impl OracleConfig {
    /// Projects `cfg` onto the abstract domain's parameters.
    ///
    /// # Errors
    ///
    /// [`OracleError::Unsupported`] when `cfg` enables an L2, a victim
    /// buffer, a memory issue gap, in-cache MSHR storage, or a
    /// processor/issue model other than the single-issue in-order core —
    /// each breaks an assumption of the soundness argument (DESIGN.md
    /// §18).
    pub fn from_sim(cfg: &SimConfig) -> Result<OracleConfig, OracleError> {
        if cfg.l2.is_some() {
            return Err(OracleError::Unsupported { feature: "l2" });
        }
        if cfg.victim_entries != 0 {
            return Err(OracleError::Unsupported {
                feature: "victim_buffer",
            });
        }
        if cfg.memory_gap != 0 {
            return Err(OracleError::Unsupported {
                feature: "memory_gap",
            });
        }
        if cfg.processor != ProcessorKind::SingleInOrder {
            return Err(OracleError::Unsupported {
                feature: "processor_model",
            });
        }
        let mshr = cfg.hw.mshr_config();
        if mshr.evicts_on_miss() {
            return Err(OracleError::Unsupported {
                feature: "in_cache_mshr",
            });
        }
        let window = if mshr.is_blocking() {
            0
        } else {
            cfg.miss_penalty + mshr.fill_extra_cycles()
        };
        Ok(OracleConfig {
            geometry: cfg.geometry,
            replacement: cfg.replacement,
            write_allocate: cfg.hw.write_miss_policy()
                == nbl_core::cache::WriteMissPolicy::WriteAllocate,
            window,
        })
    }
}
