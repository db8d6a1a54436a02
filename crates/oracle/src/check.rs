//! Cell-by-cell cross-validation of the abstract domain against the
//! real memory system.
//!
//! A *cell* is one `(benchmark tape, SimConfig)` pair. The check runs
//! the analyzer over the tape, replays the same tape through the actual
//! engine with the memory observer armed (its [`AccessOutcome`] log is
//! fed by the `Resolved` events of the memory system), and compares verdicts
//! access-by-access: every [`Classification::MustHit`] must have hit
//! (in L1 or the victim buffer — the oracle only gates victim-free
//! configs, but the mapping stays conservative), and every
//! [`Classification::MustMiss`] must have missed. [`Classification::Unknown`]
//! accesses are unconstrained. Any mismatch is a
//! [`CrossCheckViolation`] — evidence that either the abstract domain
//! or the tag-array/replacement implementation is wrong.

use crate::domain::{analyze_tape, Classification, Coverage};
use crate::{OracleConfig, OracleError};
use nbl_core::types::Addr;
use nbl_mem::AccessOutcome;
use nbl_sim::config::SimConfig;
use nbl_sim::driver::run_tape_traced;
use nbl_trace::TraceTape;

/// A disagreement between the oracle and the simulator for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCheckViolation {
    /// The oracle proved a hit; the simulator observed a miss.
    MustHitMissed {
        /// Instruction index of the access in the tape.
        index: usize,
        /// The accessed address.
        addr: Addr,
    },
    /// The oracle proved a miss; the simulator observed a hit.
    MustMissHit {
        /// Instruction index of the access in the tape.
        index: usize,
        /// The accessed address.
        addr: Addr,
    },
    /// The analyzer and the outcome log disagree on how many memory accesses
    /// the tape performs — a plumbing bug, reported as its own variant
    /// so it can never masquerade as a clean pass.
    LengthMismatch {
        /// Accesses the analyzer classified.
        analyzed: usize,
        /// Outcomes the simulator resolved.
        observed: usize,
    },
}

impl std::fmt::Display for CrossCheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossCheckViolation::MustHitMissed { index, addr } => {
                write!(
                    f,
                    "must-hit missed at instruction {index} addr {:#x}",
                    addr.0
                )
            }
            CrossCheckViolation::MustMissHit { index, addr } => {
                write!(f, "must-miss hit at instruction {index} addr {:#x}", addr.0)
            }
            CrossCheckViolation::LengthMismatch { analyzed, observed } => {
                write!(
                    f,
                    "access count mismatch: analyzer saw {analyzed}, simulator resolved {observed}"
                )
            }
        }
    }
}

/// Compares per-access verdicts against observed outcomes.
///
/// `classes` and `outcomes` are both in tape memory-op order (the
/// single-issue in-order core resolves accesses in program order, and
/// the simulator resolves each access once — a retried access resolves
/// at its final attempt). A victim-buffer hit counts
/// as a hit.
pub fn cross_check(
    tape: &TraceTape,
    classes: &[Classification],
    outcomes: &[AccessOutcome],
) -> Vec<CrossCheckViolation> {
    let mut violations = Vec::new();
    if classes.len() != outcomes.len() {
        violations.push(CrossCheckViolation::LengthMismatch {
            analyzed: classes.len(),
            observed: outcomes.len(),
        });
        return violations;
    }
    for (op, (&class, &outcome)) in tape.mem_ops().zip(classes.iter().zip(outcomes)) {
        let hit = matches!(outcome, AccessOutcome::Hit | AccessOutcome::VictimHit);
        match class {
            Classification::MustHit if !hit => {
                violations.push(CrossCheckViolation::MustHitMissed {
                    index: op.index,
                    addr: op.addr,
                });
            }
            Classification::MustMiss if hit => {
                violations.push(CrossCheckViolation::MustMissHit {
                    index: op.index,
                    addr: op.addr,
                });
            }
            _ => {}
        }
    }
    violations
}

/// Outcome of checking one cell: coverage plus any violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Geometry label, e.g. `8KB/32B dm`.
    pub geometry: String,
    /// Replacement-policy label.
    pub policy: String,
    /// Hardware-configuration label, e.g. `mc=0` or `fc=2`.
    pub hw: String,
    /// Classification counts from the analyzer walk.
    pub coverage: Coverage,
    /// Cross-check disagreements (empty on a sound pass).
    pub violations: Vec<CrossCheckViolation>,
}

impl CellReport {
    /// The report of `benchmark`'s cell under `cfg`, labelled from `cfg`:
    /// the one place the geometry, policy and hardware labels are made,
    /// for a fresh check and for a verdict read back from the store alike.
    pub(crate) fn new(
        benchmark: &str,
        cfg: &SimConfig,
        coverage: Coverage,
        violations: Vec<CrossCheckViolation>,
    ) -> CellReport {
        let g = &cfg.geometry;
        let ways = if g.ways() == 1 {
            "dm".to_string()
        } else {
            format!("{}-way", g.ways())
        };
        CellReport {
            benchmark: benchmark.to_string(),
            geometry: format!("{}KB/{}B {ways}", g.size_bytes() / 1024, g.line_bytes()),
            policy: cfg.replacement.label(),
            hw: cfg.hw.label(),
            coverage,
            violations,
        }
    }
}

/// Analyzes `tape` under `cfg` and cross-validates against a traced
/// replay through the real engine.
///
/// # Errors
///
/// [`OracleError::Unsupported`] when `cfg` is outside the model's
/// envelope; [`OracleError::Engine`] when the traced replay fails.
pub(crate) fn check_cell(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<CellReport, OracleError> {
    let ocfg = OracleConfig::from_sim(cfg)?;
    let analysis = analyze_tape(tape, &ocfg);
    let (_, trace) =
        run_tape_traced(benchmark, tape, cfg).map_err(|e| OracleError::Engine(e.to_string()))?;
    let violations = cross_check(tape, &analysis.classes, &trace.outcomes);
    Ok(CellReport::new(
        benchmark,
        cfg,
        analysis.coverage,
        violations,
    ))
}
