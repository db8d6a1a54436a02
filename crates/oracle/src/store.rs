//! Persisted oracle verdicts: the verdict kind of the simulator's
//! artifact store (`DESIGN.md` §16, §18.4).
//!
//! One file per analyzed cell, keyed by [`verdict_key`]: the stable
//! fingerprint of `(format version, tape fingerprint, geometry,
//! replacement, window, write_allocate, hw label)` — the inputs the
//! analyzer consumes *plus* the hardware configuration the cross-check
//! replayed against. The hw label matters even when two configurations
//! share a fill window (`fc=2` and `no restrict` do): the analysis is
//! identical but the simulator's observed outcomes are not, and a verdict
//! vouches for the cross-check, not just the analysis. A key collision
//! across distinct cells would require a fingerprint collision. Reads,
//! publishes, quarantine and counters are the disk tier's; verdicts are
//! the one kind whose publish syncs to disk.

use crate::domain::Coverage;
use crate::OracleConfig;
use nbl_core::fingerprint::fingerprint_of;
use nbl_core::frame::{CodecError, Frame};
use nbl_sim::store::ArtifactKind;

/// A persisted per-cell verdict: what the analyzer concluded and
/// whether the cross-check agreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellVerdict {
    /// Classification counts from the analyzer walk.
    pub coverage: Coverage,
    /// Number of cross-check violations observed (0 on a sound pass).
    pub violations: u64,
}

/// [`CellVerdict`]s as a disk-tier artifact kind, keyed by
/// [`verdict_key`]. The frame's version is also part of the key, so a
/// format change both misses old files and refuses to misread them. The
/// file holds no copy of its key: any verdict that decodes is what its
/// address names.
pub struct VerdictArtifact;

impl ArtifactKind for VerdictArtifact {
    type Value = CellVerdict;
    type Key<'a> = u64;
    const PREFIX: &'static str = "oracle";
    const EXTENSION: &'static str = "nbo";
    const FRAME: Frame = Frame {
        magic: *b"NBLO",
        version: 1,
    };
    const SYNC: bool = true;

    fn address(key: &u64) -> String {
        format!("{key:016x}")
    }

    fn encode(v: &CellVerdict) -> Vec<u8> {
        let mut w = Self::FRAME.writer(4 + 4 + 5 * 8 + 8);
        w.u64s(&[
            v.coverage.accesses,
            v.coverage.must_hit,
            v.coverage.must_miss,
            v.coverage.unknown,
            v.violations,
        ]);
        w.seal()
    }

    fn decode(bytes: &[u8]) -> Result<CellVerdict, CodecError> {
        let mut r = Self::FRAME.open(bytes)?;
        r.verify_checksum()?;
        let [accesses, must_hit, must_miss, unknown, violations] = r.u64_array()?;
        r.finish()?;
        let classified = must_hit
            .checked_add(must_miss)
            .and_then(|c| c.checked_add(unknown));
        if classified != Some(accesses) {
            return Err(CodecError::HeaderMismatch);
        }
        Ok(CellVerdict {
            coverage: Coverage {
                accesses,
                must_hit,
                must_miss,
                unknown,
            },
            violations,
        })
    }

    fn describes(_: &CellVerdict, _: &u64) -> bool {
        true
    }
}

/// The content-addressed key of one cell (see the module docs);
/// `tape_fingerprint` is the schedule's
/// [`compiled_fingerprint`](nbl_sim::store::compiled_fingerprint), the
/// tape's own identity, and `hw_label` names the hardware configuration
/// the cross-check replays.
pub fn verdict_key(tape_fingerprint: u64, cfg: &OracleConfig, hw_label: &str) -> u64 {
    fingerprint_of(&(
        VerdictArtifact::FRAME.version,
        tape_fingerprint,
        cfg.geometry,
        cfg.replacement,
        cfg.window,
        cfg.write_allocate,
        hw_label,
    ))
}
