//! Versioned, checksummed binary (de)serialization of [`TraceTape`]s —
//! the byte format the artifact store persists under `results/store/`
//! (DESIGN.md §16).
//!
//! The encoding mirrors the in-memory struct-of-arrays layout so a tape
//! loads with **one contiguous read** and no per-entry decoding:
//!
//! ```text
//! magic "NBLT" | format_version u32 (= 4)
//! header: name_len u32 | static_spill_ops u64 | len u64
//!         | loads u64 | stores u64 | load_written u64
//! name bytes (UTF-8, name_len)
//! barrier plane (8·⌈len/64⌉)
//! streams: kinds (len) | dsts (len) | srcs (2·len)
//!          | addrs (8·(loads + stores))
//! checksum u64 over every preceding byte
//! ```
//!
//! A kind byte carries the entry's kind in bits 0–1 and, on a load, the
//! packed load format in bits 2–4; the address stream holds one address
//! per memory operation, in program order. The barrier plane holds one
//! bit per entry, so its length follows from `len`. The header names no
//! load latency: a tape is the recording of one compiled schedule, which
//! several scheduled latencies may share. Version 4 replaced version 3's
//! `u32` barrier list and its flag plane over barrier positions with the
//! instruction-indexed barrier plane.
//!
//! The shared frame (`nbl_core::frame`) makes every integer
//! little-endian and ends the artifact with a checksum, so truncation and
//! bit flips are typed [`CodecError`](nbl_core::frame::CodecError)s
//! before a corrupt tape can reach a replay. Decoding also re-validates
//! the structural invariants replay relies on, because a checksum only
//! protects against *accidental* damage after a correct encode: every
//! kind byte canonical and every register byte in range, the header's
//! load and store counts equal to the kind stream's (so the address
//! count is the memory-operation count), every load and store marked in
//! the barrier plane, and no plane bit at or past `len`. The plane is
//! stored rather than re-derived: the load-written recurrence that
//! derives it would cost as much as the rest of the decode.

use super::{TapeKind, TraceTape};
use nbl_core::frame::{CodecError, Frame};

/// Magic (`NBLT`) and format version of a serialized tape. Bump the
/// version on any change to the byte layout (or to the checksum scheme,
/// see [`nbl_core::fingerprint::FINGERPRINT_VERSION`]); the store embeds
/// the version in artifact filenames, so old files are ignored rather
/// than misparsed.
pub const TAPE_FRAME: Frame = Frame {
    magic: *b"NBLT",
    version: 4,
};

/// Fixed bytes before the name: magic + version + 1 `u32` + 5 `u64`.
const FIXED_HEADER_BYTES: usize = 4 + 4 + 4 + 5 * 8;

/// Bytes of the whole artifact for a tape of `n` entries, `m` memory
/// operations and a `name_len`-byte name: header and checksum around the
/// plane and streams [`super::layout_bytes`] sizes.
fn artifact_len(n: usize, m: usize, name_len: usize) -> Option<usize> {
    FIXED_HEADER_BYTES
        .checked_add(name_len)?
        .checked_add(super::layout_bytes(n, m)?)?
        .checked_add(8)
}

/// Bit `k` set when `kinds[k]` (at most 64 kind bytes) is a load or
/// store: bit 1 of each byte, gathered eight bytes per multiply.
fn mem_word(kinds: &[u8]) -> u64 {
    kinds.chunks(8).enumerate().fold(0, |word, (g, group)| {
        let mut eight = [0u8; 8];
        eight[..group.len()].copy_from_slice(group);
        let flags = (u64::from_le_bytes(eight) & super::MEM_BYTES) >> 1;
        // Moves bit 8k to bit 56 + k; the partial products never overlap.
        let gathered = flags.wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word | gathered << (8 * g)
    })
}

impl TraceTape {
    /// Serializes the tape into the versioned, checksummed byte format
    /// (see the [module docs](self) for the layout). The encoding is a
    /// pure function of the tape's content — no clocks, paths or
    /// process state — so equal tapes always produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.kinds.len();
        let name = self.name.as_bytes();
        let cap = artifact_len(n, self.addrs.len(), name.len()).unwrap_or(FIXED_HEADER_BYTES);
        let mut w = TAPE_FRAME.writer(cap);
        w.u32(name.len() as u32);
        w.u64(self.static_spill_ops as u64);
        w.u64(n as u64);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.load_written);
        w.bytes(name);
        w.u64s(&self.barrier_plane);
        w.bytes(&self.kinds);
        w.bytes(&self.dsts);
        w.bytes(self.srcs.as_flattened());
        w.u64s(&self.addrs);
        w.seal()
    }

    /// Decodes a serialized tape, verifying the magic, version, declared
    /// sizes, trailing checksum, and the structural invariants replay
    /// relies on. The result is [`PartialEq`]-equal to the tape that was
    /// encoded (every field round-trips, including the recording-state
    /// bitmap), so a replay from a loaded tape is bit-identical to a
    /// replay from the original recording.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any damage or version skew; the caller
    /// (the artifact store) quarantines the file and re-records.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceTape, CodecError> {
        let mut r = TAPE_FRAME.open(bytes)?;
        let name_len = r.len_u32()?;
        let static_spill_ops = r.len_u64()?;
        let n = r.len_u64()?;
        let loads = r.u64()?;
        let stores = r.u64()?;
        let load_written = r.u64()?;

        // The declared structure must account for the buffer exactly;
        // checking before the checksum distinguishes truncation from rot.
        let Some(m) = loads
            .checked_add(stores)
            .and_then(|m| usize::try_from(m).ok())
        else {
            return Err(CodecError::Truncated);
        };
        match artifact_len(n, m, name_len) {
            Some(total) if total == bytes.len() => {}
            Some(total) if total < bytes.len() => return Err(CodecError::TrailingBytes),
            _ => return Err(CodecError::Truncated),
        }
        r.verify_checksum()?;

        let name = r.utf8(name_len)?;
        let barrier_plane = r.u64_vec(super::plane_words(n))?;
        let kinds = r.take(n)?.to_vec();
        let dsts = r.take(n)?.to_vec();
        let srcs: Vec<[u8; 2]> = r
            .take(n.checked_mul(2).ok_or(CodecError::Truncated)?)?
            .as_chunks()
            .0
            .to_vec();
        let addrs = r.u64_vec(m)?;

        // Every byte must be one `push` can write: canonical kinds and
        // registers that unpack without leaving the 64-register file. The
        // scans are branch-free folds; only a failure searches for the
        // byte to report.
        let (mut seen_loads, mut seen_stores, mut canonical) = (0u64, 0u64, true);
        for &k in &kinds {
            seen_loads += u64::from(k & super::KIND_MASK == TapeKind::Load as u8);
            seen_stores += u64::from(k & super::KIND_MASK == TapeKind::Store as u8);
            canonical &= super::is_canonical_kind(k);
        }
        if !canonical {
            let k = kinds.iter().find(|&&k| !super::is_canonical_kind(k));
            return Err(CodecError::BadKind(k.copied().unwrap_or(0)));
        }
        for regs in [dsts.as_slice(), srcs.as_flattened()] {
            if !regs.iter().fold(true, |ok, &r| ok & super::is_valid_reg(r)) {
                let r = regs.iter().find(|&&r| !super::is_valid_reg(r));
                return Err(CodecError::BadKind(r.copied().unwrap_or(0)));
            }
        }
        if (seen_loads, seen_stores) != (loads, stores) {
            return Err(CodecError::HeaderMismatch);
        }

        // Structural invariants behind the replay loop's cursor walk,
        // checked a plane word (64 entries) at a time: every load and
        // store is a barrier — the quiescent stride stops at each, and a
        // walk that takes one address per memory operation then consumes
        // the address array exactly — and no bit names an entry past the
        // end.
        let covered = barrier_plane
            .iter()
            .zip(kinds.chunks(64))
            .fold(true, |ok, (&word, chunk)| {
                ok & (mem_word(chunk) & !word == 0)
            });
        let tail = match (barrier_plane.last(), n % 64) {
            (Some(&last), used) if used != 0 => last >> used,
            _ => 0,
        };
        if !covered || tail != 0 {
            return Err(CodecError::HeaderMismatch);
        }

        Ok(TraceTape {
            name,
            static_spill_ops,
            kinds,
            dsts,
            srcs,
            addrs,
            barrier_plane,
            load_written,
            loads,
            stores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::fingerprint::checksum_bytes;
    use nbl_core::inst::DynInst;
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

    /// A small mixed tape: loads, stores, ALU chains, barriers spanning
    /// more than one plane word.
    fn sample_tape() -> TraceTape {
        let mut tape = TraceTape::with_capacity("sample", 2, 400);
        for i in 0..400u64 {
            let r = PhysReg::from_dense((i % 48) as usize);
            let r2 = PhysReg::from_dense(((i + 7) % 48) as usize);
            match i % 5 {
                0 => tape.push(DynInst::load(Addr(0x1000 + i * 8), r, LoadFormat::WORD)),
                1 => tape.push(DynInst::alu(r2, [Some(r), None])),
                2 => tape.push(DynInst::store(Addr(0x9000 + i * 4), Some(r2))),
                3 => tape.push(DynInst::branch([Some(r2), None])),
                _ => tape.push(DynInst::alu(r, [None, None])),
            }
        }
        tape
    }

    #[test]
    fn round_trip_preserves_equality() {
        let tape = sample_tape();
        let bytes = tape.to_bytes();
        let back = TraceTape::from_bytes(&bytes).unwrap();
        assert_eq!(back, tape, "decode must invert encode exactly");
        assert_eq!(back.name(), "sample");
        assert_eq!(back.static_spill_ops(), 2);
        assert_eq!(back.loads(), tape.loads());
        assert_eq!(back.stores(), tape.stores());
        // Encoding is a pure function of content.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn empty_tape_round_trips() {
        let tape = TraceTape::with_capacity("empty", 0, 0);
        let back = TraceTape::from_bytes(&tape.to_bytes()).unwrap();
        assert_eq!(back, tape);
        assert!(back.is_empty());
    }

    #[test]
    fn specific_failure_modes_name_themselves() {
        let bytes = sample_tape().to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(TraceTape::from_bytes(&bad_magic), Err(CodecError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xfe;
        assert!(matches!(
            TraceTape::from_bytes(&bad_version),
            Err(CodecError::UnsupportedVersion(_))
        ));
        let mut flipped_payload = bytes.clone();
        let mid = bytes.len() / 2;
        flipped_payload[mid] ^= 0x40;
        assert_eq!(
            TraceTape::from_bytes(&flipped_payload),
            Err(CodecError::ChecksumMismatch)
        );
        assert_eq!(
            TraceTape::from_bytes(&bytes[..bytes.len() - 3]),
            Err(CodecError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            TraceTape::from_bytes(&trailing),
            Err(CodecError::TrailingBytes)
        );
        assert_eq!(TraceTape::from_bytes(b""), Err(CodecError::Truncated));
    }

    /// Rewrites the trailing checksum after an edit, so the damage gets
    /// past the checksum and must be caught by the structural checks.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let sum = checksum_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Byte offset of the header's `loads` field (then `stores`).
    const LOADS_AT: usize = FIXED_HEADER_BYTES - 3 * 8;

    #[test]
    fn resealed_frame_with_inconsistent_counts_is_rejected() {
        let bytes = sample_tape().to_bytes();
        let field = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let (loads, stores) = (field(&bytes, LOADS_AT), field(&bytes, LOADS_AT + 8));
        // Shift one count from stores to loads: the total (and so every
        // declared length) still adds up, and the checksum is valid.
        let mut skewed = bytes.clone();
        skewed[LOADS_AT..LOADS_AT + 8].copy_from_slice(&(loads + 1).to_le_bytes());
        skewed[LOADS_AT + 8..LOADS_AT + 16].copy_from_slice(&(stores - 1).to_le_bytes());
        assert_eq!(
            TraceTape::from_bytes(&reseal(skewed)),
            Err(CodecError::HeaderMismatch)
        );
        // Resealing the untouched bytes is a no-op.
        assert_eq!(reseal(bytes.clone()), bytes);
        assert!(TraceTape::from_bytes(&reseal(bytes)).is_ok());
    }

    /// Encodes a doctored copy of [`sample_tape`] (a valid frame around
    /// inconsistent content) and decodes it.
    fn decode_doctored(doctor: impl FnOnce(&mut TraceTape)) -> Result<TraceTape, CodecError> {
        let mut tape = sample_tape();
        doctor(&mut tape);
        TraceTape::from_bytes(&tape.to_bytes())
    }

    #[test]
    fn inconsistent_or_non_canonical_content_is_rejected() {
        // Sample entries: 0 load, 1 alu, 2 store, 3 branch, 4 alu, ...
        let store_format = 1 << super::super::FORMAT_SHIFT;
        let load = sample_tape().kinds[0];
        assert_eq!(
            decode_doctored(|t| t.kinds[2] |= store_format),
            Err(CodecError::BadKind(3 | store_format)),
            "format bits off a load"
        );
        assert_eq!(
            decode_doctored(|t| t.kinds[0] |= 0x80),
            Err(CodecError::BadKind(load | 0x80)),
            "reserved bits"
        );
        assert_eq!(
            decode_doctored(|t| t.dsts[1] = 64),
            Err(CodecError::BadKind(64)),
            "register outside the file"
        );
        assert_eq!(
            decode_doctored(|t| t.stores += 1),
            Err(CodecError::Truncated),
            "a count the streams do not hold"
        );
        assert_eq!(
            decode_doctored(|t| {
                t.stores += 1;
                t.addrs.push(0x40);
            }),
            Err(CodecError::HeaderMismatch),
            "an address with no memory entry"
        );
        assert_eq!(
            decode_doctored(|t| {
                // A store turned ALU, its address kept: the counts match
                // the header only if the header lies about the kinds.
                t.kinds[2] = TapeKind::Alu as u8;
            }),
            Err(CodecError::HeaderMismatch),
            "kinds disagree with the header counts"
        );
        assert_eq!(
            decode_doctored(|t| t.barrier_plane[0] &= !(1 << 2)),
            Err(CodecError::HeaderMismatch),
            "a store missing from the barrier plane"
        );
        assert_eq!(
            decode_doctored(|t| t.barrier_plane.push(0)),
            Err(CodecError::TrailingBytes),
            "a plane word the length does not account for"
        );
    }

    /// Byte offset of the sample's barrier plane: after the fixed header
    /// and the six-byte name.
    const PLANE_AT: usize = FIXED_HEADER_BYTES + "sample".len();

    #[test]
    fn resealed_frame_with_a_bad_barrier_plane_is_rejected() {
        let tape = sample_tape();
        let bytes = tape.to_bytes();
        assert_eq!(tape.kind(0), TapeKind::Load);
        assert_eq!(bytes[PLANE_AT] & 1, 1, "the first load is a barrier");
        // A load's bit cleared: a quiescent stride would then still stop
        // at it, but a busy walk would bulk-issue straight past it.
        let mut cleared = bytes.clone();
        cleared[PLANE_AT] &= !1;
        assert_eq!(
            TraceTape::from_bytes(&reseal(cleared)),
            Err(CodecError::HeaderMismatch)
        );
        // A bit past the last entry: 400 entries leave the seventh word
        // 16 bits used, so its top bit names entry 447.
        assert_eq!(tape.len() % 64, 16);
        let last_word = PLANE_AT + 8 * (tape.len().div_ceil(64) - 1);
        let mut tail = bytes.clone();
        tail[last_word + 7] |= 0x80;
        assert_eq!(
            TraceTape::from_bytes(&reseal(tail)),
            Err(CodecError::HeaderMismatch)
        );
        // The first past-the-end bit alone is rejected too.
        let mut first_past = bytes;
        first_past[last_word + 2] |= 0x01;
        assert_eq!(
            TraceTape::from_bytes(&reseal(first_past)),
            Err(CodecError::HeaderMismatch)
        );
    }
}

/// Property suite for the codec on random tapes from the seeded
/// [`nbl_core::prop`] harness: round-trip equality and corruption
/// detection.
#[cfg(test)]
mod codec_prop {
    use super::*;
    use crate::tape::random_tape;
    use nbl_core::prop::{self, InstMix};

    fn mix(mem_per_mille: u64) -> InstMix {
        InstMix {
            mem_per_mille,
            addr_bits: 40,
        }
    }

    #[test]
    fn random_tapes_round_trip_bit_identically() {
        for rate in [0, 40, 500, 1000] {
            let suite = format!("codec round trip, mem rate {rate}");
            prop::check(&suite, 24, 0xc0dec + rate, |rng| {
                let len = rng.next_below(700) as usize;
                let (tape, pushed) = random_tape(rng, len, mix(rate));
                let bytes = tape.to_bytes();
                let back = TraceTape::from_bytes(&bytes).unwrap_or_else(|e| panic!("decode: {e}"));
                assert_eq!(back, tape);
                assert_eq!(bytes, back.to_bytes());
                // The decoded tape yields the pushed stream and its memory
                // operations through the address cursor, and its artifact
                // is exactly the shared layout's size.
                assert_eq!(back.iter().collect::<Vec<_>>(), pushed);
                assert_eq!(
                    back.mem_ops().collect::<Vec<_>>(),
                    crate::tape::reference_mem_ops(&pushed)
                );
                assert_eq!(back.addr_count() as u64, back.loads() + back.stores());
                assert_eq!(Some(bytes.len()), artifact_len(len, back.addr_count(), 4));
            });
        }
    }

    #[test]
    fn random_corruption_never_decodes_to_a_different_tape() {
        prop::check("codec corruption", 2, 0xdead_c0de, |rng| {
            let mut tape = random_tape(rng, 300, mix(400)).0;
            tape.static_spill_ops = 1;
            let bytes = tape.to_bytes();
            for _ in 0..600 {
                let mut bad = bytes.clone();
                let pos = rng.next_below(bytes.len() as u64) as usize;
                let bit = rng.next_below(8) as u32;
                bad[pos] ^= 1 << bit;
                // Either a typed error, or (if the flip hit nothing the
                // checksum covers — impossible here, everything is
                // covered) the identical tape. Never a silently different
                // tape.
                match TraceTape::from_bytes(&bad) {
                    Err(_) => {}
                    Ok(t) => assert_eq!(
                        t, tape,
                        "corruption at byte {pos} bit {bit} went undetected"
                    ),
                }
            }
            // Random truncations, too.
            for _ in 0..200 {
                let cut = rng.next_below(bytes.len() as u64) as usize;
                assert!(TraceTape::from_bytes(&bytes[..cut]).is_err());
            }
        });
    }
}
