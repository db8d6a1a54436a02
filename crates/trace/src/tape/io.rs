//! Versioned, checksummed binary (de)serialization of [`TraceTape`]s —
//! the byte format the artifact store persists under `results/store/`
//! (DESIGN.md §16).
//!
//! The encoding mirrors the in-memory struct-of-arrays layout so a tape
//! loads with **one contiguous read** and no per-entry decoding:
//!
//! ```text
//! magic "NBLT" | format_version u32 (= 3)
//! header: name_len u32 | static_spill_ops u64
//!         | len u64 | barriers u64 | flag_words u64
//!         | loads u64 | stores u64 | load_written u64
//! name bytes (UTF-8, name_len)
//! flag plane: mem_flags  (flag_words × 8 B)
//! streams:   kinds (len) | dsts (len) | srcs (2·len)
//!            | addrs (8·(loads + stores)) | barriers (4·barriers)
//! checksum u64 over every preceding byte
//! ```
//!
//! A kind byte carries the entry's kind in bits 0–1 and, on a load, the
//! packed load format in bits 2–4; the address stream holds one address
//! per memory operation, in program order. The header names no load
//! latency: a tape is the recording of one compiled schedule, which
//! several scheduled latencies may share (version 3 dropped the field
//! version 2 carried).
//!
//! The shared frame (`nbl_core::frame`) makes every integer
//! little-endian and ends the artifact with a checksum, so truncation and
//! bit flips are typed [`CodecError`](nbl_core::frame::CodecError)s
//! before a corrupt tape can reach a replay. Decoding also re-validates
//! the structural invariants replay relies on, because a checksum only
//! protects against *accidental* damage after a correct encode: every
//! kind byte canonical and every register byte in range, the header's
//! load and store counts equal to the kind stream's, barrier indices
//! strictly ascending and in range with their memory flag matching both
//! the entry's kind and the flag plane, and the address count equal to
//! the flag plane's set bits and to loads + stores.

use super::{TapeKind, TraceTape};
use nbl_core::frame::{CodecError, Frame};

/// Magic (`NBLT`) and format version of a serialized tape. Bump the
/// version on any change to the byte layout (or to the checksum scheme,
/// see [`nbl_core::fingerprint::FINGERPRINT_VERSION`]); the store embeds
/// the version in artifact filenames, so old files are ignored rather
/// than misparsed.
pub const TAPE_FRAME: Frame = Frame {
    magic: *b"NBLT",
    version: 3,
};

/// Fixed bytes before the name: magic + version + 1 `u32` + 7 `u64`.
const FIXED_HEADER_BYTES: usize = 4 + 4 + 4 + 7 * 8;

/// Bytes of the whole artifact for a tape of `n` entries, `m` memory
/// operations, `nb` barriers, `nf` flag words and a `name_len`-byte name:
/// header and checksum around the streams [`super::layout_bytes`] sizes.
fn artifact_len(n: usize, m: usize, nb: usize, nf: usize, name_len: usize) -> Option<usize> {
    FIXED_HEADER_BYTES
        .checked_add(name_len)?
        .checked_add(super::layout_bytes(n, m, nb, nf)?)?
        .checked_add(8)
}

impl TraceTape {
    /// Serializes the tape into the versioned, checksummed byte format
    /// (see the [module docs](self) for the layout). The encoding is a
    /// pure function of the tape's content — no clocks, paths or
    /// process state — so equal tapes always produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (n, nb, nf) = (self.kinds.len(), self.barriers.len(), self.mem_flags.len());
        let name = self.name.as_bytes();
        let cap =
            artifact_len(n, self.addrs.len(), nb, nf, name.len()).unwrap_or(FIXED_HEADER_BYTES);
        let mut w = TAPE_FRAME.writer(cap);
        w.u32(name.len() as u32);
        w.u64(self.static_spill_ops as u64);
        w.u64(n as u64);
        w.u64(nb as u64);
        w.u64(nf as u64);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.load_written);
        w.bytes(name);
        w.u64s(&self.mem_flags);
        w.bytes(&self.kinds);
        w.bytes(&self.dsts);
        w.bytes(self.srcs.as_flattened());
        w.u64s(&self.addrs);
        w.u32s(&self.barriers);
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
        let nb = r.len_u64()?;
        let nf = r.len_u64()?;
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
        match artifact_len(n, m, nb, nf, name_len) {
            Some(total) if total == bytes.len() => {}
            Some(total) if total < bytes.len() => return Err(CodecError::TrailingBytes),
            _ => return Err(CodecError::Truncated),
        }
        r.verify_checksum()?;
        if nf != nb.div_ceil(64) {
            return Err(CodecError::HeaderMismatch);
        }

        let name = r.utf8(name_len)?;
        let mem_flags = r.u64_vec(nf)?;
        let kinds = r.take(n)?.to_vec();
        let dsts = r.take(n)?.to_vec();
        let srcs: Vec<[u8; 2]> = r
            .take(n.checked_mul(2).ok_or(CodecError::Truncated)?)?
            .as_chunks()
            .0
            .to_vec();
        let addrs = r.u64_vec(m)?;
        let barriers = r.u32_vec(nb)?;

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

        // Structural invariants behind the replay loop's cursor walk:
        // barriers name real entries in strictly ascending order, each
        // flagged as memory exactly when its entry is a load or store and
        // exactly where the flag plane sets a bit, and the plane sets one
        // bit per address — so a walk that takes one address per memory
        // barrier consumes the address array exactly.
        let mut next_index = 0;
        for (slot, &entry) in barriers.iter().enumerate() {
            let i = super::barrier_index(entry);
            let is_mem = super::barrier_is_mem(entry);
            if i < next_index || i >= n || is_mem != super::is_mem_byte(kinds[i]) {
                return Err(CodecError::HeaderMismatch);
            }
            next_index = i + 1;
            let word = mem_flags.get(slot / 64).copied().unwrap_or(0);
            if (word >> (slot % 64)) & 1 != u64::from(is_mem) {
                return Err(CodecError::HeaderMismatch);
            }
        }
        if let Some(last) = mem_flags.last() {
            let used = nb - (nf - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(CodecError::HeaderMismatch);
            }
        }
        let flagged: usize = mem_flags.iter().map(|w| w.count_ones() as usize).sum();
        if flagged != m {
            return Err(CodecError::HeaderMismatch);
        }

        Ok(TraceTape {
            name,
            static_spill_ops,
            kinds,
            dsts,
            srcs,
            addrs,
            barriers,
            mem_flags,
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
    /// more than one flag word.
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

    /// Rebuilds the flag plane from the barrier index's bit-31 flags.
    fn reflag(tape: &mut TraceTape) {
        tape.mem_flags = vec![0; tape.barriers.len().div_ceil(64)];
        for (slot, &entry) in tape.barriers.iter().enumerate() {
            if super::super::barrier_is_mem(entry) {
                tape.mem_flags[slot / 64] |= 1 << (slot % 64);
            }
        }
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
            decode_doctored(|t| {
                // Drop the store's barrier: the flag plane then sets one
                // bit fewer than there are addresses.
                t.barriers.retain(|&e| super::super::barrier_index(e) != 2);
                reflag(t);
            }),
            Err(CodecError::HeaderMismatch),
            "a memory operation missing from the barrier index"
        );
        assert_eq!(
            decode_doctored(|t| t.barriers.swap(0, 1)),
            Err(CodecError::HeaderMismatch),
            "barriers out of order"
        );
        assert_eq!(
            decode_doctored(|t| {
                t.barriers[0] &= !super::super::BARRIER_MEM;
                reflag(t);
            }),
            Err(CodecError::HeaderMismatch),
            "a load's barrier flagged as non-memory"
        );
    }
}

/// Property suite for the codec, gated behind the off-by-default
/// `codec-prop` feature (run with
/// `cargo test -p nbl-trace --features codec-prop`), mirroring the
/// `scan-prop` suite: randomized tapes from the in-tree
/// [`SplitMix64`](nbl_core::rng::SplitMix64), zero external deps.
#[cfg(all(test, feature = "codec-prop"))]
mod codec_prop {
    use super::*;
    use crate::tape::random_format;
    use nbl_core::inst::DynInst;
    use nbl_core::rng::SplitMix64;
    use nbl_core::types::{Addr, PhysReg};

    /// One random instruction; `mem_bias`/1000 is the memory-op rate.
    fn random_inst(rng: &mut SplitMix64, mem_bias: u64) -> DynInst {
        let reg = |rng: &mut SplitMix64| PhysReg::from_dense(rng.next_below(64) as usize);
        let maybe_reg = |rng: &mut SplitMix64| {
            if rng.next_below(2) == 0 {
                None
            } else {
                Some(reg(rng))
            }
        };
        if rng.next_below(1000) < mem_bias {
            if rng.next_below(2) == 0 {
                DynInst::load(Addr(rng.next_below(1 << 40)), reg(rng), random_format(rng))
            } else {
                DynInst::store(Addr(rng.next_below(1 << 40)), maybe_reg(rng))
            }
        } else if rng.next_below(4) == 0 {
            DynInst::branch([maybe_reg(rng), maybe_reg(rng)])
        } else {
            DynInst::alu(reg(rng), [maybe_reg(rng), maybe_reg(rng)])
        }
    }

    #[test]
    fn random_tapes_round_trip_bit_identically() {
        let mut rng = SplitMix64::new(0xc0dec);
        for &mem_bias in &[0, 40, 500, 1000] {
            for case in 0..24 {
                let len = rng.next_below(700) as usize;
                let mut tape = TraceTape::with_capacity("prop", 0, len);
                let pushed: Vec<DynInst> =
                    (0..len).map(|_| random_inst(&mut rng, mem_bias)).collect();
                for &inst in &pushed {
                    tape.push(inst);
                }
                let bytes = tape.to_bytes();
                let back = TraceTape::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("bias {mem_bias} case {case}: {e}"));
                assert_eq!(back, tape, "bias {mem_bias} case {case}");
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
                assert_eq!(
                    Some(bytes.len()),
                    artifact_len(
                        len,
                        back.addr_count(),
                        back.barriers().len(),
                        back.mem_flags.len(),
                        4
                    )
                );
            }
        }
    }

    #[test]
    fn random_corruption_never_decodes_to_a_different_tape() {
        let mut rng = SplitMix64::new(0xdeadc0de);
        let mut tape = TraceTape::with_capacity("prop", 1, 300);
        for _ in 0..300 {
            let inst = random_inst(&mut rng, 400);
            tape.push(inst);
        }
        let bytes = tape.to_bytes();
        for _ in 0..600 {
            let mut bad = bytes.clone();
            let pos = rng.next_below(bytes.len() as u64) as usize;
            let bit = rng.next_below(8) as u32;
            bad[pos] ^= 1 << bit;
            // Either a typed error, or (if the flip hit nothing the
            // checksum covers — impossible here, everything is covered)
            // the identical tape. Never a silently different tape.
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
    }
}
