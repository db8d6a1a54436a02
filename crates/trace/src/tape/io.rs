//! Versioned, checksummed binary (de)serialization of [`TraceTape`]s —
//! the byte format the artifact store persists under `results/store/`
//! (DESIGN.md §16).
//!
//! The encoding mirrors the in-memory struct-of-arrays layout so a tape
//! loads with **one contiguous read** and no per-entry decoding:
//!
//! ```text
//! magic "NBLT" | format_version u32
//! header: name_len u32 | load_latency u32 | static_spill_ops u64
//!         | len u64 | barriers u64 | flag_words u64
//!         | loads u64 | stores u64 | load_written u64
//! name bytes (UTF-8, name_len)
//! flag plane: mem_flags  (flag_words × 8 B)
//! streams:   kinds (len) | dsts (len) | srcs (2·len)
//!            | addrs (8·len) | formats (len) | barriers (4·barriers)
//! checksum u64 over every preceding byte
//! ```
//!
//! The shared frame (`nbl_core::frame`) makes every integer
//! little-endian and ends the artifact with a checksum, so truncation and
//! bit flips are typed [`CodecError`](nbl_core::frame::CodecError)s
//! before a corrupt tape can reach a replay. Decoding also re-validates
//! the structural invariants replay relies on (barrier indices in range,
//! flag plane sized and populated consistently with the barrier index),
//! because a checksum only protects against *accidental* damage after a
//! correct encode.

use super::{TapeKind, TraceTape};
use nbl_core::frame::{CodecError, Frame};

/// Magic (`NBLT`) and format version of a serialized tape. Bump the
/// version on any change to the byte layout (or to the checksum scheme,
/// see [`nbl_core::fingerprint::FINGERPRINT_VERSION`]); the store embeds
/// the version in artifact filenames, so old files are ignored rather
/// than misparsed.
pub const TAPE_FRAME: Frame = Frame {
    magic: *b"NBLT",
    version: 1,
};

/// Fixed bytes before the name: magic + version + 2 `u32` + 7 `u64`.
const FIXED_HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 7 * 8;

/// Bytes of the whole artifact for a tape of `n` entries, `nb` barriers,
/// `nf` flag words and a `name_len`-byte name (including the checksum).
fn artifact_len(n: usize, nb: usize, nf: usize, name_len: usize) -> Option<usize> {
    // 13 B/inst + 4 B/barrier + 8 B/flag word, same arithmetic as
    // `TraceTape::bytes`, plus header and checksum.
    let streams = n
        .checked_mul(13)?
        .checked_add(nb.checked_mul(4)?)?
        .checked_add(nf.checked_mul(8)?)?;
    FIXED_HEADER_BYTES
        .checked_add(name_len)?
        .checked_add(streams)?
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
        let cap = artifact_len(n, nb, nf, name.len()).unwrap_or(FIXED_HEADER_BYTES);
        let mut w = TAPE_FRAME.writer(cap);
        w.u32(name.len() as u32);
        w.u32(self.load_latency);
        w.u64(self.static_spill_ops as u64);
        w.u64(n as u64);
        w.u64(nb as u64);
        w.u64(nf as u64);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.load_written);
        w.bytes(name);
        w.u64s(&self.mem_flags);
        w.bytes(&self.kinds.iter().map(|&k| k as u8).collect::<Vec<u8>>());
        w.bytes(&self.dsts);
        w.bytes(self.srcs.as_flattened());
        w.u64s(&self.addrs);
        w.bytes(&self.formats);
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
        let load_latency = r.u32()?;
        let static_spill_ops = r.len_u64()?;
        let n = r.len_u64()?;
        let nb = r.len_u64()?;
        let nf = r.len_u64()?;
        let loads = r.u64()?;
        let stores = r.u64()?;
        let load_written = r.u64()?;

        // The declared structure must account for the buffer exactly;
        // checking before the checksum distinguishes truncation from rot.
        match artifact_len(n, nb, nf, name_len) {
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
        let mut kinds = Vec::with_capacity(n);
        for &b in r.take(n)? {
            kinds.push(match b {
                0 => TapeKind::Alu,
                1 => TapeKind::Branch,
                2 => TapeKind::Load,
                3 => TapeKind::Store,
                other => return Err(CodecError::BadKind(other)),
            });
        }
        let dsts = r.take(n)?.to_vec();
        let srcs = r
            .take(n.checked_mul(2).ok_or(CodecError::Truncated)?)?
            .as_chunks()
            .0
            .to_vec();
        let addrs = r.u64_vec(n)?;
        let formats = r.take(n)?.to_vec();
        let barriers = r.u32_vec(nb)?;

        // Structural invariants behind the replay loop's unchecked
        // indexing: every barrier names a real entry, and the flag plane
        // sets bits only at real barrier slots, exactly where the
        // barrier index is flagged as memory.
        for (slot, &entry) in barriers.iter().enumerate() {
            if super::barrier_index(entry) >= n {
                return Err(CodecError::HeaderMismatch);
            }
            let word = mem_flags.get(slot / 64).copied().unwrap_or(0);
            if (word >> (slot % 64)) & 1 != u64::from(super::barrier_is_mem(entry)) {
                return Err(CodecError::HeaderMismatch);
            }
        }
        if let Some(last) = mem_flags.last() {
            let used = nb - (nf - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(CodecError::HeaderMismatch);
            }
        }

        Ok(TraceTape {
            name,
            load_latency,
            static_spill_ops,
            kinds,
            dsts,
            srcs,
            addrs,
            formats,
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
    use nbl_core::inst::DynInst;
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

    /// A small mixed tape: loads, stores, ALU chains, barriers spanning
    /// more than one flag word.
    fn sample_tape() -> TraceTape {
        let mut tape = TraceTape::with_capacity("sample", 6, 2, 400);
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
        assert_eq!(back.load_latency(), 6);
        assert_eq!(back.static_spill_ops(), 2);
        assert_eq!(back.loads(), tape.loads());
        assert_eq!(back.stores(), tape.stores());
        // Encoding is a pure function of content.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn empty_tape_round_trips() {
        let tape = TraceTape::with_capacity("empty", 1, 0, 0);
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
}

/// Property suite for the codec, gated behind the off-by-default
/// `codec-prop` feature (run with
/// `cargo test -p nbl-trace --features codec-prop`), mirroring the
/// `scan-prop` suite: randomized tapes from the in-tree
/// [`SplitMix64`](nbl_core::rng::SplitMix64), zero external deps.
#[cfg(all(test, feature = "codec-prop"))]
mod codec_prop {
    use super::*;
    use nbl_core::inst::DynInst;
    use nbl_core::rng::SplitMix64;
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

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
                DynInst::load(Addr(rng.next_below(1 << 40)), reg(rng), LoadFormat::WORD)
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
                let mut tape = TraceTape::with_capacity("prop", 1 + case % 20, 0, len);
                for _ in 0..len {
                    let inst = random_inst(&mut rng, mem_bias);
                    tape.push(inst);
                }
                let bytes = tape.to_bytes();
                let back = TraceTape::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("bias {mem_bias} case {case}: {e}"));
                assert_eq!(back, tape, "bias {mem_bias} case {case}");
                assert_eq!(bytes, back.to_bytes());
            }
        }
    }

    #[test]
    fn random_corruption_never_decodes_to_a_different_tape() {
        let mut rng = SplitMix64::new(0xdeadc0de);
        let mut tape = TraceTape::with_capacity("prop", 3, 1, 300);
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
