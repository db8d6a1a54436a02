//! The one byte frame every persisted artifact shares (DESIGN.md §16):
//! `magic [u8; 4] | version u32 | body | checksum u64`, little-endian
//! throughout, the checksum being
//! [`checksum_bytes`](crate::fingerprint::checksum_bytes) over every byte
//! before it. Codecs write through [`ByteWriter`](crate::frame::ByteWriter)
//! and read through [`ByteReader`](crate::frame::ByteReader); every failure
//! is a typed [`CodecError`](crate::frame::CodecError), never a panic.

use crate::fingerprint::checksum_bytes;
use std::fmt;

/// Why an artifact failed to decode. Stores treat every variant alike —
/// quarantine and re-derive — but the variant names the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the frame's magic.
    BadMagic,
    /// The format version (carried) is not the one this build reads.
    UnsupportedVersion(u32),
    /// The buffer ends before the structure it declares.
    Truncated,
    /// The buffer is longer than the structure it declares.
    TrailingBytes,
    /// The trailing checksum does not match the bytes before it.
    ChecksumMismatch,
    /// A tag byte is outside its enum's encoding.
    BadKind(u8),
    /// Decoded fields contradict each other (sizes out of step, indices
    /// out of range, non-UTF-8 text).
    HeaderMismatch,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact codec error: {self:?}")
    }
}

impl std::error::Error for CodecError {}

/// One artifact format: its magic and the version this build reads and
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Leading magic bytes.
    pub magic: [u8; 4],
    /// Format version; bump on any change to the body layout.
    pub version: u32,
}

impl Frame {
    /// A writer holding this frame's header, with room for `capacity`
    /// bytes in all.
    pub fn writer(&self, capacity: usize) -> ByteWriter {
        let mut w = ByteWriter(Vec::with_capacity(capacity));
        w.bytes(&self.magic);
        w.u32(self.version);
        w
    }

    /// A reader past the header of `bytes` once magic and version match
    /// (else `Truncated`, `BadMagic` or `UnsupportedVersion`); the codec
    /// calls [`ByteReader::verify_checksum`] when it is ready to.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<ByteReader<'a>, CodecError> {
        let mut r = ByteReader { buf: bytes, off: 0 };
        if r.array()? != self.magic {
            return Err(CodecError::BadMagic);
        }
        match r.u32()? {
            v if v == self.version => Ok(r),
            v => Err(CodecError::UnsupportedVersion(v)),
        }
    }
}

/// Little-endian builder of one framed artifact.
#[derive(Debug)]
pub struct ByteWriter(Vec<u8>);

impl ByteWriter {
    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (NaN payloads and `-0.0` survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a string as a `u32` byte length and its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Appends every value of `v` as a `u64`. Sizes the buffer once, then
    /// fills it word by word, so the loop carries no capacity checks.
    pub fn u64s(&mut self, v: &[u64]) {
        let start = self.0.len();
        self.0.resize(start + 8 * v.len(), 0);
        for (word, &x) in self.0[start..].as_chunks_mut().0.iter_mut().zip(v) {
            *word = x.to_le_bytes();
        }
    }

    /// Appends the checksum of everything so far: the finished artifact.
    pub fn seal(mut self) -> Vec<u8> {
        self.u64(checksum_bytes(&self.0));
        self.0
    }
}

/// Bounds-checked little-endian cursor over one framed artifact. A read
/// past the end, or of a length this host cannot index, is `Truncated`.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> ByteReader<'a> {
    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.off.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.buf.get(self.off..end).ok_or(CodecError::Truncated)?;
        self.off = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let rest = self.buf.get(self.off..).unwrap_or_default();
        let chunk = rest.first_chunk().ok_or(CodecError::Truncated)?;
        self.off += N;
        Ok(*chunk)
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f64`, by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// The next `u32`, as a length or count.
    pub fn len_u32(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u32()?).map_err(|_| CodecError::Truncated)
    }

    /// The next `u64`, as a length or count.
    pub fn len_u64(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Truncated)
    }

    /// The next `len` bytes as text (`HeaderMismatch` if not UTF-8).
    pub fn utf8(&mut self, len: usize) -> Result<String, CodecError> {
        let text = std::str::from_utf8(self.take(len)?);
        text.map(str::to_string)
            .map_err(|_| CodecError::HeaderMismatch)
    }

    /// A string written by [`ByteWriter::str`].
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.len_u32()?;
        self.utf8(len)
    }

    /// The next `n` values written by [`ByteWriter::u64s`].
    pub fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        let raw = self.take(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .as_chunks()
            .0
            .iter()
            .map(|&w| u64::from_le_bytes(w))
            .collect())
    }

    /// The next `N` `u64`s.
    pub fn u64_array<const N: usize>(&mut self) -> Result<[u64; N], CodecError> {
        let mut out = [0; N];
        for slot in &mut out {
            *slot = self.u64()?;
        }
        Ok(out)
    }

    /// Checks the trailing checksum and narrows the reader to the body
    /// before it: `ChecksumMismatch`, or `Truncated` if the checksum would
    /// overlap what was already read.
    pub fn verify_checksum(&mut self) -> Result<(), CodecError> {
        let (body, sum) = (self.buf.split_last_chunk())
            .filter(|(body, _)| body.len() >= self.off)
            .ok_or(CodecError::Truncated)?;
        if checksum_bytes(body) != u64::from_le_bytes(*sum) {
            return Err(CodecError::ChecksumMismatch);
        }
        self.buf = body;
        Ok(())
    }

    /// `TrailingBytes` unless every byte was read.
    pub fn finish(&self) -> Result<(), CodecError> {
        let done = self.off == self.buf.len();
        done.then_some(()).ok_or(CodecError::TrailingBytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: Frame = Frame {
        magic: *b"TEST",
        version: 3,
    };

    fn sample() -> Vec<u8> {
        let mut w = FRAME.writer(64);
        w.bytes(&[7]);
        w.u32(0x0102_0304);
        w.f64(-0.0);
        w.str("héllo");
        w.u64s(&[1, u64::MAX]);
        w.seal()
    }

    #[test]
    fn round_trip_reads_back_every_field() {
        let bytes = sample();
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(&bytes[4..8], &3u32.to_le_bytes());
        let mut r = FRAME.open(&bytes).unwrap();
        r.verify_checksum().unwrap();
        assert_eq!(r.take(1).unwrap(), &[7]);
        assert_eq!(r.u32().unwrap(), 0x0102_0304);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.u64_vec(2).unwrap(), vec![1, u64::MAX]);
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            r.u32(),
            Err(CodecError::Truncated),
            "the checksum is not body"
        );
    }

    #[test]
    fn header_and_checksum_failures_are_typed() {
        let bytes = sample();
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert_eq!(FRAME.open(&bad).err(), Some(CodecError::BadMagic));
        bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            FRAME.open(&bad).err(),
            Some(CodecError::UnsupportedVersion(9))
        );
        assert_eq!(FRAME.open(&bytes[..7]).err(), Some(CodecError::Truncated));
        let mut r = FRAME.open(&bytes[..12]).unwrap();
        assert_eq!(r.verify_checksum(), Err(CodecError::Truncated));
        bad = bytes.clone();
        bad[10] ^= 0x40;
        let mut r = FRAME.open(&bad).unwrap();
        assert_eq!(r.verify_checksum(), Err(CodecError::ChecksumMismatch));
        let mut r = FRAME.open(&bytes).unwrap();
        r.verify_checksum().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        assert_eq!(r.u64_vec(usize::MAX), Err(CodecError::Truncated));
        for e in [
            CodecError::BadMagic,
            CodecError::UnsupportedVersion(9),
            CodecError::Truncated,
            CodecError::TrailingBytes,
            CodecError::ChecksumMismatch,
            CodecError::BadKind(7),
            CodecError::HeaderMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
