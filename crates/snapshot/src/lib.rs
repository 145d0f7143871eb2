#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-snapshot
//!
//! A compact, versioned, checksummed binary codec for mid-run engine
//! snapshots. No external dependencies: like the hand-rolled JSON codec
//! in `spam-scenario`, the format is fully specified by this crate so a
//! snapshot written today decodes identically on any build of the same
//! format version.
//!
//! ## Wire format
//!
//! | offset        | bytes | contents                                    |
//! |---------------|-------|---------------------------------------------|
//! | 0             | 8     | magic `b"SPAMSNAP"`                         |
//! | 8             | 4     | format version (`u32` LE)                   |
//! | 12            | …     | payload: tagged, length-prefixed sections   |
//! | len − 8       | 8     | FNV-1a 64 checksum of bytes `[0, len − 8)`  |
//!
//! Every integer in the payload is an unsigned LEB128 varint: seven value
//! bits per byte, least significant group first, the high bit set on
//! every byte but the last — 1 to 5 bytes for a `u32`, 1 to 10 for a
//! `u64`. A reader accepts only the shortest encoding of a value: an
//! overlong one (a final byte of zero after the first), a value too large
//! for the type read, a varint past 10 bytes and a truncated one are each
//! a typed error. A `bool` or an enum tag is one byte. Three words are
//! fixed-width and little-endian: the version above, the trailer, and
//! each section's length. A *section* is a varint tag, then a 4-byte
//! length (fixed, so the writer can back-patch it), then that many body
//! bytes; sections let a reader fail with a precise
//! [`SnapshotError::SectionMismatch`] instead of silently misparsing when
//! producer and consumer disagree about layout.
//!
//! ## Version policy
//!
//! `FORMAT_VERSION` is bumped on **any** change to the payload layout —
//! adding, removing, reordering, or re-typing a field all count. Readers
//! reject every version other than their own with
//! [`SnapshotError::VersionSkew`]; there is no cross-version migration.
//! Snapshots are *run artifacts* (crash recovery, warm starts, divergence
//! bisection), not archival data: a version bump simply invalidates stale
//! checkpoint files, and the producing run regenerates them. Consumers
//! that persist snapshots across tool upgrades must be prepared to fall
//! back to a cold start on `VersionSkew`.
//!
//! ## Integrity
//!
//! [`SnapReader::open`] verifies magic, version, and the FNV-1a trailer
//! before any field is decoded, so a bit flip anywhere in the file
//! surfaces as [`SnapshotError::ChecksumMismatch`] — never as a garbage
//! decode. The checksum guards against accident, not intent: bytes that
//! were re-sealed after a change pass it, so the engine's decoder
//! (`wormsim::NetworkSim::restore`) validates what it reads and answers a
//! violation with a typed [`SnapshotError::Corrupt`] or
//! [`SnapshotError::ConfigMismatch`], never a panic. What it validates:
//! section framing and exact section lengths; every enum tag, presence
//! byte and collection length; the topology fingerprint, the eight
//! configuration words and the routing name; counts against their source
//! (channels, destination states, the telemetry scoreboard, slab and
//! ring raw parts, events fired against events scheduled); every node
//! and channel id against the topology and every message id against the
//! message table; the pending events' canonical order (strictly
//! increasing `seq`, since format 2); and the dead channels, since
//! format 5 an ascending id list in which every link dies in both
//! directions. Since format 3 the engine writes only its primary state
//! and rebuilds every index from it in one pass, so a copy that could
//! disagree with its source is never read; that pass rejects the states
//! no engine produces (a busy wire over an empty buffer, two segments
//! owning one channel, a request or header handle naming a vacant slot,
//! …). A flip that builds a state the engine could have reached, but this
//! run did not, still restores, and the resumed run can then stop on one
//! of the engine's own invariant asserts; ROADMAP item 5 carries the
//! measured count.

use std::fmt;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"SPAMSNAP";

/// Current snapshot format version (see the version policy in the crate
/// docs: any payload layout change bumps this).
pub const FORMAT_VERSION: u32 = 5;

/// Streaming FNV-1a 64 accumulator — the workspace's one FNV-1a: the
/// snapshot trailer ([`fnv1a`]), the artifact-cache fingerprint, the
/// outcome digests, and the topology fingerprint all fold through it.
/// No buffer, so hashing a field stream allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Feeds a run of bytes in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Feeds one word as eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte slice — the trailer checksum, also handy
/// as a cheap content digest for checkpoint deduplication.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// Typed decode/validation failure. Every malformed input maps to one of
/// these — the decode path never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a field could be read.
    Truncated {
        /// Bytes the pending read needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The input was written by a different format version.
    VersionSkew {
        /// Version recorded in the input.
        found: u32,
        /// The only version this reader accepts.
        supported: u32,
    },
    /// The FNV-1a trailer does not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A section header carried an unexpected tag.
    SectionMismatch {
        /// Tag the reader expected next.
        expected: u32,
        /// Tag actually present.
        found: u32,
    },
    /// A field value violates a structural invariant (bad enum tag,
    /// inconsistent length, invalid free list, …).
    Corrupt(&'static str),
    /// The snapshot was taken under a different engine configuration or
    /// topology than the one offered for restore.
    ConfigMismatch(&'static str),
    /// The routing algorithm in use has no header codec, so in-flight
    /// worm headers cannot be serialized.
    UnsupportedRouting(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, had {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::VersionSkew { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: trailer {stored:#018x}, payload hashes to {computed:#018x}"
                )
            }
            SnapshotError::SectionMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot section mismatch: expected tag {expected:#x}, found {found:#x}"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::ConfigMismatch(what) => {
                write!(f, "snapshot taken under a different configuration: {what}")
            }
            SnapshotError::UnsupportedRouting(ty) => {
                write!(f, "routing algorithm {ty} has no snapshot header codec")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only snapshot encoder over a reusable byte buffer.
///
/// Call [`SnapWriter::begin`] to start a snapshot (clears the buffer and
/// writes magic + version), the `put_*` family to append fields,
/// [`SnapWriter::begin_section`]/[`SnapWriter::end_section`] to frame
/// sections, and [`SnapWriter::seal`] to append the checksum trailer.
/// The buffer is retained across snapshots, so periodic checkpointing
/// reaches a zero-allocation steady state once the high-water mark is hit.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// An empty writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Starts a fresh snapshot: clears the buffer (keeping its capacity)
    /// and writes the magic + format-version header.
    pub fn begin(&mut self) {
        self.buf.clear();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far (no trailer until [`SnapWriter::seal`]).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` as a varint (1 to 5 bytes).
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(u64::from(v));
    }

    /// Appends a `u64` as a varint (1 to 10 bytes).
    #[inline]
    pub fn put_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a `bool` as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a collection length as a `u32` — the counterpart of
    /// [`SnapReader::get_len`], which bounds the decoded length by the
    /// remaining payload so a crafted snapshot cannot force a huge
    /// allocation.
    #[inline]
    pub fn put_len(&mut self, v: usize) {
        debug_assert!(v <= u32::MAX as usize, "collection too large to snapshot");
        self.put_u32(v as u32);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Opens a section: writes the tag and a fixed-width length
    /// placeholder, returning a cookie for [`SnapWriter::end_section`].
    pub fn begin_section(&mut self, tag: u32) -> usize {
        self.put_u32(tag);
        let patch = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        patch
    }

    /// Closes a section opened by [`SnapWriter::begin_section`],
    /// back-patching its byte length.
    pub fn end_section(&mut self, patch: usize) {
        let len = (self.buf.len() - patch - 4) as u32;
        self.buf[patch..patch + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends the FNV-1a trailer and returns the complete snapshot.
    pub fn seal(&mut self) -> &[u8] {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        &self.buf
    }
}

/// Bounds-checked snapshot decoder.
///
/// [`SnapReader::open`] validates magic, version, and the checksum trailer
/// up front; the `get_*` family then decodes fields with explicit bounds
/// checks, so every malformed input yields a typed [`SnapshotError`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// Payload bytes: everything between the version field and the trailer.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Opens a sealed snapshot, validating magic, format version, and the
    /// FNV-1a trailer before any field decoding.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let header = MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(SnapshotError::Truncated {
                need: header + 8,
                have: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut v = [0u8; 4];
        v.copy_from_slice(&bytes[MAGIC.len()..header]);
        let version = u32::from_le_bytes(v);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let body_end = bytes.len() - 8;
        let mut t = [0u8; 8];
        t.copy_from_slice(&bytes[body_end..]);
        let stored = u64::from_le_bytes(t);
        let computed = fnv1a(&bytes[..body_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapReader {
            buf: &bytes[header..body_end],
            pos: 0,
        })
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapshotError::Corrupt`] if payload bytes remain.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes after final section"))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a varint `u32`; a value above `u32::MAX` is
    /// [`SnapshotError::Corrupt`].
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.get_u64()?).map_err(|_| SnapshotError::Corrupt("varint overflows u32"))
    }

    /// Reads a varint `u64`, in its shortest encoding only.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.get_long_varint(),
        }
    }

    /// [`Self::get_u64`] past its one-byte fast path.
    fn get_long_varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0;
        for (i, &b) in self.buf[self.pos..].iter().enumerate().take(10) {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 != 0 {
                continue;
            }
            // The tenth byte holds bit 63 alone; a zero closing byte
            // after the first means a shorter encoding existed.
            if i == 9 && b > 1 {
                return Err(SnapshotError::Corrupt("varint overflows u64"));
            }
            if i > 0 && b == 0 {
                return Err(SnapshotError::Corrupt("overlong varint"));
            }
            self.pos += i + 1;
            return Ok(v);
        }
        match self.remaining() {
            have @ 0..=9 => Err(SnapshotError::Truncated {
                need: have + 1,
                have,
            }),
            _ => Err(SnapshotError::Corrupt("varint longer than 10 bytes")),
        }
    }

    /// Reads a `bool`; any byte other than 0/1 is [`SnapshotError::Corrupt`].
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte not 0/1")),
        }
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`].
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads a collection length, rejecting values that cannot possibly
    /// fit in the remaining payload (each element consumes ≥ 1 byte), so
    /// a corrupted length can never trigger an outsized allocation.
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt("collection length exceeds payload"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8"))
    }

    /// Reads a section header, requiring tag `tag`; returns the body
    /// length after validating it fits in the remaining payload.
    pub fn expect_section(&mut self, tag: u32) -> Result<usize, SnapshotError> {
        let found = self.get_u32()?;
        if found != tag {
            return Err(SnapshotError::SectionMismatch {
                expected: tag,
                found,
            });
        }
        let s = self.take(4)?;
        let len = u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize;
        if len > self.remaining() {
            return Err(SnapshotError::Corrupt("section length exceeds payload"));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(fill: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.begin();
        fill(&mut w);
        w.seal().to_vec()
    }

    #[test]
    fn primitives_round_trip() {
        let bytes = sealed(|w| {
            w.put_u8(0xAB);
            w.put_u32(0xDEAD_BEEF);
            w.put_u64(0x0123_4567_89AB_CDEF);
            w.put_bool(true);
            w.put_bool(false);
            w.put_usize(42);
            w.put_bytes(b"hello");
            w.put_str("wörld");
        });
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        r.finish().unwrap();
    }

    #[test]
    fn integers_are_leb128() {
        let bytes = sealed(|w| {
            w.put_u32(0);
            w.put_u32(127);
            w.put_u32(128);
            w.put_u64(300);
            w.put_u32(u32::MAX);
            w.put_u64(u64::MAX);
        });
        let payload = &bytes[12..bytes.len() - 8];
        let mut want = vec![
            0x00, 0x7F, 0x80, 0x01, 0xAC, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F,
        ];
        want.extend([0xFF; 9]);
        want.push(0x01);
        assert_eq!(payload, want);
    }

    #[test]
    fn sections_frame_and_backpatch() {
        let bytes = sealed(|w| {
            let s = w.begin_section(0x11);
            w.put_u64(300);
            w.end_section(s);
            let s = w.begin_section(0x22);
            w.end_section(s);
        });
        // A varint tag, then a fixed little-endian `u32` length.
        assert_eq!(
            &bytes[12..bytes.len() - 8],
            [0x11, 2, 0, 0, 0, 0xAC, 0x02, 0x22, 0, 0, 0, 0]
        );
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(r.expect_section(0x11).unwrap(), 2);
        assert_eq!(r.get_u64().unwrap(), 300);
        assert_eq!(r.expect_section(0x22).unwrap(), 0);
        r.finish().unwrap();
        let mut r2 = SnapReader::open(&bytes).unwrap();
        assert_eq!(
            r2.expect_section(0x22),
            Err(SnapshotError::SectionMismatch {
                expected: 0x22,
                found: 0x11
            })
        );
    }

    #[test]
    fn bad_magic_and_version_skew_are_typed() {
        let good = sealed(|w| w.put_u64(1));
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(SnapReader::open(&bad).err(), Some(SnapshotError::BadMagic));

        let mut skew = good.clone();
        // Bump the version field and re-seal so only the version differs.
        skew.truncate(skew.len() - 8);
        skew[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let sum = fnv1a(&skew);
        skew.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapReader::open(&skew).err(),
            Some(SnapshotError::VersionSkew {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sealed(|w| {
            w.put_u64(0x5555_AAAA_5555_AAAA);
            w.put_str("payload");
        });
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                let res = SnapReader::open(&m);
                assert!(res.is_err(), "flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = sealed(|w| w.put_bytes(&[1, 2, 3, 4, 5]));
        for cut in 0..bytes.len() {
            let res = SnapReader::open(&bytes[..cut]);
            assert!(res.is_err(), "truncation to {cut} bytes accepted");
        }
    }

    #[test]
    fn oversized_lengths_cannot_allocate() {
        // A length field claiming more elements than remaining bytes must
        // fail before any allocation sized by it.
        let mut w = SnapWriter::new();
        w.begin();
        w.put_u32(u32::MAX); // absurd collection length
        let bytes = w.seal().to_vec();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(
            r.get_len().err(),
            Some(SnapshotError::Corrupt("collection length exceeds payload"))
        );
    }

    #[test]
    fn writer_buffer_is_reused_across_snapshots() {
        let mut w = SnapWriter::with_capacity(256);
        w.begin();
        w.put_u64(1);
        let first = w.seal().to_vec();
        let cap = {
            w.begin();
            w.put_u64(2);
            w.seal();
            // Capacity must not have grown past the preallocation.
            first.len() <= 256
        };
        assert!(cap);
    }

    #[test]
    fn errors_display_and_implement_error() {
        let e: Box<dyn std::error::Error> = Box::new(SnapshotError::BadMagic);
        assert!(e.to_string().contains("magic"));
        let e2 = SnapshotError::Corrupt("free list");
        assert!(format!("{e2}").contains("free list"));
    }
}
