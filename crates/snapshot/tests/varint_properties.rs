//! Property tests of the format's integer encoding: every primitive
//! round-trips through its shortest varint over the edge values and
//! random ones, and every malformed varint — overlong, past ten bytes,
//! too large for a `u32`, truncated — and every collection length longer
//! than the payload left is a typed error, never a panic.

use proptest::prelude::*;
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};

/// The values where the encoding changes length or type.
const EDGES: [u64; 6] = [0, 127, 128, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX];

/// `payload` as the body of a sealed, otherwise empty snapshot.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.begin();
    for &b in payload {
        w.put_u8(b);
    }
    w.seal().to_vec()
}

/// Runs `read` over the payload of `sealed`, returning what it read and
/// the payload bytes it left.
fn read<'b, T>(
    sealed: &'b [u8],
    read: impl FnOnce(&mut SnapReader<'b>) -> Result<T, SnapshotError>,
) -> (Result<T, SnapshotError>, usize) {
    let mut r = SnapReader::open(sealed).unwrap();
    let got = read(&mut r);
    (got, r.remaining())
}

/// The bytes `put_u64` writes for `v`.
fn varint(v: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(v);
    w.as_bytes().to_vec()
}

/// The shortest LEB128 length of `v`.
fn shortest_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// An edge value or one with a random bit length: `pick` beyond the
/// edges draws `bits` random low bits.
fn value(pick: usize, bits: u32, random: u64) -> u64 {
    match EDGES.get(pick) {
        Some(&edge) => edge,
        None => random >> (63 - bits.min(63)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every primitive reads back what was written, from its shortest
    /// encoding, consuming exactly its bytes — over every edge value in
    /// every case, and one random value of a random bit length.
    #[test]
    fn every_primitive_round_trips(
        pick in 0usize..EDGES.len() + 1,
        bits in 0u32..64,
        random in any::<u64>(),
        byte in any::<u8>(),
        text in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut values = EDGES.to_vec();
        values.push(value(pick, bits, random));
        let text = String::from_utf8_lossy(&text).into_owned();
        let mut w = SnapWriter::new();
        w.begin();
        for &v in &values {
            w.put_u64(v);
            w.put_usize(v as usize);
            if let Ok(small) = u32::try_from(v) {
                w.put_u32(small);
            }
        }
        w.put_u8(byte);
        w.put_bool(byte & 1 == 1);
        w.put_str(&text);
        w.put_bytes(text.as_bytes());
        w.put_len(text.len());
        let bytes = w.seal().to_vec();
        let mut r = SnapReader::open(&bytes).unwrap();
        for &v in &values {
            let before = r.remaining();
            prop_assert_eq!(r.get_u64(), Ok(v));
            prop_assert_eq!(before - r.remaining(), shortest_len(v));
            prop_assert_eq!(r.get_usize(), Ok(v as usize));
            if let Ok(small) = u32::try_from(v) {
                prop_assert_eq!(r.get_u32(), Ok(small));
            }
        }
        prop_assert_eq!(r.get_u8(), Ok(byte));
        prop_assert_eq!(r.get_bool(), Ok(byte & 1 == 1));
        prop_assert_eq!(r.get_str(), Ok(text.as_str()));
        prop_assert_eq!(r.get_bytes(), Ok(text.as_bytes()));
        // A length names elements still to come; none follow here.
        let want = if text.is_empty() {
            Ok(0)
        } else {
            Err(SnapshotError::Corrupt("collection length exceeds payload"))
        };
        prop_assert_eq!(r.get_len(), want);
        prop_assert_eq!(r.finish(), Ok(()));
    }

    /// A value padded past its shortest encoding by `extra` bytes is
    /// overlong, or longer than ten bytes once the padding gets there.
    #[test]
    fn every_overlong_encoding_is_typed(
        pick in 0usize..EDGES.len() + 1,
        bits in 0u32..64,
        random in any::<u64>(),
        extra in 1usize..12,
    ) {
        let v = value(pick, bits, random);
        let mut bytes = varint(v);
        *bytes.last_mut().unwrap() |= 0x80;
        bytes.extend(std::iter::repeat_n(0x80, extra - 1));
        bytes.push(0);
        let want = if bytes.len() > 10 {
            SnapshotError::Corrupt("varint longer than 10 bytes")
        } else {
            SnapshotError::Corrupt("overlong varint")
        };
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u64).0, Err(want));
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u32).0, Err(want));
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_len).0, Err(want));
    }

    /// Ten or more bytes that each carry the continuation bit are too
    /// long for any `u64`, whatever follows them.
    #[test]
    fn every_varint_past_ten_bytes_is_typed(
        lows in prop::collection::vec(0u8..0x80, 10..16),
        tail in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut bytes: Vec<u8> = lows.iter().map(|b| b | 0x80).collect();
        bytes.extend(&tail);
        let want = Err(SnapshotError::Corrupt("varint longer than 10 bytes"));
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u64).0, want);
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_usize).0, want.map(|v| v as usize));
    }

    /// A ten-byte varint whose last byte holds more than bit 63 overflows
    /// a `u64`.
    #[test]
    fn every_u64_overflow_is_typed(
        lows in prop::collection::vec(0u8..0x80, 9),
        last in 2u8..0x80,
    ) {
        let mut bytes: Vec<u8> = lows.iter().map(|b| b | 0x80).collect();
        bytes.push(last);
        let want = Err(SnapshotError::Corrupt("varint overflows u64"));
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u64).0, want);
    }

    /// Every value above `u32::MAX`, shortest-encoded, is a typed error
    /// where a `u32` or a length is read.
    #[test]
    fn every_u32_overflow_is_typed(high in (u32::MAX as u64 + 1)..=u64::MAX) {
        for v in [high, u32::MAX as u64 + 1, u64::MAX] {
            let bytes = varint(v);
            let want = Err(SnapshotError::Corrupt("varint overflows u32"));
            prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u32).0, want);
            prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_len).0, want.map(|v| v as usize));
            prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_u64), (Ok(v), 0));
        }
    }

    /// Every strict prefix of a varint is `Truncated`, and consumes
    /// nothing.
    #[test]
    fn every_truncation_is_typed(
        pick in 0usize..EDGES.len() + 1,
        bits in 0u32..64,
        random in any::<u64>(),
    ) {
        let v = value(pick, bits, random);
        let whole = varint(v);
        for cut in 0..whole.len() {
            let want = Err(SnapshotError::Truncated { need: cut + 1, have: cut });
            prop_assert_eq!(read(&sealed(&whole[..cut]), SnapReader::get_u64), (want, cut));
            prop_assert_eq!(read(&sealed(&whole[..cut]), SnapReader::get_u32).0, want.map(|v| v as u32));
        }
    }

    /// A length no longer than the payload after it is read back; one
    /// past it is a typed error before anything is sized by it.
    #[test]
    fn every_length_past_the_payload_is_typed(
        len in 0u32..400,
        left in 0usize..400,
    ) {
        let mut bytes = varint(u64::from(len));
        bytes.extend(std::iter::repeat_n(7, left));
        let want = if len as usize <= left {
            Ok(len as usize)
        } else {
            Err(SnapshotError::Corrupt("collection length exceeds payload"))
        };
        prop_assert_eq!(read(&sealed(&bytes), SnapReader::get_len).0, want);
        let got = read(&sealed(&bytes), |r| r.get_bytes().map(<[u8]>::len)).0;
        prop_assert_eq!(got, want);
    }
}
