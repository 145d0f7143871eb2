//! A minimal protobuf wire-format writer and reader.
//!
//! The workspace builds offline, so — like `spam-scenario`'s hand-rolled
//! `json.rs` — there is no protobuf dependency to lean on. Perfetto's
//! trace format only needs two wire types (varint and length-delimited),
//! so the ~hundred lines here cover everything the exporter emits, plus a
//! reader used by the round-trip tests to prove the files parse.

use spam_snapshot::put_varint;

/// Protobuf wire types used by the Perfetto track-event subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Wire type 0: base-128 varint.
    Varint,
    /// Wire type 2: length-delimited bytes (nested messages, strings).
    LengthDelimited,
}

/// Appends a field tag (field number + wire type).
pub fn put_tag(buf: &mut Vec<u8>, field: u32, wire: WireType) {
    let wt = match wire {
        WireType::Varint => 0,
        WireType::LengthDelimited => 2,
    };
    put_varint(buf, ((field as u64) << 3) | wt);
}

/// Appends `field: varint-value`.
pub fn put_varint_field(buf: &mut Vec<u8>, field: u32, v: u64) {
    put_tag(buf, field, WireType::Varint);
    put_varint(buf, v);
}

/// Appends `field: length-delimited bytes` (nested message or string).
pub fn put_bytes_field(buf: &mut Vec<u8>, field: u32, data: &[u8]) {
    put_tag(buf, field, WireType::LengthDelimited);
    put_varint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Appends `field: utf-8 string`.
pub fn put_string_field(buf: &mut Vec<u8>, field: u32, s: &str) {
    put_bytes_field(buf, field, s.as_bytes());
}

/// Why a buffer is not a valid message in our protobuf subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A varint ran past the end of the buffer (or exceeded 64 bits).
    BadVarint,
    /// A length-delimited field claimed more bytes than remain.
    Truncated,
    /// A field used a wire type the subset never writes (fixed32/64,
    /// groups).
    UnsupportedWireType(u8),
}

/// One decoded field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue<'a> {
    /// Wire type 0.
    Varint(u64),
    /// Wire type 2.
    Bytes(&'a [u8]),
}

/// Reads a varint, advancing `pos`.
fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, ProtoError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*pos).ok_or(ProtoError::BadVarint)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(ProtoError::BadVarint)
}

/// Decodes a message into its `(field number, value)` sequence.
pub fn decode_fields(data: &[u8]) -> Result<Vec<(u32, FieldValue<'_>)>, ProtoError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let key = read_varint(data, &mut pos)?;
        let field = (key >> 3) as u32;
        match key & 0x7 {
            0 => out.push((field, FieldValue::Varint(read_varint(data, &mut pos)?))),
            2 => {
                let len = read_varint(data, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(ProtoError::Truncated)?;
                if end > data.len() {
                    return Err(ProtoError::Truncated);
                }
                out.push((field, FieldValue::Bytes(&data[pos..end])));
                pos = end;
            }
            wt => return Err(ProtoError::UnsupportedWireType(wt as u8)),
        }
    }
    Ok(out)
}

/// Splits a Perfetto trace file into its `TracePacket` payloads: the file
/// is one `Trace` message, i.e. `repeated TracePacket packet = 1`.
pub fn decode_packets(trace: &[u8]) -> Result<Vec<&[u8]>, ProtoError> {
    let mut out = Vec::new();
    for (field, value) in decode_fields(trace)? {
        if field == 1 {
            match value {
                FieldValue::Bytes(b) => out.push(b),
                FieldValue::Varint(_) => return Err(ProtoError::UnsupportedWireType(0)),
            }
        }
    }
    Ok(out)
}

/// First varint value of `field` in `msg`, if present.
pub fn find_varint(msg: &[u8], field: u32) -> Result<Option<u64>, ProtoError> {
    Ok(decode_fields(msg)?.into_iter().find_map(|(f, v)| match v {
        FieldValue::Varint(x) if f == field => Some(x),
        _ => None,
    }))
}

/// First length-delimited value of `field` in `msg`, if present.
pub fn find_bytes(msg: &[u8], field: u32) -> Result<Option<&[u8]>, ProtoError> {
    Ok(decode_fields(msg)?.into_iter().find_map(|(f, v)| match v {
        FieldValue::Bytes(b) if f == field => Some(b),
        _ => None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn fields_round_trip() {
        let mut buf = Vec::new();
        put_varint_field(&mut buf, 8, 12_345);
        put_string_field(&mut buf, 23, "hop wait");
        put_varint_field(&mut buf, 10, 1);
        let fields = decode_fields(&buf).unwrap();
        assert_eq!(
            fields,
            vec![
                (8, FieldValue::Varint(12_345)),
                (23, FieldValue::Bytes(b"hop wait".as_slice())),
                (10, FieldValue::Varint(1)),
            ]
        );
        assert_eq!(find_varint(&buf, 8), Ok(Some(12_345)));
        assert_eq!(find_bytes(&buf, 23), Ok(Some(b"hop wait".as_slice())));
        assert_eq!(find_varint(&buf, 99), Ok(None));
    }

    #[test]
    fn packet_framing_round_trips() {
        let mut p1 = Vec::new();
        put_varint_field(&mut p1, 8, 10);
        let mut p2 = Vec::new();
        put_varint_field(&mut p2, 8, 20);
        let mut file = Vec::new();
        put_bytes_field(&mut file, 1, &p1);
        put_bytes_field(&mut file, 1, &p2);
        let packets = decode_packets(&file).unwrap();
        assert_eq!(packets, vec![p1.as_slice(), p2.as_slice()]);
    }

    #[test]
    fn truncation_and_bad_varints_are_typed_errors() {
        let mut buf = Vec::new();
        put_bytes_field(&mut buf, 1, &[1, 2, 3]);
        buf.pop();
        assert_eq!(decode_packets(&buf), Err(ProtoError::Truncated));
        // Ten continuation bytes never terminate a 64-bit varint.
        let bad = vec![0x80u8; 11];
        assert_eq!(decode_fields(&bad), Err(ProtoError::BadVarint));
        // Wire type 5 (fixed32) is outside the subset.
        let fixed = vec![0x0d, 0, 0, 0, 0];
        assert_eq!(
            decode_fields(&fixed),
            Err(ProtoError::UnsupportedWireType(5))
        );
    }
}
