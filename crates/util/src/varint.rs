//! LEB128 variable-length integer coding, shared by the postings codec
//! (`create-index::codec`) and the durable-storage file formats
//! (`create-storage`). Values are encoded little-endian, 7 bits per
//! byte, with the high bit as the continuation flag — the Lucene/
//! Protobuf wire format, so small deltas cost one byte.

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a `u32` (same wire format; capped at 5 bytes).
#[inline]
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    write_u64(out, v as u64);
}

/// Decodes a LEB128 integer from `buf[*pos..]`, advancing `*pos`.
/// Returns `None` on truncated input or an encoding longer than a
/// `u64` can hold (a corruption signal, never produced by the writer).
///
/// Inlined (along with the other helpers) because segment decode calls
/// this once per posting and per position — a cross-crate call here is
/// measurable on the cold-open path.
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    // Fast path: single-byte values dominate postings streams (doc
    // gaps and position deltas are mostly < 128).
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Some(byte as u64);
        }
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        // The final (10th) byte may only carry the top bit of a u64.
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Decodes a `u32`, rejecting values that overflow it.
#[inline]
pub fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let v = read_u64(buf, pos)?;
    u32::try_from(v).ok()
}

/// [`read_u64`] from a buffered stream: the value and the bytes it took,
/// `None` where `read_u64` would say it (the stream ends inside the
/// integer, or it does not fit a `u64`). An integer that straddles the
/// end of the stream's buffer is read a byte at a time.
#[inline]
pub fn read_u64_from(r: &mut impl std::io::BufRead) -> std::io::Result<Option<(u64, usize)>> {
    let buf = r.fill_buf()?;
    let mut pos = 0;
    if let Some(value) = read_u64(buf, &mut pos) {
        r.consume(pos);
        return Ok(Some((value, pos)));
    }
    // Ten bytes hold any valid encoding, so `None` from that many is a
    // verdict, not a buffer boundary.
    if buf.len() >= 10 {
        return Ok(None);
    }
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while len < bytes.len() {
        let Some(&byte) = r.fill_buf()?.first() else {
            return Ok(None);
        };
        r.consume(1);
        bytes[len] = byte;
        len += 1;
        if byte < 0x80 {
            break;
        }
    }
    let mut pos = 0;
    Ok(read_u64(&bytes[..len], &mut pos).map(|value| (value, len)))
}

/// Bytes [`write_u64`] takes for `v`.
#[inline]
pub fn len_u64(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_boundary_values() {
        let values = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos), Some(v), "value {v}");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn stream_reads_agree_with_slice_reads_across_buffer_boundaries() {
        let values = [0u64, 0x7f, 0x80, 0x3fff, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), {
                let mut one = Vec::new();
                write_u64(&mut one, v);
                one.len()
            });
        }
        // A two-byte buffer splits every multi-byte integer.
        let mut r = std::io::BufReader::with_capacity(2, &buf[..]);
        for &v in &values {
            assert_eq!(read_u64_from(&mut r).unwrap(), Some((v, len_u64(v))));
        }
        assert_eq!(read_u64_from(&mut r).unwrap(), None, "end of stream");
        let mut truncated =
            std::io::BufReader::with_capacity(3, &buf[buf.len() - 10..buf.len() - 1]);
        assert_eq!(read_u64_from(&mut truncated).unwrap(), None);
        let overflow = [0xffu8; 11];
        for capacity in [2, 64] {
            let mut r = std::io::BufReader::with_capacity(capacity, &overflow[..]);
            assert_eq!(read_u64_from(&mut r).unwrap(), None, "capacity {capacity}");
        }
    }

    #[test]
    fn small_values_cost_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0x7f);
        assert_eq!(buf.len(), 1);
        write_u64(&mut buf, 0x80);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn u32_overflow_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u32::MAX as u64 + 1);
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), None);
        pos = 0;
        buf.clear();
        write_u32(&mut buf, u32::MAX);
        assert_eq!(read_u32(&buf, &mut pos), Some(u32::MAX));
    }
}
