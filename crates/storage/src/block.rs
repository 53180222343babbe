//! Block compression for segment files.
//!
//! A small, std-only byte-oriented LZ77 (Snappy/LZ4 family): greedy
//! hash-table matching over a 64 KiB window, emitting literal runs and
//! back-references as tagged tokens. Stored-field and postings blocks
//! compress well under it (JSON keys and delta-varint runs repeat
//! heavily); truly incompressible blocks are stored raw behind a
//! one-byte header so compression never inflates a block by more than
//! that byte.
//!
//! Token stream (after the header byte):
//!
//! * `0x00, len-1 varint, bytes…` — a literal run;
//! * `0x01, len-4 varint, dist varint` — copy `len` bytes from `dist`
//!   bytes back (overlapping copies allowed, RLE-style).
//!
//! The format is self-terminating: decompression runs until the
//! declared uncompressed length is produced and rejects anything that
//! would read past either buffer, so a corrupt block fails loudly
//! instead of producing garbage.

use create_util::varint;

/// Header byte: the block is stored raw (incompressible).
const RAW: u8 = 0;
/// Header byte: the block is an LZ token stream.
const COMPRESSED: u8 = 1;

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 1 << 16;
const HASH_BITS: u32 = 14;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, preferring the raw encoding when matching finds
/// nothing to exploit.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(COMPRESSED);
    let mut heads = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = heads[h];
        heads[h] = i;
        let matched = candidate != usize::MAX
            && i - candidate <= MAX_DISTANCE
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH];
        if !matched {
            i += 1;
            continue;
        }
        // Extend the match as far as it goes.
        let mut len = MIN_MATCH;
        while i + len < input.len() && input[candidate + len] == input[i + len] {
            len += 1;
        }
        flush_literals(&mut out, &input[literal_start..i]);
        out.push(0x01);
        varint::write_u64(&mut out, (len - MIN_MATCH) as u64);
        varint::write_u64(&mut out, (i - candidate) as u64);
        // Seed the table through the matched region (sparsely: every
        // other position keeps the cost linear without hurting ratio
        // much on this workload).
        let end = (i + len).min(input.len().saturating_sub(MIN_MATCH - 1));
        let mut j = i + 1;
        while j < end {
            heads[hash4(&input[j..])] = j;
            j += 2;
        }
        i += len;
        literal_start = i;
    }
    flush_literals(&mut out, &input[literal_start..]);
    if out.len() > input.len() {
        let mut raw = Vec::with_capacity(input.len() + 1);
        raw.push(RAW);
        raw.extend_from_slice(input);
        return raw;
    }
    out
}

fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    out.push(0x00);
    varint::write_u64(out, (literals.len() - 1) as u64);
    out.extend_from_slice(literals);
}

/// Decompression failure: the token stream is inconsistent with the
/// declared uncompressed length (i.e. the block is corrupt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCorrupt(pub &'static str);

impl std::fmt::Display for BlockCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed block: {}", self.0)
    }
}

impl std::error::Error for BlockCorrupt {}

/// Decompresses a block produced by [`compress`] into exactly
/// `uncompressed_len` bytes.
pub fn decompress(block: &[u8], uncompressed_len: usize) -> Result<Vec<u8>, BlockCorrupt> {
    let mut out = Vec::new();
    decompress_into(block, uncompressed_len, &mut out)?;
    Ok(out)
}

/// [`decompress`] into `out`, replacing its contents (and reusing its
/// allocation). The token stream is untrusted: every length is checked
/// against what is left of `uncompressed_len` *before* anything is
/// copied for it, so a hostile token costs no more than the block may
/// hold.
pub(crate) fn decompress_into(
    block: &[u8],
    uncompressed_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), BlockCorrupt> {
    out.clear();
    let (&header, body) = block.split_first().ok_or(BlockCorrupt("empty block"))?;
    match header {
        RAW => {
            if body.len() != uncompressed_len {
                return Err(BlockCorrupt("raw block length mismatch"));
            }
            out.extend_from_slice(body);
        }
        COMPRESSED => {
            out.reserve(uncompressed_len);
            // The token's length, plus `extra`, if it fits what is left.
            let length = |pos: &mut usize, out: &Vec<u8>, extra: u64, what| {
                varint::read_u64(body, pos)
                    .ok_or(BlockCorrupt(what))?
                    .checked_add(extra)
                    .and_then(|len| usize::try_from(len).ok())
                    .filter(|&len| len <= uncompressed_len - out.len())
                    .ok_or(BlockCorrupt("output overruns declared length"))
            };
            let mut pos = 0usize;
            while pos < body.len() {
                let tag = body[pos];
                pos += 1;
                match tag {
                    0x00 => {
                        let len = length(&mut pos, out, 1, "literal length")?;
                        let run = pos
                            .checked_add(len)
                            .and_then(|end| body.get(pos..end))
                            .ok_or(BlockCorrupt("literal run past end"))?;
                        out.extend_from_slice(run);
                        pos += len;
                    }
                    0x01 => {
                        let len = length(&mut pos, out, MIN_MATCH as u64, "match length")?;
                        let dist = varint::read_u64(body, &mut pos)
                            .ok_or(BlockCorrupt("match distance"))?;
                        if dist == 0 || dist > out.len() as u64 {
                            return Err(BlockCorrupt("match distance out of range"));
                        }
                        // Copied as slices of at most `dist` bytes: an
                        // overlapping (RLE-style) reference repeats bytes
                        // this same match produces, and each chunk reads
                        // only bytes already written.
                        let mut from = out.len() - dist as usize;
                        let mut left = len;
                        while left > 0 {
                            let n = left.min(dist as usize);
                            out.extend_from_within(from..from + n);
                            from += n;
                            left -= n;
                        }
                    }
                    _ => return Err(BlockCorrupt("unknown token tag")),
                }
            }
            if out.len() != uncompressed_len {
                return Err(BlockCorrupt("output shorter than declared length"));
            }
        }
        _ => return Err(BlockCorrupt("unknown block header")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_util::Rng;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed, data.len()).expect("decompress");
        assert_eq!(unpacked, data);
    }

    #[test]
    fn round_trips_empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn compresses_repetitive_input() {
        let data: Vec<u8> = b"{\"_id\":\"pmid:1\",\"title\":\"fever\"}\n"
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 4,
            "repetitive JSON should compress >4x, got {} of {}",
            packed.len(),
            data.len()
        );
        round_trip(&data);
    }

    #[test]
    fn handles_overlapping_rle_matches() {
        let data = vec![0x41u8; 10_000];
        let packed = compress(&data);
        assert!(packed.len() < 64);
        round_trip(&data);
    }

    #[test]
    fn random_input_falls_back_to_raw() {
        let mut rng = Rng::seed_from_u64(7);
        let data: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        let packed = compress(&data);
        assert!(
            packed.len() <= data.len() + 1,
            "raw fallback caps inflation"
        );
        round_trip(&data);
    }

    #[test]
    fn seeded_fuzz_round_trips() {
        let mut rng = Rng::seed_from_u64(0xc0ffee);
        for case in 0..50 {
            let len = rng.below(5000);
            // Mix of runs and noise to exercise both token kinds.
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                if rng.below(2) == 0 {
                    let run = rng.range(1, 40);
                    let byte = rng.below(8) as u8;
                    data.extend(std::iter::repeat_n(byte, run.min(len - data.len())));
                } else {
                    data.push(rng.below(256) as u8);
                }
            }
            let packed = compress(&data);
            let unpacked = decompress(&packed, data.len()).expect("decompress");
            assert_eq!(unpacked, data, "case {case}");
        }
    }

    #[test]
    fn corrupt_blocks_fail_loudly() {
        let data: Vec<u8> = b"abcdabcdabcdabcdabcdabcd".repeat(20);
        let packed = compress(&data);
        // Wrong declared length.
        assert!(decompress(&packed, data.len() + 1).is_err());
        assert!(decompress(&packed, data.len().saturating_sub(1)).is_err());
        // Truncated stream.
        assert!(decompress(&packed[..packed.len() / 2], data.len()).is_err());
        // Unknown header.
        let mut bad = packed.clone();
        bad[0] = 9;
        assert!(decompress(&bad, data.len()).is_err());
    }

    /// Decodes `block`'s token stream one byte at a time — the reference
    /// an overlapping match's slice copies must reproduce. Trusts its
    /// input: only the tests' own blocks go through it.
    fn decompress_bytewise(block: &[u8]) -> Vec<u8> {
        assert_eq!(block[0], COMPRESSED);
        let (body, mut pos, mut out) = (&block[1..], 0, Vec::new());
        while pos < body.len() {
            let tag = body[pos];
            pos += 1;
            let len = varint::read_u64(body, &mut pos).unwrap() as usize;
            if tag == 0x00 {
                out.extend_from_slice(&body[pos..pos + len + 1]);
                pos += len + 1;
            } else {
                let dist = varint::read_u64(body, &mut pos).unwrap() as usize;
                for _ in 0..len + MIN_MATCH {
                    out.push(out[out.len() - dist]);
                }
            }
        }
        out
    }

    /// Every overlapping match of distance 1..=8 and length 4..=300, after
    /// a literal of `dist` distinct bytes and before another literal,
    /// decompresses to the bytes a byte-at-a-time copy produces.
    #[test]
    fn overlapping_matches_copy_as_the_bytewise_reference_does() {
        for dist in 1..=8u8 {
            for len in MIN_MATCH..=300 {
                let mut block = vec![COMPRESSED, 0x00, dist - 1];
                block.extend(1..=dist);
                block.push(0x01);
                varint::write_u64(&mut block, (len - MIN_MATCH) as u64);
                block.push(dist);
                block.extend_from_slice(&[0x00, 1, 0xAA, 0xBB]);
                let expected = decompress_bytewise(&block);
                assert_eq!(expected.len(), dist as usize + len + 2);
                let got = decompress(&block, expected.len()).expect("decompress");
                assert_eq!(got, expected, "distance {dist}, length {len}");
            }
        }
    }

    /// A block declaring `len` bytes: a 4-byte literal, then one match
    /// token of length field `match_len` (the length is that plus 4).
    fn hostile_match(match_len: u64) -> Vec<u8> {
        let mut block = vec![COMPRESSED, 0x00, 3, b'a', b'b', b'c', b'd', 0x01];
        varint::write_u64(&mut block, match_len);
        block.push(4);
        block
    }

    /// A 2^40-byte match in a block declaring 10 bytes: refused before a
    /// byte of it is copied (it used to copy until memory ran out).
    #[test]
    fn a_match_longer_than_the_declared_length_is_refused_before_copying() {
        let block = hostile_match(1 << 40);
        assert_eq!(
            decompress(&block, 10),
            Err(BlockCorrupt("output overruns declared length"))
        );
        // The largest match that still fits is accepted.
        assert_eq!(decompress(&hostile_match(2), 10).unwrap(), b"abcdabcdab");
    }

    /// `u64::MAX` lengths overflowed `+ 1` / `+ MIN_MATCH` and `pos +
    /// len` (a panic in a debug build); they are corruption.
    #[test]
    fn u64_max_token_lengths_are_corrupt_not_overflows() {
        assert!(decompress(&hostile_match(u64::MAX), 10).is_err());
        let mut literal = vec![COMPRESSED, 0x00];
        varint::write_u64(&mut literal, u64::MAX);
        literal.push(b'x');
        assert!(decompress(&literal, 10).is_err());
        // A literal run that fits the declared length but not the block.
        let mut short = vec![COMPRESSED, 0x00];
        varint::write_u64(&mut short, 8);
        short.push(b'x');
        assert_eq!(
            decompress(&short, 10),
            Err(BlockCorrupt("literal run past end"))
        );
    }
}
