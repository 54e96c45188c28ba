//! Dependency-free gzip (RFC 1952) over DEFLATE (RFC 1951).
//!
//! The serving daemon negotiates `Content-Encoding: gzip` without
//! importing a compression crate: this module hand-rolls a
//! fixed-Huffman DEFLATE encoder with a greedy hash-chain LZ77
//! matcher, wrapped in gzip framing (CRC-32 + ISIZE). The encoder is
//! fully deterministic — no timestamps (gzip MTIME is pinned to 0), no
//! randomized data structures — so compressed response bytes fall
//! under the same byte-identity contract as everything else the daemon
//! serves.
//!
//! [`StreamEncoder`] compresses incrementally: each [`StreamEncoder::push`]
//! emits the complete bytes produced so far (a chunked response body
//! feeds one render per push), and [`StreamEncoder::finish`] seals the
//! stream with an empty final block and the gzip trailer. Chunks are
//! compressed as independent DEFLATE blocks (back-references never
//! cross a push boundary), so memory stays O(chunk), plus the one
//! 32K-entry hash-head table an encoder keeps for its whole stream.
//!
//! The output bytes are part of the serving contract, and nothing but a
//! test guards them: `serve` is outside `CODE_FINGERPRINT`, so the gzip
//! variant's ETag does not move when this encoder does, and changed
//! bytes under an unchanged validator would break `If-None-Match`. So
//! the match policy is fixed: greedy (no lazy matching), at most
//! `MAX_CHAIN` candidates per position, the longest match winning and
//! the nearest among equals, with no early exit short of `MAX_MATCH`
//! or the end of the input. `tests/gzip_golden.rs` pins the exact
//! output; a speed-up must reproduce it byte for byte.
//!
//! [`decode`] inflates exactly what this encoder can emit — stored and
//! fixed-Huffman blocks — and is what the round-trip property tests and the
//! load harness use to prove that gzipped bodies decode to the
//! identity bytes. It is not a general-purpose inflater (dynamic
//! Huffman blocks are rejected, not mis-parsed).

/// Matches longer than this are not sought (the DEFLATE maximum).
const MAX_MATCH: usize = 258;
/// Matches shorter than this cost more to encode than literals.
const MIN_MATCH: usize = 3;
/// How many hash-chain candidates the matcher will try per position.
const MAX_CHAIN: usize = 64;
/// Hash table size for the 3-byte prefix hash.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Length code bases for symbols 257..=285 (RFC 1951 §3.2.5).
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits carried by each length code.
const LEN_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distance code bases for codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits carried by each distance code.
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = crc ^ 0xFFFF_FFFF;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// DEFLATE's bit order: value fields little-endian bit-first, Huffman
/// codes most-significant-bit-first (handled by [`BitWriter::huff`]).
struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes `n` bits of `value`, least-significant first.
    fn bits(&mut self, value: u32, n: u32) {
        self.bit_buf |= (value as u64) << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes an `n`-bit Huffman code: DEFLATE packs codes starting
    /// with the most significant bit, i.e. bit-reversed relative to
    /// [`BitWriter::bits`].
    fn huff(&mut self, code: u32, n: u32) {
        self.bits(code.reverse_bits() >> (32 - n), n);
    }

    /// Pads the current byte with zero bits.
    fn align(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    /// Takes every completed byte written so far.
    fn drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }
}

/// The fixed-Huffman literal/length code for `sym` (RFC 1951 §3.2.6).
fn fixed_litlen_code(sym: u32) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + (sym - 280), 8),
    }
}

/// Maps a match length (3..=258) to its (symbol, extra-bit count,
/// extra-bit value).
fn length_symbol(len: usize) -> (u32, u32, u32) {
    let code = LEN_BASE.partition_point(|&base| base as usize <= len) - 1;
    (
        257 + code as u32,
        LEN_EXTRA[code],
        (len - LEN_BASE[code] as usize) as u32,
    )
}

/// Maps a match distance (1..=32768) to its (code, extra-bit count,
/// extra-bit value).
fn distance_symbol(dist: usize) -> (u32, u32, u32) {
    let code = DIST_BASE.partition_point(|&base| base as usize <= dist) - 1;
    (
        code as u32,
        DIST_EXTRA[code],
        (dist - DIST_BASE[code] as usize) as u32,
    )
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32) << 10 ^ (data[i + 1] as u32) << 5 ^ data[i + 2] as u32;
    (h as usize) & (HASH_SIZE - 1)
}

/// The length of the common prefix of `data[a..]` and `data[b..]`, at
/// most `limit` (`a < b`, `b + limit <= data.len()`), compared 8 bytes
/// at a time: the first differing byte is the lowest set byte of the
/// XOR of two little-endian words.
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("an 8-byte chunk"));
    let mut len = 0;
    for (p, q) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = word(p) ^ word(q);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + x[len..]
        .iter()
        .zip(&y[len..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// Emits one non-final fixed-Huffman block compressing `data`, which
/// starts at stream offset `base`, with a greedy hash-chain LZ77 pass.
/// `head[h]` is one past the stream offset of the latest position whose
/// 3-byte prefix hashes to `h`, or 0; an entry at or below `base` (an
/// earlier block's) reads as empty, so back-references stay inside
/// `data` and one table serves every block of a stream.
fn compress_block(bits: &mut BitWriter, head: &mut [usize], base: usize, data: &[u8]) {
    bits.bits(0, 1); // BFINAL = 0: the stream is sealed by `finish`
    bits.bits(1, 2); // BTYPE = 01: fixed Huffman
    let mut prev = vec![usize::MAX; data.len()];
    // A `head` entry as an index into `data`, `usize::MAX` if empty.
    let local = |entry: usize| entry.checked_sub(base + 1).unwrap_or(usize::MAX);
    // Links position `j` into its hash chain.
    let insert = |head: &mut [usize], prev: &mut [usize], j: usize| {
        let h = hash3(data, j);
        prev[j] = local(head[h]);
        head[h] = base + j + 1;
    };
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let limit = MAX_MATCH.min(data.len() - i);
            let mut candidate = local(head[hash3(data, i)]);
            let mut chain = 0;
            while candidate != usize::MAX && chain < MAX_CHAIN {
                let dist = i - candidate;
                if dist > 32768 {
                    break;
                }
                // Only a candidate that also matches at `best_len` can
                // beat it (`best_len < limit` while the loop runs).
                if data[candidate + best_len] == data[i + best_len] {
                    let len = match_len(data, candidate, i, limit);
                    if len > best_len {
                        best_len = len;
                        best_dist = dist;
                        if len == limit {
                            break;
                        }
                    }
                }
                candidate = prev[candidate];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let (sym, lextra, lval) = length_symbol(best_len);
            let (code, len) = fixed_litlen_code(sym);
            bits.huff(code, len);
            bits.bits(lval, lextra);
            let (dsym, dextra, dval) = distance_symbol(best_dist);
            bits.huff(dsym, 5);
            bits.bits(dval, dextra);
            // Index every covered position so later matches can refer
            // back into this run.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                insert(head, &mut prev, j);
            }
            i += best_len;
        } else {
            let (code, len) = fixed_litlen_code(data[i] as u32);
            bits.huff(code, len);
            if i + MIN_MATCH <= data.len() {
                insert(head, &mut prev, i);
            }
            i += 1;
        }
    }
    let (code, len) = fixed_litlen_code(256); // end of block
    bits.huff(code, len);
}

/// An incremental gzip encoder: feed chunks with [`StreamEncoder::push`],
/// seal with [`StreamEncoder::finish`]. The concatenation of everything
/// returned is a complete gzip member.
pub struct StreamEncoder {
    bits: BitWriter,
    crc: u32,
    /// Bytes pushed so far: the stream offset of the next block.
    pushed: usize,
    /// Hash-chain heads for the whole stream (see [`compress_block`]).
    head: Vec<usize>,
}

impl Default for StreamEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEncoder {
    /// A fresh encoder; the first drained bytes begin with the gzip
    /// header (MTIME pinned to 0 so output is time-independent).
    pub fn new() -> Self {
        let mut bits = BitWriter::new();
        // magic, CM=deflate, FLG=0, MTIME=0, XFL=0, OS=255 (unknown).
        bits.out
            .extend_from_slice(&[0x1F, 0x8B, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xFF]);
        StreamEncoder {
            bits,
            crc: 0,
            pushed: 0,
            head: vec![0; HASH_SIZE],
        }
    }

    /// Compresses `chunk` as an independent DEFLATE block and returns
    /// every output byte completed so far (possibly empty: DEFLATE is
    /// bit-packed, so a block boundary need not be a byte boundary).
    pub fn push(&mut self, chunk: &[u8]) -> Vec<u8> {
        if chunk.is_empty() {
            return Vec::new();
        }
        self.crc = crc32_update(self.crc, chunk);
        compress_block(&mut self.bits, &mut self.head, self.pushed, chunk);
        self.pushed += chunk.len();
        self.bits.drain()
    }

    /// Seals the stream: an empty final block, bit padding, and the
    /// gzip trailer (CRC-32 + ISIZE, little-endian).
    pub fn finish(mut self) -> Vec<u8> {
        self.bits.bits(1, 1); // BFINAL = 1
        self.bits.bits(1, 2); // fixed Huffman
        let (code, len) = fixed_litlen_code(256);
        self.bits.huff(code, len);
        self.bits.align();
        let mut out = self.bits.drain();
        out.extend_from_slice(&self.crc.to_le_bytes());
        // ISIZE is the input length modulo 2^32.
        out.extend_from_slice(&(self.pushed as u32).to_le_bytes());
        out
    }
}

/// One-shot convenience: the complete gzip member for `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut encoder = StreamEncoder::new();
    let mut out = encoder.push(data);
    out.extend(encoder.finish());
    out
}

/// Whether an `Accept-Encoding` header value negotiates gzip: a `gzip`
/// (or `*`) entry whose quality is not zero. `None` (no header) is
/// identity.
pub(crate) fn negotiates_gzip(accept_encoding: Option<&str>) -> bool {
    let Some(value) = accept_encoding else {
        return false;
    };
    value.split(',').any(|entry| {
        let mut parts = entry.split(';');
        let coding = parts.next().unwrap_or("").trim();
        if !coding.eq_ignore_ascii_case("gzip") && coding != "*" {
            return false;
        }
        // q=0 is an explicit refusal; anything else (or no q) accepts.
        !parts.any(|p| {
            let p = p.trim();
            p.strip_prefix("q=")
                .is_some_and(|q| q.trim().parse::<f64>().is_ok_and(|q| q == 0.0))
        })
    })
}

/// LSB-first bit reader over a byte slice (the inflate side of
/// [`BitWriter`]).
struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte: 0,
            bit: 0,
        }
    }

    fn read_bit(&mut self) -> Result<u32, String> {
        let b = *self
            .data
            .get(self.byte)
            .ok_or_else(|| "truncated deflate stream".to_string())?;
        let bit = (b >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(bit as u32)
    }

    /// Reads `n` bits as an LSB-first value (extra bits, stored LEN).
    fn read_bits(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0;
        for i in 0..n {
            v |= self.read_bit()? << i;
        }
        Ok(v)
    }

    /// Reads an `n`-bit Huffman code MSB-first.
    fn read_code(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()?;
        }
        Ok(v)
    }

    fn align(&mut self) {
        if self.bit > 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }
}

/// Decodes one fixed-Huffman literal/length symbol (the inverse of
/// [`fixed_litlen_code`]).
fn read_fixed_litlen(reader: &mut BitReader) -> Result<u32, String> {
    let mut code = reader.read_code(7)?;
    if code <= 0x17 {
        return Ok(256 + code);
    }
    code = (code << 1) | reader.read_bit()?;
    if (0x30..=0xBF).contains(&code) {
        return Ok(code - 0x30);
    }
    if (0xC0..=0xC7).contains(&code) {
        return Ok(280 + (code - 0xC0));
    }
    code = (code << 1) | reader.read_bit()?;
    if (0x190..=0x1FF).contains(&code) {
        return Ok(144 + (code - 0x190));
    }
    Err(format!("invalid fixed-Huffman code {code:#x}"))
}

/// Inflates a gzip member produced by this module's encoder: stored and
/// fixed-Huffman blocks, CRC-32 and ISIZE verified. Rejects (rather
/// than mis-parses) anything the encoder cannot emit, e.g. dynamic
/// Huffman blocks or gzip headers with optional fields.
pub fn decode(data: &[u8]) -> Result<Vec<u8>, String> {
    if data.len() < 18 {
        return Err("gzip member too short".to_string());
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err("not a gzip stream (bad magic)".to_string());
    }
    if data[2] != 0x08 {
        return Err(format!("unsupported compression method {}", data[2]));
    }
    if data[3] != 0 {
        return Err(format!("unsupported gzip flags {:#x}", data[3]));
    }
    let mut reader = BitReader::new(&data[10..data.len() - 8]);
    let mut out = Vec::new();
    loop {
        let bfinal = reader.read_bit()?;
        let btype = reader.read_bits(2)?;
        match btype {
            0 => {
                reader.align();
                let len = reader.read_bits(16)? as usize;
                let nlen = reader.read_bits(16)? as usize;
                if len ^ nlen != 0xFFFF {
                    return Err("stored block LEN/NLEN mismatch".to_string());
                }
                for _ in 0..len {
                    out.push(reader.read_bits(8)? as u8);
                }
            }
            1 => loop {
                let sym = read_fixed_litlen(&mut reader)?;
                match sym {
                    0..=255 => out.push(sym as u8),
                    256 => break,
                    _ => {
                        let code = (sym - 257) as usize;
                        if code >= LEN_BASE.len() {
                            return Err(format!("invalid length symbol {sym}"));
                        }
                        let len =
                            LEN_BASE[code] as usize + reader.read_bits(LEN_EXTRA[code])? as usize;
                        let dcode = reader.read_code(5)? as usize;
                        if dcode >= DIST_BASE.len() {
                            return Err(format!("invalid distance code {dcode}"));
                        }
                        let dist = DIST_BASE[dcode] as usize
                            + reader.read_bits(DIST_EXTRA[dcode])? as usize;
                        if dist > out.len() {
                            return Err("back-reference before stream start".to_string());
                        }
                        for _ in 0..len {
                            out.push(out[out.len() - dist]);
                        }
                    }
                }
            },
            2 => return Err("dynamic Huffman blocks are not supported".to_string()),
            _ => return Err("reserved block type".to_string()),
        }
        if bfinal == 1 {
            break;
        }
    }
    let trailer = &data[data.len() - 8..];
    let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let isize_ = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    if crc != crc32_update(0, &out) {
        return Err("CRC-32 mismatch".to_string());
    }
    if isize_ != out.len() as u32 {
        return Err("ISIZE mismatch".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_update(0, b""), 0);
    }

    #[test]
    fn empty_input_round_trips() {
        let encoded = encode(b"");
        assert_eq!(decode(&encoded).unwrap(), b"");
    }

    #[test]
    fn repetitive_text_compresses_and_round_trips() {
        let text = "experiment,seed,scale,median,cov\n".repeat(400);
        let encoded = encode(text.as_bytes());
        assert!(
            encoded.len() < text.len() / 4,
            "repetitive CSV should compress well: {} -> {}",
            text.len(),
            encoded.len()
        );
        assert_eq!(decode(&encoded).unwrap(), text.as_bytes());
    }

    #[test]
    fn encoding_is_deterministic() {
        let data = b"the same bytes in, the same bytes out, every time";
        assert_eq!(encode(data), encode(data));
    }

    #[test]
    fn chunked_and_whole_encodings_decode_identically() {
        let text = "a body produced one artifact render at a time".repeat(50);
        let whole = encode(text.as_bytes());

        let mut encoder = StreamEncoder::new();
        let mut chunked = Vec::new();
        for chunk in text.as_bytes().chunks(97) {
            chunked.extend(encoder.push(chunk));
        }
        chunked.extend(encoder.finish());

        // Different block boundaries, identical decoded bytes.
        assert_eq!(decode(&whole).unwrap(), text.as_bytes());
        assert_eq!(decode(&chunked).unwrap(), text.as_bytes());
    }

    #[test]
    fn negotiation_covers_the_header_forms() {
        assert!(!negotiates_gzip(None));
        assert!(negotiates_gzip(Some("gzip")));
        assert!(negotiates_gzip(Some("GZIP")));
        assert!(negotiates_gzip(Some("deflate, gzip;q=0.5, br")));
        assert!(negotiates_gzip(Some("*")));
        assert!(!negotiates_gzip(Some("identity")));
        assert!(!negotiates_gzip(Some("gzip;q=0")));
        assert!(!negotiates_gzip(Some("gzip; q=0.0")));
        assert!(!negotiates_gzip(Some("")));
    }

    #[test]
    fn decode_rejects_damage() {
        assert!(decode(b"").is_err());
        assert!(decode(b"not gzip at all, definitely").is_err());
        let mut flipped = encode(b"some body bytes to protect");
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF; // ISIZE corrupt
        assert!(decode(&flipped).is_err());
        let mut crc_flipped = encode(b"some body bytes to protect");
        let crc_at = crc_flipped.len() - 8;
        crc_flipped[crc_at] ^= 0xFF;
        assert!(decode(&crc_flipped).is_err());
    }

    #[test]
    fn arbitrary_bytes_round_trip() {
        check::cases("arbitrary_bytes_round_trip", 64, |g| {
            let data = g.bytes(0..4096);
            assert_eq!(decode(&encode(&data)).unwrap(), data);
        });
    }

    #[test]
    fn arbitrary_chunk_splits_round_trip() {
        check::cases("arbitrary_chunk_splits_round_trip", 64, |g| {
            let data = g.bytes(1..2048);
            let split = g.usize(1..512);
            let mut encoder = StreamEncoder::new();
            let mut out = Vec::new();
            for chunk in data.chunks(split) {
                out.extend(encoder.push(chunk));
            }
            out.extend(encoder.finish());
            assert_eq!(decode(&out).unwrap(), data);
        });
    }
}
