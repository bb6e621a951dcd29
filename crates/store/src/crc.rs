//! CRC-32 (IEEE 802.3 polynomial), the checksum guarding every WAL
//! record, snapshot file, spill-log record and wire frame.
//!
//! The reflected polynomial `0xEDB88320` with initial value and final
//! XOR of `0xFFFFFFFF` — the same parametrisation as zlib's `crc32()`,
//! so blobs can be cross-checked with standard tooling.
//!
//! [`Crc32::update`] runs slicing-by-16: sixteen 256-entry tables, built
//! once at first use, fold 16 input bytes per step with 16 independent
//! lookups instead of a 16-long dependency chain of one-byte steps. The
//! tail shorter than 16 bytes runs byte at a time on table 0, the
//! classic one-table CRC. Both paths compute the same function, so the
//! checksums are bit-identical to the byte-at-a-time form.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// `tables()[0]` is the classic byte table; `tables()[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; SLICE] {
    static TABLES: OnceLock<[[u32; 256]; SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICE];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..SLICE {
            let (built, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&built[k - 1]) {
                *entry = (prev >> 8) ^ built[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher for multi-part payloads.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for b in &mut blocks {
            // The running CRC overlaps the block's first four bytes; byte
            // `j` of the block is followed by `15 - j` more, so it looks
            // up table `15 - j`.
            let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(head & 0xFF) as usize]
                ^ t[14][((head >> 8) & 0xFF) as usize]
                ^ t[13][((head >> 16) & 0xFF) as usize]
                ^ t[12][(head >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalises and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"feedback-aware social event-participant arrangement";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    /// Bit-at-a-time CRC-32/IEEE straight from the polynomial: no
    /// tables, so it shares no code with the implementation under test.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.max(1);
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_bitwise_reference_at_every_short_length_and_offset() {
        // Lengths 0..=64 cover the all-tail case, exactly one and several
        // 16-byte blocks, and every tail length; offsets 0..16 vary the
        // alignment of the blocks within the allocation.
        let buf = noise(64 + 16, 7);
        for offset in 0..16 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_bitwise_reference_on_a_large_buffer() {
        let data = noise(100_000, 11);
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn split_at_every_offset_matches_one_shot() {
        let data = noise(100, 13);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
