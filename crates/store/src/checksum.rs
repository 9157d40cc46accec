//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven,
//! eight bytes per step (slicing-by-8).
//!
//! Every header and extent of the on-disk segment format carries one of
//! these so corruption (truncation, bit flips, stale partial writes) fails
//! loudly at open time instead of silently skewing distances.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets one step fold
/// eight input bytes with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// A streaming CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use vlite_store::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    proptest! {
        /// Slicing-by-8 is the byte-at-a-time CRC, whatever the buffer
        /// and wherever a streaming caller splits it (the split moves
        /// the eight-byte steps off the buffer's own alignment).
        #[test]
        fn equals_the_bytewise_loop_at_any_split(
            data in prop::collection::vec(any::<u8>(), 0..300),
            cut_a in 0usize..300,
            cut_b in 0usize..300,
        ) {
            let mut want = 0xFFFF_FFFFu32;
            for &b in &data {
                want ^= u32::from(b);
                for _ in 0..8 {
                    want = if want & 1 != 0 { (want >> 1) ^ 0xEDB8_8320 } else { want >> 1 };
                }
            }
            let want = !want;
            prop_assert_eq!(crc32(&data), want);
            let (a, b) = (cut_a.min(cut_b).min(data.len()), cut_a.max(cut_b).min(data.len()));
            let mut h = Crc32::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            prop_assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let mut data = vec![0u8; 1024];
        let clean = crc32(&data);
        data[513] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
