//! A fast, unseeded hasher for small integer keys.

use std::hash::Hasher;

/// An FxHash-style hasher for tables keyed by small integers (packed
/// ids, short bit-vectors): one multiply mixes every key bit into the
/// high half, and the final rotate brings that half down to the low bits
/// the table indexes by. It has no random seed, so lookups cost the same
/// on every run, and it is far cheaper than the default SipHash for keys
/// this small. Keep the default hasher for keys from outside the
/// program: an unseeded hash offers no protection against crafted
/// collisions.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
