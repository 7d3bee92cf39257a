//! Unseeded hashes: a fast hasher for small integer keys, and FNV-1a-64
//! for checksums and digests that must be stable across runs.

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

/// Incremental FNV-1a-64: the record checksum of the campaign cache and
/// journal, the `dfv-serve` frame checksum, block content hashes and
/// stimulus-sweep digests. Stable across platforms and runs (unlike
/// `DefaultHasher`), so its values can be stored and sent. An integrity
/// check, not an authenticator: collisions are easy to craft.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-64 offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, one byte at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a-64 of a whole byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.write(bytes);
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // From the FNV reference test suite (FNV-1a, 64-bit).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental writes hash the concatenation.
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
