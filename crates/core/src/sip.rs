//! SipHash-2-4 (Aumasson and Bernstein), streaming, in its 64-bit and
//! 128-bit output forms. No dependencies; the 64-bit form is checked
//! against `std`'s own SipHash-2-4, the 128-bit form against the
//! reference test vector.

/// A streaming SipHash-2-4 state. Bytes written in any split hash the
/// same as their concatenation.
pub(crate) struct Sip24 {
    v: [u64; 4],
    /// Pending bytes, little-endian, not yet a full 8-byte word.
    tail: u64,
    /// How many bytes `tail` holds (0..8).
    ntail: usize,
    /// Total bytes written, of which the final block keeps the low byte.
    len: u64,
}

impl Sip24 {
    /// A state under key `(k0, k1)`; `wide` selects the 128-bit output
    /// form, which differs from the 64-bit one from the first round on.
    pub(crate) fn new(k0: u64, k1: u64, wide: bool) -> Self {
        let mut v = [
            k0 ^ 0x736f_6d65_7073_6575,
            k1 ^ 0x646f_7261_6e64_6f6d,
            k0 ^ 0x6c79_6765_6e65_7261,
            k1 ^ 0x7465_6462_7974_6573,
        ];
        if wide {
            v[1] ^= 0xee;
        }
        Sip24 {
            v,
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.round();
        self.v[0] ^= m;
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.ntail > 0 {
            let take = rest.len().min(8 - self.ntail);
            for (i, &b) in rest[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            rest = &rest[take..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            self.compress(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = words.remainder().len();
    }

    /// Writes the low `n` bytes of `x` (little-endian), `n <= 8`, without
    /// the byte loop of [`write`](Sip24::write): the structural walk is
    /// mostly tags and fixed-width integers.
    #[inline(always)]
    pub(crate) fn write_word(&mut self, x: u64, n: usize) {
        debug_assert!(n <= 8 && (n == 8 || x >> (8 * n) == 0));
        self.len = self.len.wrapping_add(n as u64);
        let fill = self.ntail;
        self.tail |= x << (8 * fill);
        if fill + n < 8 {
            self.ntail = fill + n;
            return;
        }
        self.compress(self.tail);
        // The bytes of `x` that did not fit; none when `fill == 0`.
        self.tail = if fill == 0 { 0 } else { x >> (8 * (8 - fill)) };
        self.ntail = fill + n - 8;
    }

    fn last_block(&mut self) {
        self.compress(self.tail | (self.len & 0xff) << 56);
    }

    fn fold(&mut self) -> u64 {
        for _ in 0..4 {
            self.round();
        }
        self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3]
    }

    /// The 64-bit digest (for a state made with `wide == false`).
    #[cfg(test)]
    pub(crate) fn finish64(mut self) -> u64 {
        self.last_block();
        self.v[2] ^= 0xff;
        self.fold()
    }

    /// The 128-bit digest (for a state made with `wide == true`): the
    /// reference's first output word in the low 64 bits.
    pub(crate) fn finish128(mut self) -> u128 {
        self.last_block();
        self.v[2] ^= 0xee;
        let lo = self.fold();
        self.v[1] ^= 0xdd;
        let hi = self.fold();
        u128::from(lo) | u128::from(hi) << 64
    }
}

#[cfg(test)]
mod tests {
    use super::Sip24;
    use dfv_bits::SplitMix64;

    #[allow(deprecated)]
    fn std_sip(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = std::hash::SipHasher::new_with_keys(k0, k1);
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn matches_std_siphash_2_4_on_random_inputs_keys_and_splits() {
        let mut rng = SplitMix64::new(0x5195);
        for case in 0..2000 {
            let (k0, k1) = (rng.next_u64(), rng.next_u64());
            let len = (rng.next_u64() % 80) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut ours = Sip24::new(k0, k1, false);
            // Feed the message in random pieces, as byte slices or as
            // words: neither the split nor the path may matter.
            let mut at = 0;
            while at < len {
                let n = 1 + (rng.next_u64() % 11) as usize;
                let end = (at + n).min(len);
                if end - at <= 8 && rng.next_bool() {
                    let mut word = [0u8; 8];
                    word[..end - at].copy_from_slice(&bytes[at..end]);
                    ours.write_word(u64::from_le_bytes(word), end - at);
                } else {
                    ours.write(&bytes[at..end]);
                }
                at = end;
            }
            assert_eq!(ours.finish64(), std_sip(k0, k1, &bytes), "case {case}");
        }
    }

    #[test]
    fn the_128_bit_form_matches_the_reference_vector() {
        // SipHash-2-4-128, key 00..0f, empty message: the first entry of
        // the reference implementation's `vectors_sip128`.
        let key: Vec<u8> = (0..16).collect();
        let k0 = u64::from_le_bytes(key[..8].try_into().unwrap());
        let k1 = u64::from_le_bytes(key[8..].try_into().unwrap());
        let want = [
            0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
            0x02, 0x93,
        ];
        assert_eq!(Sip24::new(k0, k1, true).finish128().to_le_bytes(), want);
    }
}
