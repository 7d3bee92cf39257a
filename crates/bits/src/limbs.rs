//! Allocation-free operations on raw limb slices.
//!
//! A value of width `w` is `ceil(w / 64)` little-endian `u64` limbs with
//! every bit at or above `w` zero — exactly the [`Bv`](crate::Bv)
//! representation, but borrowed from a caller-owned arena instead of an
//! owned `Vec`. Simulation engines that keep all signal values in one
//! flat arena use these helpers to evaluate multi-limb operators in
//! place, without a heap allocation per operation; [`Bv`](crate::Bv)
//! itself remains the semantic oracle (every helper here is
//! differential-tested against it).
//!
//! All functions require `dst.len() == ceil(width / 64)` (and the
//! matching invariant for operands) and re-establish the excess-bit
//! invariant on the destination. Every precondition is checked with a
//! `debug_assert!` so a violating caller fails loudly in test builds;
//! release builds additionally index through [`limbs_for`] (never
//! through `slice.len()`) so an over-long slice cannot silently shift
//! which limb gets masked or compared. Operand aliasing with `dst` is
//! allowed only where documented on each helper — the batched lane
//! engine hands out disjoint sub-slices of one arena, so the contract
//! must be explicit per function.

/// The number of limbs a `width`-bit value occupies. Zero-width values
/// occupy zero limbs.
pub fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Masks bits at or above `width` in the top limb of `dst`.
///
/// Contract: `dst.len() == limbs_for(width)`. `width == 0` (empty `dst`)
/// is a no-op. Aliasing: unary in-place by construction.
pub fn mask_top(dst: &mut [u64], width: u32) {
    debug_assert_eq!(dst.len(), limbs_for(width), "mask_top: dst/width mismatch");
    let rem = width % 64;
    if rem != 0 {
        // Index via limbs_for, not dst.len(): on a (contract-violating)
        // over-long slice the top *value* limb must be masked, not the
        // slice's last limb.
        dst[limbs_for(width) - 1] &= (1u64 << rem) - 1;
    }
}

/// Copies `src` into `dst` (same width; slices must be equal length).
///
/// Aliasing: `src` must not alias `dst` (distinct borrows).
pub fn copy(dst: &mut [u64], src: &[u64]) {
    dst.copy_from_slice(src);
}

/// Whether every limb is zero. Vacuously true for an empty slice
/// (a zero-width value).
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Whether all `width` bits are one. Vacuously true for `width == 0`.
///
/// Contract: `a.len() == limbs_for(width)`. Only the `width` value bits
/// are inspected — computed from `width`, never from `a.len()`, so an
/// over-long slice cannot make a full value look partial.
pub fn is_ones(a: &[u64], width: u32) -> bool {
    debug_assert_eq!(a.len(), limbs_for(width), "is_ones: a/width mismatch");
    if width == 0 {
        return true;
    }
    let rem = width % 64;
    let n = limbs_for(width);
    let full = if rem == 0 { n } else { n - 1 };
    a[..full].iter().all(|&l| l == u64::MAX) && (rem == 0 || a[n - 1] == (1u64 << rem) - 1)
}

/// The parity (reduction XOR) of all bits.
pub fn red_xor(a: &[u64]) -> bool {
    a.iter().map(|l| l.count_ones()).sum::<u32>() % 2 == 1
}

/// The most significant (sign) bit of a `width`-bit value.
///
/// Contract: `width > 0` and `a.len() == limbs_for(width)`. A zero-width
/// value has no sign bit; release builds return `false` instead of
/// underflowing `width - 1` into an out-of-bounds index.
pub fn msb(a: &[u64], width: u32) -> bool {
    debug_assert!(width > 0, "msb: zero-width value has no sign bit");
    debug_assert_eq!(a.len(), limbs_for(width), "msb: a/width mismatch");
    if width == 0 {
        return false;
    }
    let i = width - 1;
    (a[(i / 64) as usize] >> (i % 64)) & 1 == 1
}

/// `dst = a & b` (equal widths; `a`/`b` may alias `dst`).
pub fn and(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len());
    for i in 0..dst.len() {
        dst[i] = a[i] & b[i];
    }
}

/// `dst = a | b` (equal widths; `a`/`b` may alias `dst`).
pub fn or(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len());
    for i in 0..dst.len() {
        dst[i] = a[i] | b[i];
    }
}

/// `dst = a ^ b` (equal widths; `a`/`b` may alias `dst`).
pub fn xor(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len());
    for i in 0..dst.len() {
        dst[i] = a[i] ^ b[i];
    }
}

/// `dst = !a` at the given width (`a` may alias `dst`).
pub fn not(dst: &mut [u64], a: &[u64], width: u32) {
    debug_assert!(a.len() == dst.len() && dst.len() == limbs_for(width));
    for i in 0..dst.len() {
        dst[i] = !a[i];
    }
    mask_top(dst, width);
}

/// `dst = (a + b) mod 2^width` (equal widths; `a`/`b` may alias `dst`).
pub fn add(dst: &mut [u64], a: &[u64], b: &[u64], width: u32) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len() && dst.len() == limbs_for(width));
    let mut carry = 0u64;
    for i in 0..dst.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        dst[i] = s2;
        carry = (c1 | c2) as u64;
    }
    mask_top(dst, width);
}

/// `dst = (a - b) mod 2^width` (equal widths; `a`/`b` may alias `dst`).
pub fn sub(dst: &mut [u64], a: &[u64], b: &[u64], width: u32) {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len() && dst.len() == limbs_for(width));
    let mut borrow = 0u64;
    for i in 0..dst.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        dst[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    mask_top(dst, width);
}

/// `dst = (-a) mod 2^width` (`a` may alias `dst`).
pub fn neg(dst: &mut [u64], a: &[u64], width: u32) {
    debug_assert!(a.len() == dst.len() && dst.len() == limbs_for(width));
    let mut carry = 1u64;
    for i in 0..dst.len() {
        let (s, c) = (!a[i]).overflowing_add(carry);
        dst[i] = s;
        carry = c as u64;
    }
    mask_top(dst, width);
}

/// Unsigned `a < b` (equal widths).
pub fn ult(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// Signed (two's-complement) `a < b` at the given width (equal widths).
pub fn slt(a: &[u64], b: &[u64], width: u32) -> bool {
    match (msb(a, width), msb(b, width)) {
        (true, false) => true,
        (false, true) => false,
        _ => ult(a, b),
    }
}

/// Zero-extends `src` (of `src_width`) into `dst` (of a width at least
/// `src_width`; `dst` may be longer than `src`).
///
/// Aliasing: `src` must not alias `dst` (distinct borrows).
pub fn zext(dst: &mut [u64], src: &[u64]) {
    debug_assert!(dst.len() >= src.len());
    dst[..src.len()].copy_from_slice(src);
    dst[src.len()..].fill(0);
}

/// Sign-extends `src` (of `src_width`) into `dst` (of `dst_width >=
/// src_width`).
///
/// Aliasing: `src` must not alias `dst` (distinct borrows).
pub fn sext(dst: &mut [u64], src: &[u64], src_width: u32, dst_width: u32) {
    debug_assert!(dst_width >= src_width && src_width > 0);
    debug_assert!(src.len() == limbs_for(src_width) && dst.len() == limbs_for(dst_width));
    if !msb(src, src_width) {
        zext(dst, src);
        return;
    }
    dst[..src.len()].copy_from_slice(src);
    // Fill bits src_width.. with ones: the partial top limb of src, then
    // whole limbs above it.
    let rem = src_width % 64;
    if rem != 0 {
        dst[src.len() - 1] |= !((1u64 << rem) - 1);
    }
    dst[src.len()..].fill(u64::MAX);
    mask_top(dst, dst_width);
}

/// The inclusive part-select `src[hi:lo]` into `dst` (of width
/// `hi - lo + 1`).
///
/// Aliasing: `src` must not alias `dst` (distinct borrows).
pub fn slice(dst: &mut [u64], src: &[u64], hi: u32, lo: u32) {
    debug_assert!(hi >= lo);
    debug_assert_eq!(dst.len(), limbs_for(hi - lo + 1));
    let out_width = hi - lo + 1;
    let limb_off = (lo / 64) as usize;
    let bit_off = lo % 64;
    for (i, d) in dst.iter_mut().enumerate() {
        let lo_part = src.get(limb_off + i).copied().unwrap_or(0) >> bit_off;
        let hi_part = if bit_off == 0 {
            0
        } else {
            src.get(limb_off + i + 1).copied().unwrap_or(0) << (64 - bit_off)
        };
        *d = lo_part | hi_part;
    }
    mask_top(dst, out_width);
}

/// Concatenation `{hi, lo}` into `dst` (of width `hi_width + lo_width`;
/// `hi` becomes the most significant bits).
///
/// Aliasing: `hi`/`lo` must not alias `dst` (distinct borrows).
pub fn concat(dst: &mut [u64], hi: &[u64], hi_width: u32, lo: &[u64], lo_width: u32) {
    debug_assert!(hi.len() == limbs_for(hi_width) && lo.len() == limbs_for(lo_width));
    debug_assert_eq!(dst.len(), limbs_for(hi_width + lo_width));
    zext(dst, lo);
    let limb_off = (lo_width / 64) as usize;
    let bit_off = lo_width % 64;
    for (i, &h) in hi.iter().enumerate() {
        dst[limb_off + i] |= h << bit_off;
        if bit_off != 0 && limb_off + i + 1 < dst.len() {
            dst[limb_off + i + 1] |= h >> (64 - bit_off);
        }
    }
    mask_top(dst, hi_width + lo_width);
}

// ---------------------------------------------------------------------
// Lane-transposed ("bit-sliced") scenario groups.
//
// A lane group packs LANES independent scenarios of one `width`-bit
// signal into `width` limbs: limb `i` holds bit `i` of the signal, one
// bit per scenario lane (`slices[i] >> lane & 1`). Bitwise operators
// then evaluate all 64 scenarios with one limb op per signal bit — the
// batched-simulation representation (ROADMAP: "evaluate 64 scenarios
// per instruction").

/// The number of scenario lanes a lane-transposed group packs: one per
/// bit of a `u64` limb.
pub const LANES: usize = 64;

/// In-place 64×64 bit-matrix transpose: afterwards, bit `j` of `m[i]`
/// is what bit `i` of `m[j]` was. Self-inverse. This is the bridge
/// between value form (one `u64` per lane) and lane form (one `u64` per
/// bit position); Hacker's Delight §7-3 generalized to 64×64.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j as usize]) & mask;
            m[k] ^= t << j;
            m[k + j as usize] ^= t;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Writes value-form `src` (`limbs_for(width)` limbs) into lane `lane`
/// of the lane group `slices` (`width` limbs). Bits of `src` at or
/// above `width` must be zero (the usual excess-bit invariant).
///
/// Aliasing: `src` must not alias `slices` (distinct borrows).
pub fn lane_insert(slices: &mut [u64], width: u32, lane: usize, src: &[u64]) {
    debug_assert!(lane < LANES);
    debug_assert_eq!(slices.len(), width as usize);
    debug_assert_eq!(src.len(), limbs_for(width));
    let m = 1u64 << lane;
    for (i, s) in slices.iter_mut().enumerate() {
        let bit = (src[i / 64] >> (i % 64)) & 1;
        *s = (*s & !m) | (bit << lane);
    }
}

/// Reads lane `lane` of the lane group `slices` (`width` limbs) into
/// value-form `dst` (`limbs_for(width)` limbs; excess bits zeroed).
///
/// Aliasing: `slices` must not alias `dst` (distinct borrows).
pub fn lane_extract(slices: &[u64], width: u32, lane: usize, dst: &mut [u64]) {
    debug_assert!(lane < LANES);
    debug_assert_eq!(slices.len(), width as usize);
    debug_assert_eq!(dst.len(), limbs_for(width));
    dst.fill(0);
    for (i, s) in slices.iter().enumerate() {
        dst[i / 64] |= ((s >> lane) & 1) << (i % 64);
    }
}

/// Broadcasts value-form `src` into every lane of the group `slices`:
/// each bit slice becomes all-ones or all-zeros.
///
/// Aliasing: `src` must not alias `slices` (distinct borrows).
pub fn lane_splat(slices: &mut [u64], width: u32, src: &[u64]) {
    debug_assert_eq!(slices.len(), width as usize);
    debug_assert_eq!(src.len(), limbs_for(width));
    for (i, s) in slices.iter_mut().enumerate() {
        *s = if (src[i / 64] >> (i % 64)) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
    }
}

/// Packs all 64 lanes at once: `lanes_flat` holds the per-lane values
/// lane-major (`LANES * limbs_for(width)` limbs, lane `l`'s value at
/// `lanes_flat[l * limbs_for(width)..]`), `dst` is the lane group
/// (`width` limbs). One 64×64 transpose per 64-bit chunk — ~64× faster
/// than 64 [`lane_insert`]s.
///
/// Aliasing: `lanes_flat` must not alias `dst` (distinct borrows).
pub fn lane_pack(dst: &mut [u64], width: u32, lanes_flat: &[u64]) {
    let stride = limbs_for(width);
    debug_assert_eq!(dst.len(), width as usize);
    debug_assert_eq!(lanes_flat.len(), LANES * stride);
    let mut block = [0u64; 64];
    for chunk in 0..stride {
        for lane in 0..LANES {
            block[lane] = lanes_flat[lane * stride + chunk];
        }
        transpose64(&mut block);
        let base = chunk * 64;
        let n = (width as usize - base).min(64);
        dst[base..base + n].copy_from_slice(&block[..n]);
    }
}

/// Unpacks all 64 lanes at once: the inverse of [`lane_pack`]
/// (same layout contract; excess bits of each lane value come out
/// zero).
///
/// Aliasing: `src` must not alias `lanes_flat` (distinct borrows).
pub fn lane_unpack(src: &[u64], width: u32, lanes_flat: &mut [u64]) {
    let stride = limbs_for(width);
    debug_assert_eq!(src.len(), width as usize);
    debug_assert_eq!(lanes_flat.len(), LANES * stride);
    let mut block = [0u64; 64];
    for chunk in 0..stride {
        let base = chunk * 64;
        let n = (width as usize - base).min(64);
        block[..n].copy_from_slice(&src[base..base + n]);
        block[n..].fill(0);
        transpose64(&mut block);
        for lane in 0..LANES {
            lanes_flat[lane * stride + chunk] = block[lane];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bv, SplitMix64};

    fn random_bv(rng: &mut SplitMix64, width: u32) -> Bv {
        let bits: Vec<bool> = (0..width).map(|_| rng.next_u64() & 1 == 1).collect();
        Bv::from_bits_lsb(&bits)
    }

    const WIDTHS: [u32; 8] = [1, 7, 63, 64, 65, 127, 128, 200];

    #[test]
    fn binary_ops_match_bv_oracle() {
        let mut rng = SplitMix64::new(0xB175);
        for &w in &WIDTHS {
            for _ in 0..50 {
                let a = random_bv(&mut rng, w);
                let b = random_bv(&mut rng, w);
                let mut dst = vec![0u64; limbs_for(w)];
                for (f, oracle) in [
                    (and as fn(&mut [u64], &[u64], &[u64]), a.and(&b)),
                    (or, a.or(&b)),
                    (xor, a.xor(&b)),
                ] {
                    f(&mut dst, a.limbs(), b.limbs());
                    assert_eq!(Bv::from_limbs(w, &dst), oracle, "w={w}");
                }
                add(&mut dst, a.limbs(), b.limbs(), w);
                assert_eq!(Bv::from_limbs(w, &dst), a.wrapping_add(&b), "add w={w}");
                sub(&mut dst, a.limbs(), b.limbs(), w);
                assert_eq!(Bv::from_limbs(w, &dst), a.wrapping_sub(&b), "sub w={w}");
                assert_eq!(ult(a.limbs(), b.limbs()), a.ult(&b), "ult w={w}");
                assert_eq!(slt(a.limbs(), b.limbs(), w), a.slt(&b), "slt w={w}");
            }
        }
    }

    #[test]
    fn unary_ops_match_bv_oracle() {
        let mut rng = SplitMix64::new(0xCAFE);
        for &w in &WIDTHS {
            for _ in 0..50 {
                let a = random_bv(&mut rng, w);
                let mut dst = vec![0u64; limbs_for(w)];
                not(&mut dst, a.limbs(), w);
                assert_eq!(Bv::from_limbs(w, &dst), a.not(), "not w={w}");
                neg(&mut dst, a.limbs(), w);
                assert_eq!(Bv::from_limbs(w, &dst), a.wrapping_neg(), "neg w={w}");
                assert_eq!(is_zero(a.limbs()), a.is_zero());
                assert_eq!(is_ones(a.limbs(), w), a.is_ones());
                assert_eq!(red_xor(a.limbs()), a.reduce_xor());
                assert_eq!(msb(a.limbs(), w), a.msb());
            }
        }
    }

    #[test]
    fn extend_slice_concat_match_bv_oracle() {
        let mut rng = SplitMix64::new(0x5EED);
        for &w in &WIDTHS {
            for _ in 0..50 {
                let a = random_bv(&mut rng, w);
                let wide = w + 1 + (rng.next_u64() % 130) as u32;
                let mut dst = vec![0u64; limbs_for(wide)];
                zext(&mut dst, a.limbs());
                assert_eq!(Bv::from_limbs(wide, &dst), a.zext(wide), "zext {w}->{wide}");
                sext(&mut dst, a.limbs(), w, wide);
                assert_eq!(Bv::from_limbs(wide, &dst), a.sext(wide), "sext {w}->{wide}");

                let hi = (rng.next_u64() % w as u64) as u32;
                let lo = (rng.next_u64() % (hi + 1) as u64) as u32;
                let mut dst = vec![0u64; limbs_for(hi - lo + 1)];
                slice(&mut dst, a.limbs(), hi, lo);
                assert_eq!(
                    Bv::from_limbs(hi - lo + 1, &dst),
                    a.slice(hi, lo),
                    "slice {w}[{hi}:{lo}]"
                );

                let b = random_bv(&mut rng, wide);
                let mut dst = vec![0u64; limbs_for(w + wide)];
                concat(&mut dst, a.limbs(), w, b.limbs(), wide);
                assert_eq!(
                    Bv::from_limbs(w + wide, &dst),
                    a.concat(&b),
                    "concat {w}+{wide}"
                );
            }
        }
    }

    #[test]
    fn zero_width_edge_cases_do_not_panic() {
        // width == 0: empty slices, vacuous results, no underflow.
        let mut empty: [u64; 0] = [];
        mask_top(&mut empty, 0);
        assert!(is_zero(&empty));
        assert!(is_ones(&empty, 0));
        assert!(!red_xor(&empty));
        assert_eq!(limbs_for(0), 0);
    }

    // Asserts a `debug_assert!`, so it only runs where those are on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "msb: zero-width value has no sign bit")]
    fn msb_of_zero_width_asserts_in_debug() {
        let empty: [u64; 0] = [];
        let _ = msb(&empty, 0);
    }

    // Asserts a `debug_assert!`, so it only runs where those are on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is_ones: a/width mismatch")]
    fn is_ones_rejects_overlong_slice_in_debug() {
        // A slice longer than limbs_for(width) used to be silently
        // misinterpreted (the top-limb check landed on the wrong limb).
        let _ = is_ones(&[u64::MAX, 0xDEAD], 64);
    }

    // Asserts a `debug_assert!`, so it only runs where those are on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mask_top: dst/width mismatch")]
    fn mask_top_rejects_overlong_slice_in_debug() {
        let mut v = [u64::MAX, u64::MAX];
        mask_top(&mut v, 7);
    }

    #[test]
    fn transpose64_is_the_bit_matrix_transpose() {
        let mut rng = SplitMix64::new(0x7A95);
        let mut m: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let orig = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &orig_row) in orig.iter().enumerate() {
                assert_eq!(
                    (row >> j) & 1,
                    (orig_row >> i) & 1,
                    "transposed bit ({i},{j})"
                );
            }
        }
        // Self-inverse.
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn lane_insert_extract_round_trip() {
        let mut rng = SplitMix64::new(0x1A7E5);
        for &w in &WIDTHS {
            let vals: Vec<Bv> = (0..LANES).map(|_| random_bv(&mut rng, w)).collect();
            let mut group = vec![0u64; w as usize];
            for (lane, v) in vals.iter().enumerate() {
                lane_insert(&mut group, w, lane, v.limbs());
            }
            let mut out = vec![0u64; limbs_for(w)];
            for (lane, v) in vals.iter().enumerate() {
                lane_extract(&group, w, lane, &mut out);
                assert_eq!(Bv::from_limbs(w, &out), *v, "w={w} lane={lane}");
            }
            // Per-bit view: slice i holds bit i across lanes.
            for (i, s) in group.iter().enumerate() {
                for (lane, v) in vals.iter().enumerate() {
                    assert_eq!((s >> lane) & 1 == 1, v.bit(i as u32), "bit {i} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn lane_pack_unpack_match_per_lane_helpers() {
        let mut rng = SplitMix64::new(0x9ACC);
        for &w in &WIDTHS {
            let stride = limbs_for(w);
            let vals: Vec<Bv> = (0..LANES).map(|_| random_bv(&mut rng, w)).collect();
            let mut flat = vec![0u64; LANES * stride];
            for (lane, v) in vals.iter().enumerate() {
                flat[lane * stride..][..stride].copy_from_slice(v.limbs());
            }
            let mut packed = vec![0u64; w as usize];
            lane_pack(&mut packed, w, &flat);
            let mut by_insert = vec![0u64; w as usize];
            for (lane, v) in vals.iter().enumerate() {
                lane_insert(&mut by_insert, w, lane, v.limbs());
            }
            assert_eq!(packed, by_insert, "w={w}");
            let mut unflat = vec![0u64; LANES * stride];
            lane_unpack(&packed, w, &mut unflat);
            assert_eq!(unflat, flat, "w={w}");
        }
    }

    #[test]
    fn lane_splat_broadcasts() {
        let v = Bv::from_u64(9, 0b1_0110_1001);
        let mut group = vec![0u64; 9];
        lane_splat(&mut group, 9, v.limbs());
        for lane in [0usize, 17, 63] {
            let mut out = vec![0u64; 1];
            lane_extract(&group, 9, lane, &mut out);
            assert_eq!(Bv::from_limbs(9, &out), v);
        }
    }

    #[test]
    fn from_limbs_round_trips_and_masks() {
        let v = Bv::from_limbs(7, &[0xFFFF]);
        assert_eq!(v, Bv::ones(7));
        let w = Bv::from_u128(100, 0x0123_4567_89AB_CDEF_0011_2233);
        assert_eq!(Bv::from_limbs(100, w.limbs()), w);
    }
}
