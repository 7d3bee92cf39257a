//! Property tests: `Bv` must agree with native integer arithmetic on
//! widths up to 64 (128 for add/sub), and ring/structural axioms must
//! hold at any width.
//!
//! Uses the crate's own `SplitMix64` so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use dfv_bits::{Bv, Fx, OverflowMode, RoundingMode, SplitMix64};

/// Cases per property.
const CASES: u64 = 256;

/// A random `u64`, one time in four an edge value (0, 1, all-ones, the
/// sign bit alone or everything below it) that uniform draws almost
/// never hit.
fn word(rng: &mut SplitMix64) -> u64 {
    const EDGES: [u64; 5] = [0, 1, u64::MAX, 1 << 63, (1 << 63) - 1];
    if rng.below(4) == 0 {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        rng.next_u64()
    }
}

/// A random vector of width 1..=200.
fn random_bv(rng: &mut SplitMix64) -> Bv {
    let w = rng.range_u64(1, 200) as u32;
    random_bv_of(rng, w)
}

/// A random vector of width `w`, 64 bits at a time.
fn random_bv_of(rng: &mut SplitMix64, w: u32) -> Bv {
    let mut v = Bv::zero(w);
    for base in (0..w).step_by(64) {
        let hi = (base + 63).min(w - 1);
        v = v.or(&Bv::from_u64(hi - base + 1, word(rng)).zext(w).shl(base));
    }
    v
}

/// Runs `check` on `CASES` cases drawn from a generator seeded with
/// `seed`, passing the case number for failure messages.
fn cases(seed: u64, mut check: impl FnMut(&mut SplitMix64, u64)) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..CASES {
        check(&mut rng, case);
    }
}

fn mask64(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

#[test]
fn add_matches_u128() {
    cases(0xB5_0001, |rng, case| {
        let w = rng.range_u64(1, 128) as u32;
        let a = u128::from(word(rng)) << 64 | u128::from(word(rng));
        let b = u128::from(word(rng)) << 64 | u128::from(word(rng));
        let (x, y) = (Bv::from_u128(w, a), Bv::from_u128(w, b));
        let mask = if w == 128 {
            u128::MAX
        } else {
            (1u128 << w) - 1
        };
        assert_eq!(
            x.wrapping_add(&y).to_u128(),
            a.wrapping_add(b) & mask,
            "case {case}"
        );
        assert_eq!(
            x.wrapping_sub(&y).to_u128(),
            a.wrapping_sub(b) & mask,
            "case {case}"
        );
    });
}

#[test]
fn mul_matches_u64() {
    cases(0xB5_0002, |rng, case| {
        let w = rng.range_u64(1, 64) as u32;
        let mask = mask64(w);
        let (a, b) = (word(rng) & mask, word(rng) & mask);
        let (x, y) = (Bv::from_u64(w, a), Bv::from_u64(w, b));
        assert_eq!(
            x.wrapping_mul(&y).to_u64(),
            a.wrapping_mul(b) & mask,
            "case {case}"
        );
        assert_eq!(
            x.widening_umul(&y).to_u128(),
            u128::from(a) * u128::from(b),
            "case {case}"
        );
    });
}

#[test]
fn div_matches_u64() {
    cases(0xB5_0003, |rng, case| {
        let w = rng.range_u64(1, 64) as u32;
        let mask = mask64(w);
        let (a, b) = (word(rng) & mask, word(rng) & mask);
        if b == 0 {
            return;
        }
        let (x, y) = (Bv::from_u64(w, a), Bv::from_u64(w, b));
        assert_eq!(x.udiv(&y).to_u64(), a / b, "case {case}");
        assert_eq!(x.urem(&y).to_u64(), a % b, "case {case}");
    });
}

#[test]
fn signed_ops_match_i64() {
    cases(0xB5_0004, |rng, case| {
        let w = rng.range_u64(2, 64) as u32;
        let x = Bv::from_i64(w, word(rng) as i64);
        let y = Bv::from_i64(w, word(rng) as i64);
        let (ax, bx) = (x.to_i64(), y.to_i64());
        if bx == 0 || (ax == i64::MIN && bx == -1) {
            return;
        }
        // The quotient may overflow the w-bit range (MIN / -1); that case
        // wraps, so compare through a re-encode.
        assert_eq!(
            x.sdiv(&y),
            Bv::from_i64(w, ax.wrapping_div(bx)),
            "case {case}"
        );
        assert_eq!(
            x.srem(&y),
            Bv::from_i64(w, ax.wrapping_rem(bx)),
            "case {case}"
        );
        assert_eq!(x.scmp(&y), ax.cmp(&bx), "case {case}");
    });
}

#[test]
fn ring_axioms_any_width() {
    cases(0xB5_0005, |rng, case| {
        let a = random_bv(rng);
        let b = random_bv_of(rng, a.width());
        let zero = Bv::zero(a.width());
        assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a), "case {case}");
        assert_eq!(a.wrapping_mul(&b), b.wrapping_mul(&a), "case {case}");
        assert_eq!(a.wrapping_add(&zero), a, "case {case}");
        assert_eq!(a.wrapping_sub(&a), zero, "case {case}");
        assert_eq!(a.wrapping_add(&a.wrapping_neg()), zero, "case {case}");
        assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a, "case {case}");
    });
}

#[test]
fn same_width_add_is_associative() {
    // Modular addition at a FIXED width is associative; Fig 1's
    // non-associativity appears only when an intermediate is narrower.
    cases(0xB5_0006, |rng, case| {
        let a = random_bv(rng);
        let b = random_bv_of(rng, a.width());
        let c = Bv::from_u64(a.width(), word(rng));
        assert_eq!(
            a.wrapping_add(&b).wrapping_add(&c),
            a.wrapping_add(&b.wrapping_add(&c)),
            "case {case}"
        );
    });
}

#[test]
fn de_morgan() {
    cases(0xB5_0007, |rng, case| {
        let a = random_bv(rng);
        let b = random_bv_of(rng, a.width());
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()), "case {case}");
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()), "case {case}");
        assert_eq!(
            a.xor(&b),
            a.and(&b.not()).or(&a.not().and(&b)),
            "case {case}"
        );
    });
}

#[test]
fn slice_concat_inverse() {
    cases(0xB5_0008, |rng, case| {
        let v = random_bv(rng);
        let w = v.width();
        if w < 2 {
            return;
        }
        let cut = rng.range_u64(1, u64::from(w) - 1) as u32;
        let (hi, lo) = (v.slice(w - 1, cut), v.slice(cut - 1, 0));
        assert_eq!(hi.concat(&lo), v, "case {case}");
    });
}

#[test]
fn extension_preserves_value() {
    cases(0xB5_0009, |rng, case| {
        let v = random_bv(rng);
        let extra = rng.below(100) as u32;
        let z = v.zext(v.width() + extra);
        assert_eq!(z.trunc(v.width()), v, "case {case}");
        let s = v.sext(v.width() + extra);
        assert_eq!(s.trunc(v.width()), v, "case {case}");
        assert_eq!(s.to_i64(), v.to_i64(), "case {case}");
    });
}

#[test]
fn shifts_match_scaling() {
    cases(0xB5_000A, |rng, case| {
        let v = random_bv(rng);
        let s = rng.below(64) as u32;
        let w = v.width();
        if s < w {
            let factor = Bv::from_u64(w, 1).shl(s);
            assert_eq!(v.shl(s), v.wrapping_mul(&factor), "case {case}");
            assert_eq!(v.lshr(s).shl(s), v.and(&Bv::ones(w).shl(s)), "case {case}");
        } else {
            assert_eq!(v.shl(s), Bv::zero(w), "case {case}");
        }
    });
}

#[test]
fn ashr_matches_i64() {
    cases(0xB5_000B, |rng, case| {
        let w = rng.range_u64(2, 64) as u32;
        let x = Bv::from_i64(w, word(rng) as i64);
        let s = rng.below(70) as u32;
        let expect = if s >= w {
            if x.msb() {
                -1
            } else {
                0
            }
        } else {
            // Emulate a w-bit arithmetic shift in i64.
            x.to_i64() >> s
        };
        assert_eq!(x.ashr(s).to_i64(), expect, "case {case}");
    });
}

#[test]
fn parse_display_roundtrip() {
    cases(0xB5_000C, |rng, case| {
        let v = random_bv(rng);
        assert_eq!(v.to_string().parse::<Bv>().unwrap(), v, "case {case}");
        let b = format!("{}'b{:b}", v.width(), v);
        assert_eq!(b.parse::<Bv>().unwrap(), v, "case {case}");
    });
}

#[test]
fn count_ones_consistent() {
    cases(0xB5_000D, |rng, case| {
        let v = random_bv(rng);
        let by_iter = v.iter_bits().filter(|&b| b).count() as u32;
        assert_eq!(v.count_ones(), by_iter, "case {case}");
        assert_eq!(v.not().count_ones(), v.width() - by_iter, "case {case}");
    });
}

#[test]
fn fx_add_exact() {
    cases(0xB5_000E, |rng, case| {
        let (a, b) = (rng.range_i64(-1000, 999), rng.range_i64(-1000, 999));
        let (fa, fb) = (rng.below(6) as u32, rng.below(6) as u32);
        let x = Fx::from_raw(Bv::from_i64(16, a), fa);
        let y = Fx::from_raw(Bv::from_i64(16, b), fb);
        let expect = (a as f64) * 2f64.powi(-(fa as i32)) + (b as f64) * 2f64.powi(-(fb as i32));
        assert!((x.add(&y).to_f64() - expect).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn fx_saturate_brackets() {
    cases(0xB5_000F, |rng, case| {
        let v = rng.range_i64(-4096, 4095);
        let x = Fx::from_raw(Bv::from_i64(16, v), 0);
        let f = x
            .quantize(8, 0, RoundingMode::Truncate, OverflowMode::Saturate)
            .to_f64();
        assert!((-128.0..=127.0).contains(&f), "case {case}");
        if (-128..=127).contains(&v) {
            assert_eq!(f, v as f64, "case {case}");
        }
    });
}
