//! The full-IEEE soft FPU must be bit-exact with the host FPU on *random
//! bit patterns* (including denormals, infinities, and NaNs), for add, sub,
//! and mul at binary32.
//!
//! Uses the in-tree `SplitMix64` so the suite runs offline; the seeds are
//! fixed, making every run reproducible.

use dfv_bits::SplitMix64;
use dfv_float::{FloatFeatures, FloatFormat, FpUnit};

/// Cases per property.
const CASES: u64 = 2000;

/// A soft-FPU operation paired with its host twin and a name.
type OpPair = (
    fn(&FpUnit, u64, u64) -> u64,
    fn(f32, f32) -> f32,
    &'static str,
);

fn unit() -> FpUnit {
    FpUnit::new(FloatFormat::IEEE_SINGLE, FloatFeatures::FULL_IEEE)
}

/// Runs `check` on `CASES` cases drawn from a generator seeded with
/// `seed`.
fn cases(seed: u64, mut check: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        check(&mut rng);
    }
}

fn check(u: &FpUnit, a: u32, b: u32) {
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    let ops: [OpPair; 3] = [
        (FpUnit::add, |x, y| x + y, "add"),
        (FpUnit::sub, |x, y| x - y, "sub"),
        (FpUnit::mul, |x, y| x * y, "mul"),
    ];
    for (soft, native, name) in ops {
        let got = soft(u, u64::from(a), u64::from(b));
        let expect = native(fa, fb);
        if expect.is_nan() {
            assert!(
                u.is_nan(got),
                "{name}({fa:e}, {fb:e}) should be NaN, got {got:#x}"
            );
        } else {
            assert_eq!(
                got,
                u64::from(expect.to_bits()),
                "{}({:e} [{:#010x}], {:e} [{:#010x}]) = {:e}, native {:e}",
                name,
                fa,
                a,
                fb,
                b,
                u.to_f32(got),
                expect
            );
        }
    }
}

#[test]
fn random_patterns_match_host_fpu() {
    let u = unit();
    cases(0xF10A_0001, |rng| check(&u, rng.next_u32(), rng.next_u32()));
}

#[test]
fn near_patterns_match_host_fpu() {
    let u = unit();
    cases(0xF10A_0002, |rng| {
        let a = rng.next_u32();
        let delta = rng.below(8) as u32;
        // Values close to each other stress cancellation and rounding ties.
        check(&u, a, a.wrapping_add(delta));
        check(&u, a, a ^ 0x8000_0000); // exact negation
    });
}

#[test]
fn denormal_region_matches_host_fpu() {
    let u = unit();
    cases(0xF10A_0003, |rng| {
        let a = rng.below(0x0100_0000) as u32 | u32::from(rng.next_bool()) << 31;
        let b = rng.below(0x0100_0000) as u32 | u32::from(rng.next_bool()) << 31;
        check(&u, a, b);
    });
}

#[test]
fn from_f32_roundtrips() {
    let u = unit();
    cases(0xF10A_0004, |rng| {
        let a = rng.next_u32();
        let f = f32::from_bits(a);
        let enc = u.from_f32(f);
        if f.is_nan() {
            assert!(u.is_nan(enc));
        } else {
            assert_eq!(enc, u64::from(a), "roundtrip of {f:e}");
            assert_eq!(u.to_f32(enc).to_bits(), a);
        }
    });
}

#[test]
fn reduced_unit_never_produces_specials() {
    let h = FpUnit::new(FloatFormat::IEEE_SINGLE, FloatFeatures::REDUCED_HARDWARE);
    cases(0xF10A_0005, |rng| {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        for r in [h.add(a.into(), b.into()), h.mul(a.into(), b.into())] {
            let f = f32::from_bits(r as u32);
            assert!(f.is_finite(), "reduced unit produced {f:e}");
            // No denormal outputs either.
            assert!(f == 0.0 || f.abs() >= f32::MIN_POSITIVE);
        }
    });
}
