//! Soundness of four-state (X) propagation: for every completion of the
//! unknown bits of the operands, the concrete 2-state result must be
//! *covered* by the four-state result (agree on every bit the four-state
//! result claims to know).
//!
//! Uses the crate's own `SplitMix64` so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use dfv_bits::{Bv, SplitMix64, Xv};

/// Cases per property.
const CASES: u64 = 400;

/// Builds a partial value from (value bits, known mask) seeds.
fn xv(width: u32, value: u64, known: u64) -> Xv {
    Xv::with_mask(&Bv::from_u64(width, value), &Bv::from_u64(width, known))
}

/// A random partial value of width `w`.
fn random_xv(rng: &mut SplitMix64, w: u32) -> Xv {
    xv(w, rng.next_u64(), rng.next_u64())
}

/// Completes an Xv's unknown bits from a fill pattern.
fn complete(x: &Xv, fill: u64) -> Bv {
    let w = x.width();
    let known = x.known_mask();
    let fill = Bv::from_u64(w, fill);
    x.value_bits().and(&known).or(&fill.and(&known.not()))
}

/// Checks the covering relation: wherever `x` claims a known bit, the
/// concrete result must agree.
fn covers(x: &Xv, concrete: &Bv) -> bool {
    let known = x.known_mask();
    x.value_bits().and(&known) == concrete.and(&known)
}

#[test]
fn binary_ops_are_sound() {
    let mut rng = SplitMix64::new(0xF5_0001);
    for case in 0..CASES {
        let w = rng.range_u64(1, 16) as u32;
        let (a, b) = (random_xv(&mut rng, w), random_xv(&mut rng, w));
        let (ca, cb) = (complete(&a, rng.next_u64()), complete(&b, rng.next_u64()));
        assert!(covers(&a.and(&b), &ca.and(&cb)), "case {case}: and");
        assert!(covers(&a.or(&b), &ca.or(&cb)), "case {case}: or");
        assert!(covers(&a.xor(&b), &ca.xor(&cb)), "case {case}: xor");
        assert!(covers(&a.not(), &ca.not()), "case {case}: not");
        assert!(
            covers(&a.add(&b), &ca.wrapping_add(&cb)),
            "case {case}: add"
        );
    }
}

#[test]
fn mux_is_sound() {
    let mut rng = SplitMix64::new(0xF5_0002);
    for case in 0..CASES {
        let w = rng.range_u64(1, 16) as u32;
        let (a, b) = (random_xv(&mut rng, w), random_xv(&mut rng, w));
        let (sel_known, sel_val) = (rng.next_bool(), rng.next_bool());
        let s = if sel_known {
            Xv::from_bv(&Bv::from_bool(sel_val))
        } else {
            Xv::unknown(1)
        };
        let m = Xv::mux(&s, &a, &b);
        let concrete_sel = if sel_known { sel_val } else { rng.next_bool() };
        let (fa, fb) = (rng.next_u64(), rng.next_u64());
        let concrete = if concrete_sel {
            complete(&a, fa)
        } else {
            complete(&b, fb)
        };
        assert!(covers(&m, &concrete), "case {case}");
    }
}

#[test]
fn fully_known_ops_are_exact() {
    let mut rng = SplitMix64::new(0xF5_0003);
    for case in 0..CASES {
        let w = rng.range_u64(1, 16) as u32;
        let (a, b) = (
            Bv::from_u64(w, rng.next_u64()),
            Bv::from_u64(w, rng.next_u64()),
        );
        let (xa, xb) = (Xv::from_bv(&a), Xv::from_bv(&b));
        assert_eq!(
            xa.add(&xb).try_to_bv().unwrap(),
            a.wrapping_add(&b),
            "case {case}"
        );
        assert_eq!(xa.and(&xb).try_to_bv().unwrap(), a.and(&b), "case {case}");
        assert_eq!(xa.xor(&xb).try_to_bv().unwrap(), a.xor(&b), "case {case}");
    }
}
