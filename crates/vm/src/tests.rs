//! Differential tests: every instruction against the `Bv` oracle, plus
//! validation rejection cases.

use super::*;
use dfv_bits::SplitMix64;

fn arena_of(vals: &[u64]) -> Vec<u64> {
    vals.to_vec()
}

fn one_instr(ins: Instr, arena_len: usize) -> Program {
    Program::new(vec![ins], arena_len).expect("valid instr")
}

fn run1(ins: Instr, arena: &mut [u64]) -> bool {
    let p = one_instr(ins, arena.len());
    let mut scratch = Vec::new();
    p.exec_one(0, arena, &mut scratch)
}

/// Oracle for a single-limb binary op via `Bv` (the reference semantics
/// the RTL interpreter uses for wide values).
fn bv_bin(op: NBinOp, a: u64, aw: u32, b: u64, bw: u32) -> u64 {
    let av = Bv::from_u64(aw, a);
    let bv = Bv::from_u64(bw, b);
    let r = match op {
        NBinOp::Add => av.wrapping_add(&bv),
        NBinOp::Sub => av.wrapping_sub(&bv),
        NBinOp::Mul => av.wrapping_mul(&bv),
        NBinOp::UDiv => av.udiv(&bv),
        NBinOp::URem => av.urem(&bv),
        NBinOp::SDiv => av.sdiv(&bv),
        NBinOp::SRem => av.srem(&bv),
        NBinOp::And => av.and(&bv),
        NBinOp::Or => av.or(&bv),
        NBinOp::Xor => av.xor(&bv),
        NBinOp::Shl => av.shl_bv(&bv),
        NBinOp::LShr => av.lshr_bv(&bv),
        NBinOp::AShr => av.ashr_bv(&bv),
        NBinOp::Eq => Bv::from_bool(av.limbs() == bv.limbs()),
        NBinOp::Ne => Bv::from_bool(av.limbs() != bv.limbs()),
        NBinOp::Ult => Bv::from_bool(av.ult(&bv)),
        NBinOp::Ule => Bv::from_bool(!bv.ult(&av)),
        NBinOp::Slt => Bv::from_bool(av.slt(&bv)),
        NBinOp::Sle => Bv::from_bool(!bv.slt(&av)),
    };
    r.to_u64()
}

const SAME_W: [NBinOp; 13] = [
    NBinOp::Add,
    NBinOp::Sub,
    NBinOp::Mul,
    NBinOp::UDiv,
    NBinOp::URem,
    NBinOp::SDiv,
    NBinOp::SRem,
    NBinOp::And,
    NBinOp::Or,
    NBinOp::Xor,
    NBinOp::Eq,
    NBinOp::Ne,
    NBinOp::Ult,
];

fn instr_for(op: NBinOp, w: u8) -> Instr {
    let (dst, a, b) = (2u32, 0u32, 1u32);
    match op {
        NBinOp::Add => Instr::Add1 { dst, a, b, w },
        NBinOp::Sub => Instr::Sub1 { dst, a, b, w },
        NBinOp::Mul => Instr::Mul1 { dst, a, b, w },
        NBinOp::UDiv => Instr::UDiv1 { dst, a, b, w },
        NBinOp::URem => Instr::URem1 { dst, a, b },
        NBinOp::SDiv => Instr::SDiv1 {
            dst,
            a,
            b,
            aw: w,
            bw: w,
        },
        NBinOp::SRem => Instr::SRem1 {
            dst,
            a,
            b,
            aw: w,
            bw: w,
        },
        NBinOp::And => Instr::And1 { dst, a, b },
        NBinOp::Or => Instr::Or1 { dst, a, b },
        NBinOp::Xor => Instr::Xor1 { dst, a, b },
        NBinOp::Shl => Instr::Shl1 { dst, a, b, w },
        NBinOp::LShr => Instr::LShr1 { dst, a, b, w },
        NBinOp::AShr => Instr::AShr1 { dst, a, b, w },
        NBinOp::Eq => Instr::Eq1 { dst, a, b },
        NBinOp::Ne => Instr::Ne1 { dst, a, b },
        NBinOp::Ult => Instr::Ult1 { dst, a, b },
        NBinOp::Ule => Instr::Ule1 { dst, a, b },
        NBinOp::Slt => Instr::Slt1 {
            dst,
            a,
            b,
            aw: w,
            bw: w,
        },
        NBinOp::Sle => Instr::Sle1 {
            dst,
            a,
            b,
            aw: w,
            bw: w,
        },
    }
}

#[test]
fn single_limb_bins_match_bv_oracle() {
    let mut rng = SplitMix64::new(0x1BAD_B002);
    for &w in &[1u8, 2, 7, 8, 31, 32, 33, 63, 64] {
        for _ in 0..200 {
            let a = rng.bits(w as u32);
            let b = rng.bits(w as u32);
            for op in SAME_W
                .iter()
                .chain([NBinOp::Ule, NBinOp::Slt, NBinOp::Sle].iter())
            {
                let mut arena = arena_of(&[a, b, 0xDEAD]);
                run1(instr_for(*op, w), &mut arena);
                assert_eq!(
                    arena[2],
                    bv_bin(*op, a, w as u32, b, w as u32),
                    "op {op:?} w {w} a {a:#x} b {b:#x}"
                );
            }
            // Division by zero paths.
            for op in [NBinOp::UDiv, NBinOp::URem, NBinOp::SDiv, NBinOp::SRem] {
                let mut arena = arena_of(&[a, 0, 0]);
                run1(instr_for(op, w), &mut arena);
                assert_eq!(
                    arena[2],
                    bv_bin(op, a, w as u32, 0, w as u32),
                    "{op:?}/0 w {w}"
                );
            }
        }
    }
}

#[test]
fn single_limb_shifts_match_bv_oracle_incl_oversize_amounts() {
    let mut rng = SplitMix64::new(0x51F7);
    for &w in &[1u8, 7, 32, 63, 64] {
        for amt in 0..=(w as u64 + 3) {
            let a = rng.bits(w as u32);
            for op in [NBinOp::Shl, NBinOp::LShr, NBinOp::AShr] {
                let mut arena = arena_of(&[a, amt, 0]);
                run1(instr_for(op, w), &mut arena);
                assert_eq!(
                    arena[2],
                    bv_bin(op, a, w as u32, amt, w as u32),
                    "{op:?} w {w} amt {amt}"
                );
            }
        }
    }
}

#[test]
fn single_limb_unary_and_structural_match_bv_oracle() {
    let mut rng = SplitMix64::new(0x0DD5);
    for &w in &[1u8, 5, 17, 63, 64] {
        for _ in 0..100 {
            let a = rng.bits(w as u32);
            let av = Bv::from_u64(w as u32, a);

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::Not1 { dst: 1, a: 0, w }, &mut ar);
            assert_eq!(ar[1], av.not().to_u64());

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::Neg1 { dst: 1, a: 0, w }, &mut ar);
            assert_eq!(ar[1], av.wrapping_neg().to_u64());

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::RedAnd1 { dst: 1, a: 0, w }, &mut ar);
            assert_eq!(ar[1], av.reduce_and() as u64);

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::RedOr1 { dst: 1, a: 0 }, &mut ar);
            assert_eq!(ar[1], av.reduce_or() as u64);

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::RedXor1 { dst: 1, a: 0 }, &mut ar);
            assert_eq!(ar[1], av.reduce_xor() as u64);

            let mut ar = arena_of(&[a, 0]);
            run1(Instr::EqZ1 { dst: 1, a: 0 }, &mut ar);
            assert_eq!(ar[1], av.is_zero() as u64);

            // Slice: every (lo, width) pair that fits in the value.
            let lo = (rng.next_u64() % w as u64) as u8;
            let sw = 1 + (rng.next_u64() % (w as u64 - lo as u64)) as u8;
            let mut ar = arena_of(&[a, 0]);
            run1(
                Instr::Slice1 {
                    dst: 1,
                    a: 0,
                    sh: lo,
                    w: sw,
                },
                &mut ar,
            );
            assert_eq!(
                ar[1],
                av.slice(lo as u32 + sw as u32 - 1, lo as u32).to_u64(),
                "slice w {w} lo {lo} sw {sw}"
            );

            // Sext to a wider single-limb width.
            let ow = w + (rng.next_u64() % (64 - w as u64 + 1)) as u8;
            let mut ar = arena_of(&[a, 0]);
            run1(
                Instr::Sext1 {
                    dst: 1,
                    a: 0,
                    aw: w,
                    ow,
                },
                &mut ar,
            );
            assert_eq!(ar[1], av.sext(ow as u32).to_u64(), "sext {w} -> {ow}");
        }
    }
    // Concat within one limb.
    let mut ar = arena_of(&[0xAB, 0xF, 0]);
    run1(
        Instr::Concat1 {
            dst: 2,
            a: 0,
            b: 1,
            sh: 4,
        },
        &mut ar,
    );
    assert_eq!(
        ar[2],
        Bv::from_u64(8, 0xAB).concat(&Bv::from_u64(4, 0xF)).to_u64()
    );
    // Mux picks by the select LSB.
    for sel in [0u64, 1, 2, 3] {
        let mut ar = arena_of(&[sel, 11, 22, 0]);
        run1(
            Instr::Mux1 {
                dst: 3,
                sel: 0,
                t: 1,
                f: 2,
            },
            &mut ar,
        );
        assert_eq!(ar[3], if sel & 1 == 1 { 11 } else { 22 });
    }
}

#[test]
fn const_forms_match_their_two_operand_twins() {
    let mut rng = SplitMix64::new(0xC0457);
    for &w in &[1u8, 9, 40, 64] {
        for _ in 0..100 {
            let a = rng.bits(w as u32);
            let c = rng.bits(w as u32);
            let cases: Vec<(Instr, u64)> = vec![
                (
                    Instr::AddC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                        w,
                    },
                    bv_bin(NBinOp::Add, a, w as u32, c, w as u32),
                ),
                (
                    Instr::SubC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                        w,
                    },
                    bv_bin(NBinOp::Sub, a, w as u32, c, w as u32),
                ),
                (
                    Instr::RSubC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                        w,
                    },
                    bv_bin(NBinOp::Sub, c, w as u32, a, w as u32),
                ),
                (
                    Instr::MulC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                        w,
                    },
                    bv_bin(NBinOp::Mul, a, w as u32, c, w as u32),
                ),
                (
                    Instr::AndC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                    },
                    a & c,
                ),
                (
                    Instr::OrC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                    },
                    a | c,
                ),
                (
                    Instr::XorC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                    },
                    a ^ c,
                ),
                (
                    Instr::EqC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                    },
                    (a == c) as u64,
                ),
                (
                    Instr::NeC1 {
                        dst: 1,
                        a: 0,
                        imm: c,
                    },
                    (a != c) as u64,
                ),
            ];
            for (ins, want) in cases {
                let mut ar = arena_of(&[a, 0]);
                run1(ins, &mut ar);
                assert_eq!(ar[1], want, "{ins:?}");
            }
            let sh = (rng.next_u64() % w as u64) as u8;
            let shift_cases: Vec<(Instr, u64)> = vec![
                (
                    Instr::ShlC1 {
                        dst: 1,
                        a: 0,
                        sh,
                        w,
                    },
                    bv_bin(NBinOp::Shl, a, w as u32, sh as u64, w as u32),
                ),
                (
                    Instr::LShrC1 { dst: 1, a: 0, sh },
                    bv_bin(NBinOp::LShr, a, w as u32, sh as u64, w as u32),
                ),
                (
                    Instr::AShrC1 {
                        dst: 1,
                        a: 0,
                        sh,
                        w,
                    },
                    bv_bin(NBinOp::AShr, a, w as u32, sh as u64, w as u32),
                ),
            ];
            for (ins, want) in shift_cases {
                let mut ar = arena_of(&[a, 0]);
                run1(ins, &mut ar);
                assert_eq!(ar[1], want, "{ins:?} sh {sh}");
            }
        }
    }
}

#[test]
fn fused_pairs_write_both_destinations() {
    let mut rng = SplitMix64::new(0x000F_05ED);
    for _ in 0..200 {
        let w = 1 + (rng.next_u64() % 64) as u8;
        let a = rng.bits(w as u32);
        let b = rng.bits(w as u32);
        let (t, f) = (rng.next_u64(), rng.next_u64());
        for kind in [Cmp::Eq, Cmp::Ne, Cmp::Ult, Cmp::Ule, Cmp::Slt, Cmp::Sle] {
            // arena: a b t f dst_c dst
            let mut ar = arena_of(&[a, b, t, f, 99, 99]);
            run1(
                Instr::CmpMux1 {
                    kind,
                    a: 0,
                    b: 1,
                    aw: w,
                    bw: w,
                    dst_c: 4,
                    t: 2,
                    f: 3,
                    dst: 5,
                },
                &mut ar,
            );
            let c = cmp1(kind, a, w, b, w);
            assert_eq!(ar[4], c, "fused compare slot {kind:?} w {w}");
            assert_eq!(ar[5], if c == 1 { t } else { f }, "fused mux out {kind:?}");
        }

        let sh = (rng.next_u64() % w as u64) as u8;
        let ow = 1 + (rng.next_u64() % (w - sh) as u64) as u8;
        // arena: a b dst_a dst
        let mut ar = arena_of(&[a, b, 99, 99]);
        run1(
            Instr::AddSlice1 {
                a: 0,
                b: 1,
                aw: w,
                dst_a: 2,
                sh,
                ow,
                dst: 3,
            },
            &mut ar,
        );
        let sum = bv_bin(NBinOp::Add, a, w as u32, b, w as u32);
        assert_eq!(ar[2], sum, "fused add slot");
        assert_eq!(ar[3], (sum >> sh) & mask(ow), "fused slice out");

        // Fused multiply-accumulate: p = (a*imm)&mask; dst = (p+b)&mask.
        let imm = rng.bits(w as u32);
        // arena: a b dst_p dst
        let mut ar = arena_of(&[a, b, 99, 99]);
        run1(
            Instr::MulCAdd1 {
                a: 0,
                imm,
                dst_p: 2,
                b: 1,
                dst: 3,
                w,
            },
            &mut ar,
        );
        let p = a.wrapping_mul(imm) & mask(w);
        assert_eq!(ar[2], p, "fused mul slot w {w}");
        assert_eq!(ar[3], p.wrapping_add(b) & mask(w), "fused mac out w {w}");

        // Fused shift-accumulate: p = (a<<sh)&mask; dst = (p+b)&mask.
        let sh = (rng.next_u64() % w as u64) as u8;
        let mut ar = arena_of(&[a, b, 99, 99]);
        run1(
            Instr::ShlCAdd1 {
                a: 0,
                sh,
                dst_p: 2,
                b: 1,
                dst: 3,
                w,
            },
            &mut ar,
        );
        let p = (a << sh) & mask(w);
        assert_eq!(ar[2], p, "fused shl slot w {w} sh {sh}");
        assert_eq!(
            ar[3],
            p.wrapping_add(b) & mask(w),
            "fused sac out w {w} sh {sh}"
        );
    }
}

#[test]
fn aliased_dst_is_safe_for_single_limb_ops() {
    // x = x + x, x = x - x, x = x * x in place — the SLM front-end
    // compiles `x = x + 1`-style updates to dst == a.
    let mut ar = arena_of(&[7, 3]);
    run1(
        Instr::Add1 {
            dst: 0,
            a: 0,
            b: 1,
            w: 8,
        },
        &mut ar,
    );
    assert_eq!(ar[0], 10);
    run1(
        Instr::Sub1 {
            dst: 0,
            a: 0,
            b: 0,
            w: 8,
        },
        &mut ar,
    );
    assert_eq!(ar[0], 0);
    let mut ar = arena_of(&[5]);
    run1(
        Instr::MulC1 {
            dst: 0,
            a: 0,
            imm: 5,
            w: 8,
        },
        &mut ar,
    );
    assert_eq!(ar[0], 25);
}

#[test]
fn change_flag_is_compare_before_write() {
    let mut ar = arena_of(&[1, 2, 0]);
    assert!(run1(
        Instr::Add1 {
            dst: 2,
            a: 0,
            b: 1,
            w: 8
        },
        &mut ar
    ));
    assert!(!run1(
        Instr::Add1 {
            dst: 2,
            a: 0,
            b: 1,
            w: 8
        },
        &mut ar
    ));
    // Fused forms report the FINAL destination's change only.
    let mut ar = arena_of(&[4, 4, 10, 20, 9, 10]);
    let ins = Instr::CmpMux1 {
        kind: Cmp::Eq,
        a: 0,
        b: 1,
        aw: 8,
        bw: 8,
        dst_c: 4,
        t: 2,
        f: 3,
        dst: 5,
    };
    assert!(
        !run1(ins, &mut ar),
        "mux output unchanged, compare slot did change"
    );
    assert_eq!(ar[4], 1, "compare slot still written");
}

#[test]
fn multi_limb_ops_match_bv_oracle_across_width_boundaries() {
    let mut rng = SplitMix64::new(0xB16_B16);
    let mut scratch = Vec::new();
    // The issue's width ladder: 65, 127, 128, 200 (single-limb widths are
    // covered by the `*1` tests above).
    for &w in &[65u16, 127, 128, 200] {
        let l = limbs_for(w as u32);
        for _ in 0..40 {
            let av: Vec<u64> = (0..l).map(|_| rng.next_u64()).collect();
            let bv: Vec<u64> = (0..l).map(|_| rng.next_u64()).collect();
            let a = Bv::from_limbs(w as u32, &av);
            let b = Bv::from_limbs(w as u32, &bv);
            let all = [
                NBinOp::Add,
                NBinOp::Sub,
                NBinOp::Mul,
                NBinOp::UDiv,
                NBinOp::URem,
                NBinOp::SDiv,
                NBinOp::SRem,
                NBinOp::And,
                NBinOp::Or,
                NBinOp::Xor,
                NBinOp::Shl,
                NBinOp::LShr,
                NBinOp::AShr,
                NBinOp::Eq,
                NBinOp::Ne,
                NBinOp::Ult,
                NBinOp::Ule,
                NBinOp::Slt,
                NBinOp::Sle,
            ];
            for op in all {
                let cmp = matches!(
                    op,
                    NBinOp::Eq | NBinOp::Ne | NBinOp::Ult | NBinOp::Ule | NBinOp::Slt | NBinOp::Sle
                );
                let ow = if cmp { 1 } else { w };
                let ol = limbs_for(ow as u32);
                let mut arena = vec![0u64; 3 * l];
                arena[..l].copy_from_slice(a.limbs());
                arena[l..2 * l].copy_from_slice(b.limbs());
                let p = one_instr(
                    Instr::NBin {
                        op,
                        dst: (2 * l) as u32,
                        a: 0,
                        b: l as u32,
                        aw: w,
                        bw: w,
                        ow,
                    },
                    3 * l,
                );
                p.exec_one(0, &mut arena, &mut scratch);
                let want = match op {
                    NBinOp::Add => a.wrapping_add(&b),
                    NBinOp::Sub => a.wrapping_sub(&b),
                    NBinOp::Mul => a.wrapping_mul(&b),
                    NBinOp::UDiv => a.udiv(&b),
                    NBinOp::URem => a.urem(&b),
                    NBinOp::SDiv => a.sdiv(&b),
                    NBinOp::SRem => a.srem(&b),
                    NBinOp::And => a.and(&b),
                    NBinOp::Or => a.or(&b),
                    NBinOp::Xor => a.xor(&b),
                    NBinOp::Shl => a.shl_bv(&b),
                    NBinOp::LShr => a.lshr_bv(&b),
                    NBinOp::AShr => a.ashr_bv(&b),
                    NBinOp::Eq => Bv::from_bool(a.limbs() == b.limbs()),
                    NBinOp::Ne => Bv::from_bool(a.limbs() != b.limbs()),
                    NBinOp::Ult => Bv::from_bool(a.ult(&b)),
                    NBinOp::Ule => Bv::from_bool(!b.ult(&a)),
                    NBinOp::Slt => Bv::from_bool(a.slt(&b)),
                    NBinOp::Sle => Bv::from_bool(!b.slt(&a)),
                };
                assert_eq!(&arena[2 * l..2 * l + ol], want.limbs(), "{op:?} w {w}");
            }

            // Unary.
            for op in [
                NUnOp::Not,
                NUnOp::Neg,
                NUnOp::RedAnd,
                NUnOp::RedOr,
                NUnOp::RedXor,
            ] {
                let red = !matches!(op, NUnOp::Not | NUnOp::Neg);
                let ow = if red { 1 } else { w };
                let ol = limbs_for(ow as u32);
                let mut arena = vec![0u64; 2 * l];
                arena[..l].copy_from_slice(a.limbs());
                let p = one_instr(
                    Instr::NUn {
                        op,
                        dst: l as u32,
                        a: 0,
                        aw: w,
                        ow,
                    },
                    2 * l,
                );
                p.exec_one(0, &mut arena, &mut scratch);
                let want = match op {
                    NUnOp::Not => a.not(),
                    NUnOp::Neg => a.wrapping_neg(),
                    NUnOp::RedAnd => Bv::from_bool(a.reduce_and()),
                    NUnOp::RedOr => Bv::from_bool(a.reduce_or()),
                    NUnOp::RedXor => Bv::from_bool(a.reduce_xor()),
                };
                assert_eq!(&arena[l..l + ol], want.limbs(), "{op:?} w {w}");
            }

            // Slice / zext / sext / concat / mux / copy.
            let lo = (rng.next_u64() % w as u64) as u16;
            let ow = 1 + (rng.next_u64() % (w - lo) as u64) as u16;
            let ol = limbs_for(ow as u32);
            let mut arena = vec![0u64; 2 * l];
            arena[..l].copy_from_slice(a.limbs());
            let p = one_instr(
                Instr::NSlice {
                    dst: l as u32,
                    a: 0,
                    aw: w,
                    lo,
                    ow,
                },
                2 * l,
            );
            p.exec_one(0, &mut arena, &mut scratch);
            assert_eq!(
                &arena[l..l + ol],
                a.slice(lo as u32 + ow as u32 - 1, lo as u32).limbs(),
                "nslice w {w} lo {lo} ow {ow}"
            );

            let xw = w + 64;
            let xl = limbs_for(xw as u32);
            let mut arena = vec![0u64; l + 2 * xl];
            arena[..l].copy_from_slice(a.limbs());
            let pz = one_instr(
                Instr::NZext {
                    dst: l as u32,
                    a: 0,
                    aw: w,
                    ow: xw,
                },
                l + 2 * xl,
            );
            let ps = one_instr(
                Instr::NSext {
                    dst: (l + xl) as u32,
                    a: 0,
                    aw: w,
                    ow: xw,
                },
                l + 2 * xl,
            );
            pz.exec_one(0, &mut arena, &mut scratch);
            ps.exec_one(0, &mut arena, &mut scratch);
            assert_eq!(&arena[l..l + xl], a.zext(xw as u32).limbs(), "nzext w {w}");
            assert_eq!(
                &arena[l + xl..l + 2 * xl],
                a.sext(xw as u32).limbs(),
                "nsext w {w}"
            );

            let cw = w + w;
            let cl = limbs_for(cw as u32);
            let mut arena = vec![0u64; 2 * l + cl];
            arena[..l].copy_from_slice(a.limbs());
            arena[l..2 * l].copy_from_slice(b.limbs());
            let p = one_instr(
                Instr::NConcat {
                    dst: (2 * l) as u32,
                    a: 0,
                    aw: w,
                    b: l as u32,
                    bw: w,
                    ow: cw,
                },
                2 * l + cl,
            );
            p.exec_one(0, &mut arena, &mut scratch);
            assert_eq!(
                &arena[2 * l..2 * l + cl],
                a.concat(&b).limbs(),
                "nconcat w {w}"
            );

            for sel in [0u64, 1] {
                let mut arena = vec![0u64; 1 + 3 * l];
                arena[0] = sel;
                arena[1..1 + l].copy_from_slice(a.limbs());
                arena[1 + l..1 + 2 * l].copy_from_slice(b.limbs());
                let p = one_instr(
                    Instr::NMux {
                        dst: (1 + 2 * l) as u32,
                        sel: 0,
                        t: 1,
                        f: (1 + l) as u32,
                        l: l as u16,
                    },
                    1 + 3 * l,
                );
                p.exec_one(0, &mut arena, &mut scratch);
                let want = if sel == 1 { a.limbs() } else { b.limbs() };
                assert_eq!(&arena[1 + 2 * l..1 + 3 * l], want, "nmux w {w} sel {sel}");
            }

            let mut arena = vec![0u64; 2 * l];
            arena[..l].copy_from_slice(a.limbs());
            let p = one_instr(
                Instr::NCopy {
                    dst: l as u32,
                    a: 0,
                    l: l as u16,
                },
                2 * l,
            );
            assert!(p.exec_one(0, &mut arena, &mut scratch) || a.is_zero());
            assert_eq!(&arena[l..2 * l], a.limbs(), "ncopy w {w}");
        }
    }
}

#[test]
fn wide_shift_amounts_at_and_beyond_width_are_zero_or_signfill() {
    let mut scratch = Vec::new();
    for &w in &[65u16, 128, 200] {
        let l = limbs_for(w as u32);
        let a = Bv::ones(w as u32);
        for amt in [w as u64 - 1, w as u64, w as u64 + 7, 1 << 20] {
            let b = Bv::from_u64(w as u32, amt);
            for op in [NBinOp::Shl, NBinOp::LShr, NBinOp::AShr] {
                let mut arena = vec![0u64; 3 * l];
                arena[..l].copy_from_slice(a.limbs());
                arena[l..2 * l].copy_from_slice(b.limbs());
                let p = one_instr(
                    Instr::NBin {
                        op,
                        dst: (2 * l) as u32,
                        a: 0,
                        b: l as u32,
                        aw: w,
                        bw: w,
                        ow: w,
                    },
                    3 * l,
                );
                p.exec_one(0, &mut arena, &mut scratch);
                let want = match op {
                    NBinOp::Shl => a.shl_bv(&b),
                    NBinOp::LShr => a.lshr_bv(&b),
                    NBinOp::AShr => a.ashr_bv(&b),
                    _ => unreachable!(),
                };
                assert_eq!(&arena[2 * l..3 * l], want.limbs(), "{op:?} w {w} amt {amt}");
            }
        }
    }
}

#[test]
fn validation_rejects_bad_programs() {
    // Out-of-range operand.
    let e = Program::new(vec![Instr::Copy1 { dst: 4, a: 0 }], 4).unwrap_err();
    assert!(e.to_string().contains("outside arena"), "{e}");
    // Zero width.
    assert!(Program::new(
        vec![Instr::Add1 {
            dst: 0,
            a: 1,
            b: 2,
            w: 0
        }],
        3
    )
    .is_err());
    // Width over 64 in a single-limb op.
    assert!(Program::new(
        vec![Instr::Add1 {
            dst: 0,
            a: 1,
            b: 2,
            w: 65
        }],
        3
    )
    .is_err());
    // Slice past the limb.
    assert!(Program::new(
        vec![Instr::Slice1 {
            dst: 0,
            a: 1,
            sh: 60,
            w: 8
        }],
        2
    )
    .is_err());
    // Narrowing "extension".
    assert!(Program::new(
        vec![Instr::Sext1 {
            dst: 0,
            a: 1,
            aw: 32,
            ow: 8
        }],
        2
    )
    .is_err());
    // Multi-limb span that pokes past the arena end.
    assert!(Program::new(vec![Instr::NCopy { dst: 2, a: 0, l: 2 }], 3).is_err());
    // Fused shift-accumulate with the shift at (not below) the width.
    assert!(Program::new(
        vec![Instr::ShlCAdd1 {
            a: 0,
            sh: 8,
            dst_p: 1,
            b: 2,
            dst: 3,
            w: 8
        }],
        4
    )
    .is_err());
    // Concat width mismatch.
    assert!(Program::new(
        vec![Instr::NConcat {
            dst: 4,
            a: 0,
            aw: 65,
            b: 2,
            bw: 64,
            ow: 128
        }],
        7
    )
    .is_err());
    // Error names the instruction index.
    let e = Program::new(
        vec![
            Instr::Const1 { dst: 0, imm: 1 },
            Instr::Copy1 { dst: 9, a: 0 },
        ],
        2,
    )
    .unwrap_err();
    assert_eq!(e.instr, 1);
}

#[test]
fn run_range_executes_straight_line_blocks() {
    // dst2 = (a + b) & 0xff; dst3 = dst2 * 3 — as a two-instr block.
    let p = Program::new(
        vec![
            Instr::Add1 {
                dst: 2,
                a: 0,
                b: 1,
                w: 8,
            },
            Instr::MulC1 {
                dst: 3,
                a: 2,
                imm: 3,
                w: 8,
            },
        ],
        4,
    )
    .unwrap();
    let mut arena = vec![200, 100, 0, 0];
    let mut scratch = Vec::new();
    p.run_range(0, 2, &mut arena, &mut scratch);
    assert_eq!(arena[2], (200 + 100) & 0xff);
    assert_eq!(arena[3], (((200 + 100) & 0xff) * 3) & 0xff);
    // run() covers the whole program.
    let mut arena2 = vec![200, 100, 0, 0];
    p.run(&mut arena2, &mut scratch);
    assert_eq!(arena, arena2);
}

#[test]
#[should_panic(expected = "arena shorter than validated")]
fn exec_refuses_short_arena() {
    let p = Program::new(vec![Instr::Const1 { dst: 3, imm: 1 }], 4).unwrap();
    let mut arena = vec![0u64; 2];
    p.exec_one(0, &mut arena, &mut Vec::new());
}

#[test]
fn indexed_load_store_wrap_modulo_the_array_length() {
    // Array of 3 elements at slots 1..4; slot 0 is the index, slot 4 the
    // value/destination. Every index, including huge ones, wraps mod 3.
    for idx in [0u64, 1, 2, 3, 7, u64::MAX, 1 << 40] {
        let mut arena = arena_of(&[idx, 10, 11, 12, 0]);
        let load = Instr::LoadIdx1 {
            dst: 4,
            a: 1,
            len: 3,
            i: 0,
        };
        run1(load, &mut arena);
        assert_eq!(arena[4], 10 + idx % 3, "load idx {idx}");

        let mut arena = arena_of(&[idx, 10, 11, 12, 99]);
        let store = Instr::StoreIdx1 {
            a: 1,
            len: 3,
            i: 0,
            src: 4,
        };
        assert!(run1(store, &mut arena));
        let mut want = vec![idx, 10, 11, 12, 99];
        want[1 + (idx % 3) as usize] = 99;
        assert_eq!(arena, want, "store idx {idx}");
        // Re-storing the same value reports no change.
        assert!(!run1(store, &mut arena));
    }
}

#[test]
fn indexed_ops_validate_the_whole_array_range() {
    let load = |a, len| Instr::LoadIdx1 {
        dst: 0,
        a,
        len,
        i: 0,
    };
    let store = |a, len| Instr::StoreIdx1 {
        a,
        len,
        i: 0,
        src: 0,
    };
    assert!(Program::new(vec![load(1, 3)], 4).is_ok());
    assert!(Program::new(vec![store(1, 3)], 4).is_ok());
    // base + len past the arena, a zero-length array, operands outside.
    assert!(Program::new(vec![load(2, 3)], 4).is_err());
    assert!(Program::new(vec![store(2, 3)], 4).is_err());
    assert!(Program::new(vec![load(1, 0)], 4).is_err());
    assert!(Program::new(vec![store(1, 0)], 4).is_err());
    assert!(Program::new(
        vec![Instr::LoadIdx1 {
            dst: 4,
            a: 0,
            len: 1,
            i: 0
        }],
        4
    )
    .is_err());
    assert!(Program::new(
        vec![Instr::StoreIdx1 {
            a: 0,
            len: 1,
            i: 4,
            src: 0
        }],
        4
    )
    .is_err());
}
