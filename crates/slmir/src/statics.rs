//! Static values: the scalars the elaborator evaluates while it unrolls
//! (loop bounds and steps, `if` conditions, constant array indices).
//!
//! A [`Static`] is a plain `u128` and its type, so evaluating a bound
//! costs integer arithmetic rather than [`Bv`] construction. Every
//! operator mirrors the interpreter's [`eval_binop`] bit for bit; the
//! two rare operators whose corner cases are subtle (`/` and `%`) call
//! it directly. The unit tests pin the mirror against the interpreter.

use dfv_bits::Bv;

use crate::ast::{BinOp, ScalarTy, UnOp};
use crate::interp::{eval_binop, Value};
use crate::sema::{binop_result, int_promote, literal_ty, promote};

/// A statically known scalar: its bits, masked to its width (at most
/// 128), and its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Static {
    bits: u128,
    ty: ScalarTy,
}

fn mask(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

impl Static {
    fn new(bits: u128, ty: ScalarTy) -> Static {
        Static {
            bits: bits & mask(ty.width),
            ty,
        }
    }

    fn from_bool(b: bool) -> Static {
        Static::new(u128::from(b), ScalarTy::BOOL)
    }

    /// An integer literal, typed as the interpreter types it.
    pub(crate) fn literal(v: u64) -> Static {
        Static::new(u128::from(v), literal_ty(v))
    }

    /// The value as a bit-vector of its type's width.
    pub(crate) fn to_bv(self) -> Bv {
        Bv::from_u128(self.ty.width, self.bits)
    }

    /// The low 64 bits, as [`Bv::to_u64`] reads them.
    pub(crate) fn low_u64(self) -> u64 {
        self.bits as u64
    }

    pub(crate) fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// The value sign-extended from its width.
    fn signed(self) -> i128 {
        let shift = 128 - self.ty.width;
        ((self.bits << shift) as i128) >> shift
    }

    /// Resized to `to`, extended per this value's own signedness, as
    /// [`crate::interp::resize`] does.
    pub(crate) fn cast(self, to: ScalarTy) -> Static {
        let bits = if self.ty.signed {
            self.signed() as u128
        } else {
            self.bits
        };
        Static::new(bits, to)
    }

    /// A unary operator, as the elaborator's static evaluation applies
    /// it (no integer promotion).
    pub(crate) fn un(op: UnOp, a: Static) -> Static {
        match op {
            UnOp::Neg => Static::new(a.bits.wrapping_neg(), a.ty),
            UnOp::Not => Static::new(!a.bits, a.ty),
            UnOp::LNot => Static::from_bool(a.is_zero()),
        }
    }

    /// A binary operator with SLM-C promotion, equal to
    /// [`eval_binop`] on the same operands.
    pub(crate) fn bin(op: BinOp, a: Static, b: Static) -> Static {
        use BinOp::*;
        // Two `int`s, the loop variables' and literals' type: no
        // promotion and no cast, so the common operators read the bits.
        if a.ty == ScalarTy::INT && b.ty == ScalarTy::INT {
            let (x, y) = (a.bits as u32, b.bits as u32);
            let int = |v: u32| Static::new(u128::from(v), ScalarTy::INT);
            let lt = |x: u32, y: u32| (x as i32) < (y as i32);
            match op {
                Add => return int(x.wrapping_add(y)),
                Sub => return int(x.wrapping_sub(y)),
                Mul => return int(x.wrapping_mul(y)),
                Eq => return Static::from_bool(x == y),
                Ne => return Static::from_bool(x != y),
                Lt => return Static::from_bool(lt(x, y)),
                Le => return Static::from_bool(!lt(y, x)),
                Gt => return Static::from_bool(lt(y, x)),
                Ge => return Static::from_bool(!lt(x, y)),
                _ => {}
            }
        }
        let p = promote(a.ty, b.ty);
        // A value cast to its own type is itself.
        let cast = |v: Static| if v.ty == p { v } else { v.cast(p) };
        let (x, y) = (cast(a), cast(b));
        let signed_lt = |x: Static, y: Static| {
            if p.signed {
                x.signed() < y.signed()
            } else {
                x.bits < y.bits
            }
        };
        match op {
            Add => Static::new(x.bits.wrapping_add(y.bits), p),
            Sub => Static::new(x.bits.wrapping_sub(y.bits), p),
            Mul => Static::new(x.bits.wrapping_mul(y.bits), p),
            And => Static::new(x.bits & y.bits, p),
            Or => Static::new(x.bits | y.bits, p),
            Xor => Static::new(x.bits ^ y.bits, p),
            Div | Rem => {
                let Value::Scalar(v, signed) = eval_binop(op, &a.to_bv(), a.ty, &b.to_bv(), b.ty)
                else {
                    unreachable!("arithmetic yields a scalar")
                };
                Static::new(
                    v.to_u128(),
                    ScalarTy {
                        width: v.width(),
                        signed,
                    },
                )
            }
            Shl | Shr => {
                let lt = int_promote(a.ty);
                let x = a.cast(lt);
                let w = u128::from(lt.width);
                let bits = match op {
                    Shl if b.bits < w => x.bits << b.bits,
                    Shl => 0,
                    _ if lt.signed => (x.signed() >> b.bits.min(127)) as u128,
                    _ if b.bits < w => x.bits >> b.bits,
                    _ => 0,
                };
                Static::new(bits, lt)
            }
            Eq => Static::from_bool(x.bits == y.bits),
            Ne => Static::from_bool(x.bits != y.bits),
            Lt => Static::from_bool(signed_lt(x, y)),
            Le => Static::from_bool(!signed_lt(y, x)),
            Gt => Static::from_bool(signed_lt(y, x)),
            Ge => Static::from_bool(!signed_lt(x, y)),
            LAnd => Static::from_bool(!a.is_zero() && !b.is_zero()),
            LOr => Static::from_bool(!a.is_zero() || !b.is_zero()),
        }
        .retyped(binop_result(op, a.ty, b.ty))
    }

    /// The same bits under the result type's signedness (its width is
    /// already the result's).
    fn retyped(self, rt: ScalarTy) -> Static {
        debug_assert_eq!(self.ty.width, rt.width);
        Static {
            ty: ScalarTy {
                signed: rt.signed,
                ..self.ty
            },
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_bits::SplitMix64;

    const TYPES: [(u32, bool); 10] = [
        (1, false),
        (3, true),
        (8, false),
        (8, true),
        (16, true),
        (32, true),
        (32, false),
        (33, false),
        (64, true),
        (128, false),
    ];

    fn random(rng: &mut SplitMix64, ty: ScalarTy) -> Static {
        let bits = match rng.below(4) {
            0 => 0,
            1 => u128::MAX,
            2 => u128::from(rng.below(70)),
            _ => u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()),
        };
        Static::new(bits, ty)
    }

    fn value(s: Static) -> Value {
        Value::Scalar(s.to_bv(), s.ty.signed)
    }

    #[test]
    fn binary_operators_match_the_interpreter() {
        use BinOp::*;
        let ops = [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr,
        ];
        let mut rng = SplitMix64::new(0x0057_A71C);
        for _ in 0..4000 {
            let ty = |rng: &mut SplitMix64| {
                let (width, signed) = TYPES[rng.below(TYPES.len() as u64) as usize];
                ScalarTy { width, signed }
            };
            let (at, bt) = (ty(&mut rng), ty(&mut rng));
            let (a, b) = (random(&mut rng, at), random(&mut rng, bt));
            let op = ops[rng.below(ops.len() as u64) as usize];
            let expect = eval_binop(op, &a.to_bv(), at, &b.to_bv(), bt);
            assert_eq!(value(Static::bin(op, a, b)), expect, "{a:?} {op:?} {b:?}");
        }
    }

    #[test]
    fn casts_and_unary_operators_match_bit_vectors() {
        let mut rng = SplitMix64::new(0x0057_A71D);
        for _ in 0..2000 {
            let (w, s) = TYPES[rng.below(TYPES.len() as u64) as usize];
            let (tw, ts) = TYPES[rng.below(TYPES.len() as u64) as usize];
            let (ty, to) = (
                ScalarTy {
                    width: w,
                    signed: s,
                },
                ScalarTy {
                    width: tw,
                    signed: ts,
                },
            );
            let a = random(&mut rng, ty);
            let bv = a.to_bv();
            assert_eq!(a.cast(to).to_bv(), crate::interp::resize(&bv, s, to));
            assert_eq!(Static::un(UnOp::Neg, a).to_bv(), bv.wrapping_neg());
            assert_eq!(Static::un(UnOp::Not, a).to_bv(), bv.not());
            assert_eq!(
                Static::un(UnOp::LNot, a).to_bv(),
                Bv::from_bool(bv.is_zero())
            );
        }
        assert_eq!(Static::literal(7).to_bv(), Bv::from_u64(32, 7));
        assert_eq!(Static::literal(u64::MAX).ty.width, 64);
    }
}
