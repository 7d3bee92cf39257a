//! `dfv-vm` — the flat register-based bytecode shared by the compiled
//! evaluation front-ends.
//!
//! Both hot interpreters in the workspace lower into this one instruction
//! set: `dfv-rtl` compiles its levelized [`SimSchedule`] into straight-line
//! blocks of [`Instr`]s (one block per topological level), and `dfv-slmir`
//! compiles whole SLM-C functions, callees inlined, into basic blocks it
//! drives with [`Program::run_range`] (control flow stays in its block
//! table; array accesses are [`Instr::LoadIdx1`]/[`Instr::StoreIdx1`]).
//! The original interpreters stay untouched as the semantic oracles — the
//! simlin-engine recipe of pairing a bytecode VM with a reference
//! interpreter kept as the spec.
//!
//! # Design
//!
//! * **Registers are arena offsets.** Every operand is a `u32` offset into
//!   one flat `u64` limb arena owned by the front-end. The lowering
//!   resolves all names/slots/widths once; execution never touches a map.
//! * **Single-limb fast paths.** Values of width ≤ 64 get dedicated
//!   opcodes with the operator semantics of `dfv_rtl::eval_bin`/`eval_un`
//!   baked in (masking, division-by-zero results, shift-amount ≥ width).
//!   Widths are stored, masks are two ALU ops at execution time.
//! * **Const-operand and fused forms.** Constant operands are folded into
//!   the instruction ([`Instr::AddC1`], ...), and the two hottest
//!   producer/consumer pairs — compare feeding a mux select, add feeding a
//!   slice — fuse into one instruction that writes *both* destination
//!   slots, so peeking/tracing the intermediate value still works.
//! * **No bounds checks in the hot loop.** [`Program::new`] validates
//!   every operand offset, and every indexed array's `base + len`, against
//!   the declared arena length once; execution then uses unchecked
//!   accesses (an index is reduced modulo `len` first). The only per-call check is a
//!   single assert that the passed arena is big enough.
//! * **Change detection.** Every instruction compares-before-write on its
//!   final destination and reports whether the value changed, so the RTL
//!   front-end's dirty-cone scheduling works unchanged at the bytecode
//!   level.
//!
//! Multi-limb operations (`N*` variants) mirror the reference kernels:
//! cheap ops run through `dfv_bits::limbs`, and the rare wide hard ops
//! (multiplication, division, shifts over 64 bits) go through the [`Bv`]
//! oracle — bit-identical to the interpreters by construction.
//!
//! [`SimSchedule`]: https://docs.rs/dfv-rtl

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;

use dfv_bits::limbs::{self, limbs_for};
use dfv_bits::Bv;

/// A comparison kind for the fused compare+mux instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// unsigned `a < b`
    Ult,
    /// unsigned `a <= b`
    Ule,
    /// signed `a < b`
    Slt,
    /// signed `a <= b`
    Sle,
}

/// A binary operator for the generic multi-limb instruction [`Instr::NBin`].
///
/// Semantics are exactly those of `dfv_rtl::eval_bin` (which the reference
/// interpreters use): results masked to the left operand's width,
/// division by zero yields all-ones (quotient) / the dividend (remainder),
/// shift amounts at or above the width yield zero (sign-fill for `AShr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum NBinOp {
    Add,
    Sub,
    Mul,
    UDiv,
    URem,
    SDiv,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
}

/// A unary operator for [`Instr::NUn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum NUnOp {
    Not,
    Neg,
    RedAnd,
    RedOr,
    RedXor,
}

/// One bytecode instruction.
///
/// Naming: a `1` suffix means the single-limb fast path (every operand and
/// the result fit in one `u64` limb and are stored masked to their width);
/// a `C` means one operand is an inline constant; an `N` prefix means the
/// generic multi-limb form. Offsets (`dst`, `a`, `b`, ...) index the limb
/// arena; widths are in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Instr {
    /// `arena[dst] = arena[a]` (same width).
    Copy1 {
        dst: u32,
        a: u32,
    },
    /// `arena[dst] = imm` (pre-masked at build time).
    Const1 {
        dst: u32,
        imm: u64,
    },
    /// Bitwise not, masked to `w`.
    Not1 {
        dst: u32,
        a: u32,
        w: u8,
    },
    /// Two's-complement negate, masked to `w`.
    Neg1 {
        dst: u32,
        a: u32,
        w: u8,
    },
    /// 1 iff all `w` bits of `a` are set.
    RedAnd1 {
        dst: u32,
        a: u32,
        w: u8,
    },
    /// 1 iff `a != 0`.
    RedOr1 {
        dst: u32,
        a: u32,
    },
    /// Bit-parity of `a`.
    RedXor1 {
        dst: u32,
        a: u32,
    },
    /// Logical not: 1 iff `a == 0`.
    EqZ1 {
        dst: u32,
        a: u32,
    },
    And1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Or1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Xor1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Add1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    Sub1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    Mul1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    /// Unsigned divide; division by zero yields the all-ones `w`-bit value.
    UDiv1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    /// Unsigned remainder; remainder by zero yields the dividend.
    URem1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Signed divide (operand widths needed for sign extension).
    SDiv1 {
        dst: u32,
        a: u32,
        b: u32,
        aw: u8,
        bw: u8,
    },
    /// Signed remainder.
    SRem1 {
        dst: u32,
        a: u32,
        b: u32,
        aw: u8,
        bw: u8,
    },
    /// Left shift; amounts `>= w` yield 0.
    Shl1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    /// Logical right shift; amounts `>= w` yield 0.
    LShr1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    /// Arithmetic right shift (sign of the `w`-bit value; amounts clamp).
    AShr1 {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    Eq1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ne1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ult1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ule1 {
        dst: u32,
        a: u32,
        b: u32,
    },
    Slt1 {
        dst: u32,
        a: u32,
        b: u32,
        aw: u8,
        bw: u8,
    },
    Sle1 {
        dst: u32,
        a: u32,
        b: u32,
        aw: u8,
        bw: u8,
    },
    /// `arena[dst] = if arena[sel] & 1 { arena[t] } else { arena[f] }`.
    Mux1 {
        dst: u32,
        sel: u32,
        t: u32,
        f: u32,
    },
    /// `arena[dst] = (arena[a] >> sh) & mask(w)` — slice, truncation.
    Slice1 {
        dst: u32,
        a: u32,
        sh: u8,
        w: u8,
    },
    /// `arena[dst] = arena[a + arena[i] % len]` — a read of the `len`-limb
    /// array at `a` whose index wraps modulo the array length.
    LoadIdx1 {
        dst: u32,
        a: u32,
        len: u32,
        i: u32,
    },
    /// `arena[a + arena[i] % len] = arena[src]`.
    StoreIdx1 {
        a: u32,
        len: u32,
        i: u32,
        src: u32,
    },
    /// Sign-extend the `aw`-bit value to `ow` bits.
    Sext1 {
        dst: u32,
        a: u32,
        aw: u8,
        ow: u8,
    },
    /// `arena[dst] = (arena[a] << sh) | arena[b]` (`sh` = width of `b`).
    Concat1 {
        dst: u32,
        a: u32,
        b: u32,
        sh: u8,
    },
    // ---- const-operand forms (imm pre-masked at build time) ----
    AddC1 {
        dst: u32,
        a: u32,
        imm: u64,
        w: u8,
    },
    /// `a - imm`.
    SubC1 {
        dst: u32,
        a: u32,
        imm: u64,
        w: u8,
    },
    /// `imm - a`.
    RSubC1 {
        dst: u32,
        a: u32,
        imm: u64,
        w: u8,
    },
    MulC1 {
        dst: u32,
        a: u32,
        imm: u64,
        w: u8,
    },
    AndC1 {
        dst: u32,
        a: u32,
        imm: u64,
    },
    OrC1 {
        dst: u32,
        a: u32,
        imm: u64,
    },
    XorC1 {
        dst: u32,
        a: u32,
        imm: u64,
    },
    EqC1 {
        dst: u32,
        a: u32,
        imm: u64,
    },
    NeC1 {
        dst: u32,
        a: u32,
        imm: u64,
    },
    /// Left shift by a constant amount `sh < w`.
    ShlC1 {
        dst: u32,
        a: u32,
        sh: u8,
        w: u8,
    },
    /// Logical right shift by a constant amount `sh < w`.
    LShrC1 {
        dst: u32,
        a: u32,
        sh: u8,
    },
    /// Arithmetic right shift by a constant (pre-clamped) amount.
    AShrC1 {
        dst: u32,
        a: u32,
        sh: u8,
        w: u8,
    },
    // ---- fused pairs: write BOTH destinations ----
    /// Fused compare + mux: `arena[dst_c] = cmp(a, b)`, then
    /// `arena[dst] = if cmp { arena[t] } else { arena[f] }`. The reported
    /// change is the mux output's (the compare result has no other
    /// consumer by construction, but its slot stays observable).
    CmpMux1 {
        kind: Cmp,
        a: u32,
        b: u32,
        aw: u8,
        bw: u8,
        dst_c: u32,
        t: u32,
        f: u32,
        dst: u32,
    },
    /// Fused add + slice: `arena[dst_a] = (a + b) & mask(aw)`, then
    /// `arena[dst] = (sum >> sh) & mask(ow)`.
    AddSlice1 {
        a: u32,
        b: u32,
        aw: u8,
        dst_a: u32,
        sh: u8,
        ow: u8,
        dst: u32,
    },
    /// Fused multiply-accumulate: `arena[dst_p] = (a * imm) & mask(w)`,
    /// then `arena[dst] = (prod + b) & mask(w)` — the FIR tap idiom
    /// `acc += x * coeff` in one dispatch. The product slot stays
    /// observable; the reported change is the accumulator's.
    MulCAdd1 {
        a: u32,
        imm: u64,
        dst_p: u32,
        b: u32,
        dst: u32,
        w: u8,
    },
    /// Fused shift-accumulate: `arena[dst_p] = (a << sh) & mask(w)`, then
    /// `arena[dst] = (term + b) & mask(w)` — the convolution idiom
    /// `acc += x << k` in one dispatch (`sh < w`).
    ShlCAdd1 {
        a: u32,
        sh: u8,
        dst_p: u32,
        b: u32,
        dst: u32,
        w: u8,
    },
    // ---- generic multi-limb forms ----
    /// Generic binary op over multi-limb operands (widths in bits).
    NBin {
        op: NBinOp,
        dst: u32,
        a: u32,
        b: u32,
        aw: u16,
        bw: u16,
        ow: u16,
    },
    /// Generic unary op.
    NUn {
        op: NUnOp,
        dst: u32,
        a: u32,
        aw: u16,
        ow: u16,
    },
    /// Multi-limb mux (`l` = limb count of `dst`/`t`/`f`).
    NMux {
        dst: u32,
        sel: u32,
        t: u32,
        f: u32,
        l: u16,
    },
    /// Multi-limb slice: bits `[lo + ow - 1 : lo]` of the `aw`-bit source.
    NSlice {
        dst: u32,
        a: u32,
        aw: u16,
        lo: u16,
        ow: u16,
    },
    /// Multi-limb concat (`a` high, `b` low, `ow == aw + bw`).
    NConcat {
        dst: u32,
        a: u32,
        aw: u16,
        b: u32,
        bw: u16,
        ow: u16,
    },
    /// Multi-limb zero-extension (`aw <= ow`).
    NZext {
        dst: u32,
        a: u32,
        aw: u16,
        ow: u16,
    },
    /// Multi-limb sign-extension (`aw <= ow`).
    NSext {
        dst: u32,
        a: u32,
        aw: u16,
        ow: u16,
    },
    /// Multi-limb copy of `l` limbs.
    NCopy {
        dst: u32,
        a: u32,
        l: u16,
    },
}

/// A bytecode validation error — the lowering produced an instruction that
/// references limbs outside the declared arena or carries an impossible
/// width. Front-end bugs, never user errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    /// Index of the offending instruction.
    pub instr: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode instr {}: {}", self.instr, self.message)
    }
}

impl std::error::Error for VmError {}

/// A validated straight-line bytecode program over one limb arena.
///
/// Construction checks every operand of every instruction against
/// `arena_len`, so execution can use unchecked arena accesses; the only
/// runtime check is that the caller's arena really has `arena_len` limbs.
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    arena_len: usize,
}

/// The low-`w`-bit mask (`1 <= w <= 64`), branch-free.
#[inline(always)]
fn mask(w: u8) -> u64 {
    debug_assert!((1..=64).contains(&w));
    u64::MAX >> (64 - w as u32)
}

/// Sign-extends the low `w` bits of `v` to all 64 (`1 <= w <= 64`).
#[inline(always)]
fn sx(v: u64, w: u8) -> i64 {
    debug_assert!((1..=64).contains(&w));
    let sh = 64 - w as u32;
    ((v << sh) as i64) >> sh
}

#[inline(always)]
fn cmp1(kind: Cmp, a: u64, aw: u8, b: u64, bw: u8) -> u64 {
    (match kind {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Ult => a < b,
        Cmp::Ule => a <= b,
        Cmp::Slt => sx(a, aw) < sx(b, bw),
        Cmp::Sle => sx(a, aw) <= sx(b, bw),
    }) as u64
}

/// Reads one limb. # Safety: `i < arena.len()` (guaranteed by
/// [`Program::new`] validation plus the arena-length assert in exec).
#[inline(always)]
unsafe fn rd(arena: &[u64], i: u32) -> u64 {
    unsafe { *arena.get_unchecked(i as usize) }
}

/// Compare-before-write of one limb; returns whether the value changed.
/// # Safety: as [`rd`].
#[inline(always)]
unsafe fn wr(arena: &mut [u64], i: u32, v: u64) -> bool {
    let slot = unsafe { arena.get_unchecked_mut(i as usize) };
    if *slot == v {
        false
    } else {
        *slot = v;
        true
    }
}

fn sized(scratch: &mut Vec<u64>, l: usize) {
    scratch.clear();
    scratch.resize(l, 0);
}

fn write_diff(out: &mut [u64], new: &[u64]) -> bool {
    if out == new {
        false
    } else {
        out.copy_from_slice(new);
        true
    }
}

impl Program {
    /// Validates and seals a lowered instruction sequence against an arena
    /// of `arena_len` limbs.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] naming the first instruction whose operands are
    /// out of range or whose widths are impossible.
    pub fn new(instrs: Vec<Instr>, arena_len: usize) -> Result<Self, VmError> {
        for (i, ins) in instrs.iter().enumerate() {
            validate(ins, arena_len).map_err(|message| VmError { instr: i, message })?;
        }
        Ok(Program { instrs, arena_len })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The arena length (in limbs) this program was validated against.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Executes instruction `idx`; returns whether its (final) destination
    /// value changed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `arena` is shorter than the
    /// validated arena length.
    #[inline]
    pub fn exec_one(&self, idx: usize, arena: &mut [u64], scratch: &mut Vec<u64>) -> bool {
        assert!(
            arena.len() >= self.arena_len,
            "arena shorter than validated"
        );
        // SAFETY: every operand of every instruction was validated against
        // `arena_len` in `Program::new`, and the arena is at least that long.
        unsafe { exec(&self.instrs[idx], arena, scratch) }
    }

    /// Executes instructions `lo..hi` straight-line, ignoring change flags.
    ///
    /// # Panics
    ///
    /// As [`Program::exec_one`].
    pub fn run_range(&self, lo: usize, hi: usize, arena: &mut [u64], scratch: &mut Vec<u64>) {
        assert!(
            arena.len() >= self.arena_len,
            "arena shorter than validated"
        );
        for ins in &self.instrs[lo..hi] {
            // SAFETY: as `exec_one` — validated at construction.
            unsafe {
                exec(ins, arena, scratch);
            }
        }
    }

    /// Executes the whole program straight-line.
    ///
    /// # Panics
    ///
    /// As [`Program::exec_one`].
    pub fn run(&self, arena: &mut [u64], scratch: &mut Vec<u64>) {
        self.run_range(0, self.instrs.len(), arena, scratch);
    }
}

/// Executes one instruction. Returns whether the (final) destination
/// changed.
///
/// # Safety
///
/// Every offset in `ins` must be in bounds for `arena` — callers go
/// through [`Program`], whose constructor validates exactly that.
#[inline(always)]
unsafe fn exec(ins: &Instr, arena: &mut [u64], scratch: &mut Vec<u64>) -> bool {
    use Instr::*;
    // SAFETY throughout: offsets validated against the arena length.
    unsafe {
        match *ins {
            Copy1 { dst, a } => {
                let v = rd(arena, a);
                wr(arena, dst, v)
            }
            Const1 { dst, imm } => wr(arena, dst, imm),
            Not1 { dst, a, w } => {
                let v = !rd(arena, a) & mask(w);
                wr(arena, dst, v)
            }
            Neg1 { dst, a, w } => {
                let v = rd(arena, a).wrapping_neg() & mask(w);
                wr(arena, dst, v)
            }
            RedAnd1 { dst, a, w } => {
                let v = (rd(arena, a) == mask(w)) as u64;
                wr(arena, dst, v)
            }
            RedOr1 { dst, a } => {
                let v = (rd(arena, a) != 0) as u64;
                wr(arena, dst, v)
            }
            RedXor1 { dst, a } => {
                let v = (rd(arena, a).count_ones() & 1) as u64;
                wr(arena, dst, v)
            }
            EqZ1 { dst, a } => {
                let v = (rd(arena, a) == 0) as u64;
                wr(arena, dst, v)
            }
            And1 { dst, a, b } => {
                let v = rd(arena, a) & rd(arena, b);
                wr(arena, dst, v)
            }
            Or1 { dst, a, b } => {
                let v = rd(arena, a) | rd(arena, b);
                wr(arena, dst, v)
            }
            Xor1 { dst, a, b } => {
                let v = rd(arena, a) ^ rd(arena, b);
                wr(arena, dst, v)
            }
            Add1 { dst, a, b, w } => {
                let v = rd(arena, a).wrapping_add(rd(arena, b)) & mask(w);
                wr(arena, dst, v)
            }
            Sub1 { dst, a, b, w } => {
                let v = rd(arena, a).wrapping_sub(rd(arena, b)) & mask(w);
                wr(arena, dst, v)
            }
            Mul1 { dst, a, b, w } => {
                let v = rd(arena, a).wrapping_mul(rd(arena, b)) & mask(w);
                wr(arena, dst, v)
            }
            UDiv1 { dst, a, b, w } => {
                let v = rd(arena, a).checked_div(rd(arena, b)).unwrap_or(mask(w));
                wr(arena, dst, v)
            }
            URem1 { dst, a, b } => {
                let av = rd(arena, a);
                let v = av.checked_rem(rd(arena, b)).unwrap_or(av);
                wr(arena, dst, v)
            }
            SDiv1 { dst, a, b, aw, bw } => {
                let (av, bv) = (rd(arena, a), rd(arena, b));
                let v = if bv == 0 {
                    mask(aw)
                } else {
                    (sx(av, aw).wrapping_div(sx(bv, bw)) as u64) & mask(aw)
                };
                wr(arena, dst, v)
            }
            SRem1 { dst, a, b, aw, bw } => {
                let (av, bv) = (rd(arena, a), rd(arena, b));
                let v = if bv == 0 {
                    av
                } else {
                    (sx(av, aw).wrapping_rem(sx(bv, bw)) as u64) & mask(aw)
                };
                wr(arena, dst, v)
            }
            Shl1 { dst, a, b, w } => {
                let amt = rd(arena, b);
                let v = if amt >= w as u64 {
                    0
                } else {
                    (rd(arena, a) << amt) & mask(w)
                };
                wr(arena, dst, v)
            }
            LShr1 { dst, a, b, w } => {
                let amt = rd(arena, b);
                let v = if amt >= w as u64 {
                    0
                } else {
                    rd(arena, a) >> amt
                };
                wr(arena, dst, v)
            }
            AShr1 { dst, a, b, w } => {
                let amt = rd(arena, b).min(63);
                let v = ((sx(rd(arena, a), w) >> amt) as u64) & mask(w);
                wr(arena, dst, v)
            }
            Eq1 { dst, a, b } => {
                let v = (rd(arena, a) == rd(arena, b)) as u64;
                wr(arena, dst, v)
            }
            Ne1 { dst, a, b } => {
                let v = (rd(arena, a) != rd(arena, b)) as u64;
                wr(arena, dst, v)
            }
            Ult1 { dst, a, b } => {
                let v = (rd(arena, a) < rd(arena, b)) as u64;
                wr(arena, dst, v)
            }
            Ule1 { dst, a, b } => {
                let v = (rd(arena, a) <= rd(arena, b)) as u64;
                wr(arena, dst, v)
            }
            Slt1 { dst, a, b, aw, bw } => {
                let v = (sx(rd(arena, a), aw) < sx(rd(arena, b), bw)) as u64;
                wr(arena, dst, v)
            }
            Sle1 { dst, a, b, aw, bw } => {
                let v = (sx(rd(arena, a), aw) <= sx(rd(arena, b), bw)) as u64;
                wr(arena, dst, v)
            }
            Mux1 { dst, sel, t, f } => {
                let src = if rd(arena, sel) & 1 == 1 { t } else { f };
                let v = rd(arena, src);
                wr(arena, dst, v)
            }
            Slice1 { dst, a, sh, w } => {
                let v = (rd(arena, a) >> sh) & mask(w);
                wr(arena, dst, v)
            }
            Sext1 { dst, a, aw, ow } => {
                let v = (sx(rd(arena, a), aw) as u64) & mask(ow);
                wr(arena, dst, v)
            }
            // The element is in bounds: `a + len <= arena_len` is validated.
            LoadIdx1 { dst, a, len, i } => {
                let v = rd(arena, a + (rd(arena, i) % len as u64) as u32);
                wr(arena, dst, v)
            }
            StoreIdx1 { a, len, i, src } => {
                let v = rd(arena, src);
                wr(arena, a + (rd(arena, i) % len as u64) as u32, v)
            }
            Concat1 { dst, a, b, sh } => {
                let v = (rd(arena, a) << sh) | rd(arena, b);
                wr(arena, dst, v)
            }
            AddC1 { dst, a, imm, w } => {
                let v = rd(arena, a).wrapping_add(imm) & mask(w);
                wr(arena, dst, v)
            }
            SubC1 { dst, a, imm, w } => {
                let v = rd(arena, a).wrapping_sub(imm) & mask(w);
                wr(arena, dst, v)
            }
            RSubC1 { dst, a, imm, w } => {
                let v = imm.wrapping_sub(rd(arena, a)) & mask(w);
                wr(arena, dst, v)
            }
            MulC1 { dst, a, imm, w } => {
                let v = rd(arena, a).wrapping_mul(imm) & mask(w);
                wr(arena, dst, v)
            }
            AndC1 { dst, a, imm } => {
                let v = rd(arena, a) & imm;
                wr(arena, dst, v)
            }
            OrC1 { dst, a, imm } => {
                let v = rd(arena, a) | imm;
                wr(arena, dst, v)
            }
            XorC1 { dst, a, imm } => {
                let v = rd(arena, a) ^ imm;
                wr(arena, dst, v)
            }
            EqC1 { dst, a, imm } => {
                let v = (rd(arena, a) == imm) as u64;
                wr(arena, dst, v)
            }
            NeC1 { dst, a, imm } => {
                let v = (rd(arena, a) != imm) as u64;
                wr(arena, dst, v)
            }
            ShlC1 { dst, a, sh, w } => {
                let v = (rd(arena, a) << sh) & mask(w);
                wr(arena, dst, v)
            }
            LShrC1 { dst, a, sh } => {
                let v = rd(arena, a) >> sh;
                wr(arena, dst, v)
            }
            AShrC1 { dst, a, sh, w } => {
                let v = ((sx(rd(arena, a), w) >> sh) as u64) & mask(w);
                wr(arena, dst, v)
            }
            CmpMux1 {
                kind,
                a,
                b,
                aw,
                bw,
                dst_c,
                t,
                f,
                dst,
            } => {
                let c = cmp1(kind, rd(arena, a), aw, rd(arena, b), bw);
                wr(arena, dst_c, c);
                let v = rd(arena, if c == 1 { t } else { f });
                wr(arena, dst, v)
            }
            AddSlice1 {
                a,
                b,
                aw,
                dst_a,
                sh,
                ow,
                dst,
            } => {
                let sum = rd(arena, a).wrapping_add(rd(arena, b)) & mask(aw);
                wr(arena, dst_a, sum);
                let v = (sum >> sh) & mask(ow);
                wr(arena, dst, v)
            }
            MulCAdd1 {
                a,
                imm,
                dst_p,
                b,
                dst,
                w,
            } => {
                let p = rd(arena, a).wrapping_mul(imm) & mask(w);
                wr(arena, dst_p, p);
                let v = p.wrapping_add(rd(arena, b)) & mask(w);
                wr(arena, dst, v)
            }
            ShlCAdd1 {
                a,
                sh,
                dst_p,
                b,
                dst,
                w,
            } => {
                let p = (rd(arena, a) << sh) & mask(w);
                wr(arena, dst_p, p);
                let v = p.wrapping_add(rd(arena, b)) & mask(w);
                wr(arena, dst, v)
            }
            NBin {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                ow,
            } => exec_nbin(op, dst, a, b, aw, bw, ow, arena, scratch),
            NUn { op, dst, a, aw, ow } => exec_nun(op, dst, a, aw, ow, arena, scratch),
            NMux { dst, sel, t, f, l } => {
                let src = if rd(arena, sel) & 1 == 1 { t } else { f };
                sized(scratch, l as usize);
                scratch.copy_from_slice(&arena[src as usize..][..l as usize]);
                write_diff(&mut arena[dst as usize..][..l as usize], scratch)
            }
            NSlice { dst, a, aw, lo, ow } => {
                let (al, ol) = (limbs_for(aw as u32), limbs_for(ow as u32));
                sized(scratch, ol);
                let hi = lo as u32 + ow as u32 - 1;
                limbs::slice(scratch, &arena[a as usize..][..al], hi, lo as u32);
                write_diff(&mut arena[dst as usize..][..ol], scratch)
            }
            NConcat {
                dst,
                a,
                aw,
                b,
                bw,
                ow,
            } => {
                let (al, bl, ol) = (
                    limbs_for(aw as u32),
                    limbs_for(bw as u32),
                    limbs_for(ow as u32),
                );
                sized(scratch, ol);
                limbs::concat(
                    scratch,
                    &arena[a as usize..][..al],
                    aw as u32,
                    &arena[b as usize..][..bl],
                    bw as u32,
                );
                write_diff(&mut arena[dst as usize..][..ol], scratch)
            }
            NZext { dst, a, aw, ow } => {
                let (al, ol) = (limbs_for(aw as u32), limbs_for(ow as u32));
                sized(scratch, ol);
                limbs::zext(scratch, &arena[a as usize..][..al]);
                write_diff(&mut arena[dst as usize..][..ol], scratch)
            }
            NSext { dst, a, aw, ow } => {
                let (al, ol) = (limbs_for(aw as u32), limbs_for(ow as u32));
                sized(scratch, ol);
                limbs::sext(scratch, &arena[a as usize..][..al], aw as u32, ow as u32);
                write_diff(&mut arena[dst as usize..][..ol], scratch)
            }
            NCopy { dst, a, l } => {
                sized(scratch, l as usize);
                scratch.copy_from_slice(&arena[a as usize..][..l as usize]);
                write_diff(&mut arena[dst as usize..][..l as usize], scratch)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_nbin(
    op: NBinOp,
    dst: u32,
    a: u32,
    b: u32,
    aw: u16,
    bw: u16,
    ow: u16,
    arena: &mut [u64],
    scratch: &mut Vec<u64>,
) -> bool {
    let (al, bl, ol) = (
        limbs_for(aw as u32),
        limbs_for(bw as u32),
        limbs_for(ow as u32),
    );
    let av = &arena[a as usize..][..al];
    let bv = &arena[b as usize..][..bl];
    let one = |x: bool| x as u64;
    match op {
        NBinOp::And | NBinOp::Or | NBinOp::Xor | NBinOp::Add | NBinOp::Sub => {
            sized(scratch, ol);
            match op {
                NBinOp::And => limbs::and(scratch, av, bv),
                NBinOp::Or => limbs::or(scratch, av, bv),
                NBinOp::Xor => limbs::xor(scratch, av, bv),
                NBinOp::Add => limbs::add(scratch, av, bv, ow as u32),
                NBinOp::Sub => limbs::sub(scratch, av, bv, ow as u32),
                _ => unreachable!(),
            }
            write_diff(&mut arena[dst as usize..][..ol], scratch)
        }
        NBinOp::Eq => {
            let v = one(av == bv);
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NBinOp::Ne => {
            let v = one(av != bv);
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NBinOp::Ult => {
            let v = one(limbs::ult(av, bv));
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NBinOp::Ule => {
            let v = one(!limbs::ult(bv, av));
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NBinOp::Slt => {
            let v = one(limbs::slt(av, bv, aw as u32));
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NBinOp::Sle => {
            let v = one(!limbs::slt(bv, av, aw as u32));
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        // The rare wide hard ops go through the Bv oracle — deliberately
        // identical to the reference interpreter's semantics.
        NBinOp::Mul
        | NBinOp::UDiv
        | NBinOp::URem
        | NBinOp::SDiv
        | NBinOp::SRem
        | NBinOp::Shl
        | NBinOp::LShr
        | NBinOp::AShr => {
            let av = Bv::from_limbs(aw as u32, av);
            let bv = Bv::from_limbs(bw as u32, bv);
            let r = match op {
                NBinOp::Mul => av.wrapping_mul(&bv),
                NBinOp::UDiv => av.udiv(&bv),
                NBinOp::URem => av.urem(&bv),
                NBinOp::SDiv => av.sdiv(&bv),
                NBinOp::SRem => av.srem(&bv),
                NBinOp::Shl => av.shl_bv(&bv),
                NBinOp::LShr => av.lshr_bv(&bv),
                NBinOp::AShr => av.ashr_bv(&bv),
                _ => unreachable!(),
            };
            write_diff(&mut arena[dst as usize..][..ol], r.limbs())
        }
    }
}

fn exec_nun(
    op: NUnOp,
    dst: u32,
    a: u32,
    aw: u16,
    ow: u16,
    arena: &mut [u64],
    scratch: &mut Vec<u64>,
) -> bool {
    let al = limbs_for(aw as u32);
    let ol = limbs_for(ow as u32);
    let av = &arena[a as usize..][..al];
    match op {
        NUnOp::Not => {
            sized(scratch, ol);
            limbs::not(scratch, av, ow as u32);
            write_diff(&mut arena[dst as usize..][..ol], scratch)
        }
        NUnOp::Neg => {
            sized(scratch, ol);
            limbs::neg(scratch, av, ow as u32);
            write_diff(&mut arena[dst as usize..][..ol], scratch)
        }
        NUnOp::RedAnd => {
            let v = limbs::is_ones(av, aw as u32) as u64;
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NUnOp::RedOr => {
            let v = !limbs::is_zero(av) as u64;
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
        NUnOp::RedXor => {
            let v = limbs::red_xor(av) as u64;
            write_diff(&mut arena[dst as usize..][..1], &[v])
        }
    }
}

/// Validates one instruction against the arena length. Returns the error
/// message on failure.
fn validate(ins: &Instr, arena_len: usize) -> Result<(), String> {
    use Instr::*;
    let limb = |off: u32, what: &str| -> Result<(), String> {
        if (off as usize) < arena_len {
            Ok(())
        } else {
            Err(format!("{what} offset {off} outside arena of {arena_len}"))
        }
    };
    let span_l = |off: u32, l: usize, what: &str| -> Result<(), String> {
        if l == 0 {
            return Err(format!("{what} has zero width"));
        }
        if (off as usize) + l <= arena_len {
            Ok(())
        } else {
            Err(format!(
                "{what} span {off}+{l} outside arena of {arena_len}"
            ))
        }
    };
    let span = |off: u32, w: u16, what: &str| -> Result<(), String> {
        span_l(off, if w == 0 { 0 } else { limbs_for(w as u32) }, what)
    };
    let w1 = |w: u8, what: &str| -> Result<(), String> {
        if (1..=64).contains(&w) {
            Ok(())
        } else {
            Err(format!("{what} width {w} not in 1..=64"))
        }
    };
    match *ins {
        Copy1 { dst, a } | RedOr1 { dst, a } | RedXor1 { dst, a } | EqZ1 { dst, a } => {
            limb(dst, "dst")?;
            limb(a, "a")
        }
        Const1 { dst, .. } => limb(dst, "dst"),
        Not1 { dst, a, w } | Neg1 { dst, a, w } | RedAnd1 { dst, a, w } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            w1(w, "op")
        }
        And1 { dst, a, b }
        | Or1 { dst, a, b }
        | Xor1 { dst, a, b }
        | URem1 { dst, a, b }
        | Eq1 { dst, a, b }
        | Ne1 { dst, a, b }
        | Ult1 { dst, a, b }
        | Ule1 { dst, a, b }
        | Concat1 { dst, a, b, .. } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            limb(b, "b")
        }
        Add1 { dst, a, b, w }
        | Sub1 { dst, a, b, w }
        | Mul1 { dst, a, b, w }
        | UDiv1 { dst, a, b, w }
        | Shl1 { dst, a, b, w }
        | LShr1 { dst, a, b, w }
        | AShr1 { dst, a, b, w } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            limb(b, "b")?;
            w1(w, "op")
        }
        SDiv1 { dst, a, b, aw, bw }
        | SRem1 { dst, a, b, aw, bw }
        | Slt1 { dst, a, b, aw, bw }
        | Sle1 { dst, a, b, aw, bw } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            limb(b, "b")?;
            w1(aw, "lhs")?;
            w1(bw, "rhs")
        }
        Mux1 { dst, sel, t, f } => {
            limb(dst, "dst")?;
            limb(sel, "sel")?;
            limb(t, "t")?;
            limb(f, "f")
        }
        Slice1 { dst, a, sh, w } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            w1(w, "slice")?;
            if sh as u32 + w as u32 <= 64 {
                Ok(())
            } else {
                Err(format!("slice sh {sh} + width {w} exceeds 64"))
            }
        }
        LoadIdx1 { dst: e, a, len, i } | StoreIdx1 { src: e, a, len, i } => {
            limb(e, "element")?;
            limb(i, "index")?;
            span_l(a, len as usize, "array")
        }
        Sext1 { dst, a, aw, ow } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            w1(aw, "src")?;
            w1(ow, "dst")?;
            if aw <= ow {
                Ok(())
            } else {
                Err(format!("sext narrows {aw} -> {ow}"))
            }
        }
        AddC1 { dst, a, w, .. }
        | SubC1 { dst, a, w, .. }
        | RSubC1 { dst, a, w, .. }
        | MulC1 { dst, a, w, .. } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            w1(w, "op")
        }
        AndC1 { dst, a, .. }
        | OrC1 { dst, a, .. }
        | XorC1 { dst, a, .. }
        | EqC1 { dst, a, .. }
        | NeC1 { dst, a, .. }
        | LShrC1 { dst, a, .. } => {
            limb(dst, "dst")?;
            limb(a, "a")
        }
        ShlC1 { dst, a, sh, w } | AShrC1 { dst, a, sh, w } => {
            limb(dst, "dst")?;
            limb(a, "a")?;
            w1(w, "op")?;
            if sh < 64 {
                Ok(())
            } else {
                Err(format!("const shift {sh} not below 64"))
            }
        }
        CmpMux1 {
            a,
            b,
            aw,
            bw,
            dst_c,
            t,
            f,
            dst,
            ..
        } => {
            limb(a, "a")?;
            limb(b, "b")?;
            limb(dst_c, "dst_c")?;
            limb(t, "t")?;
            limb(f, "f")?;
            limb(dst, "dst")?;
            w1(aw, "lhs")?;
            w1(bw, "rhs")
        }
        AddSlice1 {
            a,
            b,
            aw,
            dst_a,
            sh,
            ow,
            dst,
        } => {
            limb(a, "a")?;
            limb(b, "b")?;
            limb(dst_a, "dst_a")?;
            limb(dst, "dst")?;
            w1(aw, "add")?;
            w1(ow, "slice")?;
            if sh as u32 + ow as u32 <= aw as u32 {
                Ok(())
            } else {
                Err(format!("slice sh {sh} + width {ow} exceeds add width {aw}"))
            }
        }
        MulCAdd1 {
            a,
            dst_p,
            b,
            dst,
            w,
            ..
        } => {
            limb(a, "a")?;
            limb(b, "b")?;
            limb(dst_p, "dst_p")?;
            limb(dst, "dst")?;
            w1(w, "op")
        }
        ShlCAdd1 {
            a,
            sh,
            dst_p,
            b,
            dst,
            w,
        } => {
            limb(a, "a")?;
            limb(b, "b")?;
            limb(dst_p, "dst_p")?;
            limb(dst, "dst")?;
            w1(w, "op")?;
            if sh < w {
                Ok(())
            } else {
                Err(format!("fused shift {sh} not below width {w}"))
            }
        }
        NBin {
            dst,
            a,
            b,
            aw,
            bw,
            ow,
            ..
        } => {
            span(a, aw, "a")?;
            span(b, bw, "b")?;
            span(dst, ow, "dst")
        }
        NUn { dst, a, aw, ow, .. } => {
            span(a, aw, "a")?;
            span(dst, ow, "dst")
        }
        NMux { dst, sel, t, f, l } => {
            limb(sel, "sel")?;
            span_l(t, l as usize, "t")?;
            span_l(f, l as usize, "f")?;
            span_l(dst, l as usize, "dst")
        }
        NSlice { dst, a, aw, lo, ow } => {
            span(a, aw, "a")?;
            span(dst, ow, "dst")?;
            if lo as u32 + ow as u32 <= aw as u32 {
                Ok(())
            } else {
                Err(format!("slice [{lo}+{ow}] exceeds source width {aw}"))
            }
        }
        NConcat {
            dst,
            a,
            aw,
            b,
            bw,
            ow,
        } => {
            span(a, aw, "a")?;
            span(b, bw, "b")?;
            span(dst, ow, "dst")?;
            if aw as u32 + bw as u32 == ow as u32 {
                Ok(())
            } else {
                Err(format!("concat widths {aw}+{bw} != {ow}"))
            }
        }
        NZext { dst, a, aw, ow } | NSext { dst, a, aw, ow } => {
            span(a, aw, "a")?;
            span(dst, ow, "dst")?;
            if aw <= ow {
                Ok(())
            } else {
                Err(format!("extension narrows {aw} -> {ow}"))
            }
        }
        NCopy { dst, a, l } => {
            span_l(a, l as usize, "a")?;
            span_l(dst, l as usize, "dst")
        }
    }
}

#[cfg(test)]
mod tests;
