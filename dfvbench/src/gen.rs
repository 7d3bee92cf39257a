//! Seeded input generation: SLM/RTL block pairs from the repository's
//! design families, each carrying constants drawn from the workload seed
//! so that no two generated blocks share a content hash.
//!
//! Every pair is equivalent by construction; the self-tests at the bottom
//! prove that at small sizes, and the incremental workload derives its
//! buggy variants from these pairs with `dfv_cosim`'s mutation operators.

use dfv_bits::{Bv, SplitMix64};
use dfv_core::BlockPair;
use dfv_designs::{alu, conv, fir, memsys};
use dfv_rtl::{flatten, Design, Module, ModuleBuilder};
use dfv_sec::{Binding, EquivSpec};

/// Operand width of the multiplier (the product is twice as wide).
const MUL_W: u32 = 4;
/// Operand width of the multiply-add.
const MADD_W: u32 = 3;
/// Operand width of the three-operand adder.
const ADD_W: u32 = 5;

/// One design family of the verification campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `a*b + k` against `b*a + k`: a commuted multiplier.
    Mul,
    /// `a*b + c + k` against `(c + b*a) + k`: a commuted multiply-add.
    Madd,
    /// `a + b + c + k` against `(c + a) + b + k`: reassociated adds.
    AddAssoc,
    /// The 4-tap streaming FIR with seeded coefficients.
    Fir,
    /// The 4x4 blur tile with a seeded output offset.
    Conv,
    /// The dual-bank lookup on its 1-cycle bank, seeded ROM.
    MemFast,
    /// The dual-bank lookup on its 3-cycle bank, seeded ROM.
    MemSlow,
    /// The Fig 1 bit-accurate ALU with a seeded output offset.
    Alu,
}

/// The fixed per-job family mix of the cold campaign: one block of each.
pub const COLD_MIX: [Family; 8] = [
    Family::Mul,
    Family::Madd,
    Family::AddAssoc,
    Family::Fir,
    Family::Conv,
    Family::MemFast,
    Family::MemSlow,
    Family::Alu,
];

impl Family {
    /// Short name used in block names.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Mul => "mul",
            Family::Madd => "madd",
            Family::AddAssoc => "add",
            Family::Fir => "fir",
            Family::Conv => "conv",
            Family::MemFast => "memf",
            Family::MemSlow => "mems",
            Family::Alu => "alu",
        }
    }

    /// A block of this family whose constants are a function of `uid`
    /// (injective for `uid < 2^28`, so distinct uids never share a content
    /// hash) plus, for the lookup ROM, draws from `rng`.
    pub fn block(self, name: String, uid: u64, rng: &mut SplitMix64) -> BlockPair {
        assert!(uid < 1 << 28, "block uid {uid} out of range");
        match self {
            Family::Mul => mul_block(name, uid),
            Family::Madd => madd_block(name, uid),
            Family::AddAssoc => add_block(name, uid),
            Family::Fir => {
                // Base-127 digits of the uid, shifted into 1..=127.
                let mut c = [0i64; fir::TAPS];
                let mut u = uid;
                for x in &mut c {
                    *x = (u % 127) as i64 + 1;
                    u /= 127;
                }
                fir_block(name, c)
            }
            Family::Conv => conv_block(name, uid),
            Family::MemFast | Family::MemSlow => {
                let mut table = seeded_table(rng);
                table[..4].copy_from_slice(&(uid as u32).to_le_bytes());
                memsys_block(name, table, self == Family::MemFast)
            }
            Family::Alu => alu_block(name, uid),
        }
    }
}

/// A 16-entry ROM image drawn from `rng`.
pub fn seeded_table(rng: &mut SplitMix64) -> [u8; 16] {
    let mut t = [0u8; 16];
    for v in &mut t {
        *v = rng.bits(8) as u8;
    }
    t
}

fn pair(name: String, slm_source: String, entry: &str, rtl: Module, spec: EquivSpec) -> BlockPair {
    BlockPair {
        name,
        slm_source,
        slm_entry: entry.into(),
        rtl,
        spec,
    }
}

/// Wraps `inner` in a top module that adds `k` to output `port` (every
/// other port passes through), flattened — how the offset families reuse
/// the repository's RTL unchanged.
fn with_output_offset(inner: Module, port: &str, k: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("{}_k", inner.name));
    let ins: Vec<_> = inner
        .inputs
        .iter()
        .map(|p| b.input(p.name.clone(), p.width))
        .collect();
    let outs = b.instantiate("u", &inner, &ins);
    for (p, &o) in inner.outputs.iter().zip(&outs) {
        if p.name == port {
            let kk = b.lit(p.width, k & mask(p.width));
            let y = b.add(o, kk);
            b.output(p.name.clone(), y);
        } else {
            b.output(p.name.clone(), o);
        }
    }
    let top = b.finish().expect("offset wrapper is well formed");
    let top_name = top.name.clone();
    let mut d = Design::new();
    d.add_module(inner);
    d.add_module(top);
    flatten(&d, &top_name).expect("offset wrapper flattens")
}

fn mask(width: u32) -> u64 {
    (1u64 << width) - 1
}

/// Binds each named input at cycle 0 to the SLM argument of the same name
/// and compares the SLM return value with `out` at cycle 0.
fn comb_spec(inputs: &[&str], out: &str) -> EquivSpec {
    let mut spec = EquivSpec::new(1);
    for &n in inputs {
        spec = spec.bind(n, 0, Binding::Slm(n.into()));
    }
    spec.compare("return", out, 0)
}

// The offset families add their constant `k` in the SLM's 32-bit `int`
// arithmetic and in the RTL at the output width, so the RTL sees `k` modulo
// 2^width while the SLM source carries all of it.

/// `(a*b + k)` in the SLM; `b*a + k` in the RTL.
pub fn mul_block(name: String, k: u64) -> BlockPair {
    let (w, ow) = (MUL_W, 2 * MUL_W);
    let src = format!(
        "uint<{ow}> mul(uint<{w}> a, uint<{w}> b) {{\n    return (uint<{ow}>)(a * b + {k});\n}}\n"
    );
    let mut b = ModuleBuilder::new("mul_rtl");
    let a = b.input("a", w);
    let bi = b.input("b", w);
    let (aw, bw) = (b.zext(a, ow), b.zext(bi, ow));
    let p = b.mul(bw, aw);
    let kk = b.lit(ow, k & mask(ow));
    let y = b.add(p, kk);
    b.output("y", y);
    let rtl = b.finish().expect("mul rtl is well formed");
    pair(name, src, "mul", rtl, comb_spec(&["a", "b"], "y"))
}

/// `(a*b + c + k)` in the SLM; `(c + b*a) + k` in the RTL.
pub fn madd_block(name: String, k: u64) -> BlockPair {
    let (w, ow) = (MADD_W, 2 * MADD_W);
    let src = format!(
        "uint<{ow}> madd(uint<{w}> a, uint<{w}> b, uint<{ow}> c) {{\n    \
         return (uint<{ow}>)(a * b + c + {k});\n}}\n"
    );
    let mut b = ModuleBuilder::new("madd_rtl");
    let a = b.input("a", w);
    let bi = b.input("b", w);
    let c = b.input("c", ow);
    let (aw, bw) = (b.zext(a, ow), b.zext(bi, ow));
    let p = b.mul(bw, aw);
    let s = b.add(c, p);
    let kk = b.lit(ow, k & mask(ow));
    let y = b.add(s, kk);
    b.output("y", y);
    let rtl = b.finish().expect("madd rtl is well formed");
    pair(name, src, "madd", rtl, comb_spec(&["a", "b", "c"], "y"))
}

/// `((a + b) + c) + k` in the SLM; `((c + a) + b) + k` in the RTL.
pub fn add_block(name: String, k: u64) -> BlockPair {
    let w = ADD_W;
    let src = format!(
        "uint<{w}> add3(uint<{w}> a, uint<{w}> b, uint<{w}> c) {{\n    \
         return (uint<{w}>)(a + b + c + {k});\n}}\n"
    );
    let mut b = ModuleBuilder::new("add3_rtl");
    let a = b.input("a", w);
    let bi = b.input("b", w);
    let c = b.input("c", w);
    let t = b.add(c, a);
    let t = b.add(t, bi);
    let kk = b.lit(w, k & mask(w));
    let y = b.add(t, kk);
    b.output("y", y);
    let rtl = b.finish().expect("add3 rtl is well formed");
    pair(name, src, "add3", rtl, comb_spec(&["a", "b", "c"], "y"))
}

/// The SLM-C block FIR with the given coefficients.
fn fir_source(c: [i64; fir::TAPS]) -> String {
    format!(
        "void fir(int8 xs[8], out int<18> ys[8]) {{\n    int c[4];\n    \
         c[0] = {}; c[1] = {}; c[2] = {}; c[3] = {};\n    \
         for (int n = 0; n < 8; n++) {{\n        int acc = 0;\n        \
         for (int k = 0; k < 4; k++) {{\n            if (k > n) break;\n            \
         acc += c[k] * xs[n - k];\n        }}\n        ys[n] = (int<18>) acc;\n    }}\n}}\n",
        c[0], c[1], c[2], c[3]
    )
}

/// The streaming FIR RTL of `dfv_designs::fir` with the given coefficients:
/// a sample shift register, a MAC over the pre-edge taps, and a registered
/// output with its valid strobe.
fn fir_rtl(c: [i64; fir::TAPS]) -> Module {
    let ow = fir::OUT_WIDTH;
    let mut b = ModuleBuilder::new("fir_rtl");
    let in_valid = b.input("in_valid", 1);
    let x = b.input("x", 8);
    let stall = b.input("stall", 1);
    let ns = b.not(stall);
    let advance = b.and(in_valid, ns);
    let taps: Vec<_> = (0..fir::TAPS)
        .map(|i| b.reg(format!("h{i}"), 8, Bv::zero(8)))
        .collect();
    for i in (1..fir::TAPS).rev() {
        let prev = b.reg_q(taps[i - 1]);
        b.connect_reg(taps[i], prev);
        b.reg_enable(taps[i], advance);
    }
    b.connect_reg(taps[0], x);
    b.reg_enable(taps[0], advance);
    let mut acc = b.lit(ow, 0);
    for (k, &ck) in c.iter().enumerate() {
        let sample = if k == 0 { x } else { b.reg_q(taps[k - 1]) };
        let sw = b.sext(sample, ow);
        let cw = b.constant(Bv::from_i64(ow, ck));
        let prod = b.mul(sw, cw);
        acc = b.add(acc, prod);
    }
    let y_r = b.reg("y_r", ow, Bv::zero(ow));
    b.connect_reg(y_r, acc);
    b.reg_enable(y_r, advance);
    let v_r = b.reg("v_r", 1, Bv::zero(1));
    b.connect_reg(v_r, advance);
    let yq = b.reg_q(y_r);
    let vq = b.reg_q(v_r);
    b.output("y", yq);
    b.output("out_valid", vq);
    b.finish().expect("fir rtl is well formed")
}

/// FIR with seeded coefficients against the streaming RTL.
pub fn fir_block(name: String, c: [i64; fir::TAPS]) -> BlockPair {
    pair(name, fir_source(c), "fir", fir_rtl(c), fir::equiv_spec())
}

/// The blur tile with `k` added to every output pixel (mod 256).
pub fn conv_block(name: String, k: u64) -> BlockPair {
    let src = conv::slm_source().replace(
        "res[y * 4 + x] = (uint8)(acc >> 4);",
        &format!("res[y * 4 + x] = (uint8)((acc >> 4) + {k});"),
    );
    assert!(
        src.contains(&format!("+ {k})")),
        "blur source changed shape"
    );
    let rtl = with_output_offset(conv::rtl(), "pix_out", k);
    pair(name, src, "blur", rtl, conv::equiv_spec())
}

/// The dual-bank lookup with a seeded ROM on its fast or slow bank.
pub fn memsys_block(name: String, table: [u8; 16], fast: bool) -> BlockPair {
    let spec = if fast {
        memsys::equiv_spec_fast()
    } else {
        memsys::equiv_spec_slow()
    };
    pair(
        name,
        memsys::slm_source(&table),
        "lookup",
        memsys::rtl(&table),
        spec,
    )
}

/// The Fig 1 bit-accurate ALU with `k` added to its 9-bit result.
pub fn alu_block(name: String, k: u64) -> BlockPair {
    let src = format!(
        "int<9> alu(int8 a, int8 b, int8 c) {{\n    int8 t = (int8)(a + b);\n    \
         return (int<9>)((int)t + c + {k});\n}}\n"
    );
    let rtl = with_output_offset(alu::rtl(8, 8), "out", k);
    pair(name, src, "alu", rtl, alu::equiv_spec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_core::{verify_block, BlockStatus};

    fn blocks(seed: u64) -> Vec<BlockPair> {
        let mut rng = SplitMix64::new(seed);
        COLD_MIX
            .iter()
            .enumerate()
            .map(|(i, f)| f.block(f.tag().to_string(), seed * 8 + i as u64, &mut rng))
            .collect()
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        let (a, b) = (blocks(11), blocks(11));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.content_hash(), y.content_hash(), "{}", x.name);
        }
        let c = blocks(12);
        assert!(a
            .iter()
            .zip(&c)
            .all(|(x, y)| x.content_hash() != y.content_hash()));
    }

    #[test]
    fn every_family_is_equivalent_by_construction() {
        let mut rng = SplitMix64::new(5);
        for uid in [0, 1, 300, (1 << 28) - 1] {
            for f in COLD_MIX {
                let b = f.block(f.tag().to_string(), uid, &mut rng);
                assert_eq!(
                    verify_block(&b).status,
                    BlockStatus::Pass,
                    "{} {uid}",
                    b.name
                );
            }
        }
    }

    #[test]
    fn distinct_uids_give_distinct_content() {
        let mut rng = SplitMix64::new(5);
        for f in COLD_MIX {
            let h: std::collections::BTreeSet<u64> = (0..300)
                .map(|uid| f.block("b".into(), uid * 997, &mut rng).content_hash())
                .collect();
            assert_eq!(h.len(), 300, "{}", f.tag());
        }
    }

    #[test]
    fn a_wrong_constant_is_caught() {
        let good = mul_block("m".into(), 7);
        let bad = BlockPair {
            rtl: mul_block("m".into(), 8).rtl,
            ..good
        };
        assert!(matches!(
            verify_block(&bad).status,
            BlockStatus::NotEquivalent(_)
        ));
    }
}
