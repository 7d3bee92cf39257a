//! Paired SLM + RTL reference designs shared by the examples, integration
//! tests, and benchmark harness.
//!
//! Each module holds one design pair from DESIGN.md's inventory, chosen to
//! exercise a distinct consistency challenge from the paper:
//!
//! | module | paper hook |
//! |--------|-----------|
//! | [`alu`] | Fig 1 — narrow-adder non-associativity vs `int`-style C masking |
//! | [`fir`] | §1 word-width exploration, §3.2 streams + stalls |
//! | [`conv`] | §3.2 parallel (whole-image) SLM vs serial (pixel-stream) RTL |
//! | [`memsys`] | §3.2 variable latency and out-of-order completion |
//! | [`fpmac`] | §3.1.2 reduced-IEEE hardware floating point |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alu;
pub mod conv;
pub mod fir;
pub mod fpmac;
pub mod memsys;

#[cfg(test)]
mod tests {
    use dfv_bits::{Bv, SplitMix64};
    use dfv_slmir::{parse, Interp, ScalarTy, Value};

    /// The golden SLM models every co-simulation runs (FIR blocks, blur
    /// tiles, memory lookups) compile whole, and on seeded inputs the
    /// compiled engine returns the tree-walker's exact `RunResult`.
    #[test]
    fn golden_slm_models_run_compiled() {
        let mut rng = SplitMix64::new(0x601D_0001);
        let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5A);
        let ty = |width, signed| ScalarTy { width, signed };
        let array = |rng: &mut SplitMix64, n: usize, t: ScalarTy| {
            let words = (0..n).map(|_| Bv::from_u64(t.width, rng.next_u64()));
            Value::Array(words.collect(), t)
        };
        let sources = [
            (crate::fir::slm_source().to_string(), "fir"),
            (crate::conv::slm_source().to_string(), "blur"),
            (crate::memsys::slm_source(&table), "lookup"),
        ];
        for (src, entry) in &sources {
            let prog = parse(src).unwrap();
            let mut compiled = Interp::new_compiled(&prog);
            assert!(compiled.is_compiled(entry), "{entry} must compile whole");
            for _ in 0..16 {
                let arg = match *entry {
                    "fir" => array(&mut rng, crate::fir::BLOCK, ty(8, true)),
                    "blur" => array(&mut rng, crate::conv::PIXELS, ty(8, false)),
                    _ => Value::from_u64(ty(4, false), rng.next_u64()),
                };
                let args = [arg];
                let walked = Interp::new(&prog).run(entry, &args).unwrap();
                assert_eq!(compiled.run(entry, &args).unwrap(), walked, "{entry}");
            }
        }
    }
}
