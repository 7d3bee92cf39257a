//! A 4-tap FIR filter: the signal-processing design pair.
//!
//! The SLM processes a whole block of samples through one function call
//! (parallel interface); the RTL is a streaming MAC datapath consuming one
//! sample per cycle with an optional stall input — the paper's §3.2
//! interface- and latency-divergence in one design. The paper's §1
//! word-width exploration use-case is exposed through the quantized
//! fixed-point reference model [`fir_reference_fx`].

use dfv_bits::{Bv, Fx, OverflowMode, RoundingMode};
use dfv_rtl::{Module, ModuleBuilder};
use dfv_sec::{Binding, EquivSpec};

/// Block size of the SLM interface.
pub const BLOCK: usize = 8;
/// Number of taps.
pub const TAPS: usize = 4;
/// Default coefficients (signed 8-bit): a small low-pass.
pub const COEFFS: [i64; TAPS] = [3, 17, 17, 3];
/// Output width: 8-bit sample x 8-bit coeff + log2(4) tap growth.
pub const OUT_WIDTH: u32 = 18;

/// The SLM-C source: block-in / block-out, zero initial history.
pub fn slm_source() -> &'static str {
    r#"
    // 4-tap FIR over a block of 8 signed samples, zero-padded history.
    // y[n] = sum_k c[k] * x[n-k]
    void fir(int8 xs[8], out int<18> ys[8]) {
        int c[4];
        c[0] = 3; c[1] = 17; c[2] = 17; c[3] = 3;
        for (int n = 0; n < 8; n++) {
            int acc = 0;
            for (int k = 0; k < 4; k++) {
                if (k > n) break; // history before the block is zero
                acc += c[k] * xs[n - k];
            }
            ys[n] = (int<18>) acc;
        }
    }
    "#
}

/// [`slm_source`] with the coefficients `c` in place of [`COEFFS`].
pub fn slm_source_with_coeffs(c: [i64; TAPS]) -> String {
    let fixed = "c[0] = 3; c[1] = 17; c[2] = 17; c[3] = 3;";
    assert!(slm_source().contains(fixed), "FIR source changed shape");
    slm_source().replace(
        fixed,
        &format!(
            "c[0] = {}; c[1] = {}; c[2] = {}; c[3] = {};",
            c[0], c[1], c[2], c[3]
        ),
    )
}

/// The streaming RTL: one sample per cycle on `x` gated by `in_valid`,
/// `y`/`out_valid` one cycle later; `stall` freezes the whole pipeline
/// (§3.2's "external stall conditions ... typically not modeled in the
/// SLM").
pub fn rtl() -> Module {
    rtl_with_coeffs(COEFFS)
}

/// [`rtl`] with the coefficients `c` in place of [`COEFFS`].
pub fn rtl_with_coeffs(coeffs: [i64; TAPS]) -> Module {
    let mut b = ModuleBuilder::new("fir_rtl");
    let in_valid = b.input("in_valid", 1);
    let x = b.input("x", 8);
    let stall = b.input("stall", 1);
    let advance = {
        let ns = b.not(stall);
        b.and(in_valid, ns)
    };
    // Sample history shift register.
    let mut taps_q = Vec::new();
    for i in 0..TAPS {
        let r = b.reg(format!("h{i}"), 8, Bv::zero(8));
        taps_q.push(r);
    }
    // h0 <= x, h1 <= h0, ... when advancing.
    for i in (1..TAPS).rev() {
        let prev = b.reg_q(taps_q[i - 1]);
        b.connect_reg(taps_q[i], prev);
        b.reg_enable(taps_q[i], advance);
    }
    b.connect_reg(taps_q[0], x);
    b.reg_enable(taps_q[0], advance);
    // MAC: y = sum c[k] * h[k] — but h is *post-edge*, so compute from the
    // pre-edge values: tap 0 uses the live input x, tap k uses h[k-1].
    let mut acc = b.lit(OUT_WIDTH, 0);
    for (k, &c) in coeffs.iter().enumerate() {
        let sample = if k == 0 { x } else { b.reg_q(taps_q[k - 1]) };
        let sw = b.sext(sample, OUT_WIDTH);
        let cw = b.constant(Bv::from_i64(OUT_WIDTH, c));
        let prod = b.mul(sw, cw);
        acc = b.add(acc, prod);
    }
    let y_r = b.reg("y_r", OUT_WIDTH, Bv::zero(OUT_WIDTH));
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

/// The stall-free transaction spec: 8 samples streamed in over cycles
/// 0..8, each `ys` slice compared one cycle after its sample enters.
pub fn equiv_spec() -> EquivSpec {
    let mut spec = EquivSpec::new(BLOCK as u32 + 1);
    for n in 0..BLOCK as u32 {
        spec = spec
            .bind("in_valid", n, Binding::Const(Bv::from_bool(true)))
            .bind("stall", n, Binding::Const(Bv::from_bool(false)))
            .bind(
                "x",
                n,
                Binding::SlmSlice {
                    name: "xs".into(),
                    hi: n * 8 + 7,
                    lo: n * 8,
                },
            );
        spec = spec.compare_slice("ys", (n + 1) * OUT_WIDTH - 1, n * OUT_WIDTH, "y", n + 1);
    }
    spec.bind(
        "in_valid",
        BLOCK as u32,
        Binding::Const(Bv::from_bool(false)),
    )
    .bind("stall", BLOCK as u32, Binding::Const(Bv::from_bool(false)))
}

/// Reference fixed-point FIR at an arbitrary (width, frac) format — the
/// word-width exploration model (§1: "decide on the optimal word widths to
/// support the desired bit error rates"). Coefficients are quantized from
/// their exact values; the output is quantized after each accumulation.
pub fn fir_reference_fx(samples: &[f64], width: u32, frac: u32) -> Vec<f64> {
    let coeffs: Vec<Fx> = COEFFS
        .iter()
        .map(|&c| Fx::from_f64(width, frac, c as f64 / 64.0))
        .collect();
    let mut out = Vec::with_capacity(samples.len());
    for n in 0..samples.len() {
        let mut acc = Fx::zero(width, frac);
        for (k, c) in coeffs.iter().enumerate() {
            if k > n {
                break;
            }
            let x = Fx::from_f64(width, frac, samples[n - k]);
            let p = x
                .mul(c)
                .quantize(width, frac, RoundingMode::HalfEven, OverflowMode::Saturate);
            acc = acc
                .add(&p)
                .quantize(width, frac, RoundingMode::HalfEven, OverflowMode::Saturate);
        }
        out.push(acc.to_f64());
    }
    out
}

/// The exact (double-precision) FIR the fixed-point model approximates.
pub fn fir_reference_exact(samples: &[f64]) -> Vec<f64> {
    let coeffs: Vec<f64> = COEFFS.iter().map(|&c| c as f64 / 64.0).collect();
    (0..samples.len())
        .map(|n| {
            coeffs
                .iter()
                .enumerate()
                .take(n + 1)
                .map(|(k, c)| c * samples[n - k])
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::Simulator;
    use dfv_slmir::{elaborate, parse, Interp, ScalarTy, Value};

    #[test]
    fn slm_interpreter_computes_fir() {
        let prog = parse(slm_source()).unwrap();
        let s8 = ScalarTy {
            width: 8,
            signed: true,
        };
        let xs = Value::Array(
            vec![
                Bv::from_i64(8, 10),
                Bv::from_i64(8, 0),
                Bv::from_i64(8, 0),
                Bv::from_i64(8, 0),
                Bv::from_i64(8, -5),
                Bv::from_i64(8, 0),
                Bv::from_i64(8, 0),
                Bv::from_i64(8, 0),
            ],
            s8,
        );
        let r = Interp::new(&prog).run("fir", &[xs]).unwrap();
        let (_, Value::Array(ys, _)) = &r.outs[0] else {
            panic!()
        };
        // Impulse of 10 at n=0 reproduces the coefficients x10.
        assert_eq!(ys[0].to_i64(), 30);
        assert_eq!(ys[1].to_i64(), 170);
        assert_eq!(ys[2].to_i64(), 170);
        assert_eq!(ys[3].to_i64(), 30);
        // Second impulse of -5 at n=4.
        assert_eq!(ys[4].to_i64(), -15);
        assert_eq!(ys[5].to_i64(), -85);
    }

    #[test]
    fn rtl_streams_the_same_values() {
        let mut sim = Simulator::new(rtl()).unwrap();
        let samples = [10i64, 0, 0, 0, -5, 0, 0, 0];
        let mut got = Vec::new();
        for &s in &samples {
            sim.poke("in_valid", Bv::from_bool(true));
            sim.poke("stall", Bv::from_bool(false));
            sim.poke("x", Bv::from_i64(8, s));
            sim.step();
            if sim.output("out_valid").bit(0) {
                got.push(sim.output("y").to_i64());
            }
        }
        assert_eq!(got, vec![30, 170, 170, 30, -15, -85, -85, -15]);
    }

    #[test]
    fn slm_rtl_equivalence_via_sec() {
        let slm = elaborate(&parse(slm_source()).unwrap(), "fir").unwrap();
        let report = dfv_sec::check_equivalence(&slm, &rtl(), &equiv_spec()).unwrap();
        assert!(
            report.outcome.is_equivalent(),
            "FIR SLM and RTL must be transaction equivalent: {:?}",
            report.outcome
        );
    }

    #[test]
    fn stall_freezes_pipeline_without_changing_values() {
        let mut sim = Simulator::new(rtl()).unwrap();
        let samples = [3i64, -7, 11, 2, 5, -1, 0, 9];
        let mut got = Vec::new();
        let mut i = 0;
        let mut cycle = 0;
        while got.len() < samples.len() {
            let stall = cycle % 3 == 1; // stall every third cycle
            sim.poke("stall", Bv::from_bool(stall));
            sim.poke("in_valid", Bv::from_bool(i < samples.len()));
            sim.poke(
                "x",
                Bv::from_i64(8, if i < samples.len() { samples[i] } else { 0 }),
            );
            let advanced = !stall && i < samples.len();
            sim.step();
            if advanced {
                i += 1;
            }
            if sim.output("out_valid").bit(0) && advanced {
                got.push(sim.output("y").to_i64());
            }
            cycle += 1;
            assert!(cycle < 100, "hung");
        }
        // Same values as the stall-free run (impulse response of 3 then…).
        let mut reference = Simulator::new(rtl()).unwrap();
        let mut expect = Vec::new();
        for &s in &samples {
            reference.poke("in_valid", Bv::from_bool(true));
            reference.poke("stall", Bv::from_bool(false));
            reference.poke("x", Bv::from_i64(8, s));
            reference.step();
            expect.push(reference.output("y").to_i64());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn wordwidth_exploration_error_shrinks() {
        let samples: Vec<f64> = (0..32)
            .map(|i| ((i * 37 % 17) as f64 - 8.0) / 8.0)
            .collect();
        let exact = fir_reference_exact(&samples);
        let mut last_err = f64::INFINITY;
        for frac in [4, 6, 8, 12] {
            let fx = fir_reference_fx(&samples, 18, frac);
            let err: f64 = exact
                .iter()
                .zip(&fx)
                .map(|(e, f)| (e - f).abs())
                .fold(0.0, f64::max);
            assert!(
                err <= last_err + 1e-12,
                "error must shrink with more fraction bits ({frac}: {err} > {last_err})"
            );
            last_err = err;
        }
        assert!(last_err < 0.01);
    }
}
