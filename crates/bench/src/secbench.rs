//! The SEC sweeping benchmark behind `bench sec` and E17: every miter
//! workload is checked twice — sweep-off (the raw bit-blasted miter) and
//! sweep-on (word-level rewriting + simulation-guided fraiging, `dfv-sec`'s
//! [`SweepOptions`]) — and the two runs' *verdicts* and counterexample
//! mismatch locations are asserted identical before any number lands in
//! the report. The comparable payload is the deterministic counter set
//! (SAT conflicts, CNF size, sweep statistics, a structural
//! counterexample hash); wall-clock lives only in the timing section, so
//! the canonical JSON reproduces byte-for-byte across processes while the
//! full JSON still carries the measured speedup.
//!
//! The counterexample hash folds only mismatch *locations* (output names
//! and the RTL sample cycle): sweeping legitimately changes which
//! satisfying assignment the solver surfaces, but never *where* the
//! models can be made to disagree — and each counterexample has already
//! been replayed concretely by the checker before it reaches this module.

use dfv_bits::Bv;
use dfv_designs::{conv, fir};
use dfv_obs::{Json, RunReport};
use dfv_rtl::{flatten, Design, Module, ModuleBuilder};
use dfv_sec::{check_equivalence_with, Binding, CheckOptions, EquivOutcome, EquivSpec};

/// Wall-clock repetitions per workload; off/on runs are interleaved
/// within each repetition (same rationale as the simulator sweep: the
/// *ratio* is the measurement, so both sides must see the same load).
const TIMING_REPS: usize = 5;

/// One named miter workload: both models, the transaction spec, and
/// whether the pair is equivalent by construction (checked, not trusted).
struct SecWorkload {
    name: &'static str,
    build: fn(smoke: bool) -> (Module, Module, EquivSpec),
    equivalent: bool,
    /// The SLM-C source and entry function of a row whose SLM side is
    /// elaborated from source; its elaboration is timed as `<row>.elab`.
    source: Option<fn() -> (String, &'static str)>,
}

/// `a*b` versus `b*a`, zero-extended to the full product width. The
/// classic CDCL cliff for independently ordered multipliers; both the
/// bit-blaster's canonical operand order and the sweep's commutative
/// canonicalization collapse the two cones to the same literals.
fn mul_comm(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 5 } else { 7 };
    mul_pair(w, false)
}

/// Like [`mul_comm`] with a seeded near-miss: the RTL adds 1 to the
/// product exactly when `(a, b) == (3, 5)`, so the miter is falsifiable
/// at a single input point — the counterexample-parity workload.
fn mul_bug(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 4 } else { 6 };
    mul_pair(w, true)
}

pub(crate) fn mul_pair(w: u32, inject_bug: bool) -> (Module, Module, EquivSpec) {
    let ow = 2 * w;
    let mut sb = ModuleBuilder::new("slm_mul");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let (aw, bw) = (sb.zext(a, ow), sb.zext(b, ow));
    let y = sb.mul(aw, bw);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_mul");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let (aw, bw) = (rb.zext(a, ow), rb.zext(b, ow));
    let mut y = rb.mul(bw, aw);
    if inject_bug {
        let three = rb.lit(w, 3);
        let five = rb.lit(w, 5);
        let ea = rb.eq(a, three);
        let eb = rb.eq(b, five);
        let hit = rb.and(ea, eb);
        let bump = rb.zext(hit, ow);
        y = rb.add(y, bump);
    }
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// A multiply-accumulate with both the multiply and the accumulate
/// commuted: `(a*b) + c` versus `c + (b*a)`.
fn madd_comm(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 4 } else { 6 };
    let ow = 2 * w;
    let mut sb = ModuleBuilder::new("slm_madd");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let c = sb.input("c", ow);
    let (aw, bw) = (sb.zext(a, ow), sb.zext(b, ow));
    let p = sb.mul(aw, bw);
    let y = sb.add(p, c);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_madd");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let c = rb.input("c", ow);
    let (aw, bw) = (rb.zext(a, ow), rb.zext(b, ow));
    let p = rb.mul(bw, aw);
    let y = rb.add(c, p);
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// `(a+b)+c` versus `(c+a)+b`: associativity, which the sweep's
/// word-level GVN deliberately does *not* rewrite. The checker's word DAG
/// flattens both sums into one linear form, so the point closes before
/// any literal exists.
fn add_assoc(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 8 } else { 16 };
    let mut sb = ModuleBuilder::new("slm_assoc");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let c = sb.input("c", w);
    let t = sb.add(a, b);
    let y = sb.add(t, c);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_assoc");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let c = rb.input("c", w);
    let t = rb.add(c, a);
    let y = rb.add(t, b);
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// A fused-multiply-add mantissa slice — significand multiply, addend
/// alignment, sum, one-step normalization — with the RTL's multiply and
/// add commuted and its datapath decorated with `|0` / `^0` identities
/// the word-level rewriter must strip. Both paths collapse the commuted
/// significand multiplier structurally.
fn fpu_slice(smoke: bool) -> (Module, Module, EquivSpec) {
    let mw = if smoke { 4 } else { 6 };
    let pw = 2 * mw + 1; // product plus one guard bit of headroom
    let build = |name: &str, commuted: bool| -> Module {
        let mut b = ModuleBuilder::new(name);
        let ma = b.input("ma", mw);
        let mb = b.input("mb", mw);
        let mc = b.input("mc", mw);
        let d = b.input("d", 3); // addend alignment shift
        let (maw, mbw) = (b.zext(ma, pw), b.zext(mb, pw));
        let p = if commuted {
            b.mul(mbw, maw)
        } else {
            b.mul(maw, mbw)
        };
        // Align the addend below the product and sum.
        let mcw = b.zext(mc, pw);
        let dw = b.zext(d, pw);
        let shifted = b.lshr(mcw, dw);
        let sum = if commuted {
            b.add(shifted, p)
        } else {
            b.add(p, shifted)
        };
        // Normalize: on overflow into the guard bit, shift right one.
        let carry = b.bit(sum, pw - 1);
        let one = b.lit(pw, 1);
        let norm = b.lshr(sum, one);
        let mant = b.mux(carry, norm, sum);
        let mant = if commuted {
            // Identity decorations the rewriter must see through.
            let z = b.lit(pw, 0);
            let t = b.or(mant, z);
            b.xor(t, z)
        } else {
            mant
        };
        b.output("mant", mant);
        b.output("carry", carry);
        b.finish().unwrap()
    };
    let slm = build("slm_fpu", false);
    let rtl = build("rtl_fpu", true);
    let spec = EquivSpec::new(1)
        .bind("ma", 0, Binding::Slm("ma".into()))
        .bind("mb", 0, Binding::Slm("mb".into()))
        .bind("mc", 0, Binding::Slm("mc".into()))
        .bind("d", 0, Binding::Slm("d".into()))
        .compare("mant", "mant", 0)
        .compare("carry", "carry", 0);
    (slm, rtl, spec)
}

/// Elaborates a row's SLM-C source at its entry.
fn elaborate(source: fn() -> (String, &'static str)) -> Module {
    let (src, entry) = source();
    dfv_slmir::elaborate(&dfv_slmir::parse(&src).unwrap(), entry).unwrap()
}

/// Width and constant of the add3 row.
const ADD3_W: u32 = 5;
const ADD3_K: u64 = 12_345;

fn add3_source() -> (String, &'static str) {
    let (w, k) = (ADD3_W, ADD3_K);
    let src = format!(
        "uint<{w}> add3(uint<{w}> a, uint<{w}> b, uint<{w}> c) {{\n    \
         return (uint<{w}>)(a + b + c + {k});\n}}\n"
    );
    (src, "add3")
}

/// The int-promoted three-operand add: the SLM's `(uint<5>)(a + b + c +
/// k)` is evaluated in 32-bit `int` and truncated, the RTL adds
/// `((c + a) + b) + k` at 5 bits. Reassociation, an extension and a
/// truncation the word DAG has to see through together.
fn add3_promoted(_smoke: bool) -> (Module, Module, EquivSpec) {
    let (w, k) = (ADD3_W, ADD3_K);
    let slm = elaborate(add3_source);
    let mut b = ModuleBuilder::new("add3_rtl");
    let a = b.input("a", w);
    let bi = b.input("b", w);
    let c = b.input("c", w);
    let t = b.add(c, a);
    let t = b.add(t, bi);
    let kk = b.lit(w, k % (1 << w));
    let y = b.add(t, kk);
    b.output("y", y);
    let rtl = b.finish().unwrap();
    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("return", "y", 0);
    (slm, rtl, spec)
}

/// The seeded FIR coefficients.
const FIR_COEFFS: [i64; 4] = [5, 101, 64, 127];

fn fir_source() -> (String, &'static str) {
    (fir::slm_source_with_coeffs(FIR_COEFFS), "fir")
}

/// The streaming FIR with seeded coefficients: the SLM accumulates
/// sign-extended samples in 32-bit `int` and truncates to 18 bits, the
/// RTL multiply-accumulates at 18 bits over its tap registers.
fn fir_seeded(_smoke: bool) -> (Module, Module, EquivSpec) {
    let slm = elaborate(fir_source);
    (slm, fir::rtl_with_coeffs(FIR_COEFFS), fir::equiv_spec())
}

/// The offset the conv row adds to every output pixel.
const CONV_K: u64 = 77;

fn conv_source() -> (String, &'static str) {
    let k = CONV_K;
    let src = conv::slm_source().replace(
        "res[y * 4 + x] = (uint8)(acc >> 4);",
        &format!("res[y * 4 + x] = (uint8)((acc >> 4) + {k});"),
    );
    assert!(
        src.contains(&format!("+ {k})")),
        "blur source changed shape"
    );
    (src, "blur")
}

/// The blur tile with an offset added to every output pixel: in 32-bit
/// `int` after the arithmetic shift in the SLM, at 8 bits after the
/// logical shift and truncation in the RTL. Constant shifts and the RTL's
/// constant-index output mux are on the path.
fn conv_offset(_smoke: bool) -> (Module, Module, EquivSpec) {
    let k = CONV_K;
    let slm = elaborate(conv_source);

    // The RTL tile inside a wrapper that adds `k` to `pix_out`, flattened.
    let inner = conv::rtl();
    let mut b = ModuleBuilder::new("blur_k");
    let ins: Vec<_> = inner
        .inputs
        .iter()
        .map(|p| b.input(p.name.clone(), p.width))
        .collect();
    let outs = b.instantiate("u", &inner, &ins);
    for (p, &o) in inner.outputs.iter().zip(&outs) {
        let o = if p.name == "pix_out" {
            let kk = b.constant(Bv::from_u64(p.width, k));
            b.add(o, kk)
        } else {
            o
        };
        b.output(p.name.clone(), o);
    }
    let top = b.finish().unwrap();
    let mut d = Design::new();
    d.add_module(inner);
    d.add_module(top);
    let rtl = flatten(&d, "blur_k").unwrap();
    (slm, rtl, conv::equiv_spec())
}

/// The memsys row's ROM image.
const MEMSYS_TABLE: [u8; 16] = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];

fn memsys_source() -> (String, &'static str) {
    (dfv_designs::memsys::slm_source(&MEMSYS_TABLE), "lookup")
}

/// The memory-system design's fast bank (1-cycle ROM latency), SLM
/// elaborated from its conditioned C source — a sequential miter with
/// real memories and `Free` tag pins. The spec's `addr < 8` constraint
/// becomes an input fact, so the SLM's 16-entry read and the bank's
/// 8-entry read are one word and the point closes with no SAT work.
fn memsys_fast(_smoke: bool) -> (Module, Module, EquivSpec) {
    let slm = elaborate(memsys_source);
    let rtl = dfv_designs::memsys::rtl(&MEMSYS_TABLE);
    (slm, rtl, dfv_designs::memsys::equiv_spec_fast())
}

const WORKLOADS: [SecWorkload; 9] = [
    SecWorkload {
        name: "mul_comm",
        build: mul_comm,
        equivalent: true,
        source: None,
    },
    SecWorkload {
        name: "madd_comm",
        build: madd_comm,
        equivalent: true,
        source: None,
    },
    SecWorkload {
        name: "add_assoc",
        build: add_assoc,
        equivalent: true,
        source: None,
    },
    SecWorkload {
        name: "fpu_slice",
        build: fpu_slice,
        equivalent: true,
        source: None,
    },
    SecWorkload {
        name: "memsys_fast",
        build: memsys_fast,
        equivalent: true,
        source: Some(memsys_source),
    },
    SecWorkload {
        name: "mul_bug",
        build: mul_bug,
        equivalent: false,
        source: None,
    },
    SecWorkload {
        name: "add3_promoted",
        build: add3_promoted,
        equivalent: true,
        source: Some(add3_source),
    },
    SecWorkload {
        name: "fir_seeded",
        build: fir_seeded,
        equivalent: true,
        source: Some(fir_source),
    },
    SecWorkload {
        name: "conv_offset",
        build: conv_offset,
        equivalent: true,
        source: Some(conv_source),
    },
];

fn fnv_fold(hash: u64, limb: u64) -> u64 {
    (hash ^ limb).wrapping_mul(0x100000001b3)
}

fn fnv_str(hash: u64, s: &str) -> u64 {
    s.bytes().fold(hash, |h, b| fnv_fold(h, b as u64))
}

/// Structural counterexample hash: a fold of the sorted mismatch
/// locations. `0` for non-falsifying outcomes.
fn cex_hash(outcome: &EquivOutcome) -> u64 {
    let EquivOutcome::NotEquivalent(cex) = outcome else {
        return 0;
    };
    let mut locs: Vec<(String, String, u32)> = cex
        .mismatches
        .iter()
        .map(|m| (m.slm_output.clone(), m.rtl_output.clone(), m.rtl_cycle))
        .collect();
    locs.sort();
    let mut h = 0xcbf29ce484222325u64;
    for (s, r, c) in &locs {
        h = fnv_str(h, s);
        h = fnv_str(h, r);
        h = fnv_fold(h, *c as u64);
    }
    h
}

fn verdict_code(outcome: &EquivOutcome) -> u64 {
    match outcome {
        EquivOutcome::Equivalent => 0,
        EquivOutcome::NotEquivalent(_) => 1,
        EquivOutcome::Inconclusive { .. } => 2,
    }
}

/// Runs the sweep-on/sweep-off miter sweep and reduces it to a
/// [`RunReport`]. Counters are a pure function of the workloads (the
/// canonical JSON is byte-reproducible across processes); per-workload
/// timing phases carry the wall-clock.
///
/// # Panics
///
/// Panics if sweeping changes any workload's verdict or counterexample
/// mismatch locations, or if a by-construction-equivalent workload is
/// falsified — each of those would be a checker bug, not a measurement.
/// The asserts fire before the report (and thus any timing) is returned.
pub fn sec_bench_report(smoke: bool) -> RunReport {
    let mut rep = RunReport::new("sec_sweep");
    rep.set_value("smoke", Json::Bool(smoke));
    for w in &WORKLOADS {
        let (slm, rtl, spec) = (w.build)(smoke);
        let opt_off = CheckOptions::default();
        let opt_on = CheckOptions::swept();
        // Best-of-N wall clock, off/on interleaved within each
        // repetition so load drift cannot skew the ratio. The verdicts
        // and counters are deterministic — identical across repetitions
        // — so only the first repetition's reports are kept.
        let mut best_off = std::time::Duration::MAX;
        let mut best_on = std::time::Duration::MAX;
        let mut kept: Option<(dfv_sec::EquivReport, dfv_sec::EquivReport)> = None;
        for _ in 0..TIMING_REPS {
            let t = std::time::Instant::now();
            let off = check_equivalence_with(&slm, &rtl, &spec, &opt_off).unwrap();
            best_off = best_off.min(t.elapsed());
            let t = std::time::Instant::now();
            let on = check_equivalence_with(&slm, &rtl, &spec, &opt_on).unwrap();
            best_on = best_on.min(t.elapsed());
            kept.get_or_insert((off, on));
        }
        let (off, on) = kept.expect("at least one timing rep");

        // Parity gates — everything below is measurement, this is truth.
        assert_eq!(
            verdict_code(&off.outcome),
            verdict_code(&on.outcome),
            "workload {}: sweeping changed the verdict: off={:?} on={:?}",
            w.name,
            off.outcome,
            on.outcome
        );
        assert_eq!(
            cex_hash(&off.outcome),
            cex_hash(&on.outcome),
            "workload {}: sweeping changed the counterexample locations",
            w.name
        );
        assert_eq!(
            w.equivalent,
            off.outcome.is_equivalent(),
            "workload {}: unexpected verdict {:?}",
            w.name,
            off.outcome
        );

        rep.push_phase(format!("{}.off", w.name), best_off);
        rep.push_phase(format!("{}.on", w.name), best_on);
        if let Some(source) = w.source {
            let (src, entry) = source();
            let prog = dfv_slmir::parse(&src).unwrap();
            let best_elab = (0..TIMING_REPS)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(dfv_slmir::elaborate(&prog, entry).unwrap());
                    t.elapsed()
                })
                .min()
                .expect("at least one timing rep");
            rep.push_phase(format!("{}.elab", w.name), best_elab);
        }
        rep.set_counter(
            format!("sec.{}.verdict", w.name),
            verdict_code(&off.outcome),
        );
        rep.set_counter(format!("sec.{}.cex_hash", w.name), cex_hash(&off.outcome));
        for (tag, r) in [("off", &off), ("on", &on)] {
            rep.set_counter(
                format!("sec.{}.{tag}.conflicts", w.name),
                r.solver_stats.conflicts,
            );
            rep.set_counter(format!("sec.{}.{tag}.vars", w.name), r.cnf_vars as u64);
            rep.set_counter(
                format!("sec.{}.{tag}.clauses", w.name),
                r.cnf_clauses as u64,
            );
            rep.set_counter(
                format!("sec.{}.{tag}.word_closed", w.name),
                r.word_closed as u64,
            );
            rep.set_counter(
                format!("sec.{}.{tag}.dag_words", w.name),
                r.dag_words as u64,
            );
            rep.set_counter(
                format!("sec.{}.{tag}.constraint_facts", w.name),
                r.constraint_facts as u64,
            );
        }
        let sw = on.sweep.expect("sweep-on run carries sweep stats");
        rep.set_counter(format!("sec.{}.sweep.classes", w.name), sw.classes);
        rep.set_counter(format!("sec.{}.sweep.candidates", w.name), sw.candidates);
        rep.set_counter(format!("sec.{}.sweep.proved", w.name), sw.proved);
        rep.set_counter(format!("sec.{}.sweep.refuted", w.name), sw.refuted);
        rep.set_counter(format!("sec.{}.sweep.merged_lits", w.name), sw.merged_lits);
        rep.set_counter(
            format!("sec.{}.sweep.proof_conflicts", w.name),
            sw.proof_conflicts,
        );
        rep.set_value(
            format!("conflicts_off_over_on_x100.{}", w.name),
            Json::UInt(off.solver_stats.conflicts * 100 / on.solver_stats.conflicts.max(1)),
        );
    }
    rep
}

/// Wall-clock of the phase `{workload}.{tag}`, in microseconds.
fn phase_us(rep: &RunReport, workload: &str, tag: &str) -> u128 {
    let name = format!("{workload}.{tag}");
    rep.phases()
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.wall.as_micros())
        .sum()
}

/// Renders the sweep as a table: one row per workload, sweep-off versus
/// sweep-on conflicts and wall-clock.
pub fn render_sec_bench(rep: &RunReport) -> String {
    let mut out = String::from(
        "SEC sweeping front-end: raw bit-blasted miter (off) vs word-level rewriting\n+ simulation-guided fraiging (on), verdict parity asserted per workload\n\n",
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let c_off = rep.counter(&format!("sec.{}.off.conflicts", w.name));
        let c_on = rep.counter(&format!("sec.{}.on.conflicts", w.name));
        let us_off = phase_us(rep, w.name, "off");
        let us_on = phase_us(rep, w.name, "on");
        let verdict = match rep.counter(&format!("sec.{}.verdict", w.name)) {
            0 => "equivalent",
            1 => "not-equiv",
            _ => "inconclusive",
        };
        rows.push(vec![
            w.name.to_string(),
            verdict.to_string(),
            c_off.to_string(),
            c_on.to_string(),
            format!("{:.1}x", c_off as f64 / c_on.max(1) as f64),
            format!("{us_off}"),
            format!("{us_on}"),
            if us_on > 0 {
                format!("{:.1}x", us_off as f64 / us_on as f64)
            } else {
                "-".into()
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "workload",
            "verdict",
            "conflicts off",
            "conflicts on",
            "ratio",
            "off us",
            "on us",
            "wall speedup",
        ],
        &rows,
    ));
    out.push_str(
        "\nconflicts (and all sweep.* counters) are deterministic and form the canonical\nJSON payload; the us / speedup columns are measured wall-clock and live only in\nthe full JSON's timing section. Verdicts and counterexample mismatch locations\nare asserted identical off-vs-on before the report exists.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_sweep_wins_where_promised() {
        let a = sec_bench_report(true);
        let b = sec_bench_report(true);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert!(!a.canonical_json().contains("wall_us"));
        // Reassociation was the row only the sweep's merge proofs could
        // cut. The word DAG now flattens both sums into one linear form,
        // so the unswept check closes it at word level with no search;
        // at full width too.
        let (slm, rtl, spec) = add_assoc(false);
        let off = check_equivalence_with(&slm, &rtl, &spec, &CheckOptions::default()).unwrap();
        assert_eq!(off.solver_stats.conflicts, 0, "add_assoc");
        assert_eq!(off.word_closed, 1, "add_assoc");
        for w in ["mul_comm", "madd_comm"] {
            assert_eq!(a.counter(&format!("sec.{w}.off.conflicts")), 0, "{w}");
        }
        // The seeded bug is found with matching mismatch locations.
        assert_eq!(a.counter("sec.mul_bug.verdict"), 1);
        assert_ne!(a.counter("sec.mul_bug.cex_hash"), 0);
    }
}
