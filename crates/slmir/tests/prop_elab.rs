//! The elaborated hardware model must agree with the interpreter on every
//! input — the two independent implementations of SLM-C semantics. This is
//! the property that makes the elaborator trustworthy as the SLM side of
//! sequential equivalence checking. The elaborated module runs on both RTL
//! engines — the default bytecode VM and the reference oracle — so the
//! interpreter is also an oracle for the simulator, independent of the
//! RTL crate's own differential suites.
//!
//! Uses the in-tree `SplitMix64` so the suite runs offline; the seed is
//! fixed, making every run reproducible.

use std::collections::HashMap;

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::Simulator;
use dfv_slmir::{elaborate, parse, Interp, ScalarTy, Ty, Value};

/// Random cases; case `i` runs corpus entry `i % CORPUS.len()`, so every
/// entry is covered.
const CASES: usize = 40;

/// Conditioned SLM-C programs exercising distinct language features. Each
/// entry is (source, entry function).
const CORPUS: &[(&str, &str)] = &[
    (
        "uint8 mix(uint8 a, uint8 b) { return (a ^ b) + (a & b) * 2; }",
        "mix",
    ),
    (
        r#"uint<9> addsat(uint8 a, uint8 b) {
            uint<9> s = (uint<9>) a + (uint<9>) b;
            if (s > 300) { return 300; }
            return s;
        }"#,
        "addsat",
    ),
    (
        r#"int8 clamp(int8 x, int8 lo, int8 hi) {
            if (x < lo) { return lo; }
            if (x > hi) { return hi; }
            return x;
        }"#,
        "clamp",
    ),
    (
        r#"uint32 sumn(uint8 n) {
            uint32 acc = 0;
            for (int i = 0; i < 16; i++) {
                if (i >= n) break;
                acc += i * i;
            }
            return acc;
        }"#,
        "sumn",
    ),
    (
        r#"uint8 parity_fold(uint16 v) {
            uint8 p = 0;
            for (int i = 0; i < 16; i++) {
                p ^= (uint8)((v >> i) & 1);
            }
            return p;
        }"#,
        "parity_fold",
    ),
    (
        r#"uint8 helper(uint8 x) { return x * 3 + 1; }
        uint8 chained(uint8 a) { return helper(helper(a)); }"#,
        "chained",
    ),
    (
        r#"void minmax(uint8 xs[4], out uint8 mn, out uint8 mx) {
            mn = xs[0];
            mx = xs[0];
            for (int i = 1; i < 4; i++) {
                if (xs[i] < mn) { mn = xs[i]; }
                if (xs[i] > mx) { mx = xs[i]; }
            }
        }"#,
        "minmax",
    ),
    (
        r#"uint8 table_lookup(uint8 sel, uint8 base) {
            uint8 lut[8];
            for (int i = 0; i < 8; i++) { lut[i] = base + i * 7; }
            return lut[sel];
        }"#,
        "table_lookup",
    ),
    (
        r#"int32 divmod(int8 a, int8 b) {
            int t = a / (b | 1);
            int r = a % (b | 1);
            return t * 256 + r;
        }"#,
        "divmod",
    ),
    (
        r#"uint16 shifts(uint16 v, uint8 s) {
            uint16 l = v << (s & 15);
            uint16 r = v >> (s & 15);
            int16 ar = (int16) v >> (s & 7);
            return l ^ r ^ (uint16) ar;
        }"#,
        "shifts",
    ),
    (
        r#"uint8 ternaries(uint8 a, uint8 b) {
            return a > b ? a - b : (a == b ? 0 : b - a);
        }"#,
        "ternaries",
    ),
    (
        r#"uint32 nested(uint8 a) {
            uint32 acc = 0;
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j <= i; j++) {
                    if ((uint32)(i * 4 + j) == (uint32) a) { continue; }
                    acc += 1;
                }
            }
            return acc;
        }"#,
        "nested",
    ),
];

/// Builds interpreter argument values and simulator pokes for a function's
/// parameters from a seed vector.
fn make_inputs(
    prog: &dfv_slmir::Program,
    entry: &str,
    seeds: &[u64],
) -> (Vec<Value>, Vec<(String, Bv)>) {
    let f = prog.func(entry).expect("entry exists");
    let mut vals = Vec::new();
    let mut pokes = Vec::new();
    let mut k = 0usize;
    let mut next = |w: u32| {
        let s = seeds[k % seeds.len()].rotate_left((k * 13) as u32);
        k += 1;
        Bv::from_u64(w, s)
    };
    for p in &f.params {
        if p.is_out {
            continue;
        }
        match p.ty {
            Ty::Scalar(s) => {
                let b = next(s.width);
                vals.push(Value::Scalar(b.clone(), s.signed));
                pokes.push((p.name.clone(), b));
            }
            Ty::Array(s, n) => {
                let words: Vec<Bv> = (0..n).map(|_| next(s.width)).collect();
                pokes.push((p.name.clone(), pack(&words)));
                vals.push(Value::Array(words, s));
            }
            _ => unreachable!("corpus is pointer-free"),
        }
    }
    (vals, pokes)
}

/// Packs array words into one port value, element 0 in the low bits.
fn pack(words: &[Bv]) -> Bv {
    let mut packed = words[0].clone();
    for w in &words[1..] {
        packed = w.concat(&packed);
    }
    packed
}

/// Asserts the hardware outputs `outs` carry the interpreter's return
/// value and out parameters.
fn assert_matches_interp(run: &dfv_slmir::RunResult, outs: &HashMap<String, Bv>, what: &str) {
    if let Value::Scalar(expect, _) = &run.ret {
        assert_eq!(&outs["return"], expect, "{what}: return mismatch");
    }
    for (name, v) in &run.outs {
        match v {
            Value::Scalar(b, _) => assert_eq!(&outs[name], b, "{what}: out {name}"),
            Value::Array(ws, _) => assert_eq!(outs[name], pack(ws), "{what}: out {name}"),
            _ => {}
        }
    }
}

#[test]
fn interpreter_and_hardware_agree() {
    let mut rng = SplitMix64::new(0xE1AB_0001);
    for i in 0..CASES {
        let (src, entry) = CORPUS[i % CORPUS.len()];
        let seeds: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let prog = parse(src).unwrap();
        let module = elaborate(&prog, entry).unwrap();
        let (vals, pokes) = make_inputs(&prog, entry, &seeds);

        let run = Interp::new(&prog).run(entry, &vals).unwrap();
        let poke_refs: Vec<(&str, Bv)> =
            pokes.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        for (engine, sim) in [
            ("vm", Simulator::new(module.clone())),
            ("reference", Simulator::new_reference(module.clone())),
        ] {
            let outs = sim.unwrap().eval_comb(&poke_refs);
            assert_matches_interp(
                &run,
                &outs,
                &format!("{entry} on {engine}, seeds {seeds:?}"),
            );
        }
    }
}

/// Deterministic spot-check of a gnarly case: Fig-1 reassociation with
/// explicit narrow temporaries must diverge identically in both engines.
#[test]
fn fig1_divergence_is_identical_in_both_engines() {
    let src = r#"
        int lhs(int8 a, int8 b, int8 c) { int8 t = a + b; return t + c; }
        int rhs(int8 a, int8 b, int8 c) { int8 t = b + c; return t + a; }
    "#;
    let prog = parse(src).unwrap();
    let s8 = ScalarTy {
        width: 8,
        signed: true,
    };
    for (a, b, c) in [
        (127i64, 127, -1),
        (100, 50, -20),
        (-128, -128, 1),
        (1, 2, 3),
    ] {
        let args = [
            Value::from_i64(s8, a),
            Value::from_i64(s8, b),
            Value::from_i64(s8, c),
        ];
        let pokes = [
            ("a", Bv::from_i64(8, a)),
            ("b", Bv::from_i64(8, b)),
            ("c", Bv::from_i64(8, c)),
        ];
        for entry in ["lhs", "rhs"] {
            let interp_out = Interp::new(&prog).run(entry, &args).unwrap().ret;
            let module = elaborate(&prog, entry).unwrap();
            let mut sim = Simulator::new(module).unwrap();
            let hw_out = sim.eval_comb(&pokes)["return"].clone();
            assert_eq!(interp_out.as_bv().unwrap(), &hw_out, "{entry} {a} {b} {c}");
        }
    }
}
