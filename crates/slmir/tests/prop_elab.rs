//! The elaborated hardware model must agree with the interpreter on every
//! input — the two independent implementations of SLM-C semantics. This is
//! the property that makes the elaborator trustworthy as the SLM side of
//! sequential equivalence checking. The elaborated module runs on both RTL
//! engines — the default bytecode VM and the reference oracle — so the
//! interpreter is also an oracle for the simulator, independent of the
//! RTL crate's own differential suites.
//!
//! The same corpus pins the interpreter's two engines to each other: every
//! entry compiles whole to `dfv-vm` bytecode, and the compiled run equals
//! the tree-walk, result for result and error for error.
//!
//! Uses the in-tree `SplitMix64` so the suite runs offline; the seed is
//! fixed, making every run reproducible.

use std::collections::HashMap;

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::Simulator;
use dfv_slmir::{elaborate, parse, Interp, ScalarTy, Ty, Value};

mod corpus;
use corpus::CORPUS;

/// Random cases; case `i` runs corpus entry `i % CORPUS.len()`, so every
/// entry is covered.
const CASES: usize = 40;

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

/// Seeded inputs per corpus entry for the engine-parity property.
const PARITY_INPUTS: usize = 8;

/// The compiled engine against the walker: identical `RunResult`s (return
/// value, outs, exact step count) on seeded inputs, identical results or
/// errors under every fuel budget from 1 to past the run's step count, and
/// under call-depth budgets below and at the deepest call.
#[test]
fn compiled_engine_matches_the_walker() {
    let mut rng = SplitMix64::new(0xE1AB_0002);
    for &(src, entry) in CORPUS {
        let prog = parse(src).unwrap();
        let mut compiled = Interp::new_compiled(&prog);
        assert!(compiled.is_compiled(entry), "{entry} must compile whole");
        for k in 0..PARITY_INPUTS {
            let seeds: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            let (vals, _) = make_inputs(&prog, entry, &seeds);
            let walked = Interp::new(&prog).run(entry, &vals).unwrap();
            let what = format!("{entry}, seeds {seeds:?}");
            assert_eq!(compiled.run(entry, &vals).unwrap(), walked, "{what}");
            if k > 0 {
                continue;
            }
            for fuel in 1..walked.steps + 3 {
                assert_eq!(
                    Interp::new_compiled(&prog)
                        .with_fuel(fuel)
                        .run(entry, &vals),
                    Interp::new(&prog).with_fuel(fuel).run(entry, &vals),
                    "{what}, fuel {fuel}"
                );
            }
            for depth in 0..3 {
                assert_eq!(
                    Interp::new_compiled(&prog)
                        .with_max_call_depth(depth)
                        .run(entry, &vals),
                    Interp::new(&prog)
                        .with_max_call_depth(depth)
                        .run(entry, &vals),
                    "{what}, call depth {depth}"
                );
            }
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
