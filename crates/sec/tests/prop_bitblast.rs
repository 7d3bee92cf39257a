//! Soundness fuzz: on random expression DAGs, the word DAG lowered by the
//! bit-blaster must agree with the concrete cycle simulator — the two
//! independent implementations of the IR semantics. The sequential cases
//! unroll random modules with registers, enables and a memory over
//! several cycles, holding inputs for runs of cycles so unchanged logic
//! is rebuilt from the same words (and hash-consed to the same nodes),
//! and check every cycle's outputs. On narrow inputs, an
//! exhaustive-enumeration oracle checks the verdicts of whole equivalence
//! checks (sequential pairs, constraints, `Free` bindings, per-output
//! checks, sweep on and off), of pairs under the constraint forms the
//! checker turns into input facts and of near forms it must not, of
//! word-level rewrite-rule pairs and their near-miss mutants, and of
//! bounded model checks, depth by depth. Demand-driven stepping is
//! checked against stepping with every node demanded.
//!
//! Uses the repo's own `SplitMix64` so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use std::collections::HashMap;

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::{Module, ModuleBuilder, NodeId, Simulator};
use dfv_sat::{Budget, Lit, SolveResult};
use dfv_sec::{
    check_equivalence_per_output_with, check_equivalence_with, Binding, BitBlaster, BmcOutcome,
    CheckOptions, EquivOutcome, EquivSpec, InitState, SymbolicSim, WordDag, WordId,
};

/// Number of operator selectors [`push_op`] understands.
const NUM_OPS: u64 = 22;

/// Appends one random operator over `nodes` (operand indices wrap) and
/// returns it, truncated to 24 bits so division circuits stay tractable.
/// `cheap` replaces multiply/divide/remainder (selectors 2..=6) with add:
/// proving two independently bit-blasted multiplier or divider circuits
/// equal is exponentially hard for CDCL (the known weakness that makes
/// commercial SEC tools use word-level reasoning), so the *symbolic*
/// self-equivalence fuzz sticks to the operators SAT handles well. The
/// multiplier/divider encodings themselves are exhaustively validated on
/// concrete values in `bitblast::tests`.
fn push_op(b: &mut ModuleBuilder, nodes: &[NodeId], rng: &mut SplitMix64, cheap: bool) -> NodeId {
    let mut sel = rng.below(NUM_OPS);
    if cheap && (2..=6).contains(&sel) {
        sel = 0;
    }
    let x = nodes[rng.below(nodes.len() as u64) as usize];
    let y = nodes[rng.below(nodes.len() as u64) as usize];
    let w = b.node_width(x);
    // Arithmetic/logic ops need equal widths: resize y to x's width.
    let same = |b: &mut ModuleBuilder| b.resize_zext(y, w);
    let n = match sel {
        0 => {
            let y = same(b);
            b.add(x, y)
        }
        1 => {
            let y = same(b);
            b.sub(x, y)
        }
        2 => {
            let y = same(b);
            b.mul(x, y)
        }
        3 => {
            let y = same(b);
            b.udiv(x, y)
        }
        4 => {
            let y = same(b);
            b.urem(x, y)
        }
        5 => {
            let y = same(b);
            b.sdiv(x, y)
        }
        6 => {
            let y = same(b);
            b.srem(x, y)
        }
        7 => {
            let y = same(b);
            b.and(x, y)
        }
        8 => {
            let y = same(b);
            b.or(x, y)
        }
        9 => {
            let y = same(b);
            b.xor(x, y)
        }
        10 => b.shl(x, y),
        11 => b.lshr(x, y),
        12 => b.ashr(x, y),
        13 => {
            let y = same(b);
            b.eq(x, y)
        }
        14 => {
            let y = same(b);
            b.ult(x, y)
        }
        15 => {
            let y = same(b);
            b.slt(x, y)
        }
        16 => b.not(x),
        17 => b.neg(x),
        18 => b.red_xor(x),
        19 => b.sext(x, w + 3),
        20 => b.concat(x, y),
        _ => {
            let hi = (w - 1).min(w / 2 + 1);
            b.slice(x, hi, hi / 2)
        }
    };
    if b.node_width(n) > 24 {
        b.trunc(n, 24)
    } else {
        n
    }
}

/// A random combinational module: 2..=3 inputs of 1..=11 bits, 3..=24
/// operators, output `out` driven by the last one.
fn random_comb(rng: &mut SplitMix64, cheap: bool) -> Module {
    let mut b = ModuleBuilder::new("fuzz");
    let mut nodes = Vec::new();
    for i in 0..rng.range_u64(2, 3) {
        let w = rng.range_u64(1, 11) as u32;
        nodes.push(b.input(format!("i{i}"), w));
    }
    for _ in 0..rng.range_u64(3, 24) {
        let n = push_op(&mut b, &nodes, rng, cheap);
        nodes.push(n);
    }
    b.output("out", *nodes.last().expect("nonempty"));
    b.finish().expect("fuzz module is structurally valid")
}

/// A random sequential module: inputs, 1..=3 registers (some with a
/// clock enable), optionally a small memory with one write and one read
/// port, and operators over all of them. Every register is an output, as
/// is the last operator.
fn random_seq(rng: &mut SplitMix64) -> Module {
    let mut b = ModuleBuilder::new("seqfuzz");
    let mut nodes = Vec::new();
    for i in 0..rng.range_u64(2, 3) {
        let w = rng.range_u64(1, 8) as u32;
        nodes.push(b.input(format!("i{i}"), w));
    }
    let regs: Vec<_> = (0..rng.range_u64(1, 3))
        .map(|r| {
            let w = rng.range_u64(1, 8) as u32;
            let reg = b.reg(format!("r{r}"), w, Bv::from_u64(w, rng.bits(w)));
            nodes.push(b.reg_q(reg));
            reg
        })
        .collect();
    for _ in 0..rng.range_u64(2, 10) {
        let n = push_op(&mut b, &nodes, rng, true);
        nodes.push(n);
    }
    let pick = |b: &mut ModuleBuilder, rng: &mut SplitMix64, w: u32| {
        let n = nodes[rng.below(nodes.len() as u64) as usize];
        b.resize_zext(n, w)
    };
    if rng.next_bool() {
        // Depth 5..=8 behind a 3-bit address: non-power-of-two depths
        // take the bit-blaster's modulo-addressing path.
        let depth = rng.range_u64(5, 8) as usize;
        let mem = b.mem("m", 3, 4, depth);
        let (en, addr, data) = (
            pick(&mut b, rng, 1),
            pick(&mut b, rng, 3),
            pick(&mut b, rng, 4),
        );
        b.mem_write(mem, en, addr, data);
        let raddr = pick(&mut b, rng, 3);
        let rd = b.mem_read(mem, raddr);
        b.output("rd", rd);
    }
    for (r, reg) in regs.iter().enumerate() {
        let w = b.node_width(b.reg_q(*reg));
        let next = pick(&mut b, rng, w);
        b.connect_reg(*reg, next);
        if rng.below(3) != 0 {
            let en = pick(&mut b, rng, 1);
            b.reg_enable(*reg, en);
        }
        let q = b.reg_q(*reg);
        b.output(format!("q{r}"), q);
    }
    let last = *nodes.last().expect("nonempty");
    b.output("out", last);
    b.finish()
        .expect("sequential fuzz module is structurally valid")
}

#[test]
fn bitblast_matches_simulator() {
    let mut rng = SplitMix64::new(0xB17_0001);
    for case in 0..200 {
        let module = random_comb(&mut rng, false);
        // Concrete inputs.
        let inputs: Vec<(String, Bv)> = module
            .inputs
            .iter()
            .map(|p| (p.name.clone(), Bv::from_u64(p.width, rng.next_u64())))
            .collect();
        let mut sim = Simulator::new(module.clone()).unwrap();
        let refs: Vec<(&str, Bv)> = inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let expect = sim.eval_comb(&refs)["out"].clone();
        // Symbolic evaluation over free leaves, lowered, with every input
        // bit pinned to the same constants by unit clauses (constant
        // leaves would fold in the DAG and never reach the bit-blaster).
        let mut dag = WordDag::new();
        let mut bb = BitBlaster::new();
        let words: Vec<WordId> = module.inputs.iter().map(|p| dag.leaf(p.width)).collect();
        let cyc = dfv_sec::eval_comb_symbolic(&mut dag, &module, &words);
        let out = bb.lower(&dag, cyc.output(&module, "out"));
        for (&w, (_, v)) in words.iter().zip(&inputs) {
            pin(&mut bb, &dag, w, v);
        }
        assert_eq!(
            solve_reading(&mut bb, &out),
            SolveResult::Sat,
            "case {case}"
        );
        assert_eq!(
            bb.model_value(&dag, cyc.output(&module, "out")),
            expect,
            "case {case}"
        );
    }
}

#[test]
fn self_equivalence_holds() {
    let mut rng = SplitMix64::new(0xB17_0002);
    for case in 0..48 {
        // Every module is transaction-equivalent to itself in one cycle.
        let module = random_comb(&mut rng, true);
        let mut spec = EquivSpec::new(1).compare("out", "out", 0);
        for p in &module.inputs {
            spec = spec.bind(&p.name, 0, Binding::Slm(p.name.clone()));
        }
        let report = dfv_sec::check_equivalence(&module, &module, &spec).unwrap();
        assert!(report.outcome.is_equivalent(), "case {case}");
        // Both sides build the same words, so hash-consing alone closes
        // the point.
        assert_eq!(report.word_closed, 1, "case {case}");
    }
}

/// Asserts unit clauses pinning leaf `w` to `v`.
fn pin(bb: &mut BitBlaster, dag: &WordDag, w: WordId, v: &Bv) {
    for (bit, l) in bb.lower(dag, w).into_iter().enumerate() {
        bb.assert_lit(if v.bit(bit as u32) { l } else { !l });
    }
}

/// Solves with no assumptions after emitting the cone of `read`, so the
/// model gives those literals their encoded values.
fn solve_reading(bb: &mut BitBlaster, read: &[Lit]) -> SolveResult {
    bb.emit_cone(read);
    bb.solve(&[], &Budget::unlimited())
}

/// Per-cycle input words for `cycles` cycles: each input keeps its word
/// for a run of cycles (often several) before switching to a new one.
/// With `symbolic`, a new word is a fresh leaf; otherwise a random
/// constant.
fn held_inputs(
    dag: &mut WordDag,
    m: &Module,
    rng: &mut SplitMix64,
    cycles: usize,
    symbolic: bool,
) -> Vec<Vec<WordId>> {
    let mut cur: Vec<WordId> = Vec::new();
    let mut out = Vec::with_capacity(cycles);
    for t in 0..cycles {
        for (i, p) in m.inputs.iter().enumerate() {
            if t == 0 || rng.below(3) == 0 {
                let w = if symbolic {
                    dag.leaf(p.width)
                } else {
                    dag.constant(&Bv::from_u64(p.width, rng.next_u64()))
                };
                if t == 0 {
                    cur.push(w);
                } else {
                    cur[i] = w;
                }
            }
        }
        out.push(cur.clone());
    }
    out
}

/// Unrolls `m` over `inputs` from reset, returning every output word of
/// every cycle (cycle-major, output-port order).
fn unroll(dag: &mut WordDag, m: &Module, inputs: &[Vec<WordId>]) -> Vec<Vec<WordId>> {
    let mut sym = SymbolicSim::new(dag, m, InitState::Reset).unwrap();
    inputs
        .iter()
        .map(|ins| {
            let cyc = sym.step(dag, ins, &m.output_drivers);
            m.outputs.iter().map(|p| cyc.output(m, &p.name)).collect()
        })
        .collect()
}

/// Replays concrete per-cycle input values on the simulator and checks
/// each cycle's outputs against the model values of the unrolled words.
fn check_against_simulator(
    bb: &BitBlaster,
    dag: &WordDag,
    m: &Module,
    inputs: &[Vec<WordId>],
    outputs: &[Vec<WordId>],
    case: usize,
) {
    let mut sim = Simulator::new(m.clone()).unwrap();
    for (t, (ins, outs)) in inputs.iter().zip(outputs).enumerate() {
        for (p, &w) in m.inputs.iter().zip(ins) {
            sim.poke(&p.name, bb.model_value(dag, w));
        }
        for (p, &w) in m.outputs.iter().zip(outs) {
            assert_eq!(
                bb.model_value(dag, w),
                sim.output(&p.name),
                "case {case}: output {} at cycle {t}",
                p.name
            );
        }
        sim.step();
    }
}

#[test]
fn unrolled_sequential_modules_match_simulator() {
    let mut rng = SplitMix64::new(0xB17_0003);
    for case in 0..150 {
        let module = random_seq(&mut rng);
        let cycles = rng.range_u64(4, 10) as usize;
        for symbolic in [false, true] {
            let mut dag = WordDag::new();
            let mut bb = BitBlaster::new();
            let inputs = held_inputs(&mut dag, &module, &mut rng, cycles, symbolic);
            let outputs = unroll(&mut dag, &module, &inputs);
            // Unconstrained fresh inputs: any model is a valid stimulus,
            // and the output words' model values must be what the
            // simulator computes from it. Every input word is lowered, so
            // the model fixes inputs the outputs do not read too.
            let read: Vec<Lit> = outputs
                .iter()
                .chain(&inputs)
                .flatten()
                .flat_map(|&w| bb.lower(&dag, w))
                .collect();
            assert_eq!(
                solve_reading(&mut bb, &read),
                SolveResult::Sat,
                "case {case}"
            );
            check_against_simulator(&bb, &dag, &module, &inputs, &outputs, case);
        }
    }
}

#[test]
fn symbolic_outputs_are_forced_by_inputs() {
    // The model check above could pass on an under-constrained encoding
    // if the solver happened to pick the right output values. Pin every
    // input (held words included) to a random constant through unit
    // clauses, and demand the opposite of the simulated value on one
    // output bit: that must be UNSAT.
    let mut rng = SplitMix64::new(0xB17_0004);
    for case in 0..60 {
        let module = random_seq(&mut rng);
        let cycles = rng.range_u64(4, 8) as usize;
        let mut dag = WordDag::new();
        let mut bb = BitBlaster::new();
        let inputs = held_inputs(&mut dag, &module, &mut rng, cycles, true);
        let outputs = unroll(&mut dag, &module, &inputs);
        let mut sim = Simulator::new(module.clone()).unwrap();
        // The constant each input word is pinned to; a held word keeps it.
        let mut pinned: HashMap<WordId, Bv> = HashMap::new();
        let mut flipped = None;
        let target_cycle = rng.below(cycles as u64) as usize;
        for (t, ins) in inputs.iter().enumerate() {
            for (p, &w) in module.inputs.iter().zip(ins) {
                let v = pinned.entry(w).or_insert_with(|| {
                    let v = Bv::from_u64(p.width, rng.next_u64());
                    pin(&mut bb, &dag, w, &v);
                    v
                });
                sim.poke(&p.name, v.clone());
            }
            if t == target_cycle {
                let p = &module.outputs[rng.below(module.outputs.len() as u64) as usize];
                let idx = module.output_index(&p.name).unwrap();
                let expect = sim.output(&p.name);
                let bit = rng.below(u64::from(p.width)) as u32;
                let l = bb.lower(&dag, outputs[t][idx])[bit as usize];
                flipped = Some((l, expect.bit(bit)));
            }
            sim.step();
        }
        let (l, v) = flipped.expect("target cycle reached");
        bb.assert_lit(if v { !l } else { l });
        assert_eq!(
            bb.solve(&[], &Budget::unlimited()),
            SolveResult::Unsat,
            "case {case}"
        );
    }
}

#[test]
fn rebuilt_words_are_hash_consed() {
    // Every word the unroller produced must be exactly what building that
    // node afresh from its operand words gives, and building afresh must
    // add no node: a cycle that recomputes unchanged logic costs hash
    // lookups, never new words, and so never new variables or gates.
    // Register updates are rebuilt the same way from the recorded states.
    use dfv_rtl::ir::Node;
    let mut rng = SplitMix64::new(0xB17_0005);
    for case in 0..150 {
        let m = random_seq(&mut rng);
        let cycles = rng.range_u64(4, 10) as usize;
        let mut dag = WordDag::new();
        let inputs = held_inputs(&mut dag, &m, &mut rng, cycles, true);
        let mut sym = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let mut states = vec![sym.reg_state().to_vec()];
        let all: Vec<NodeId> = m.node_ids().collect();
        let mut words: Vec<Vec<WordId>> = Vec::new();
        for ins in &inputs {
            let cyc = sym.step(&mut dag, ins, &all);
            words.push(
                all.iter()
                    .map(|&id| cyc.node(id).expect("demanded"))
                    .collect(),
            );
            states.push(sym.reg_state().to_vec());
        }
        let size = dag.len();
        for (t, nodes) in words.iter().enumerate() {
            let w = |n: &NodeId| nodes[n.index()];
            for (i, node) in m.nodes.iter().enumerate() {
                let fresh = match node {
                    Node::Input(idx) => inputs[t][*idx],
                    Node::RegQ(r) => states[t][r.index()],
                    Node::MemReadData(..) => continue,
                    Node::Const(c) => dag.constant(c),
                    Node::Un(op, a) => dag.un(*op, w(a)),
                    Node::Bin(op, a, b) => dag.bin(*op, w(a), w(b)),
                    Node::Mux { sel, t: x, f } => dag.mux(w(sel), w(x), w(f)),
                    Node::Slice { src, hi, lo } => dag.slice(w(src), *hi, *lo),
                    Node::Concat(hi, lo) => dag.concat(w(hi), w(lo)),
                    Node::Zext(a, width) => dag.zext(w(a), *width),
                    Node::Sext(a, width) => dag.sext(w(a), *width),
                    Node::InstOut(..) => unreachable!("flat module"),
                };
                assert_eq!(fresh, nodes[i], "case {case}: node {i} at cycle {t}");
            }
            for (r, reg) in m.regs.iter().enumerate() {
                let next = w(&reg.next.unwrap());
                let fresh = match reg.en {
                    None => next,
                    Some(en) => dag.mux(w(&en), next, states[t][r]),
                };
                assert_eq!(
                    fresh,
                    states[t + 1][r],
                    "case {case}: register {r} after cycle {t}"
                );
            }
        }
        assert_eq!(dag.len(), size, "case {case}: rebuilding added words");
    }
}

// ---------------------------------------------------------------------
// Exhaustive-enumeration oracle. On pairs and properties narrow enough to
// enumerate every input, the verdicts of the whole checker — encoder,
// emission, solver, sweep — must equal what concrete simulation of every
// constraint-satisfying input establishes. The oracle reads only the
// spec and the simulator, never a literal.
// ---------------------------------------------------------------------

/// Calls `visit` once per assignment of the given widths.
fn for_each_assignment(widths: &[u32], visit: &mut dyn FnMut(&[Bv])) {
    let total: u32 = widths.iter().sum();
    assert!(total <= 16, "oracle space of {total} bits is too wide");
    for bits in 0..1u64 << total {
        let mut rest = bits;
        let vals: Vec<Bv> = widths
            .iter()
            .map(|&w| {
                let v = Bv::from_u64(w, rest);
                rest >>= w;
                v
            })
            .collect();
        visit(&vals);
    }
}

/// Per compare point: whether some constraint-satisfying assignment of
/// the SLM inputs and `Free` bindings makes it disagree, found by
/// replaying every assignment on the concrete simulators (reset initial
/// state).
fn oracle_mismatches(slm: &Module, rtl: &Module, spec: &EquivSpec) -> Vec<bool> {
    let frees: Vec<(usize, u32)> = spec
        .bindings
        .iter()
        .filter(|(_, _, b)| matches!(b, Binding::Free))
        .map(|(port, t, _)| (rtl.input_index(port).unwrap(), *t))
        .collect();
    let widths: Vec<u32> = slm
        .inputs
        .iter()
        .map(|p| p.width)
        .chain(frees.iter().map(|&(i, _)| rtl.inputs[i].width))
        .collect();
    let mut slm_sim = Simulator::new(slm.clone()).unwrap();
    let mut rtl_sim = Simulator::new(rtl.clone()).unwrap();
    let mut constraint_sims: Vec<Simulator> = spec
        .constraints
        .iter()
        .map(|c| Simulator::new(c.clone()).unwrap())
        .collect();
    let mut bad = vec![false; spec.compares.len()];
    for_each_assignment(&widths, &mut |vals| {
        let (slm_vals, free_vals) = vals.split_at(slm.inputs.len());
        let named: HashMap<&str, &Bv> = slm
            .inputs
            .iter()
            .map(|p| p.name.as_str())
            .zip(slm_vals)
            .collect();
        let allowed = constraint_sims
            .iter_mut()
            .zip(&spec.constraints)
            .all(|(sim, c)| {
                let ins: Vec<(&str, Bv)> = c
                    .inputs
                    .iter()
                    .map(|p| (p.name.as_str(), named[p.name.as_str()].clone()))
                    .collect();
                sim.eval_comb(&ins)[&c.outputs[0].name].bit(0)
            });
        if !allowed {
            return;
        }
        let ins: Vec<(&str, Bv)> = named.iter().map(|(n, v)| (*n, (*v).clone())).collect();
        let slm_outs = slm_sim.eval_comb(&ins);
        rtl_sim.reset();
        for t in 0..spec.rtl_cycles {
            for (i, p) in rtl.inputs.iter().enumerate() {
                let bound = spec
                    .bindings
                    .iter()
                    .find(|(port, c, _)| *port == p.name && *c == t);
                let v = match bound.map(|(_, _, b)| b) {
                    Some(Binding::Slm(n)) => named[n.as_str()].clone(),
                    Some(Binding::SlmSlice { name, hi, lo }) => {
                        named[name.as_str()].slice(*hi, *lo)
                    }
                    Some(Binding::Const(v)) => v.clone(),
                    Some(Binding::Free) => {
                        let k = frees.iter().position(|&f| f == (i, t)).unwrap();
                        free_vals[k].clone()
                    }
                    None => Bv::zero(p.width),
                };
                rtl_sim.poke(&p.name, v);
            }
            for (k, cp) in spec.compares.iter().enumerate() {
                if cp.rtl_cycle == t && rtl_sim.output(&cp.rtl_output) != slm_outs[&cp.slm_output] {
                    bad[k] = true;
                }
            }
            rtl_sim.step();
        }
    });
    bad
}

/// A narrow equivalence pair: a random combinational SLM program over
/// 2..=3 inputs of 1..=3 bits, and an RTL that computes the same program
/// from inputs delayed by 0..=`t` registers, sampled at cycle `t`. RTL
/// output `y` may carry an injected difference — unconditional, gated
/// by a `Free` pin, or at one input value that a constraint may exclude
/// — and unobserved cycles drive the input ports with zero, a constant
/// or a `Free` value.
fn oracle_pair(rng: &mut SplitMix64) -> (Module, Module, EquivSpec) {
    let t = rng.below(3) as u32;
    let widths: Vec<u32> = (0..rng.range_u64(2, 3))
        .map(|_| rng.range_u64(1, 3) as u32)
        .collect();
    let n_ops = rng.range_u64(2, 8);
    let program = SplitMix64::new(rng.next_u64());
    let build_program = |b: &mut ModuleBuilder, leaves: Vec<NodeId>| {
        let mut prog = program;
        let mut nodes = leaves;
        for _ in 0..n_ops {
            let n = push_op(b, &nodes, &mut prog, true);
            nodes.push(n);
        }
        (nodes[nodes.len() - 1], nodes[nodes.len() / 2])
    };

    let mut sb = ModuleBuilder::new("slm");
    let leaves: Vec<NodeId> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| sb.input(format!("i{i}"), w))
        .collect();
    let (y, z) = build_program(&mut sb, leaves);
    sb.output("y", y);
    sb.output("z", z);
    let slm = sb.finish().unwrap();

    let mut spec = EquivSpec::new(t + 1);
    let mut rb = ModuleBuilder::new("rtl");
    let mut leaves = Vec::new();
    // At most one unobserved `Free` port, to keep the oracle space small.
    let mut spare_free = true;
    for (i, &w) in widths.iter().enumerate() {
        let name = format!("i{i}");
        let mut leaf = rb.input(&name, w);
        let delay = rng.below(u64::from(t) + 1) as u32;
        for d in 0..delay {
            let r = rb.reg(format!("d{i}_{d}"), w, Bv::from_u64(w, rng.bits(w)));
            rb.connect_reg(r, leaf);
            leaf = rb.reg_q(r);
        }
        leaves.push(leaf);
        for c in 0..=t {
            let b = if c == t - delay {
                Binding::Slm(name.clone())
            } else {
                match rng.below(4) {
                    0 => Binding::Const(Bv::from_u64(w, rng.bits(w))),
                    1 if w == 1 && spare_free => {
                        spare_free = false;
                        Binding::Free
                    }
                    _ => continue,
                }
            };
            spec = spec.bind(&name, c, b);
        }
    }
    let leaf0 = leaves[0];
    let (y, z) = build_program(&mut rb, leaves);
    let f = rb.input("f", 1);
    spec = spec.bind("f", t, Binding::Free);
    let k = Bv::from_u64(widths[0], rng.bits(widths[0]));
    let at_k = {
        let kn = rb.constant(k.clone());
        rb.eq(leaf0, kn)
    };
    let inject = match rng.below(4) {
        0 => None,
        1 => Some(f),
        2 => Some(rb.and(f, at_k)),
        _ => Some(at_k),
    };
    let y = match inject {
        Some(bit) => {
            let wide = rb.resize_zext(bit, rb.node_width(y));
            rb.xor(y, wide)
        }
        None => y,
    };
    rb.output("y", y);
    rb.output("z", z);
    let rtl = rb.finish().unwrap();

    if rng.next_bool() {
        // Excludes exactly the input value the injection may fire at.
        let mut cb = ModuleBuilder::new("not_k");
        let a = cb.input("i0", widths[0]);
        let kn = cb.constant(k);
        let ok = cb.ne(a, kn);
        cb.output("ok", ok);
        spec = spec.constrain(cb.finish().unwrap());
    }
    (slm, rtl, spec.compare("y", "y", t).compare("z", "z", t))
}

#[test]
fn equivalence_verdicts_match_exhaustive_oracle() {
    let mut rng = SplitMix64::new(0xB17_0006);
    let (mut equivalent, mut falsified) = (0, 0);
    for case in 0..60 {
        let (slm, rtl, spec) = oracle_pair(&mut rng);
        let bad = oracle_mismatches(&slm, &rtl, &spec);
        let expect_equiv = !bad.contains(&true);
        if expect_equiv {
            equivalent += 1;
        } else {
            falsified += 1;
        }
        for opts in [CheckOptions::default(), CheckOptions::swept()] {
            let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
            match &report.outcome {
                EquivOutcome::Equivalent => assert!(expect_equiv, "case {case}: {bad:?}"),
                EquivOutcome::NotEquivalent(cex) => {
                    assert!(!expect_equiv, "case {case}: spurious counterexample");
                    for m in &cex.mismatches {
                        let k = spec
                            .compares
                            .iter()
                            .position(|cp| cp.rtl_output == m.rtl_output)
                            .unwrap();
                        assert!(bad[k], "case {case}: mismatch on {}", m.rtl_output);
                    }
                }
                other => panic!("case {case}: unbudgeted check returned {other:?}"),
            }
            let per = check_equivalence_per_output_with(&slm, &rtl, &spec, &opts).unwrap();
            for (v, &b) in per.verdicts.iter().zip(&bad) {
                assert_eq!(
                    !v.outcome.is_equivalent(),
                    b,
                    "case {case}: per-output verdict on {}",
                    v.compare.rtl_output
                );
            }
        }
    }
    assert!(
        equivalent >= 10 && falsified >= 10,
        "{equivalent} / {falsified}"
    );
}

/// A narrow sequential module with a 1-bit `prop` output: 1..=2 inputs
/// of 1..=2 bits and 1..=2 registers of 2..=3 bits, updated from random
/// operators, with the property a comparison of a register against a
/// random constant.
fn oracle_property_module(rng: &mut SplitMix64) -> Module {
    let mut b = ModuleBuilder::new("bmc");
    let mut nodes = Vec::new();
    for i in 0..rng.range_u64(1, 2) {
        nodes.push(b.input(format!("i{i}"), rng.range_u64(1, 2) as u32));
    }
    let regs: Vec<_> = (0..rng.range_u64(1, 2))
        .map(|r| {
            let w = rng.range_u64(2, 3) as u32;
            let reg = b.reg(format!("r{r}"), w, Bv::from_u64(w, rng.bits(w)));
            nodes.push(b.reg_q(reg));
            reg
        })
        .collect();
    for _ in 0..rng.range_u64(2, 5) {
        let n = push_op(&mut b, &nodes, rng, true);
        nodes.push(n);
    }
    for reg in &regs {
        let w = b.node_width(b.reg_q(*reg));
        let src = nodes[rng.below(nodes.len() as u64) as usize];
        let next = b.resize_zext(src, w);
        b.connect_reg(*reg, next);
    }
    let q = b.reg_q(regs[0]);
    let w = b.node_width(q);
    let k = b.lit(w, rng.bits(w));
    let prop = if rng.next_bool() {
        b.ne(q, k)
    } else {
        b.ult(q, k)
    };
    b.output("prop", prop);
    b.finish().unwrap()
}

/// The first cycle at which some input sequence of length `bound` drives
/// `prop` to 0 from reset, by enumerating every sequence.
fn oracle_first_violation(m: &Module, bound: u32) -> Option<u32> {
    let per_cycle: Vec<u32> = m.inputs.iter().map(|p| p.width).collect();
    let widths: Vec<u32> = (0..bound).flat_map(|_| per_cycle.clone()).collect();
    let mut sim = Simulator::new(m.clone()).unwrap();
    let mut first: Option<u32> = None;
    for_each_assignment(&widths, &mut |vals| {
        sim.reset();
        for (t, cycle) in vals.chunks(per_cycle.len()).enumerate() {
            for (p, v) in m.inputs.iter().zip(cycle) {
                sim.poke(&p.name, v.clone());
            }
            if !sim.output("prop").bit(0) {
                first = Some(first.map_or(t as u32, |f| f.min(t as u32)));
                break;
            }
            sim.step();
        }
    });
    first
}

#[test]
fn bmc_depths_match_exhaustive_oracle() {
    let mut rng = SplitMix64::new(0xB17_0007);
    let (mut holds, mut violated) = (0, 0);
    for case in 0..60 {
        let m = oracle_property_module(&mut rng);
        let bits_per_cycle: u32 = m.inputs.iter().map(|p| p.width).sum();
        let bound = (12 / bits_per_cycle).clamp(1, 4);
        let first = oracle_first_violation(&m, bound);
        let whole = dfv_sec::check_property(&m, "prop", bound).unwrap();
        let stepped =
            dfv_sec::check_property_budgeted(&m, "prop", bound, &Budget::unlimited()).unwrap();
        match first {
            None => {
                holds += 1;
                assert_eq!(whole.outcome, BmcOutcome::HoldsUpTo(bound), "case {case}");
                assert_eq!(stepped.outcome, BmcOutcome::HoldsUpTo(bound), "case {case}");
            }
            Some(depth) => {
                violated += 1;
                assert!(
                    matches!(whole.outcome, BmcOutcome::Violated(_)),
                    "case {case}: {:?}",
                    whole.outcome
                );
                // Depth-by-depth solving finds the shallowest violation.
                match &stepped.outcome {
                    BmcOutcome::Violated(t) => {
                        assert_eq!(t.violation_cycle, depth, "case {case}")
                    }
                    other => panic!("case {case}: expected a violation, got {other:?}"),
                }
            }
        }
    }
    assert!(holds >= 10 && violated >= 10, "{holds} / {violated}");
}

// ---------------------------------------------------------------------
// The word DAG's rewrite rules against enumeration. Narrow pairs (at most
// 6 input bits in all) that compute one function through the shapes the
// DAG normalizes — an int-promoted wide sum truncated to the output,
// against a narrow one with its terms reordered, constant multiples as
// shifts, negated terms as subtractions, a commuted product, a window
// above a constant right shift, a mux around it — and near-miss mutants
// of each: swapped extension kinds, a truncation moved across a
// widening, a dropped term, a coefficient off by one. Every verdict must
// equal what enumeration establishes.
// ---------------------------------------------------------------------

/// One term `coef · ext(input)` of a generated sum.
#[derive(Debug, Clone, Copy)]
struct Term {
    input: usize,
    signed: bool,
    coef: i64,
}

/// A generated sum `konst + Σ terms (+ product)`, observed as bits
/// `[shift + out_w - 1 : shift]`, optionally behind a mux on an input
/// bit.
#[derive(Debug, Clone)]
struct SumPair {
    widths: Vec<u32>,
    terms: Vec<Term>,
    /// `ext(a) · ext(b)`, both extended by the flag's kind.
    product: Option<(usize, usize, bool)>,
    konst: i64,
    out_w: u32,
    shift: u32,
    /// Select the sum when this (input, bit) is set, else a plain input.
    mux: Option<(usize, u32)>,
    /// Mutant: the first two terms are summed at the wider input width
    /// and then extended, instead of extended and then summed.
    early_sum: bool,
}

/// The width the SLM side promotes everything to, like C's `int`.
const PROMOTED: u32 = 16;

fn random_sum_pair(rng: &mut SplitMix64) -> SumPair {
    let mut widths = Vec::new();
    let mut total = 0;
    for _ in 0..rng.range_u64(2, 3) {
        let w = (rng.range_u64(1, 3) as u32).min(6 - total);
        if w == 0 {
            break;
        }
        widths.push(w);
        total += w;
    }
    let n = widths.len() as u64;
    let terms = (0..rng.range_u64(1, 4))
        .map(|_| Term {
            input: rng.below(n) as usize,
            signed: rng.next_bool(),
            coef: [1, 1, -1, 2, 4, -2, 3, 5, -3, 6][rng.below(10) as usize],
        })
        .collect();
    let product = (rng.below(3) == 0).then(|| {
        (
            rng.below(n) as usize,
            rng.below(n) as usize,
            rng.next_bool(),
        )
    });
    let mux = (rng.below(3) == 0).then(|| {
        let i = rng.below(n) as usize;
        (i, rng.below(u64::from(widths[i])) as u32)
    });
    SumPair {
        konst: rng.range_u64(0, 40) as i64 - 20,
        out_w: rng.range_u64(1, 6) as u32,
        shift: if rng.below(3) == 0 {
            rng.range_u64(1, 3) as u32
        } else {
            0
        },
        widths,
        terms,
        product,
        mux,
        early_sum: false,
    }
}

/// `x` brought to `w` bits: extended by the given kind, or truncated.
fn fit(b: &mut ModuleBuilder, x: NodeId, signed: bool, w: u32) -> NodeId {
    match (b.node_width(x).cmp(&w), signed) {
        (std::cmp::Ordering::Greater, _) => b.trunc(x, w),
        (_, true) => b.resize_sext(x, w),
        (_, false) => b.resize_zext(x, w),
    }
}

/// The output driver around a sum node: the observed window, then the
/// optional mux against a plain input.
fn finish_sum(mut b: ModuleBuilder, p: &SumPair, ins: &[NodeId], window: NodeId) -> Module {
    let y = match p.mux {
        Some((i, bit)) => {
            let sel = b.bit(ins[i], bit);
            let other = fit(&mut b, ins[(i + 1) % ins.len()], false, p.out_w);
            b.mux(sel, window, other)
        }
        None => window,
    };
    b.output("y", y);
    b.finish().unwrap()
}

/// The SLM side: every operand promoted to [`PROMOTED`] bits, summed in
/// generation order, shifted right (arithmetically) by `shift` and
/// truncated to `out_w`.
fn build_promoted(p: &SumPair) -> Module {
    let mut b = ModuleBuilder::new("slm_sum");
    let ins: Vec<NodeId> = p
        .widths
        .iter()
        .enumerate()
        .map(|(i, &w)| b.input(format!("i{i}"), w))
        .collect();
    let mut acc = b.constant(Bv::from_i64(PROMOTED, p.konst));
    for t in &p.terms {
        let x = fit(&mut b, ins[t.input], t.signed, PROMOTED);
        let c = b.constant(Bv::from_i64(PROMOTED, t.coef));
        let cx = b.mul(c, x);
        acc = b.add(acc, cx);
    }
    if let Some((x, y, signed)) = p.product {
        let (xw, yw) = (
            fit(&mut b, ins[x], signed, PROMOTED),
            fit(&mut b, ins[y], signed, PROMOTED),
        );
        let xy = b.mul(xw, yw);
        acc = b.add(acc, xy);
    }
    let amt = b.lit(4, u64::from(p.shift));
    let shifted = b.ashr(acc, amt);
    let window = b.trunc(shifted, p.out_w);
    finish_sum(b, p, &ins, window)
}

/// The RTL side: the sum computed at `shift + out_w` bits in reverse term
/// order, `±1` terms as adds and subtractions, powers of two as shifts,
/// the product commuted, and the window sliced out directly.
fn build_narrow(p: &SumPair) -> Module {
    let v = p.shift + p.out_w;
    let mut b = ModuleBuilder::new("rtl_sum");
    let ins: Vec<NodeId> = p
        .widths
        .iter()
        .enumerate()
        .map(|(i, &w)| b.input(format!("i{i}"), w))
        .collect();
    let mut terms = p.terms.clone();
    let mut acc = b.constant(Bv::from_i64(v, p.konst));
    if p.early_sum && terms.len() >= 2 {
        // The bug shape of Fig 1: the partial sum wraps at the operands'
        // width before it is widened.
        let (t0, t1) = (terms[0], terms[1]);
        let w = p.widths[t0.input].max(p.widths[t1.input]);
        let x0 = fit(&mut b, ins[t0.input], t0.signed, w);
        let x1 = fit(&mut b, ins[t1.input], t1.signed, w);
        let c0 = b.constant(Bv::from_i64(w, t0.coef));
        let c1 = b.constant(Bv::from_i64(w, t1.coef));
        let (p0, p1) = (b.mul(x0, c0), b.mul(x1, c1));
        let partial = b.add(p0, p1);
        let widened = fit(&mut b, partial, t0.signed, v);
        acc = b.add(acc, widened);
        terms.drain(..2);
    }
    for t in terms.iter().rev() {
        let x = fit(&mut b, ins[t.input], t.signed, v);
        acc = match t.coef {
            1 => b.add(x, acc),
            -1 => b.sub(acc, x),
            c if c > 0 && (c as u64).is_power_of_two() => {
                let s = b.lit(3, u64::from(c.trailing_zeros()));
                let sx = b.shl(x, s);
                b.add(acc, sx)
            }
            c if c < 0 => {
                let k = b.constant(Bv::from_i64(v, -c));
                let kx = b.mul(x, k);
                b.sub(acc, kx)
            }
            c => {
                let k = b.constant(Bv::from_i64(v, c));
                let kx = b.mul(k, x);
                b.add(kx, acc)
            }
        };
    }
    if let Some((x, y, signed)) = p.product {
        let (xv, yv) = (
            fit(&mut b, ins[x], signed, v),
            fit(&mut b, ins[y], signed, v),
        );
        let yx = b.mul(yv, xv);
        acc = b.add(yx, acc);
    }
    let window = b.slice(acc, v - 1, p.shift);
    finish_sum(b, p, &ins, window)
}

/// The near-miss mutants of a pair (each may or may not still be
/// equivalent; enumeration decides).
fn sum_mutants(p: &SumPair, rng: &mut SplitMix64) -> Vec<SumPair> {
    let mut out = Vec::new();
    let k = rng.below(p.terms.len() as u64) as usize;
    let mut m = p.clone();
    m.terms[k].signed = !m.terms[k].signed;
    out.push(m);
    if let Some((x, y, s)) = p.product {
        let mut m = p.clone();
        m.product = Some((x, y, !s));
        out.push(m);
    }
    if p.terms.len() >= 2 {
        let mut m = p.clone();
        m.early_sum = true;
        out.push(m);
    }
    let mut m = p.clone();
    m.terms.remove(k);
    if m.terms.is_empty() {
        m.konst += 1;
        m.terms.push(p.terms[k]);
        m.terms[0].coef = 0;
    }
    out.push(m);
    let mut m = p.clone();
    m.terms[k].coef += 1;
    out.push(m);
    out
}

#[test]
fn rewrite_rule_pairs_and_mutants_match_exhaustive_oracle() {
    let mut rng = SplitMix64::new(0xB17_0008);
    let (mut closed, mut equivalent, mut falsified) = (0, 0, 0);
    for case in 0..120 {
        let pair = random_sum_pair(&mut rng);
        let mut spec = EquivSpec::new(1).compare("y", "y", 0);
        for i in 0..pair.widths.len() {
            spec = spec.bind(&format!("i{i}"), 0, Binding::Slm(format!("i{i}")));
        }
        let slm = build_promoted(&pair);
        let mutants = sum_mutants(&pair, &mut rng);
        for (v, rtl_pair) in std::iter::once(&pair).chain(&mutants).enumerate() {
            let rtl = build_narrow(rtl_pair);
            let bad = oracle_mismatches(&slm, &rtl, &spec)[0];
            if v == 0 {
                assert!(!bad, "case {case}: generated pair differs: {pair:?}");
            }
            if bad {
                falsified += 1;
            } else {
                equivalent += 1;
            }
            for opts in [CheckOptions::default(), CheckOptions::swept()] {
                let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
                assert_eq!(
                    !report.outcome.is_equivalent(),
                    bad,
                    "case {case} variant {v}: {rtl_pair:?} -> {:?}",
                    report.outcome
                );
                if v == 0 && report.word_closed == 1 {
                    closed += 1;
                }
            }
        }
    }
    // Every generated pair is an instance of the normalization rules, so
    // the DAG must close it outright, sweep on and off.
    assert_eq!(closed, 240, "pairs left open at word level");
    assert!(
        equivalent >= 150 && falsified >= 150,
        "{equivalent} / {falsified}"
    );
}

// ---------------------------------------------------------------------
// Constraint-derived input facts, and demand-driven stepping.
// ---------------------------------------------------------------------

/// A constrained narrow pair over a 4-bit `a` and a 1..=3-bit `b`: the
/// RTL computes the SLM's random program with `y` flipped wherever `a`
/// lies in a random window, optionally through a register stage, and `a`
/// is constrained by a random `a <u c`, `c <=u a`, `a == c`, `c == a` or
/// `a <=u c` against a random constant. Returns the pair, its spec, and
/// whether the constraint has one of the exact forms the checker turns
/// into an input fact (a power-of-two `ult` bound, a `ule` bound with
/// only its top bits set, or an equality).
fn constrained_pair(rng: &mut SplitMix64) -> (Module, Module, EquivSpec, bool) {
    let wb = rng.range_u64(1, 3) as u32;
    let n_ops = rng.range_u64(2, 6);
    let program = SplitMix64::new(rng.next_u64());
    let build = |b: &mut ModuleBuilder, a: NodeId, bi: NodeId| {
        let mut prog = program;
        let mut nodes = vec![a, bi];
        for _ in 0..n_ops {
            let n = push_op(b, &nodes, &mut prog, true);
            nodes.push(n);
        }
        nodes[nodes.len() - 1]
    };
    let mut sb = ModuleBuilder::new("slm");
    let a = sb.input("a", 4);
    let bi = sb.input("b", wb);
    let y = build(&mut sb, a, bi);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let staged = rng.next_bool();
    let mut rb = ModuleBuilder::new("rtl");
    let a = rb.input("a", 4);
    let bi = rb.input("b", wb);
    let (a, bi) = if staged {
        let ra = rb.reg("ra", 4, Bv::zero(4));
        rb.connect_reg(ra, a);
        let rbr = rb.reg("rb", wb, Bv::zero(wb));
        rb.connect_reg(rbr, bi);
        (rb.reg_q(ra), rb.reg_q(rbr))
    } else {
        (a, bi)
    };
    let y = build(&mut rb, a, bi);
    let lo = rng.below(16);
    let hi = rng.range_u64(lo, 15);
    let in_window = {
        let (l, h) = (rb.lit(4, lo), rb.lit(4, hi));
        let above = rb.ule(l, a);
        let below = rb.ule(a, h);
        rb.and(above, below)
    };
    let flip = rb.resize_zext(in_window, rb.node_width(y));
    let y = rb.xor(y, flip);
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let c = rng.below(16);
    let kind = rng.below(5);
    let mut cb = ModuleBuilder::new("constraint");
    let ca = cb.input("a", 4);
    let k = cb.lit(4, c);
    let ok = match kind {
        0 => cb.ult(ca, k),
        1 => cb.ule(k, ca),
        2 => cb.eq(ca, k),
        3 => cb.eq(k, ca),
        _ => cb.ule(ca, k),
    };
    cb.output("ok", ok);
    let exact = match kind {
        0 => c.is_power_of_two(),
        1 => [8, 12, 14, 15].contains(&c),
        2 | 3 => true,
        _ => false,
    };
    let t = u32::from(staged);
    let spec = EquivSpec::new(t + 1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .compare("y", "y", t)
        .constrain(cb.finish().unwrap());
    (slm, rtl, spec, exact)
}

#[test]
fn constrained_verdicts_match_exhaustive_oracle() {
    let mut rng = SplitMix64::new(0xB17_000A);
    let (mut equivalent, mut falsified, mut facts) = (0, 0, 0);
    for case in 0..120 {
        let (slm, rtl, spec, exact) = constrained_pair(&mut rng);
        let bad = oracle_mismatches(&slm, &rtl, &spec)[0];
        if bad {
            falsified += 1;
        } else {
            equivalent += 1;
        }
        for opts in [CheckOptions::default(), CheckOptions::swept()] {
            let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
            assert_eq!(
                report.constraint_facts,
                usize::from(exact),
                "case {case}: fact count"
            );
            assert_eq!(
                !report.outcome.is_equivalent(),
                bad,
                "case {case}: {:?}",
                report.outcome
            );
            if exact {
                facts += 1;
            }
        }
    }
    assert!(
        equivalent >= 20 && falsified >= 20 && facts >= 40,
        "{equivalent} / {falsified} / {facts}"
    );
}

#[test]
fn demanded_words_equal_the_all_node_run() {
    // Stepping with a random subset of nodes demanded must give each of
    // them the word the all-node run gives it (one DAG, so equal words
    // are equal ids), and must leave the same register state.
    let mut rng = SplitMix64::new(0xB17_000B);
    for case in 0..150 {
        let m = random_seq(&mut rng);
        let cycles = rng.range_u64(2, 6) as usize;
        let mut dag = WordDag::new();
        let inputs = held_inputs(&mut dag, &m, &mut rng, cycles, true);
        let all: Vec<NodeId> = m.node_ids().collect();
        let mut full = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let mut lazy = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        for ins in &inputs {
            let demand: Vec<NodeId> = all.iter().copied().filter(|_| rng.below(4) == 0).collect();
            let expect: Vec<WordId> = {
                let cyc = full.step(&mut dag, ins, &all);
                all.iter().map(|&id| cyc.node(id).unwrap()).collect()
            };
            let cyc = lazy.step(&mut dag, ins, &demand);
            for &id in &all {
                match cyc.node(id) {
                    Some(w) => assert_eq!(w, expect[id.index()], "case {case}: node {id:?}"),
                    None => assert!(!demand.contains(&id), "case {case}: {id:?} demanded"),
                }
            }
            assert_eq!(lazy.reg_state(), full.reg_state(), "case {case}");
        }
    }
}
