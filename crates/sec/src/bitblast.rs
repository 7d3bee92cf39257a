//! Bit-blasting: word-level IR operators to CNF via Tseitin encoding.
//!
//! The checker builds its words in a [`WordDag`] and lowers here only the
//! words it must reason about ([`BitBlaster::lower`]): the cones of the
//! compare points the DAG left open, and their constraints. Lowering is
//! memoized per [`WordId`], so a leaf gets variables only when a lowered
//! cone reaches it and a shared word is encoded once.
//!
//! Every lowered word becomes a vector of SAT literals (LSB first).
//! Gate encoders allocate a fresh variable per gate output and record the
//! gate in a log; its defining clauses reach the [`Solver`] only when a
//! solve depends on it. [`BitBlaster::solve`] first emits the cone of the
//! literals it reads — the assumptions plus every asserted clause — in
//! creation order, so a miter that structural hashing already folded to a
//! constant costs no clauses at all, and a cone that covers every gate
//! gets exactly the CNF an eager encoder would have built.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dfv_bits::Bv;
use dfv_rtl::ir::{BinOp, UnOp};
use dfv_sat::{Budget, Lit, SolveResult, Solver};

use crate::word::{Word, WordDag, WordId};

/// An FxHash-style hasher for the gate caches and the word DAG. Gate keys
/// are two literal indices packed into one `u64`, so one multiply mixes
/// every key bit into the high half, and the final rotate brings that
/// half down to the low bits the table indexes by. It has no random seed, so lookups cost
/// the same on every run, and it is far cheaper than the default SipHash
/// for keys this small.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Gate cache: packed operand pair to output literal.
type GateCache = HashMap<u64, Lit, BuildHasherDefault<FxHasher>>;

/// The cache key of an (ordered) operand pair.
fn gate_key(a: Lit, b: Lit) -> u64 {
    (a.index() as u64) << 32 | b.index() as u64
}

/// One entry of the gate log: what emission turns into clauses.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// `o <-> a & b`.
    And { o: Lit, a: Lit, b: Lit },
    /// `o <-> x ^ y`.
    Xor { o: Lit, x: Lit, y: Lit },
    /// The asserted clause `asserted[i]`.
    Assert(u32),
}

/// [`BitBlaster::def`] of a variable no unemitted gate defines: an input,
/// the constant, or a gate output whose clauses are already emitted.
const NO_GATE: u32 = u32::MAX;

/// A bit-blasting context owning its [`Solver`].
///
/// Holds the constant-true literal and provides word-level operator
/// encoders used by the unroller and the miter builder. Gates are
/// recorded, not emitted: the solver holds only the clauses of cones some
/// earlier [`BitBlaster::solve`] or [`BitBlaster::emit_cone`] depended on.
#[derive(Debug)]
pub struct BitBlaster {
    solver: Solver,
    true_lit: Lit,
    /// Structural hashing (hash-consing) of AND/XOR gates: transaction
    /// unrolling re-encodes mostly-identical combinational cones every
    /// cycle, and consing collapses the shared structure — the same trick
    /// AIG-based equivalence checkers rely on.
    ///
    /// Gate outputs are a pure function of the operand literals and these
    /// caches, which only ever grow: re-encoding an operator on operands
    /// already seen returns the same literals and records nothing, which
    /// is what lets the unroller skip it outright.
    and_cache: GateCache,
    xor_cache: GateCache,
    /// Every gate and assertion, in creation order.
    gates: Vec<Gate>,
    /// The literals of each asserted clause, indexed by [`Gate::Assert`].
    asserted: Vec<Vec<Lit>>,
    /// Per solver variable, the index in `gates` of the gate defining it
    /// while that gate is unemitted; [`NO_GATE`] otherwise.
    def: Vec<u32>,
    /// Gate-log indices of the assertions not emitted yet. Every solve
    /// depends on all of them.
    pending_asserts: Vec<u32>,
    /// Scratch for [`BitBlaster::emit_cone`]: the variables left to visit
    /// and the gates found.
    stack: Vec<u32>,
    cone: Vec<u32>,
    /// The literals of each lowered word of the DAG this blaster lowers,
    /// indexed by [`WordId`]; empty while the word is not lowered.
    words: Vec<Vec<Lit>>,
    /// Scratch for [`BitBlaster::lower`]: the words left to visit and the
    /// unlowered cone found, and a per-word mark of the current walk.
    word_stack: Vec<WordId>,
    word_cone: Vec<WordId>,
    seen: Vec<u32>,
    walk: u32,
}

impl Default for BitBlaster {
    fn default() -> Self {
        BitBlaster::new()
    }
}

impl BitBlaster {
    /// Creates a context over a fresh solver, allocating the constant-true
    /// variable.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let t = solver.new_var().positive();
        solver.add_clause(&[t]);
        BitBlaster {
            solver,
            true_lit: t,
            and_cache: GateCache::default(),
            xor_cache: GateCache::default(),
            gates: Vec::new(),
            asserted: Vec::new(),
            def: vec![NO_GATE],
            pending_asserts: Vec::new(),
            stack: Vec::new(),
            cone: Vec::new(),
            words: Vec::new(),
            word_stack: Vec::new(),
            word_cone: Vec::new(),
            seen: Vec::new(),
            walk: 0,
        }
    }

    /// The always-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The always-false literal.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// The underlying solver: its model after a [`BitBlaster::solve`],
    /// its statistics, and the variables and clauses emitted so far.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Forwards a recorder into the solver, so `sat.*` counters of later
    /// solves land in it.
    pub(crate) fn set_recorder(&mut self, rec: dfv_obs::SharedRecorder) {
        self.solver.set_recorder(rec);
    }

    /// The number of gates and assertions recorded so far, emitted or not.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// A fresh variable no gate defines.
    fn fresh_lit(&mut self) -> Lit {
        self.def.push(NO_GATE);
        self.solver.new_var().positive()
    }

    /// Records `gate`, whose output `o` was just allocated.
    fn record(&mut self, o: Lit, gate: Gate) {
        self.def[o.var().index()] = self.gates.len() as u32;
        self.gates.push(gate);
    }

    /// A vector of fresh unconstrained literals (a symbolic word).
    pub fn fresh_word(&mut self, width: u32) -> Vec<Lit> {
        (0..width).map(|_| self.fresh_lit()).collect()
    }

    /// Encodes a constant.
    pub fn constant(&mut self, value: &Bv) -> Vec<Lit> {
        value
            .iter_bits()
            .map(|b| if b { self.true_lit } else { !self.true_lit })
            .collect()
    }

    /// Asserts a single literal.
    pub fn assert_lit(&mut self, l: Lit) {
        self.assert_clause(&[l]);
    }

    /// Asserts that at least one of `lits` holds. Every later solve
    /// depends on the clause and on the cones of its literals.
    pub(crate) fn assert_clause(&mut self, lits: &[Lit]) {
        self.pending_asserts.push(self.gates.len() as u32);
        self.gates.push(Gate::Assert(self.asserted.len() as u32));
        self.asserted.push(lits.to_vec());
    }

    /// Emits into the solver the clauses of every not-yet-emitted gate in
    /// the cone of `roots` and of the asserted clauses, in creation order.
    /// Since every gate's operands were created before it, creation order
    /// defines each literal before any clause that reads it, and a cone
    /// covering the whole log reproduces the eager encoding clause for
    /// clause.
    pub fn emit_cone(&mut self, roots: &[Lit]) {
        let mut stack = std::mem::take(&mut self.stack);
        let mut cone = std::mem::take(&mut self.cone);
        for &g in &self.pending_asserts {
            cone.push(g);
            let Gate::Assert(i) = self.gates[g as usize] else {
                unreachable!("pending assertions are assertions")
            };
            stack.extend(
                self.asserted[i as usize]
                    .iter()
                    .map(|l| l.var().index() as u32),
            );
        }
        self.pending_asserts.clear();
        stack.extend(roots.iter().map(|l| l.var().index() as u32));
        while let Some(v) = stack.pop() {
            let g = std::mem::replace(&mut self.def[v as usize], NO_GATE);
            if g == NO_GATE {
                continue;
            }
            cone.push(g);
            match self.gates[g as usize] {
                Gate::And { a, b: y, .. } | Gate::Xor { x: a, y, .. } => {
                    stack.push(a.var().index() as u32);
                    stack.push(y.var().index() as u32);
                }
                Gate::Assert(_) => unreachable!("assertions define no variable"),
            }
        }
        cone.sort_unstable();
        // `a`, `b` (or `x`, `y`) and the gate's own `o` are three distinct
        // variables, so gate clauses skip `add_clause`'s dedup and
        // tautology checks.
        for &g in &cone {
            match self.gates[g as usize] {
                Gate::And { o, a, b } => {
                    self.solver.add_clause_distinct([!a, !b, o]);
                    self.solver.add_clause_distinct([a, !o]);
                    self.solver.add_clause_distinct([b, !o]);
                }
                Gate::Xor { o, x, y } => {
                    self.solver.add_clause_distinct([!x, !y, !o]);
                    self.solver.add_clause_distinct([x, y, !o]);
                    self.solver.add_clause_distinct([!x, y, o]);
                    self.solver.add_clause_distinct([x, !y, o]);
                }
                Gate::Assert(i) => {
                    self.solver.add_clause(&self.asserted[i as usize]);
                }
            }
        }
        cone.clear();
        self.stack = stack;
        self.cone = cone;
    }

    /// Solves under `assumptions` and `budget` after emitting the cone the
    /// call depends on: the assumptions' and every asserted clause's. The
    /// model then covers every literal in that cone; literals outside it
    /// are unconstrained.
    pub fn solve(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveResult {
        self.emit_cone(assumptions);
        self.solver.solve_budgeted(assumptions, budget)
    }

    /// Tseitin AND gate: returns `o` with `o <-> a & b`.
    pub fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding.
        if a == self.false_lit() || b == self.false_lit() {
            return self.false_lit();
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let key = if a <= b {
            gate_key(a, b)
        } else {
            gate_key(b, a)
        };
        if let Some(&o) = self.and_cache.get(&key) {
            return o;
        }
        let o = self.fresh_lit();
        self.record(o, Gate::And { o, a, b });
        self.and_cache.insert(key, o);
        o
    }

    /// OR gate.
    pub fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    /// Tseitin XOR gate.
    pub fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() {
            return b;
        }
        if b == self.false_lit() {
            return a;
        }
        if a == self.true_lit {
            return !b;
        }
        if b == self.true_lit {
            return !a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        // Normalize: canonical order, and fold double negation so
        // xor(!a, b) shares structure with !xor(a, b).
        let (mut x, mut y, mut invert) = if a <= b { (a, b, false) } else { (b, a, false) };
        if x.is_negated() {
            x = !x;
            invert = !invert;
        }
        if y.is_negated() {
            y = !y;
            invert = !invert;
        }
        let (x, y) = if x <= y { (x, y) } else { (y, x) };
        let key = gate_key(x, y);
        if let Some(&o) = self.xor_cache.get(&key) {
            return if invert { !o } else { o };
        }
        let o = self.fresh_lit();
        self.record(o, Gate::Xor { o, x, y });
        self.xor_cache.insert(key, o);
        if invert {
            !o
        } else {
            o
        }
    }

    /// Mux gate: `if s { t } else { f }`.
    pub fn mux_gate(&mut self, s: Lit, t: Lit, f: Lit) -> Lit {
        if s == self.true_lit {
            return t;
        }
        if s == self.false_lit() {
            return f;
        }
        if t == f {
            return t;
        }
        // Constant arms collapse to a single gate (or the select
        // itself), so a mux with a known branch never pays the full
        // three-gate encoding.
        if t == self.true_lit {
            // s ? 1 : f  =  s | f
            return self.or_gate(s, f);
        }
        if t == self.false_lit() {
            // s ? 0 : f  =  !s & f
            return self.and_gate(!s, f);
        }
        if f == self.true_lit {
            // s ? t : 1  =  !s | t
            return self.or_gate(!s, t);
        }
        if f == self.false_lit() {
            // s ? t : 0  =  s & t
            return self.and_gate(s, t);
        }
        if t == !f {
            // s ? t : !t  =  xnor(s, t)
            return !self.xor_gate(s, t);
        }
        let a = self.and_gate(s, t);
        let b = self.and_gate(!s, f);
        self.or_gate(a, b)
    }

    /// Full adder; returns (sum, carry-out).
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(axb, cin);
        let cout = self.or_gate(c1, c2);
        (sum, cout)
    }

    /// Word mux.
    pub fn mux_word(&mut self, s: Lit, t: &[Lit], f: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(t.len(), f.len());
        t.iter()
            .zip(f)
            .map(|(&ti, &fi)| self.mux_gate(s, ti, fi))
            .collect()
    }

    /// Ripple-carry addition with carry-in; result truncated to the operand
    /// width.
    pub fn add_word(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b) {
            let (s, c) = self.full_adder(ai, bi, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// `a - b` (two's complement).
    pub fn sub_word(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        self.add_word(a, &nb, self.true_lit)
    }

    /// Two's-complement negation.
    pub fn neg_word(&mut self, a: &[Lit]) -> Vec<Lit> {
        let zero = vec![self.false_lit(); a.len()];
        self.sub_word(&zero, a)
    }

    /// Unsigned `a < b`: the borrow out of `a - b`.
    pub fn ult_word(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        // Compute a - b and take the complement of the final carry.
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let mut carry = self.true_lit;
        for (&ai, &nbi) in a.iter().zip(&nb) {
            let (_, c) = self.full_adder(ai, nbi, carry);
            carry = c;
        }
        !carry
    }

    /// Signed `a < b`.
    pub fn slt_word(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let w = a.len();
        debug_assert!(w >= 1);
        let (sa, sb) = (a[w - 1], b[w - 1]);
        let ult = self.ult_word(a, b);
        // Different signs: a < b iff a negative. Same signs: unsigned compare.
        let diff = self.xor_gate(sa, sb);
        self.mux_gate(diff, sa, ult)
    }

    /// Word equality.
    pub fn eq_word(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.true_lit;
        for (&ai, &bi) in a.iter().zip(b) {
            let x = self.xor_gate(ai, bi);
            acc = self.and_gate(acc, !x);
        }
        acc
    }

    /// Whether every literal of a word is the constant true or false.
    fn is_const_word(&self, w: &[Lit]) -> bool {
        w.iter().all(|&l| l == self.true_lit || l == !self.true_lit)
    }

    /// Shift-and-add multiplication, truncated to the operand width.
    ///
    /// Multiplication commutes but the shift-add rows do not, so the
    /// operands are put in a canonical order first: a constant operand
    /// becomes the multiplier, so only its *set* bits contribute partial
    /// products, and otherwise the smaller literal vector comes first.
    /// Either way `a*b` and `b*a` produce the same gates, and the
    /// hash-conser collapses SLM and RTL cones that differ only in operand
    /// order.
    pub fn mul_word(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let (a, b) = match (self.is_const_word(a), self.is_const_word(b)) {
            (true, false) => (b, a),
            (false, true) => (a, b),
            _ if a <= b => (a, b),
            _ => (b, a),
        };
        let w = a.len();
        let mut acc = vec![self.false_lit(); w];
        for (i, &bi) in b.iter().enumerate() {
            if bi == !self.true_lit {
                continue; // zero partial product
            }
            // Partial product: (a << i) & bi, truncated to w bits.
            let mut pp = vec![self.false_lit(); w];
            for j in 0..(w - i) {
                pp[i + j] = self.and_gate(a[j], bi);
            }
            acc = self.add_word(&acc, &pp, self.false_lit());
        }
        acc
    }

    /// Unsigned restoring division; returns (quotient, remainder) with the
    /// hardware divide-by-zero convention (all-ones quotient, dividend
    /// remainder).
    pub fn udivrem_word(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        debug_assert_eq!(a.len(), b.len());
        let w = a.len();
        let mut rem = vec![self.false_lit(); w];
        let mut quo = vec![self.false_lit(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted = vec![a[i]];
            shifted.extend_from_slice(&rem[..w - 1]);
            rem = shifted;
            // If rem >= b: rem -= b, quo[i] = 1.
            let lt = self.ult_word(&rem, b);
            let ge = !lt;
            let sub = self.sub_word(&rem, b);
            rem = self.mux_word(ge, &sub, &rem);
            quo[i] = ge;
        }
        // Divide-by-zero convention.
        let zero = vec![self.false_lit(); w];
        let b_is_zero = self.eq_word(b, &zero);
        let ones = vec![self.true_lit; w];
        let quo = self.mux_word(b_is_zero, &ones, &quo);
        let rem = self.mux_word(b_is_zero, a, &rem);
        (quo, rem)
    }

    /// Signed division/remainder via magnitudes, matching
    /// [`dfv_bits::Bv::sdiv`] / [`dfv_bits::Bv::srem`].
    pub fn sdivrem_word(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let (sa, sb) = (a[w - 1], b[w - 1]);
        let na = self.neg_word(a);
        let nb = self.neg_word(b);
        let ma = self.mux_word(sa, &na, a);
        let mb = self.mux_word(sb, &nb, b);
        let (uq, ur) = self.udivrem_word(&ma, &mb);
        let qneg = self.xor_gate(sa, sb);
        let nuq = self.neg_word(&uq);
        let nur = self.neg_word(&ur);
        let quo = self.mux_word(qneg, &nuq, &uq);
        let rem = self.mux_word(sa, &nur, &ur);
        // Divide-by-zero convention overrides the sign handling.
        let zero = vec![self.false_lit(); w];
        let b_is_zero = self.eq_word(b, &zero);
        let ones = vec![self.true_lit; w];
        let quo = self.mux_word(b_is_zero, &ones, &quo);
        let rem = self.mux_word(b_is_zero, a, &rem);
        (quo, rem)
    }

    /// Barrel shifter for dynamic amounts. `arith` selects the fill bit for
    /// right shifts (sign bit); `left` chooses direction. Amounts `>= w`
    /// produce all-fill (zero, or all-sign for arithmetic right shifts),
    /// matching [`dfv_bits::Bv::shl_bv`] and friends.
    fn barrel_shift(&mut self, a: &[Lit], amount: &[Lit], left: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let fill = if arith && !left {
            a[w - 1]
        } else {
            self.false_lit()
        };
        let mut cur: Vec<Lit> = a.to_vec();
        for (bit, &amt) in amount.iter().enumerate() {
            if bit >= 63 || (1u64 << bit) >= w as u64 {
                break; // distances >= w are covered by the saturation below
            }
            let dist = 1usize << bit;
            let shifted: Vec<Lit> = (0..w)
                .map(|i| {
                    if left {
                        if i >= dist {
                            cur[i - dist]
                        } else {
                            self.false_lit()
                        }
                    } else if i + dist < w {
                        cur[i + dist]
                    } else {
                        fill
                    }
                })
                .collect();
            cur = self.mux_word(amt, &shifted, &cur);
        }
        // Saturate when amount >= w. Compare at a width that can hold both.
        let w_bits = (u64::BITS - (w as u64).leading_zeros()) as usize;
        let cmp_w = amount.len().max(w_bits);
        let mut amt_ext: Vec<Lit> = amount.to_vec();
        amt_ext.resize(cmp_w, self.false_lit());
        let w_const = self.constant(&Bv::from_u64(cmp_w as u32, w as u64));
        let in_range = self.ult_word(&amt_ext, &w_const);
        let sat = vec![fill; w];
        self.mux_word(!in_range, &sat, &cur)
    }

    /// Encodes a unary word operator.
    pub fn un_op(&mut self, op: UnOp, a: &[Lit]) -> Vec<Lit> {
        match op {
            UnOp::Not => a.iter().map(|&l| !l).collect(),
            UnOp::Neg => self.neg_word(a),
            UnOp::RedAnd => {
                let mut acc = self.true_lit;
                for &l in a {
                    acc = self.and_gate(acc, l);
                }
                vec![acc]
            }
            UnOp::RedOr => {
                let mut acc = self.false_lit();
                for &l in a {
                    acc = self.or_gate(acc, l);
                }
                vec![acc]
            }
            UnOp::RedXor => {
                let mut acc = self.false_lit();
                for &l in a {
                    acc = self.xor_gate(acc, l);
                }
                vec![acc]
            }
        }
    }

    /// Encodes a binary word operator with the IR's width rules.
    pub fn bin_op(&mut self, op: BinOp, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        match op {
            BinOp::Add => self.add_word(a, b, self.false_lit()),
            BinOp::Sub => self.sub_word(a, b),
            BinOp::Mul => self.mul_word(a, b),
            BinOp::UDiv => self.udivrem_word(a, b).0,
            BinOp::URem => self.udivrem_word(a, b).1,
            BinOp::SDiv => self.sdivrem_word(a, b).0,
            BinOp::SRem => self.sdivrem_word(a, b).1,
            BinOp::And => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.and_gate(x, y))
                .collect(),
            BinOp::Or => a.iter().zip(b).map(|(&x, &y)| self.or_gate(x, y)).collect(),
            BinOp::Xor => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.xor_gate(x, y))
                .collect(),
            BinOp::Shl => self.barrel_shift(a, b, true, false),
            BinOp::LShr => self.barrel_shift(a, b, false, false),
            BinOp::AShr => self.barrel_shift(a, b, false, true),
            BinOp::Eq => vec![self.eq_word(a, b)],
            BinOp::Ne => {
                let e = self.eq_word(a, b);
                vec![!e]
            }
            BinOp::ULt => vec![self.ult_word(a, b)],
            BinOp::ULe => {
                let gt = self.ult_word(b, a);
                vec![!gt]
            }
            BinOp::SLt => vec![self.slt_word(a, b)],
            BinOp::SLe => {
                let gt = self.slt_word(b, a);
                vec![!gt]
            }
        }
    }

    /// The literals of word `id` of `dag`, lowering first every word of
    /// its cone not lowered yet. Lowering is memoized per word, so a word
    /// shared by several cones is encoded once, and a variable is
    /// allocated only when a leaf (or a gate) lands in a lowered cone.
    ///
    /// A blaster lowers the words of one DAG: the memo is indexed by
    /// [`WordId`].
    pub fn lower(&mut self, dag: &WordDag, id: WordId) -> Vec<Lit> {
        if !self.is_lowered(id) {
            self.lower_cone(dag, id);
        }
        self.words[id.index()].clone()
    }

    fn is_lowered(&self, id: WordId) -> bool {
        self.words.get(id.index()).is_some_and(|w| !w.is_empty())
    }

    /// Lowers the unlowered cone of `root` in id order, which puts every
    /// operand before the words built from it.
    fn lower_cone(&mut self, dag: &WordDag, root: WordId) {
        if self.words.len() < dag.len() {
            self.words.resize(dag.len(), Vec::new());
            self.seen.resize(dag.len(), 0);
        }
        self.walk += 1;
        let mut stack = std::mem::take(&mut self.word_stack);
        let mut cone = std::mem::take(&mut self.word_cone);
        stack.push(root);
        while let Some(v) = stack.pop() {
            if self.seen[v.index()] == self.walk || self.is_lowered(v) {
                continue;
            }
            self.seen[v.index()] = self.walk;
            cone.push(v);
            dag.word(v).for_each_operand(|o| stack.push(o));
        }
        cone.sort_unstable();
        for &v in &cone {
            let lits = self.lower_word(dag, v);
            debug_assert_eq!(lits.len(), dag.width(v) as usize);
            self.words[v.index()] = lits;
        }
        cone.clear();
        self.word_stack = stack;
        self.word_cone = cone;
    }

    /// Encodes one word whose operands are all lowered.
    fn lower_word(&mut self, dag: &WordDag, v: WordId) -> Vec<Lit> {
        let lits = |bb: &Self, o: &WordId| bb.words[o.index()].clone();
        match dag.word(v) {
            Word::Leaf(_) => self.fresh_word(dag.width(v)),
            Word::Const(c) => self.constant(c),
            Word::Un(op, a) => {
                let a = lits(self, a);
                self.un_op(*op, &a)
            }
            Word::Bin(op, a, b) => {
                let (a, b) = (lits(self, a), lits(self, b));
                self.bin_op(*op, &a, &b)
            }
            Word::Mux(s, t, f) => {
                let s = self.words[s.index()][0];
                let (t, f) = (lits(self, t), lits(self, f));
                self.mux_word(s, &t, &f)
            }
            Word::Slice(a, hi, lo) => self.words[a.index()][*lo as usize..=*hi as usize].to_vec(),
            Word::Concat(h, l) => {
                let mut c = lits(self, l);
                c.extend_from_slice(&self.words[h.index()]);
                c
            }
            Word::Zext(a, w) => {
                let mut c = lits(self, a);
                c.resize(*w as usize, self.false_lit());
                c
            }
            Word::Sext(a, w) => {
                let mut c = lits(self, a);
                let sign = *c.last().expect("nonzero width");
                c.resize(*w as usize, sign);
                c
            }
            Word::Linear(k, terms) => self.linear_word(k, terms),
        }
    }

    /// Encodes `k + Σ c·t`: the terms whose coefficient has fewer set
    /// bits than its negation are added (a constant multiple costs one
    /// shifted adder row per set bit), the others subtracted at their
    /// negated coefficient, so `a - b` costs one subtractor.
    fn linear_word(&mut self, k: &Bv, terms: &[(WordId, Bv)]) -> Vec<Lit> {
        let mut acc: Option<Vec<Lit>> = None;
        let mut subtracted = Vec::new();
        for (t, c) in terms {
            let n = c.wrapping_neg();
            if n.count_ones() < c.count_ones() {
                subtracted.push((*t, n));
                continue;
            }
            let x = self.scaled(*t, c);
            acc = Some(match acc {
                None => x,
                Some(a) => self.add_word(&a, &x, self.false_lit()),
            });
        }
        if !k.is_zero() {
            let x = self.constant(k);
            acc = Some(match acc {
                None => x,
                Some(a) => self.add_word(&a, &x, self.false_lit()),
            });
        }
        for (t, n) in subtracted {
            let x = self.scaled(t, &n);
            acc = Some(match acc {
                None => self.neg_word(&x),
                Some(a) => self.sub_word(&a, &x),
            });
        }
        acc.expect("a linear word has a term")
    }

    /// `c·t` for a lowered term `t`.
    fn scaled(&mut self, t: WordId, c: &Bv) -> Vec<Lit> {
        let x = self.words[t.index()].clone();
        if c.count_ones() == 1 && c.bit(0) {
            return x;
        }
        let k = self.constant(c);
        self.mul_word(&x, &k)
    }

    /// Replaces the literals of a lowered word: the sweep's merges, so
    /// every word lowered later reads the representative literals.
    pub(crate) fn relower(&mut self, id: WordId, lits: Vec<Lit>) {
        debug_assert!(self.is_lowered(id) && self.words[id.index()].len() == lits.len());
        self.words[id.index()] = lits;
    }

    /// The model value of word `id` after a satisfiable
    /// [`BitBlaster::solve`]. A word no lowered cone reached is
    /// unconstrained and reads as 0.
    pub fn model_value(&self, dag: &WordDag, id: WordId) -> Bv {
        if self.is_lowered(id) {
            model_word(&self.solver, &self.words[id.index()])
        } else {
            Bv::zero(dag.width(id))
        }
    }
}

/// Reads a word back from a solved [`Solver`]'s model as a [`Bv`].
///
/// Literals the model leaves unconstrained read as 0.
///
/// # Panics
///
/// Panics if `word` is empty.
pub fn model_word(solver: &Solver, word: &[Lit]) -> Bv {
    let bits: Vec<bool> = word
        .iter()
        .map(|&l| solver.lit_value(l).unwrap_or(false))
        .collect();
    Bv::from_bits_lsb(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves with no assumptions after emitting the cone of `read`, so
    /// the model gives those literals their encoded values.
    fn solve_reading(bb: &mut BitBlaster, read: &[Lit]) -> SolveResult {
        bb.emit_cone(read);
        bb.solve(&[], &Budget::unlimited())
    }

    /// Checks an operator encoding against concrete evaluation for all
    /// pairs of 4-bit values — exhaustive ground truth.
    fn exhaustive_binop(op: BinOp) {
        let w = 4u32;
        for av in 0..16u64 {
            for bv in 0..16u64 {
                let mut bb = BitBlaster::new();
                let a = bb.constant(&Bv::from_u64(w, av));
                let b = bb.constant(&Bv::from_u64(w, bv));
                let out = bb.bin_op(op, &a, &b);
                assert_eq!(solve_reading(&mut bb, &out), SolveResult::Sat);
                let got = model_word(bb.solver(), &out);
                let expect = dfv_rtl::eval_bin(op, &Bv::from_u64(w, av), &Bv::from_u64(w, bv));
                assert_eq!(got, expect, "{op:?} {av} {bv}");
            }
        }
    }

    #[test]
    fn add_sub_exhaustive() {
        exhaustive_binop(BinOp::Add);
        exhaustive_binop(BinOp::Sub);
    }

    #[test]
    fn mul_exhaustive() {
        exhaustive_binop(BinOp::Mul);
    }

    #[test]
    fn div_rem_exhaustive() {
        exhaustive_binop(BinOp::UDiv);
        exhaustive_binop(BinOp::URem);
        exhaustive_binop(BinOp::SDiv);
        exhaustive_binop(BinOp::SRem);
    }

    #[test]
    fn compare_exhaustive() {
        exhaustive_binop(BinOp::Eq);
        exhaustive_binop(BinOp::Ne);
        exhaustive_binop(BinOp::ULt);
        exhaustive_binop(BinOp::ULe);
        exhaustive_binop(BinOp::SLt);
        exhaustive_binop(BinOp::SLe);
    }

    #[test]
    fn shifts_exhaustive() {
        exhaustive_binop(BinOp::Shl);
        exhaustive_binop(BinOp::LShr);
        exhaustive_binop(BinOp::AShr);
    }

    #[test]
    fn logic_exhaustive() {
        exhaustive_binop(BinOp::And);
        exhaustive_binop(BinOp::Or);
        exhaustive_binop(BinOp::Xor);
    }

    #[test]
    fn symbolic_addition_is_commutative() {
        // Prove forall a, b: a + b == b + a at 8 bits (UNSAT of inequality).
        let mut bb = BitBlaster::new();
        let a = bb.fresh_word(8);
        let b = bb.fresh_word(8);
        let ab = bb.add_word(&a, &b, bb.false_lit());
        let ba = bb.add_word(&b, &a, bb.false_lit());
        let eq = bb.eq_word(&ab, &ba);
        bb.assert_lit(!eq);
        assert_eq!(bb.solve(&[], &Budget::unlimited()), SolveResult::Unsat);
    }

    #[test]
    fn symbolic_fig1_counterexample_exists() {
        // The paper's Fig 1: (a+b)+c != (b+c)+a at 8-bit intermediates,
        // when the final sum is taken at 9 bits. SAT must find a witness.
        let mut bb = BitBlaster::new();
        let a = bb.fresh_word(8);
        let b = bb.fresh_word(8);
        let c = bb.fresh_word(8);
        let sext = |w: &[Lit]| -> Vec<Lit> {
            let mut v = w.to_vec();
            v.push(w[7]);
            v
        };
        let t1 = bb.add_word(&a, &b, bb.false_lit());
        let t1w = sext(&t1);
        let cw = sext(&c);
        let lhs = bb.add_word(&t1w, &cw, bb.false_lit());
        let t2 = bb.add_word(&b, &c, bb.false_lit());
        let t2w = sext(&t2);
        let aw = sext(&a);
        let rhs = bb.add_word(&t2w, &aw, bb.false_lit());
        let eq = bb.eq_word(&lhs, &rhs);
        bb.assert_lit(!eq);
        assert_eq!(bb.solve(&[], &Budget::unlimited()), SolveResult::Sat);
        // The witness must really violate associativity when replayed.
        let (av, bv, cv) = (
            model_word(bb.solver(), &a),
            model_word(bb.solver(), &b),
            model_word(bb.solver(), &c),
        );
        let l = av.wrapping_add(&bv).sext(9).wrapping_add(&cv.sext(9));
        let r = bv.wrapping_add(&cv).sext(9).wrapping_add(&av.sext(9));
        assert_ne!(l, r, "model {av} {bv} {cv} is not a counterexample");
    }

    #[test]
    fn constant_operand_gates_fold_without_gates() {
        // Every gate with a known true/false operand must return the
        // folded literal and record no gate at all.
        let mut bb = BitBlaster::new();
        let a = bb.fresh_word(1)[0];
        let f = bb.fresh_word(1)[0];
        let tt = bb.true_lit();
        let ff = bb.false_lit();
        let before = bb.num_gates();
        assert_eq!(bb.and_gate(a, ff), ff);
        assert_eq!(bb.and_gate(tt, a), a);
        assert_eq!(bb.or_gate(a, ff), a);
        assert_eq!(bb.or_gate(a, tt), tt);
        assert_eq!(bb.or_gate(ff, a), a);
        assert_eq!(bb.xor_gate(a, ff), a);
        assert_eq!(bb.xor_gate(a, tt), !a);
        assert_eq!(bb.mux_gate(a, tt, ff), a);
        assert_eq!(bb.mux_gate(a, ff, tt), !a);
        assert_eq!(bb.mux_gate(tt, a, f), a);
        assert_eq!(bb.mux_gate(ff, a, f), f);
        assert_eq!(bb.mux_gate(a, f, f), f);
        assert_eq!(
            bb.num_gates(),
            before,
            "constant folds must not record gates"
        );
        // Constant-arm muxes collapse to a single gate, not three.
        let one_gate = bb.mux_gate(a, tt, f); // a | f
        assert_eq!(bb.num_gates(), before + 1);
        assert_eq!(one_gate, bb.or_gate(a, f), "hash-conses with plain or");
        assert_eq!(bb.num_gates(), before + 1);
    }

    #[test]
    fn folded_mux_matches_reference_semantics() {
        // Truth-table check of every mux fold against `if s { t } else
        // { f }`, with inputs pinned by unit clauses so the folded
        // literal's model value is forced.
        for bits in 0..8u32 {
            let (sv, tv, fv) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let expect = if sv { tv } else { fv };
            // Five shapes: both arms free, t const, f const, t == !f,
            // and both arms const.
            for shape in 0..5 {
                let mut bb = BitBlaster::new();
                let s = bb.fresh_word(1)[0];
                let x = bb.fresh_word(1)[0];
                let konst = |bb: &mut BitBlaster, v: bool| {
                    if v {
                        bb.true_lit()
                    } else {
                        bb.false_lit()
                    }
                };
                let (t, f) = match shape {
                    0 => (x, bb.fresh_word(1)[0]),
                    1 => (konst(&mut bb, tv), x),
                    2 => (x, konst(&mut bb, fv)),
                    3 => (x, !x),
                    _ => (konst(&mut bb, tv), konst(&mut bb, fv)),
                };
                if shape == 3 && tv == fv {
                    continue; // t == !f cannot represent tv == fv
                }
                let o = bb.mux_gate(s, t, f);
                bb.assert_lit(if sv { s } else { !s });
                for (lit, v) in [(t, tv), (f, fv)] {
                    if lit != bb.true_lit() && lit != bb.false_lit() {
                        bb.assert_lit(if v { lit } else { !lit });
                    }
                }
                assert_eq!(
                    solve_reading(&mut bb, &[o]),
                    SolveResult::Sat,
                    "shape {shape} bits {bits}"
                );
                assert_eq!(
                    bb.solver().lit_value(o),
                    Some(expect),
                    "shape {shape} s={sv} t={tv} f={fv}"
                );
            }
        }
    }
}
