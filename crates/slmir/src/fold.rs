//! The elaborator's node builder: a [`ModuleBuilder`] that folds as it
//! builds.
//!
//! Elaboration predicates every assignment on a guard and unrolls every
//! loop, so most of the nodes a conditioned program asks for have
//! constant operands: the guard of straight-line code is `1 & !0`, a loop
//! variable is a literal, a `continue` flag that never fires is `0`.
//! [`Fold`] evaluates such a node instead of emitting it, applies the
//! identities of a constant operand (`x & 1`, `x | 0`, `x + 0`, `x * 1`,
//! a mux on a constant select or with equal arms), and emits each
//! literal once, so the module holds only the logic that depends on an
//! input. Every rule is exact under the simulator's semantics
//! (`dfv_rtl::eval_bin`/`eval_un`), so folding never changes what the
//! module computes.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dfv_bits::{Bv, FxHasher};
use dfv_rtl::ir::{BinOp, UnOp};
use dfv_rtl::{eval_bin, eval_un, Module, ModuleBuilder, NodeId, RtlError};

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`ModuleBuilder`] that folds constants and constant-operand
/// identities as nodes are built. See the module docs.
#[derive(Debug)]
pub(crate) struct Fold {
    b: ModuleBuilder,
    /// The value of each node known to be constant, by node index.
    known: Vec<Option<Bv>>,
    /// Literal nodes by width and value: each literal is emitted once.
    /// Literals of at most 64 bits, nearly all of them, are keyed by
    /// their one limb, the rest by value.
    literals: FxMap<(u32, u64), NodeId>,
    wide_literals: FxMap<Bv, NodeId>,
    /// The 1-bit literals 0 and 1, which guards and conditions fold to.
    bits: [Option<NodeId>; 2],
}

impl Fold {
    pub(crate) fn new(name: &str) -> Self {
        Fold {
            b: ModuleBuilder::new(name),
            known: Vec::new(),
            literals: FxMap::default(),
            wide_literals: FxMap::default(),
            bits: [None; 2],
        }
    }

    /// The constant value of `id`, if it has one.
    pub(crate) fn value(&self, id: NodeId) -> Option<&Bv> {
        self.known.get(id.index()).and_then(Option::as_ref)
    }

    pub(crate) fn node_width(&self, id: NodeId) -> u32 {
        self.b.node_width(id)
    }

    pub(crate) fn input(&mut self, name: &str, width: u32) -> NodeId {
        self.b.input(name, width)
    }

    pub(crate) fn output(&mut self, name: &str, driver: NodeId) {
        self.b.output(name, driver);
    }

    pub(crate) fn finish(self) -> Result<Module, RtlError> {
        self.b.finish()
    }

    /// The literal `value`, emitted on first use.
    pub(crate) fn constant(&mut self, value: Bv) -> NodeId {
        if value.width() == 1 {
            let bit = usize::from(value.bit(0));
            if let Some(id) = self.bits[bit] {
                return id;
            }
            let id = self.literal(value);
            self.bits[bit] = Some(id);
            return id;
        }
        self.literal(value)
    }

    /// The literal `value`, looked up by width and value.
    fn literal(&mut self, value: Bv) -> NodeId {
        let narrow = (value.width() <= 64).then(|| (value.width(), value.limbs()[0]));
        let found = match narrow {
            Some(key) => self.literals.get(&key),
            None => self.wide_literals.get(&value),
        };
        if let Some(&id) = found {
            return id;
        }
        let id = self.b.constant(value.clone());
        let i = id.index();
        if self.known.len() <= i {
            self.known.resize(i + 1, None);
        }
        match narrow {
            Some(key) => {
                self.literals.insert(key, id);
            }
            None => {
                self.wide_literals.insert(value.clone(), id);
            }
        }
        self.known[i] = Some(value);
        id
    }

    pub(crate) fn lit(&mut self, width: u32, value: u64) -> NodeId {
        self.constant(Bv::from_u64(width, value))
    }

    fn is_zero(&self, id: NodeId) -> bool {
        self.value(id).is_some_and(Bv::is_zero)
    }

    fn is_ones(&self, id: NodeId) -> bool {
        self.value(id).is_some_and(Bv::is_ones)
    }

    fn is_one(&self, id: NodeId) -> bool {
        self.value(id)
            .is_some_and(|v| v.bit(0) && v.count_ones() == 1)
    }

    /// A binary operator: evaluated when both operands are constant,
    /// reduced to an operand by a constant operand's identity, else
    /// built by `build`.
    fn bin(
        &mut self,
        op: BinOp,
        a: NodeId,
        b: NodeId,
        build: fn(&mut ModuleBuilder, NodeId, NodeId) -> NodeId,
    ) -> NodeId {
        if let (Some(x), Some(y)) = (self.value(a), self.value(b)) {
            // Guards and conditions: 1-bit logic folds on the bits.
            if x.width() == 1 {
                let (x, y) = (x.bit(0), y.bit(0));
                let bit = match op {
                    BinOp::And => Some(x & y),
                    BinOp::Or => Some(x | y),
                    BinOp::Xor | BinOp::Ne => Some(x ^ y),
                    BinOp::Eq => Some(x == y),
                    _ => None,
                };
                if let Some(bit) = bit {
                    return self.constant(Bv::from_bool(bit));
                }
            }
            let v = eval_bin(op, x, y);
            return self.constant(v);
        }
        let either = |f: &dyn Fn(NodeId) -> bool| {
            if f(a) {
                Some((a, b))
            } else if f(b) {
                Some((b, a))
            } else {
                None
            }
        };
        let reduced = match op {
            // `k` absorbs: `0 & x`, `ones | x`, `0 * x`.
            BinOp::And => either(&|n| self.is_zero(n))
                .map(|(k, _)| k)
                .or_else(|| either(&|n| self.is_ones(n)).map(|(_, x)| x)),
            BinOp::Or => either(&|n| self.is_ones(n))
                .map(|(k, _)| k)
                .or_else(|| either(&|n| self.is_zero(n)).map(|(_, x)| x)),
            BinOp::Mul => either(&|n| self.is_zero(n))
                .map(|(k, _)| k)
                .or_else(|| either(&|n| self.is_one(n)).map(|(_, x)| x)),
            BinOp::Xor | BinOp::Add => either(&|n| self.is_zero(n)).map(|(_, x)| x),
            BinOp::Sub | BinOp::Shl | BinOp::LShr | BinOp::AShr => self.is_zero(b).then_some(a),
            _ => None,
        };
        match reduced {
            Some(n) => n,
            None => build(&mut self.b, a, b),
        }
    }

    fn un(
        &mut self,
        op: UnOp,
        a: NodeId,
        build: fn(&mut ModuleBuilder, NodeId) -> NodeId,
    ) -> NodeId {
        match self.value(a) {
            Some(x) if op == UnOp::Not && x.width() == 1 => {
                let bit = !x.bit(0);
                self.constant(Bv::from_bool(bit))
            }
            Some(x) => {
                let v = eval_un(op, x);
                self.constant(v)
            }
            None => build(&mut self.b, a),
        }
    }

    pub(crate) fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Add, a, b, ModuleBuilder::add)
    }
    pub(crate) fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Sub, a, b, ModuleBuilder::sub)
    }
    pub(crate) fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Mul, a, b, ModuleBuilder::mul)
    }
    pub(crate) fn udiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::UDiv, a, b, ModuleBuilder::udiv)
    }
    pub(crate) fn sdiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SDiv, a, b, ModuleBuilder::sdiv)
    }
    pub(crate) fn urem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::URem, a, b, ModuleBuilder::urem)
    }
    pub(crate) fn srem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SRem, a, b, ModuleBuilder::srem)
    }
    pub(crate) fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::And, a, b, ModuleBuilder::and)
    }
    pub(crate) fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Or, a, b, ModuleBuilder::or)
    }
    pub(crate) fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Xor, a, b, ModuleBuilder::xor)
    }
    pub(crate) fn shl(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Shl, a, b, ModuleBuilder::shl)
    }
    pub(crate) fn lshr(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::LShr, a, b, ModuleBuilder::lshr)
    }
    pub(crate) fn ashr(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::AShr, a, b, ModuleBuilder::ashr)
    }
    pub(crate) fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Eq, a, b, ModuleBuilder::eq)
    }
    pub(crate) fn ne(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Ne, a, b, ModuleBuilder::ne)
    }
    pub(crate) fn ult(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::ULt, a, b, ModuleBuilder::ult)
    }
    pub(crate) fn ule(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::ULe, a, b, ModuleBuilder::ule)
    }
    pub(crate) fn slt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SLt, a, b, ModuleBuilder::slt)
    }
    pub(crate) fn sle(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SLe, a, b, ModuleBuilder::sle)
    }
    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::Not, a, ModuleBuilder::not)
    }
    pub(crate) fn neg(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::Neg, a, ModuleBuilder::neg)
    }
    pub(crate) fn red_or(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::RedOr, a, ModuleBuilder::red_or)
    }

    /// `if sel { t } else { f }`: a constant select picks its arm, equal
    /// arms are the arm, and a 1-bit `sel ? 1 : 0` is `sel`.
    pub(crate) fn mux(&mut self, sel: NodeId, t: NodeId, f: NodeId) -> NodeId {
        if let Some(s) = self.value(sel) {
            return if s.bit(0) { t } else { f };
        }
        if t == f {
            return t;
        }
        if self.node_width(t) == 1 && self.is_ones(t) && self.is_zero(f) {
            return sel;
        }
        self.b.mux(sel, t, f)
    }

    pub(crate) fn slice(&mut self, src: NodeId, hi: u32, lo: u32) -> NodeId {
        if lo == 0 && hi + 1 == self.node_width(src) {
            return src;
        }
        match self.value(src) {
            Some(v) => {
                let v = v.slice(hi, lo);
                self.constant(v)
            }
            None => self.b.slice(src, hi, lo),
        }
    }

    pub(crate) fn trunc(&mut self, src: NodeId, width: u32) -> NodeId {
        self.slice(src, width - 1, 0)
    }

    pub(crate) fn concat(&mut self, hi: NodeId, lo: NodeId) -> NodeId {
        match (self.value(hi), self.value(lo)) {
            (Some(h), Some(l)) => {
                let v = h.concat(l);
                self.constant(v)
            }
            _ => self.b.concat(hi, lo),
        }
    }

    pub(crate) fn zext(&mut self, src: NodeId, width: u32) -> NodeId {
        match self.value(src) {
            Some(v) => {
                let v = v.zext(width);
                self.constant(v)
            }
            None => self.b.zext(src, width),
        }
    }

    pub(crate) fn sext(&mut self, src: NodeId, width: u32) -> NodeId {
        match self.value(src) {
            Some(v) => {
                let v = v.sext(width);
                self.constant(v)
            }
            None => self.b.sext(src, width),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::Simulator;

    type FoldOp = fn(&mut Fold, NodeId, NodeId) -> NodeId;
    type RawOp = fn(&mut ModuleBuilder, NodeId, NodeId) -> NodeId;

    /// Every operand shape the rules key on: the inputs and the
    /// constants 0, 1, all ones and another value.
    const OPERANDS: [Option<u64>; 6] = [None, None, Some(0), Some(1), Some(15), Some(6)];

    /// Builds `out = op(l, r)` over 4-bit inputs `x`, `y` (operand `i`
    /// of [`OPERANDS`] is `x` for 0, `y` for 1, else the constant).
    fn pair(
        i: usize,
        j: usize,
        mut node: impl FnMut(Option<u64>, usize) -> NodeId,
    ) -> (NodeId, NodeId) {
        (node(OPERANDS[i], 0), node(OPERANDS[j], 1))
    }

    fn run(m: Module, x: u64, y: u64) -> Bv {
        let mut sim = Simulator::new(m).unwrap();
        sim.eval_comb(&[("x", Bv::from_u64(4, x)), ("y", Bv::from_u64(4, y))])["out"].clone()
    }

    #[test]
    fn folded_operators_compute_what_unfolded_ones_do() {
        let ops: [(FoldOp, RawOp); 20] = [
            (Fold::add, ModuleBuilder::add),
            (Fold::sub, ModuleBuilder::sub),
            (Fold::mul, ModuleBuilder::mul),
            (Fold::udiv, ModuleBuilder::udiv),
            (Fold::sdiv, ModuleBuilder::sdiv),
            (Fold::urem, ModuleBuilder::urem),
            (Fold::srem, ModuleBuilder::srem),
            (Fold::and, ModuleBuilder::and),
            (Fold::or, ModuleBuilder::or),
            (Fold::xor, ModuleBuilder::xor),
            (Fold::shl, ModuleBuilder::shl),
            (Fold::lshr, ModuleBuilder::lshr),
            (Fold::ashr, ModuleBuilder::ashr),
            (Fold::eq, ModuleBuilder::eq),
            (Fold::ne, ModuleBuilder::ne),
            (Fold::ult, ModuleBuilder::ult),
            (Fold::ule, ModuleBuilder::ule),
            (Fold::slt, ModuleBuilder::slt),
            (Fold::sle, ModuleBuilder::sle),
            (Fold::concat, ModuleBuilder::concat),
        ];
        for (k, (fold, raw)) in ops.into_iter().enumerate() {
            for i in 0..OPERANDS.len() {
                for j in 0..OPERANDS.len() {
                    let mut f = Fold::new("folded");
                    let ins = [f.input("x", 4), f.input("y", 4)];
                    let (l, r) = pair(i, j, |c, n| c.map_or(ins[n], |v| f.lit(4, v)));
                    let out = fold(&mut f, l, r);
                    f.output("out", out);
                    let folded = f.finish().unwrap();
                    let mut b = ModuleBuilder::new("raw");
                    let ins = [b.input("x", 4), b.input("y", 4)];
                    let (l, r) = pair(i, j, |c, n| c.map_or(ins[n], |v| b.lit(4, v)));
                    let out = raw(&mut b, l, r);
                    b.output("out", out);
                    let unfolded = b.finish().unwrap();
                    for x in 0..16 {
                        for y in [0, 1, 6, 9, 15] {
                            assert_eq!(
                                run(folded.clone(), x, y),
                                run(unfolded.clone(), x, y),
                                "op {k} operands {i} {j} at x={x} y={y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn folded_muxes_and_resizes_compute_what_unfolded_ones_do() {
        // Selects: an input bit, 0 and 1; arms: every operand pair.
        for s in [None, Some(0), Some(1)] {
            for i in 0..OPERANDS.len() {
                for j in 0..OPERANDS.len() {
                    let mut f = Fold::new("folded");
                    let ins = [f.input("x", 4), f.input("y", 4)];
                    let sel = match s {
                        None => f.slice(ins[0], 2, 2),
                        Some(v) => f.lit(1, v),
                    };
                    let (t, e) = pair(i, j, |c, n| c.map_or(ins[n], |v| f.lit(4, v)));
                    let m = f.mux(sel, t, e);
                    let n = f.not(m);
                    let z = f.zext(n, 6);
                    let sx = f.sext(m, 6);
                    let sum = f.add(z, sx);
                    let neg = f.neg(sum);
                    let lo = f.slice(neg, 4, 1);
                    let any = f.red_or(lo);
                    let out = f.concat(any, lo);
                    f.output("out", out);
                    let folded = f.finish().unwrap();

                    let mut b = ModuleBuilder::new("raw");
                    let ins = [b.input("x", 4), b.input("y", 4)];
                    let sel = match s {
                        None => b.slice(ins[0], 2, 2),
                        Some(v) => b.lit(1, v),
                    };
                    let (t, e) = pair(i, j, |c, n| c.map_or(ins[n], |v| b.lit(4, v)));
                    let m = b.mux(sel, t, e);
                    let n = b.not(m);
                    let z = b.zext(n, 6);
                    let sx = b.sext(m, 6);
                    let sum = b.add(z, sx);
                    let neg = b.neg(sum);
                    let lo = b.slice(neg, 4, 1);
                    let any = b.red_or(lo);
                    let out = b.concat(any, lo);
                    b.output("out", out);
                    let unfolded = b.finish().unwrap();
                    for x in 0..16 {
                        for y in [0, 5, 15] {
                            assert_eq!(
                                run(folded.clone(), x, y),
                                run(unfolded.clone(), x, y),
                                "select {s:?} arms {i} {j} at x={x} y={y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn folded_one_bit_muxes_compute_what_unfolded_ones_do() {
        // 1-bit arms take the `sel ? 1 : 0` rule; cover every mix of an
        // input bit and the two constants on all three operands.
        let bits = [None, Some(0), Some(1)];
        for s in bits {
            for t in bits {
                for e in bits {
                    let mut f = Fold::new("folded");
                    let x = f.input("x", 4);
                    let bit = |f: &mut Fold, c: Option<u64>, i: u32| match c {
                        None => f.slice(x, i, i),
                        Some(v) => f.lit(1, v),
                    };
                    let (sn, tn, en) = (bit(&mut f, s, 0), bit(&mut f, t, 1), bit(&mut f, e, 2));
                    let out = f.mux(sn, tn, en);
                    let out = f.zext(out, 4);
                    f.output("out", out);
                    let m = f.finish().unwrap();
                    for x in 0..8u64 {
                        let v = |c: Option<u64>, i: u32| c.unwrap_or(x >> i & 1);
                        let expect = if v(s, 0) == 1 { v(t, 1) } else { v(e, 2) };
                        let mut sim = Simulator::new(m.clone()).unwrap();
                        let got = sim.eval_comb(&[("x", Bv::from_u64(4, x))])["out"].to_u64();
                        assert_eq!(got, expect, "{s:?} ? {t:?} : {e:?} at x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn literals_are_emitted_once_and_constant_nodes_fold() {
        let mut f = Fold::new("f");
        let x = f.input("x", 8);
        let (a, b) = (f.lit(8, 3), f.lit(8, 3));
        assert_eq!(a, b);
        let one = f.lit(1, 1);
        let zero = f.lit(1, 0);
        let g = f.and(one, one);
        assert_eq!(f.mux(g, x, a), x);
        assert_eq!(f.mux(zero, x, a), a);
        let sum = f.add(a, b);
        assert_eq!(f.value(sum), Some(&Bv::from_u64(8, 6)));
        let z = f.lit(8, 0);
        assert_eq!(f.add(z, x), x);
        assert_eq!(f.or(x, z), x);
    }
}
