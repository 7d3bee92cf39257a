//! The word-level miter: a hash-consed DAG of words, normalized as it is
//! built, in front of the bit-blaster.
//!
//! Both sides of a check build their words in one [`WordDag`]: the SLM's
//! combinational evaluation, every unrolled RTL cycle, the bindings and
//! the constraints. A node is interned by its operator and operand ids,
//! so two words built the same way from the same operands are one
//! [`WordId`], in the shape of an `SLTNode` arena. Construction
//! normalizes as it interns:
//!
//! - constants fold through `dfv_rtl::eval_bin`/`eval_un`, and a mux with
//!   a constant select folds to its arm;
//! - `Add`, `Sub`, `Neg`, `Mul` by a constant and `Shl` by a constant
//!   flatten into one linear form `k + Σ cᵢ·tᵢ mod 2^w`, its terms sorted
//!   by id and its coefficients reduced mod 2^w;
//! - a low slice `[w'-1:0]` pushes down through linear forms, products
//!   and bitwise operators (the low bits of each depend only on the low
//!   bits of the operands), and any slice pushes through bitwise
//!   operators and muxes;
//! - a slice of a `zext`/`sext` becomes the operand, a slice of it, or
//!   the same kind of extension of it;
//! - `LShr`/`AShr` by a constant becomes a `zext`/`sext` of a slice of
//!   the operand, so a later slice lands on the operand itself;
//! - `zext(y) == c` and `{h, y} == c` (`h` constant), and their `Ne`
//!   forms, fold to a constant when `c`'s high bits disagree with the
//!   known ones and compare `y` with `c`'s low bits otherwise.
//!
//! Each rule is an identity of modular bit-vector arithmetic. A product of
//! two non-constant words stays one opaque term (operands in id order)
//! and is never distributed over a sum, and an extension never crosses
//! into a linear form: `sext(a + b)` is not `sext(a) + sext(b)`, which is
//! exactly the paper's Fig 1.
//!
//! A compare point whose two sides are the same node is proved by
//! construction. The checker lowers only the others into the
//! [`crate::BitBlaster`] ([`crate::BitBlaster::lower`]), so a miter the
//! DAG closes costs no variable, clause or conflict.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dfv_bits::{Bv, FxHasher};
use dfv_rtl::ir::{BinOp, UnOp};
use dfv_rtl::{eval_bin, eval_un};

/// The id of a word in a [`WordDag`]. Operands always have smaller ids
/// than the words built from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordId(u32);

impl WordId {
    /// The raw index of this word in its DAG.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a [`WordDag`], in normal form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Word {
    /// A free word: an input, a free binding, free initial state. Every
    /// leaf is distinct; the number is its creation serial.
    Leaf(u32),
    /// A constant.
    Const(Bv),
    /// `Not` or a reduction (negation is linear).
    Un(UnOp, WordId),
    /// A binary operator the normal form keeps opaque; commutative
    /// operators have their operands in id order.
    Bin(BinOp, WordId, WordId),
    /// `if sel { t } else { f }`.
    Mux(WordId, WordId, WordId),
    /// Inclusive part-select `src[hi:lo]`.
    Slice(WordId, u32, u32),
    /// `{hi, lo}`.
    Concat(WordId, WordId),
    /// Zero-extension to the given width.
    Zext(WordId, u32),
    /// Sign-extension to the given width.
    Sext(WordId, u32),
    /// `k + Σ c·t mod 2^w` with `w` the width of `k`: at least one term,
    /// terms in id order, no constant or linear term, no zero
    /// coefficient, and never the bare `0 + 1·t`.
    Linear(Bv, Box<[(WordId, Bv)]>),
}

impl Word {
    /// Calls `f` for each operand, in operand order.
    pub fn for_each_operand(&self, mut f: impl FnMut(WordId)) {
        match self {
            Word::Leaf(_) | Word::Const(_) => {}
            Word::Un(_, a) | Word::Slice(a, ..) | Word::Zext(a, _) | Word::Sext(a, _) => f(*a),
            Word::Bin(_, a, b) | Word::Concat(a, b) => {
                f(*a);
                f(*b);
            }
            Word::Mux(s, t, e) => {
                f(*s);
                f(*t);
                f(*e);
            }
            Word::Linear(_, terms) => terms.iter().for_each(|&(t, _)| f(t)),
        }
    }
}

/// How many operator levels a slice may be pushed through below the
/// word it was taken of. Pushing through a sum or a bitwise operator
/// builds one sliced word per operand, so an unbounded push over a long
/// chain would rebuild the chain; past the limit the slice stays a
/// slice, which is exact, only less normalized.
const PUSH_DEPTH: u32 = 24;

/// A linear form under construction: `konst + Σ c·t`, terms in id order
/// with nonzero coefficients.
struct Lin {
    konst: Bv,
    terms: Vec<(WordId, Bv)>,
}

/// A constructor call: the operator tag and its operands, packed.
type OpKey = (u64, u64);

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The hash-consed, normalizing word DAG. See the module docs.
#[derive(Debug, Default)]
pub struct WordDag {
    nodes: Vec<Word>,
    widths: Vec<u32>,
    /// Normal-form node to id: the hash-consing proper.
    intern: FxMap<Word, WordId>,
    /// Constructor call to result. A constructor is a pure function of
    /// its operator and operand ids, so a call seen before returns its
    /// first answer without normalizing again: an unrolled cycle that
    /// recomputes unchanged logic costs one small lookup per node.
    ops: FxMap<OpKey, WordId>,
    leaves: u32,
}

/// Packs a constructor call: tag and operator in the top bits of the
/// first half, three 32-bit operands or parameters.
fn op_key(tag: u64, op: u64, a: WordId, b: u32, c: u32) -> OpKey {
    (
        tag << 56 | op << 40 | u64::from(a.0),
        u64::from(b) << 32 | u64::from(c),
    )
}

impl WordDag {
    /// An empty DAG.
    pub fn new() -> Self {
        WordDag::default()
    }

    /// The number of words built so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no word has been built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node of `id`.
    pub fn word(&self, id: WordId) -> &Word {
        &self.nodes[id.index()]
    }

    /// The width of `id` in bits.
    pub fn width(&self, id: WordId) -> u32 {
        self.widths[id.index()]
    }

    /// The value of `id` if it is a constant.
    pub fn const_value(&self, id: WordId) -> Option<&Bv> {
        match self.word(id) {
            Word::Const(c) => Some(c),
            _ => None,
        }
    }

    fn push(&mut self, word: Word, width: u32) -> WordId {
        let id = WordId(u32::try_from(self.nodes.len()).expect("fewer than 2^32 words"));
        self.nodes.push(word);
        self.widths.push(width);
        id
    }

    /// Returns the id of `word`, adding it if it is new.
    fn intern(&mut self, word: Word, width: u32) -> WordId {
        if let Some(&id) = self.intern.get(&word) {
            return id;
        }
        let id = self.push(word.clone(), width);
        self.intern.insert(word, id);
        id
    }

    /// A fresh free word of `width` bits, distinct from every other word.
    pub fn leaf(&mut self, width: u32) -> WordId {
        assert!(width > 0, "word width must be at least 1");
        self.leaves += 1;
        self.push(Word::Leaf(self.leaves - 1), width)
    }

    /// The constant `value`.
    pub fn constant(&mut self, value: &Bv) -> WordId {
        match value.try_to_u64() {
            Some(v) if value.width() <= 64 => {
                let key = op_key(8, 0, WordId(value.width()), (v >> 32) as u32, v as u32);
                self.memo(key, |d| d.intern(Word::Const(value.clone()), value.width()))
            }
            _ => self.intern(Word::Const(value.clone()), value.width()),
        }
    }

    /// Returns the memoized result of constructor call `key`, computing
    /// it with `build` the first time.
    fn memo(&mut self, key: OpKey, build: impl FnOnce(&mut Self) -> WordId) -> WordId {
        if let Some(&id) = self.ops.get(&key) {
            return id;
        }
        let id = build(self);
        self.ops.insert(key, id);
        id
    }

    /// A unary operator.
    pub fn un(&mut self, op: UnOp, a: WordId) -> WordId {
        self.memo(op_key(1, op as u64, a, 0, 0), |d| d.un_normal(op, a))
    }

    fn un_normal(&mut self, op: UnOp, a: WordId) -> WordId {
        if let Some(c) = self.const_value(a) {
            let v = eval_un(op, c);
            return self.constant(&v);
        }
        match op {
            UnOp::Neg => {
                let w = self.width(a);
                let mut lin = Lin::zero(w);
                self.lin_add(&mut lin, a, &Bv::ones(w));
                self.finish_lin(lin)
            }
            UnOp::Not => match *self.word(a) {
                Word::Un(UnOp::Not, x) => x,
                _ => self.intern(Word::Un(op, a), self.width(a)),
            },
            UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor if self.width(a) == 1 => a,
            UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor => self.intern(Word::Un(op, a), 1),
        }
    }

    /// A binary operator, with the IR's width rules.
    pub fn bin(&mut self, op: BinOp, a: WordId, b: WordId) -> WordId {
        self.memo(op_key(2, op as u64, a, b.0, 0), |d| d.bin_normal(op, a, b))
    }

    fn bin_normal(&mut self, op: BinOp, a: WordId, b: WordId) -> WordId {
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            let v = eval_bin(op, x, y);
            return self.constant(&v);
        }
        let w = self.width(a);
        match op {
            BinOp::Add | BinOp::Sub => {
                let one = Bv::from_u64(w, 1);
                let mut lin = Lin::zero(w);
                self.lin_add(&mut lin, a, &one);
                let scale = if op == BinOp::Add { one } else { Bv::ones(w) };
                self.lin_add(&mut lin, b, &scale);
                self.finish_lin(lin)
            }
            BinOp::Mul => {
                let (x, k) = match (self.const_value(a), self.const_value(b)) {
                    (_, Some(k)) => (a, k.clone()),
                    (Some(k), _) => (b, k.clone()),
                    _ => return self.intern(Word::Bin(op, a.min(b), a.max(b)), w),
                };
                let mut lin = Lin::zero(w);
                self.lin_add(&mut lin, x, &k);
                self.finish_lin(lin)
            }
            BinOp::Shl | BinOp::LShr | BinOp::AShr => match self.const_value(b) {
                Some(amt) => {
                    let s = amt
                        .try_to_u64()
                        .map_or(u64::from(w), |s| s.min(u64::from(w)))
                        as u32;
                    self.shift_const(op, a, s)
                }
                None => self.intern(Word::Bin(op, a, b), w),
            },
            BinOp::And | BinOp::Or | BinOp::Xor => self.bitwise(op, a, b),
            BinOp::Eq | BinOp::Ne if a == b => self.constant(&Bv::from_bool(op == BinOp::Eq)),
            BinOp::Eq | BinOp::Ne => {
                match self.eq_split(op, a, b).or_else(|| self.eq_split(op, b, a)) {
                    Some(v) => v,
                    None => self.intern(Word::Bin(op, a.min(b), a.max(b)), 1),
                }
            }
            BinOp::ULt | BinOp::SLt if a == b => self.constant(&Bv::from_bool(false)),
            BinOp::ULe | BinOp::SLe if a == b => self.constant(&Bv::from_bool(true)),
            _ if op.is_comparison() => self.intern(Word::Bin(op, a, b), 1),
            _ => self.intern(Word::Bin(op, a, b), w),
        }
    }

    /// `Eq`/`Ne` of a word with known high bits against the constant `k`:
    /// `zext(y) == c` and `{h, y} == c` (`h` constant) fold to a constant
    /// when the high bits of `c` disagree with the known ones, and compare
    /// only the low part otherwise.
    fn eq_split(&mut self, op: BinOp, x: WordId, k: WordId) -> Option<WordId> {
        let c = self.const_value(k)?;
        let w = c.width();
        let (low, high) = match *self.word(x) {
            Word::Zext(y, _) => (y, None),
            Word::Concat(h, y) => (y, Some(self.const_value(h)?)),
            _ => return None,
        };
        let wl = self.width(low);
        let c_high = c.slice(w - 1, wl);
        let agree = match high {
            None => c_high.is_zero(),
            Some(h) => *h == c_high,
        };
        if !agree {
            return Some(self.constant(&Bv::from_bool(op == BinOp::Ne)));
        }
        let c_low = c.slice(wl - 1, 0);
        let kl = self.constant(&c_low);
        Some(self.bin(op, low, kl))
    }

    /// A shift of `a` by the constant `s <= width`.
    fn shift_const(&mut self, op: BinOp, a: WordId, s: u32) -> WordId {
        let w = self.width(a);
        if s == 0 {
            return a;
        }
        match op {
            BinOp::Shl if s >= w => self.constant(&Bv::zero(w)),
            BinOp::Shl => {
                let mut lin = Lin::zero(w);
                self.lin_add(&mut lin, a, &Bv::from_u64(w, 1).shl(s));
                self.finish_lin(lin)
            }
            BinOp::LShr if s >= w => self.constant(&Bv::zero(w)),
            BinOp::LShr => {
                let hi = self.slice(a, w - 1, s);
                self.zext(hi, w)
            }
            _ => {
                let hi = self.slice(a, w - 1, s.min(w - 1));
                self.sext(hi, w)
            }
        }
    }

    /// `And`/`Or`/`Xor`, operands in id order.
    fn bitwise(&mut self, op: BinOp, a: WordId, b: WordId) -> WordId {
        let w = self.width(a);
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            return match op {
                BinOp::Xor => self.constant(&Bv::zero(w)),
                _ => a,
            };
        }
        // A constant operand has the smaller id only if it came first;
        // look at both.
        for (k, x) in [(a, b), (b, a)] {
            let Some(c) = self.const_value(k) else {
                continue;
            };
            let (zero, ones) = (c.is_zero(), c.is_ones());
            match op {
                BinOp::And if zero => return k,
                BinOp::And if ones => return x,
                BinOp::Or if zero => return x,
                BinOp::Or if ones => return k,
                BinOp::Xor if zero => return x,
                BinOp::Xor if ones => return self.un(UnOp::Not, x),
                _ => {}
            }
        }
        self.intern(Word::Bin(op, a, b), w)
    }

    /// `if sel { t } else { f }`.
    pub fn mux(&mut self, sel: WordId, t: WordId, f: WordId) -> WordId {
        self.memo(op_key(3, 0, sel, t.0, f.0), |d| d.mux_normal(sel, t, f))
    }

    fn mux_normal(&mut self, sel: WordId, t: WordId, f: WordId) -> WordId {
        if let Some(s) = self.const_value(sel) {
            return if s.bit(0) { t } else { f };
        }
        if t == f {
            return t;
        }
        if let Word::Un(UnOp::Not, s) = *self.word(sel) {
            return self.mux_normal(s, f, t);
        }
        if self.width(t) == 1 {
            match (self.const_value(t), self.const_value(f)) {
                (Some(x), Some(_)) if x.bit(0) => return sel,
                (Some(_), Some(_)) => return self.un(UnOp::Not, sel),
                _ => {}
            }
        }
        self.intern(Word::Mux(sel, t, f), self.width(t))
    }

    /// Inclusive part-select `a[hi:lo]`.
    pub fn slice(&mut self, a: WordId, hi: u32, lo: u32) -> WordId {
        self.slice_at(a, hi, lo, PUSH_DEPTH)
    }

    /// A slice that may push `depth` more levels down. Memoized with the
    /// depth, so a word reached along many paths of a shared DAG is
    /// sliced once per depth, never once per path.
    fn slice_at(&mut self, a: WordId, hi: u32, lo: u32, depth: u32) -> WordId {
        self.memo(op_key(4, u64::from(depth), a, hi, lo), |d| {
            d.slice_normal(a, hi, lo, depth)
        })
    }

    fn slice_normal(&mut self, mut a: WordId, mut hi: u32, mut lo: u32, depth: u32) -> WordId {
        assert!(
            lo <= hi && hi < self.width(a),
            "slice [{hi}:{lo}] out of range"
        );
        // Rules that select one operand walk down without recursing.
        loop {
            let wa = self.width(a);
            if lo == 0 && hi == wa - 1 {
                return a;
            }
            let next = match *self.word(a) {
                Word::Slice(x, _, l) => Some((x, hi + l, lo + l)),
                Word::Zext(x, _) | Word::Sext(x, _) if hi < self.width(x) => Some((x, hi, lo)),
                Word::Concat(h, l) => {
                    let wl = self.width(l);
                    if hi < wl {
                        Some((l, hi, lo))
                    } else if lo >= wl {
                        Some((h, hi - wl, lo - wl))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match next {
                Some((x, h, l)) => (a, hi, lo) = (x, h, l),
                None => break,
            }
        }
        let w = hi - lo + 1;
        if let Some(c) = self.const_value(a) {
            let v = c.slice(hi, lo);
            return self.constant(&v);
        }
        match self.word(a).clone() {
            Word::Zext(x, _) => {
                // hi reaches the zero fill.
                let wx = self.width(x);
                if lo >= wx {
                    return self.constant(&Bv::zero(w));
                }
                let part = self.slice_at(x, wx - 1, lo, depth);
                return self.zext(part, w);
            }
            Word::Sext(x, _) => {
                let wx = self.width(x);
                let part = self.slice_at(x, wx - 1, lo.min(wx - 1), depth);
                return self.sext(part, w);
            }
            _ => {}
        }
        if depth == 0 {
            return self.intern(Word::Slice(a, hi, lo), w);
        }
        let d = depth - 1;
        match self.word(a).clone() {
            Word::Concat(h, l) => {
                let wl = self.width(l);
                let hp = self.slice_at(h, hi - wl, 0, d);
                let lp = self.slice_at(l, wl - 1, lo, d);
                self.concat(hp, lp)
            }
            Word::Un(UnOp::Not, x) => {
                let s = self.slice_at(x, hi, lo, d);
                self.un(UnOp::Not, s)
            }
            Word::Bin(op @ (BinOp::And | BinOp::Or | BinOp::Xor), x, y) => {
                let sx = self.slice_at(x, hi, lo, d);
                let sy = self.slice_at(y, hi, lo, d);
                self.bitwise(op, sx, sy)
            }
            Word::Mux(s, t, f) => {
                let st = self.slice_at(t, hi, lo, d);
                let sf = self.slice_at(f, hi, lo, d);
                self.mux(s, st, sf)
            }
            // Sums and products: the low `hi + 1` bits depend only on the
            // low `hi + 1` bits of the operands. Truncate there, then
            // select.
            Word::Linear(k, terms) if hi + 1 < self.width(a) => {
                let mut lin = Lin {
                    konst: k.trunc(hi + 1),
                    terms: Vec::new(),
                };
                for (t, c) in terms.iter() {
                    let st = self.slice_at(*t, hi, 0, d);
                    self.lin_add(&mut lin, st, &c.trunc(hi + 1));
                }
                let low = self.finish_lin(lin);
                self.slice_at(low, hi, lo, d)
            }
            Word::Bin(BinOp::Mul, x, y) if hi + 1 < self.width(a) => {
                let sx = self.slice_at(x, hi, 0, d);
                let sy = self.slice_at(y, hi, 0, d);
                let low = self.bin(BinOp::Mul, sx, sy);
                self.slice_at(low, hi, lo, d)
            }
            _ => self.intern(Word::Slice(a, hi, lo), w),
        }
    }

    /// `{hi, lo}`.
    pub fn concat(&mut self, hi: WordId, lo: WordId) -> WordId {
        self.memo(op_key(5, 0, hi, lo.0, 0), |d| d.concat_normal(hi, lo))
    }

    fn concat_normal(&mut self, hi: WordId, lo: WordId) -> WordId {
        let w = self.width(hi) + self.width(lo);
        match (self.const_value(hi), self.const_value(lo)) {
            (Some(h), Some(l)) => {
                let v = h.concat(l);
                return self.constant(&v);
            }
            (Some(h), _) if h.is_zero() => return self.zext(lo, w),
            _ => {}
        }
        // Adjacent slices of one word rejoin.
        if let (Word::Slice(x, h1, l1), Word::Slice(y, h2, l2)) = (self.word(hi), self.word(lo)) {
            if x == y && *l1 == h2 + 1 {
                let (x, h1, l2) = (*x, *h1, *l2);
                return self.slice(x, h1, l2);
            }
        }
        self.intern(Word::Concat(hi, lo), w)
    }

    /// Zero-extension of `a` to `width` bits.
    pub fn zext(&mut self, a: WordId, width: u32) -> WordId {
        self.memo(op_key(6, 0, a, width, 0), |d| d.zext_normal(a, width))
    }

    fn zext_normal(&mut self, a: WordId, width: u32) -> WordId {
        let wa = self.width(a);
        assert!(width >= wa, "zext narrows");
        if width == wa {
            return a;
        }
        if let Some(c) = self.const_value(a) {
            let v = c.zext(width);
            return self.constant(&v);
        }
        match *self.word(a) {
            Word::Zext(x, _) => self.zext(x, width),
            _ => self.intern(Word::Zext(a, width), width),
        }
    }

    /// Sign-extension of `a` to `width` bits.
    pub fn sext(&mut self, a: WordId, width: u32) -> WordId {
        self.memo(op_key(7, 0, a, width, 0), |d| d.sext_normal(a, width))
    }

    fn sext_normal(&mut self, a: WordId, width: u32) -> WordId {
        let wa = self.width(a);
        assert!(width >= wa, "sext narrows");
        if width == wa {
            return a;
        }
        if let Some(c) = self.const_value(a) {
            let v = c.sext(width);
            return self.constant(&v);
        }
        match *self.word(a) {
            Word::Sext(x, _) => self.sext(x, width),
            // The sign of a proper zero-extension is 0.
            Word::Zext(x, _) => self.zext(x, width),
            _ => self.intern(Word::Sext(a, width), width),
        }
    }

    /// `lin += scale · a`: a constant joins the constant, a linear form
    /// adds its terms, anything else is one term.
    fn lin_add(&self, lin: &mut Lin, a: WordId, scale: &Bv) {
        if scale.is_zero() {
            return;
        }
        match self.word(a) {
            Word::Const(c) => lin.konst = lin.konst.wrapping_add(&c.wrapping_mul(scale)),
            Word::Linear(k, terms) => {
                lin.konst = lin.konst.wrapping_add(&k.wrapping_mul(scale));
                for (t, c) in terms.iter() {
                    lin.add_term(*t, c.wrapping_mul(scale));
                }
            }
            _ => lin.add_term(a, scale.clone()),
        }
    }

    /// Interns a linear form in normal form.
    fn finish_lin(&mut self, lin: Lin) -> WordId {
        let w = lin.konst.width();
        match lin.terms.as_slice() {
            [] => self.constant(&lin.konst),
            [(t, c)] if lin.konst.is_zero() && c.count_ones() == 1 && c.bit(0) => *t,
            _ => self.intern(Word::Linear(lin.konst, lin.terms.into_boxed_slice()), w),
        }
    }

    /// Evaluates `id` with every leaf read from `leaf`: the concrete
    /// semantics of the DAG, the oracle the rewrite-rule tests check
    /// normalization against, and how a counterexample reads a word no
    /// cone lowered.
    pub(crate) fn eval(&self, id: WordId, leaf: &mut dyn FnMut(WordId) -> Bv) -> Bv {
        let mut vals: HashMap<WordId, Bv> = HashMap::new();
        let mut stack = vec![(id, false)];
        while let Some((v, ready)) = stack.pop() {
            if vals.contains_key(&v) {
                continue;
            }
            if !ready {
                stack.push((v, true));
                self.word(v).for_each_operand(|o| stack.push((o, false)));
                continue;
            }
            let val = match self.word(v) {
                Word::Leaf(_) => leaf(v),
                Word::Const(c) => c.clone(),
                Word::Un(op, a) => eval_un(*op, &vals[a]),
                Word::Bin(op, a, b) => eval_bin(*op, &vals[a], &vals[b]),
                Word::Mux(s, t, f) => {
                    if vals[s].bit(0) {
                        vals[t].clone()
                    } else {
                        vals[f].clone()
                    }
                }
                Word::Slice(a, hi, lo) => vals[a].slice(*hi, *lo),
                Word::Concat(h, l) => vals[h].concat(&vals[l]),
                Word::Zext(a, w) => vals[a].zext(*w),
                Word::Sext(a, w) => vals[a].sext(*w),
                Word::Linear(k, terms) => terms.iter().fold(k.clone(), |acc, (t, c)| {
                    acc.wrapping_add(&vals[t].wrapping_mul(c))
                }),
            };
            vals.insert(v, val);
        }
        vals.remove(&id).expect("evaluated")
    }
}

impl Lin {
    fn zero(width: u32) -> Lin {
        Lin {
            konst: Bv::zero(width),
            terms: Vec::new(),
        }
    }

    /// `+= c·t`, keeping the terms in id order with nonzero coefficients.
    fn add_term(&mut self, t: WordId, c: Bv) {
        match self.terms.binary_search_by_key(&t, |&(x, _)| x) {
            Ok(i) => {
                let sum = self.terms[i].1.wrapping_add(&c);
                if sum.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) if !c.is_zero() => self.terms.insert(i, (t, c)),
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(dag: &mut WordDag, w: u32, v: u64) -> WordId {
        dag.constant(&Bv::from_u64(w, v))
    }

    /// The dfvbench `add` shape: the SLM's int-promoted
    /// `(uint5)(a + b + c + k)` and the RTL's 5-bit `((c + a) + b) + k`.
    #[test]
    fn int_promoted_add3_closes() {
        let mut d = WordDag::new();
        let (a, b, c) = (d.leaf(5), d.leaf(5), d.leaf(5));
        let (a32, b32, c32) = (d.zext(a, 32), d.zext(b, 32), d.zext(c, 32));
        let s = d.bin(BinOp::Add, a32, b32);
        let s = d.bin(BinOp::Add, s, c32);
        let k = lit(&mut d, 32, 0x3039);
        let s = d.bin(BinOp::Add, s, k);
        let always = lit(&mut d, 1, 1);
        let zero = lit(&mut d, 32, 0);
        let s = d.mux(always, s, zero);
        let slm = d.slice(s, 4, 0);

        let t = d.bin(BinOp::Add, c, a);
        let t = d.bin(BinOp::Add, t, b);
        let k5 = lit(&mut d, 5, 0x3039 & 31);
        let rtl = d.bin(BinOp::Add, t, k5);
        assert_eq!(slm, rtl);
    }

    /// The dfvbench `fir` shape: `trunc18(Σ sext32(x)·c)` against
    /// `Σ sext18(x)·c` at 18 bits.
    #[test]
    fn truncated_fir_closes() {
        let coefs = [5i64, -3, 127, 1];
        let mut d = WordDag::new();
        let xs: Vec<_> = (0..4).map(|_| d.leaf(8)).collect();
        let mut acc = lit(&mut d, 32, 0);
        for (&x, &c) in xs.iter().zip(&coefs) {
            let xw = d.sext(x, 32);
            let cw = d.constant(&Bv::from_i64(32, c));
            let p = d.bin(BinOp::Mul, cw, xw);
            acc = d.bin(BinOp::Add, acc, p);
        }
        let slm = d.slice(acc, 17, 0);

        let mut acc = lit(&mut d, 18, 0);
        for (&x, &c) in xs.iter().zip(&coefs).rev() {
            let xw = d.sext(x, 18);
            let cw = d.constant(&Bv::from_i64(18, c));
            let p = d.bin(BinOp::Mul, xw, cw);
            acc = d.bin(BinOp::Add, acc, p);
        }
        assert_eq!(slm, acc);
    }

    /// The dfvbench `conv` shape: the SLM's `(uint8)((acc >> 4) + k)` over
    /// an `int` accumulator of constant-weighted pixels, against the RTL's
    /// 12-bit shift-weighted sum, `>> 4`, truncation and an 8-bit offset,
    /// selected from a constant-index mux chain.
    #[test]
    fn offset_conv_closes() {
        let mut d = WordDag::new();
        let img = d.leaf(32);
        let px: Vec<_> = (0..4).map(|i| d.slice(img, 8 * i + 7, 8 * i)).collect();
        let weights = [1u64, 2, 2, 4];
        let k = 200u64;

        let mut acc = lit(&mut d, 32, 0);
        for (&p, &wt) in px.iter().zip(&weights) {
            let pw = d.zext(p, 32);
            let wc = lit(&mut d, 32, wt);
            let term = d.bin(BinOp::Mul, wc, pw);
            acc = d.bin(BinOp::Add, acc, term);
        }
        let four = lit(&mut d, 32, 4);
        let sh = d.bin(BinOp::AShr, acc, four);
        let kk = lit(&mut d, 32, k);
        let sum = d.bin(BinOp::Add, sh, kk);
        let slm = d.slice(sum, 7, 0);

        let mut acc = lit(&mut d, 12, 0);
        for (&p, &wt) in px.iter().zip(&weights).rev() {
            let pw = d.zext(p, 12);
            let s = lit(&mut d, 2, u64::from(wt.trailing_zeros()));
            let term = d.bin(BinOp::Shl, pw, s);
            acc = d.bin(BinOp::Add, acc, term);
        }
        let four = lit(&mut d, 4, 4);
        let sh = d.bin(BinOp::LShr, acc, four);
        let pix = d.slice(sh, 7, 0);
        // Output select on a counter that is constant at the compare
        // cycle.
        let idx = lit(&mut d, 4, 2);
        let mut out = lit(&mut d, 8, 0);
        for i in 0..4 {
            let iv = lit(&mut d, 4, i);
            let hit = d.bin(BinOp::Eq, idx, iv);
            let v = if i == 2 { pix } else { lit(&mut d, 8, i) };
            out = d.mux(hit, v, out);
        }
        let k8 = lit(&mut d, 8, k & 0xFF);
        let rtl = d.bin(BinOp::Add, out, k8);
        assert_eq!(slm, rtl);
    }

    /// Fig 1: an 8-bit temporary sign-extended into a 9-bit sum does not
    /// reassociate, so the two orders must stay distinct words.
    #[test]
    fn fig1_reassociation_under_sext_stays_open() {
        let mut d = WordDag::new();
        let (a, b, c) = (d.leaf(8), d.leaf(8), d.leaf(8));
        let ab = d.bin(BinOp::Add, a, b);
        let abw = d.sext(ab, 9);
        let cw = d.sext(c, 9);
        let golden = d.bin(BinOp::Add, abw, cw);
        let bc = d.bin(BinOp::Add, b, c);
        let bcw = d.sext(bc, 9);
        let aw = d.sext(a, 9);
        let reassoc = d.bin(BinOp::Add, bcw, aw);
        assert_ne!(golden, reassoc);
        // The same order in both does close.
        let again = {
            let t = d.bin(BinOp::Add, b, a);
            let tw = d.sext(t, 9);
            d.bin(BinOp::Add, cw, tw)
        };
        assert_eq!(golden, again);
    }

    /// `zext(y) == c` and `{h, y} == c` compare only the low part, or
    /// fold when the known high bits already disagree.
    #[test]
    fn equality_splits_known_high_bits() {
        let mut d = WordDag::new();
        let y = d.leaf(3);
        let z = d.zext(y, 4);
        let ones = lit(&mut d, 1, 1);
        let h = d.concat(ones, y);
        let (c5, c13) = (lit(&mut d, 4, 5), lit(&mut d, 4, 13));
        let y5 = {
            let k = lit(&mut d, 3, 5);
            d.bin(BinOp::Eq, y, k)
        };
        assert_eq!(d.bin(BinOp::Eq, z, c5), y5);
        assert_eq!(d.bin(BinOp::Eq, c13, h), y5);
        let never = d.bin(BinOp::Eq, z, c13);
        assert_eq!(d.const_value(never), Some(&Bv::from_bool(false)));
        let always = d.bin(BinOp::Ne, h, c5);
        assert_eq!(d.const_value(always), Some(&Bv::from_bool(true)));
        let ne = d.bin(BinOp::Ne, z, c5);
        let k = lit(&mut d, 3, 5);
        assert_eq!(ne, d.bin(BinOp::Ne, y, k));
        // Against every value of `y`, both rules agree with evaluation.
        for v in 0..8u64 {
            let yv = Bv::from_u64(3, v);
            for c in 0..16u64 {
                let k = lit(&mut d, 4, c);
                for (x, xv) in [(z, yv.zext(4)), (h, Bv::from_u64(1, 1).concat(&yv))] {
                    for op in [BinOp::Eq, BinOp::Ne] {
                        let e = d.bin(op, x, k);
                        let got = d.eval(e, &mut |_| yv.clone());
                        assert_eq!(got, eval_bin(op, &xv, &Bv::from_u64(4, c)), "{op:?} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn products_are_not_distributed() {
        let mut d = WordDag::new();
        let (a, b, c) = (d.leaf(16), d.leaf(16), d.leaf(16));
        let s = d.bin(BinOp::Add, b, c);
        let lhs = d.bin(BinOp::Mul, a, s);
        let ab = d.bin(BinOp::Mul, a, b);
        let ac = d.bin(BinOp::Mul, a, c);
        let rhs = d.bin(BinOp::Add, ab, ac);
        assert_ne!(lhs, rhs);
        // Commutativity of the opaque product does close.
        let ba = d.bin(BinOp::Mul, b, a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn slicing_a_shared_chain_stays_linear() {
        // Every level reads the previous one twice, so an unmemoized
        // push-down would visit 2^depth paths.
        let mut d = WordDag::new();
        let x = d.leaf(16);
        let mut y = x;
        for i in 0..64 {
            let s = d.slice(x, i % 16, i % 16);
            let n = d.un(UnOp::Not, y);
            y = d.mux(s, y, n);
        }
        let before = d.len();
        let low = d.slice(y, 7, 0);
        assert!(d.len() - before < 64 * PUSH_DEPTH as usize * 4);
        let v = Bv::from_u64(16, 0xB5A3);
        let full = d.eval(y, &mut |_| v.clone());
        assert_eq!(d.eval(low, &mut |_| v.clone()), full.slice(7, 0));
    }

    #[test]
    fn hash_consing_shares_identical_words() {
        let mut d = WordDag::new();
        let (a, b) = (d.leaf(8), d.leaf(8));
        let x = d.bin(BinOp::Xor, a, b);
        let n = d.len();
        assert_eq!(d.bin(BinOp::Xor, b, a), x);
        let y = d.bin(BinOp::Sub, a, a);
        assert_eq!(d.const_value(y), Some(&Bv::zero(8)));
        assert_eq!(d.len(), n + 1, "only the zero constant is new");
    }

    /// Every rule is checked against the DAG's own concrete semantics on
    /// random narrow words: the normalized word evaluates like the
    /// operator applied to the evaluated operands.
    #[test]
    fn normalization_preserves_values() {
        use dfv_bits::SplitMix64;
        let mut rng = SplitMix64::new(0x3A6_0001);
        for case in 0..300 {
            let mut d = WordDag::new();
            let mut vals: HashMap<WordId, Bv> = HashMap::new();
            let mut ids = Vec::new();
            for _ in 0..3 {
                let w = rng.range_u64(1, 6) as u32;
                let l = d.leaf(w);
                vals.insert(l, Bv::from_u64(w, rng.next_u64()));
                ids.push(l);
            }
            for _ in 0..12 {
                let x = ids[rng.below(ids.len() as u64) as usize];
                let y = ids[rng.below(ids.len() as u64) as usize];
                let wx = d.width(x);
                let yv = {
                    let wy = d.width(y);
                    if wy >= wx {
                        d.slice(y, wx - 1, 0)
                    } else {
                        d.zext(y, wx)
                    }
                };
                let eval = |d: &WordDag, id| d.eval(id, &mut |l| vals[&l].clone());
                let (xv, yvv) = (eval(&d, x), eval(&d, yv));
                let (n, expect) = match rng.below(12) {
                    0 => (d.bin(BinOp::Add, x, yv), xv.wrapping_add(&yvv)),
                    1 => (d.bin(BinOp::Sub, x, yv), xv.wrapping_sub(&yvv)),
                    2 => (d.bin(BinOp::Mul, x, yv), xv.wrapping_mul(&yvv)),
                    3 => {
                        let k = Bv::from_u64(wx, rng.next_u64());
                        let kc = d.constant(&k);
                        (d.bin(BinOp::Mul, x, kc), xv.wrapping_mul(&k))
                    }
                    4 => (d.un(UnOp::Neg, x), xv.wrapping_neg()),
                    5 => {
                        let hi = rng.below(u64::from(wx)) as u32;
                        let lo = rng.below(u64::from(hi) + 1) as u32;
                        (d.slice(x, hi, lo), xv.slice(hi, lo))
                    }
                    6 => (d.zext(x, wx + 2), xv.zext(wx + 2)),
                    7 => (d.sext(x, wx + 2), xv.sext(wx + 2)),
                    8 => {
                        let s = Bv::from_u64(3, rng.below(8));
                        let sc = d.constant(&s);
                        let op = [BinOp::Shl, BinOp::LShr, BinOp::AShr][rng.below(3) as usize];
                        (d.bin(op, x, sc), eval_bin(op, &xv, &s))
                    }
                    9 => {
                        let op = [BinOp::And, BinOp::Or, BinOp::Xor][rng.below(3) as usize];
                        (d.bin(op, x, yv), eval_bin(op, &xv, &yvv))
                    }
                    10 => {
                        let s = d.slice(yv, 0, 0);
                        let sv = yvv.bit(0);
                        (d.mux(s, x, yv), if sv { xv.clone() } else { yvv.clone() })
                    }
                    _ => (d.un(UnOp::Not, x), xv.not()),
                };
                assert_eq!(eval(&d, n), expect, "case {case}: {:?}", d.word(n));
                ids.push(n);
            }
        }
    }
}
