//! Word-level rewriting: structural hashing (GVN), constant folding, and
//! identity rules over a [`Module`]'s combinational DAG.
//!
//! [`optimize`] is the front half of the SAT-sweeping equivalence flow in
//! `dfv-sec`: it shrinks a module *before* bit-blasting so the CNF the
//! solver sees never contains work a word-level rewrite could have
//! discharged. The pass is purely structural — it never touches ports,
//! registers, or memories (all are kept, by name), so counterexample
//! extraction and replay against the original module still line up — and
//! it returns a deterministic old→new node map so traces and the
//! divergence localizer can name original signals.
//!
//! Three rule families run in one forward pass over the (already
//! topological) node vector, followed by dead-code elimination:
//!
//! 1. **Constant folding** — a node whose operands all rewrote to
//!    constants is evaluated through the same [`eval_bin`]/[`eval_un`]
//!    oracle the simulator uses, so folding can never disagree with
//!    execution semantics.
//! 2. **Identity / absorption rules** — `x & 0`, `x | !0`, `x ^ x`,
//!    `x * 1`, `mux(c, a, a)`, shift-by-const chains, slice-of-slice,
//!    double negation, and friends. Every rule preserves the node's
//!    width.
//! 3. **Structural hashing (GVN)** — after rewriting, a node is interned
//!    by its canonical key; commutative operators sort their operands
//!    first, so `a * b` and `b * a` intern to the same value number.
//!
//! Rules see operands *after* their own rewrites (the forward pass maps
//! operands first), so chains like `(x << 3) << 2` fold even when the
//! inner shift was itself produced by a rewrite.

use std::collections::HashMap;

use dfv_bits::Bv;

use crate::check::check_module;
use crate::ir::{BinOp, Module, Node, NodeId, UnOp};
use crate::sim::{eval_bin, eval_un};

/// Counters describing what [`optimize`] did — deterministic for a given
/// input module, so they can land in canonical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Combinational nodes before the pass.
    pub nodes_before: u64,
    /// Combinational nodes after GVN + DCE.
    pub nodes_after: u64,
    /// Nodes discharged by constant folding.
    pub folded: u64,
    /// Nodes discharged by an identity/absorption rewrite.
    pub rewritten: u64,
    /// Nodes merged into an existing value number by structural hashing.
    pub gvn_merged: u64,
    /// Live-but-duplicate nodes removed by the final dead-code sweep.
    pub dce_removed: u64,
}

/// Canonical GVN key of a rewritten node. Commutative binary operators
/// are keyed with sorted operands so operand order cannot split a value
/// class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Input(usize),
    Const(u32, Vec<u64>),
    RegQ(usize),
    MemReadData(usize, usize),
    InstOut(usize, usize),
    Un(UnOp, u32),
    Bin(BinOp, u32, u32),
    Mux(u32, u32, u32),
    Slice(u32, u32, u32),
    Concat(u32, u32),
    Zext(u32, u32),
    Sext(u32, u32),
}

/// The in-progress rewritten module: nodes, widths, and the GVN table.
struct Builder {
    nodes: Vec<Node>,
    widths: Vec<u32>,
    /// Rewritten constant value per new node (`None` for non-constants).
    consts: Vec<Option<Bv>>,
    table: HashMap<Key, NodeId>,
}

impl Builder {
    fn key_of(&self, node: &Node) -> Key {
        match node {
            Node::Input(i) => Key::Input(*i),
            Node::Const(v) => Key::Const(v.width(), v.limbs().to_vec()),
            Node::RegQ(r) => Key::RegQ(r.index()),
            Node::MemReadData(m, p) => Key::MemReadData(m.index(), *p),
            Node::InstOut(i, o) => Key::InstOut(i.0 as usize, *o),
            Node::Un(op, a) => Key::Un(*op, a.index() as u32),
            Node::Bin(op, a, b) => {
                let (x, y) = (a.index() as u32, b.index() as u32);
                if commutes(*op) && y < x {
                    Key::Bin(*op, y, x)
                } else {
                    Key::Bin(*op, x, y)
                }
            }
            Node::Mux { sel, t, f } => {
                Key::Mux(sel.index() as u32, t.index() as u32, f.index() as u32)
            }
            Node::Slice { src, hi, lo } => Key::Slice(src.index() as u32, *hi, *lo),
            Node::Concat(h, l) => Key::Concat(h.index() as u32, l.index() as u32),
            Node::Zext(a, w) => Key::Zext(a.index() as u32, *w),
            Node::Sext(a, w) => Key::Sext(a.index() as u32, *w),
        }
    }

    /// Interns `node` (which must reference only already-interned nodes),
    /// returning the existing value number on a GVN hit.
    fn intern(&mut self, node: Node, width: u32, stats: &mut OptStats) -> NodeId {
        let key = self.key_of(&node);
        if let Some(&id) = self.table.get(&key) {
            stats.gvn_merged += 1;
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        let cv = match &node {
            Node::Const(v) => Some(v.clone()),
            _ => None,
        };
        self.nodes.push(node);
        self.widths.push(width);
        self.consts.push(cv);
        self.table.insert(key, id);
        id
    }

    fn intern_const(&mut self, v: Bv, stats: &mut OptStats) -> NodeId {
        let w = v.width();
        self.intern(Node::Const(v), w, stats)
    }

    /// The constant value of an interned node, if it is one.
    fn const_of(&self, id: NodeId) -> Option<&Bv> {
        self.consts[id.index()].as_ref()
    }
}

fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
    )
}

/// Rewrites `module` and returns the optimized module, the old→new node
/// map (`None` for nodes removed as dead), and the pass counters.
///
/// The optimized module has the same ports, registers (by name, width,
/// init, enable), memories, and instances as the input; only the
/// combinational DAG between them shrinks. Every map entry that is
/// `Some(n)` points at a node computing the same value as the old node
/// under all inputs/register/memory states — the soundness granted by
/// folding through the simulator's own evaluation oracle and by
/// width-preserving identities.
///
/// # Panics
///
/// Panics if the rewritten module fails structural validation — that
/// would be a bug in this pass, never a property of the input.
pub fn optimize(module: &Module) -> (Module, Vec<Option<NodeId>>, OptStats) {
    let mut stats = OptStats {
        nodes_before: module.nodes.len() as u64,
        ..OptStats::default()
    };
    let mut b = Builder {
        nodes: Vec::with_capacity(module.nodes.len()),
        widths: Vec::with_capacity(module.nodes.len()),
        consts: Vec::with_capacity(module.nodes.len()),
        table: HashMap::new(),
    };
    // Forward rewrite: every old node gets a value number over the new
    // node vector. Operands are looked up through `map`, so rules see
    // already-rewritten operands.
    let mut map: Vec<NodeId> = Vec::with_capacity(module.nodes.len());
    for (i, node) in module.nodes.iter().enumerate() {
        let width = module.node_widths[i];
        let id = rewrite(&mut b, node, width, &map, &mut stats);
        debug_assert_eq!(b.widths[id.index()], width, "rewrite changed a width");
        map.push(id);
    }

    // Dead-code sweep. Roots are everything the sequential frame reads:
    // output drivers, register D/enable inputs, memory port wires, and
    // instance connections. Registers and memories themselves are always
    // kept so name-based extraction still lines up.
    let mut live = vec![false; b.nodes.len()];
    let mut work: Vec<NodeId> = Vec::new();
    let root = |n: NodeId, work: &mut Vec<NodeId>| work.push(map[n.index()]);
    for &d in &module.output_drivers {
        root(d, &mut work);
    }
    for r in &module.regs {
        if let Some(n) = r.next {
            root(n, &mut work);
        }
        if let Some(n) = r.en {
            root(n, &mut work);
        }
    }
    for m in &module.mems {
        for wp in &m.write_ports {
            root(wp.en, &mut work);
            root(wp.addr, &mut work);
            root(wp.data, &mut work);
        }
        for rp in &m.read_ports {
            root(rp.addr, &mut work);
        }
    }
    for inst in &module.instances {
        for &n in &inst.input_conns {
            root(n, &mut work);
        }
    }
    while let Some(n) = work.pop() {
        if std::mem::replace(&mut live[n.index()], true) {
            continue;
        }
        b.nodes[n.index()].for_each_operand(|o| work.push(o));
    }

    // Compact live nodes, preserving topological order.
    let mut compact: Vec<Option<NodeId>> = vec![None; b.nodes.len()];
    let mut out = Module {
        name: module.name.clone(),
        inputs: module.inputs.clone(),
        outputs: module.outputs.clone(),
        output_drivers: Vec::with_capacity(module.output_drivers.len()),
        nodes: Vec::new(),
        node_widths: Vec::new(),
        node_names: HashMap::new(),
        regs: module.regs.clone(),
        mems: module.mems.clone(),
        instances: module.instances.clone(),
    };
    for (i, node) in b.nodes.iter().enumerate() {
        if !live[i] {
            stats.dce_removed += 1;
            continue;
        }
        let id = NodeId(out.nodes.len() as u32);
        let mut n = node.clone();
        remap_operands(&mut n, &compact);
        out.nodes.push(n);
        out.node_widths.push(b.widths[i]);
        compact[i] = Some(id);
    }
    let final_map: Vec<Option<NodeId>> = map.iter().map(|&n| compact[n.index()]).collect();
    // Debug names follow the map; the first old node to land on a new
    // node names it (old-index order, so the choice is deterministic).
    for (i, mapped) in final_map.iter().enumerate() {
        if let (Some(name), Some(new)) = (module.node_names.get(&(i as u32)), mapped) {
            out.node_names
                .entry(new.index() as u32)
                .or_insert_with(|| name.clone());
        }
    }
    let fix = |n: NodeId| compact[map[n.index()].index()].expect("root node survives DCE");
    out.output_drivers = module.output_drivers.iter().map(|&d| fix(d)).collect();
    for r in &mut out.regs {
        r.next = r.next.map(fix);
        r.en = r.en.map(fix);
    }
    for m in &mut out.mems {
        for wp in &mut m.write_ports {
            wp.en = fix(wp.en);
            wp.addr = fix(wp.addr);
            wp.data = fix(wp.data);
        }
        for rp in &mut m.read_ports {
            rp.addr = fix(rp.addr);
        }
    }
    for inst in &mut out.instances {
        for n in &mut inst.input_conns {
            *n = fix(*n);
        }
    }
    stats.nodes_after = out.nodes.len() as u64;
    check_module(&out).expect("optimize produced a structurally valid module");
    (out, final_map, stats)
}

fn remap_operands(node: &mut Node, compact: &[Option<NodeId>]) {
    let m = |n: &mut NodeId| *n = compact[n.index()].expect("operand of a live node is live");
    match node {
        Node::Input(_)
        | Node::Const(_)
        | Node::RegQ(_)
        | Node::MemReadData(..)
        | Node::InstOut(..) => {}
        Node::Un(_, a) | Node::Zext(a, _) | Node::Sext(a, _) | Node::Slice { src: a, .. } => m(a),
        Node::Bin(_, a, b) | Node::Concat(a, b) => {
            m(a);
            m(b);
        }
        Node::Mux { sel, t, f } => {
            m(sel);
            m(t);
            m(f);
        }
    }
}

/// Rewrites one old node over already-interned operands and interns the
/// result. `width` is the old node's width; every returned node has it.
fn rewrite(
    b: &mut Builder,
    node: &Node,
    width: u32,
    map: &[NodeId],
    stats: &mut OptStats,
) -> NodeId {
    match node {
        Node::Input(_)
        | Node::Const(_)
        | Node::RegQ(_)
        | Node::MemReadData(..)
        | Node::InstOut(..) => b.intern(node.clone(), width, stats),
        Node::Un(op, a) => {
            let a = map[a.index()];
            if let Some(v) = b.const_of(a) {
                stats.folded += 1;
                let folded = eval_un(*op, v);
                return b.intern_const(folded, stats);
            }
            match (op, &b.nodes[a.index()]) {
                // !!x and --x cancel.
                (UnOp::Not, Node::Un(UnOp::Not, x)) | (UnOp::Neg, Node::Un(UnOp::Neg, x)) => {
                    stats.rewritten += 1;
                    *x
                }
                // Reductions of a 1-bit value are the value itself.
                (UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor, _) if b.widths[a.index()] == 1 => {
                    stats.rewritten += 1;
                    a
                }
                _ => b.intern(Node::Un(*op, a), width, stats),
            }
        }
        Node::Bin(op, a, bb) => {
            let (a, bn) = (map[a.index()], map[bb.index()]);
            if let (Some(va), Some(vb)) = (b.const_of(a), b.const_of(bn)) {
                stats.folded += 1;
                let folded = eval_bin(*op, va, vb);
                return b.intern_const(folded, stats);
            }
            if let Some(id) = bin_identity(b, *op, a, bn, width, stats) {
                return id;
            }
            // Store commutative operands in canonical (sorted) order, not
            // just in the GVN key: two *different* modules optimized
            // independently then encode `a*b` and `b*a` through identical
            // gate-call sequences, so the bit-blaster's structural caches
            // collapse the pair without any SAT effort.
            let (a, bn) = if commutes(*op) && bn.index() < a.index() {
                (bn, a)
            } else {
                (a, bn)
            };
            b.intern(Node::Bin(*op, a, bn), width, stats)
        }
        Node::Mux { sel, t, f } => {
            let (s, mut t, mut f) = (map[sel.index()], map[t.index()], map[f.index()]);
            if let Some(v) = b.const_of(s) {
                stats.rewritten += 1;
                return if v.bit(0) { t } else { f };
            }
            // mux(s, mux(s, a, _), c) = mux(s, a, c) and its dual.
            if let Node::Mux { sel: s2, t: t2, .. } = b.nodes[t.index()] {
                if s2 == s {
                    stats.rewritten += 1;
                    t = t2;
                }
            }
            if let Node::Mux { sel: s2, f: f2, .. } = b.nodes[f.index()] {
                if s2 == s {
                    stats.rewritten += 1;
                    f = f2;
                }
            }
            if t == f {
                stats.rewritten += 1;
                return t;
            }
            b.intern(Node::Mux { sel: s, t, f }, width, stats)
        }
        Node::Slice { src, hi, lo } => {
            let (mut src, mut hi, mut lo) = (map[src.index()], *hi, *lo);
            if let Some(v) = b.const_of(src) {
                stats.folded += 1;
                let folded = v.slice(hi, lo);
                return b.intern_const(folded, stats);
            }
            // Slice-of-slice composes; slice-of-concat narrows to one arm
            // when the range stays inside it. Loop: each step strictly
            // shrinks the source node index, so this terminates.
            loop {
                match &b.nodes[src.index()] {
                    Node::Slice {
                        src: inner,
                        lo: ilo,
                        ..
                    } => {
                        stats.rewritten += 1;
                        (src, hi, lo) = (*inner, hi + ilo, lo + ilo);
                    }
                    Node::Concat(h, l) => {
                        let wl = b.widths[l.index()];
                        if hi < wl {
                            stats.rewritten += 1;
                            src = *l;
                        } else if lo >= wl {
                            stats.rewritten += 1;
                            (src, hi, lo) = (*h, hi - wl, lo - wl);
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            if lo == 0 && hi + 1 == b.widths[src.index()] {
                stats.rewritten += 1;
                return src;
            }
            b.intern(Node::Slice { src, hi, lo }, width, stats)
        }
        Node::Concat(h, l) => {
            let (h, l) = (map[h.index()], map[l.index()]);
            if let (Some(vh), Some(vl)) = (b.const_of(h), b.const_of(l)) {
                stats.folded += 1;
                let folded = vh.concat(vl);
                return b.intern_const(folded, stats);
            }
            // {0, x} is a zero-extension — canonicalize so GVN can merge
            // it with explicitly-built zexts.
            if let Some(vh) = b.const_of(h) {
                if vh.is_zero() {
                    stats.rewritten += 1;
                    return b.intern(Node::Zext(l, width), width, stats);
                }
            }
            b.intern(Node::Concat(h, l), width, stats)
        }
        Node::Zext(a, w) => {
            let a = map[a.index()];
            if let Some(v) = b.const_of(a) {
                stats.folded += 1;
                let folded = v.zext(*w);
                return b.intern_const(folded, stats);
            }
            if b.widths[a.index()] == *w {
                stats.rewritten += 1;
                return a;
            }
            if let Node::Zext(inner, _) = b.nodes[a.index()] {
                stats.rewritten += 1;
                return b.intern(Node::Zext(inner, *w), width, stats);
            }
            b.intern(Node::Zext(a, *w), width, stats)
        }
        Node::Sext(a, w) => {
            let a = map[a.index()];
            if let Some(v) = b.const_of(a) {
                stats.folded += 1;
                let folded = v.sext(*w);
                return b.intern_const(folded, stats);
            }
            if b.widths[a.index()] == *w {
                stats.rewritten += 1;
                return a;
            }
            b.intern(Node::Sext(a, *w), width, stats)
        }
    }
}

/// Identity and absorption rules for binary operators. Returns `None`
/// when no rule applies; every returned node has width `width`.
fn bin_identity(
    b: &mut Builder,
    op: BinOp,
    a: NodeId,
    bn: NodeId,
    width: u32,
    stats: &mut OptStats,
) -> Option<NodeId> {
    let ca = b.const_of(a).cloned();
    let cb = b.const_of(bn).cloned();
    let hit = |stats: &mut OptStats, id: NodeId| {
        stats.rewritten += 1;
        Some(id)
    };
    let zero = |b: &mut Builder, stats: &mut OptStats| {
        stats.rewritten += 1;
        Some(b.intern_const(Bv::zero(width), stats))
    };
    let ones = |b: &mut Builder, stats: &mut OptStats| {
        stats.rewritten += 1;
        Some(b.intern_const(Bv::ones(width), stats))
    };
    let truth = |b: &mut Builder, stats: &mut OptStats, v: bool| {
        stats.rewritten += 1;
        Some(b.intern_const(Bv::from_bool(v), stats))
    };
    match op {
        BinOp::And => {
            if ca.as_ref().is_some_and(Bv::is_zero) || cb.as_ref().is_some_and(Bv::is_zero) {
                return zero(b, stats);
            }
            if ca.as_ref().is_some_and(Bv::is_ones) {
                return hit(stats, bn);
            }
            if cb.as_ref().is_some_and(Bv::is_ones) || a == bn {
                return hit(stats, a);
            }
        }
        BinOp::Or => {
            if ca.as_ref().is_some_and(Bv::is_ones) || cb.as_ref().is_some_and(Bv::is_ones) {
                return ones(b, stats);
            }
            if ca.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, bn);
            }
            if cb.as_ref().is_some_and(Bv::is_zero) || a == bn {
                return hit(stats, a);
            }
        }
        BinOp::Xor => {
            if a == bn {
                return zero(b, stats);
            }
            if ca.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, bn);
            }
            if cb.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, a);
            }
        }
        BinOp::Add => {
            if ca.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, bn);
            }
            if cb.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, a);
            }
        }
        BinOp::Sub => {
            if a == bn {
                return zero(b, stats);
            }
            if cb.as_ref().is_some_and(Bv::is_zero) {
                return hit(stats, a);
            }
        }
        BinOp::Mul => {
            if ca.as_ref().is_some_and(Bv::is_zero) || cb.as_ref().is_some_and(Bv::is_zero) {
                return zero(b, stats);
            }
            if ca.as_ref().is_some_and(|v| v.try_to_u64() == Some(1)) {
                return hit(stats, bn);
            }
            if cb.as_ref().is_some_and(|v| v.try_to_u64() == Some(1)) {
                return hit(stats, a);
            }
        }
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            if let Some(amt) = cb.as_ref().and_then(Bv::try_to_u64) {
                if amt == 0 {
                    return hit(stats, a);
                }
                // Shift-by-const chains: (x >> c1) >> c2 = x >> (c1+c2),
                // saturating at the word width (logical shifts vanish;
                // an arithmetic shift by >= w equals one by w).
                if let Node::Bin(iop, x, ic) = b.nodes[a.index()] {
                    if iop == op {
                        if let Some(inner) = b.const_of(ic).and_then(Bv::try_to_u64) {
                            stats.rewritten += 1;
                            let total = inner.saturating_add(amt).min(width as u64 + 1);
                            if total >= width as u64 && matches!(op, BinOp::Shl | BinOp::LShr) {
                                return zero(b, stats);
                            }
                            let amount = b.intern_const(Bv::from_u64(32, total), stats);
                            return Some(b.intern(Node::Bin(op, x, amount), width, stats));
                        }
                    }
                }
            }
        }
        BinOp::Eq | BinOp::ULe | BinOp::SLe => {
            if a == bn {
                return truth(b, stats, true);
            }
        }
        BinOp::Ne | BinOp::ULt | BinOp::SLt => {
            if a == bn {
                return truth(b, stats, false);
            }
        }
        BinOp::UDiv | BinOp::URem | BinOp::SDiv | BinOp::SRem => {
            if cb.as_ref().is_some_and(|v| v.try_to_u64() == Some(1)) {
                return match op {
                    BinOp::UDiv | BinOp::SDiv => hit(stats, a),
                    _ => zero(b, stats),
                };
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::sim::Simulator;
    use dfv_bits::SplitMix64;

    /// The optimized module computes the same outputs as the original
    /// under random stimulus (both combinational).
    fn assert_comb_equiv(orig: &Module, opt: &Module, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut s1 = Simulator::new_reference(orig.clone()).unwrap();
        let mut s2 = Simulator::new_reference(opt.clone()).unwrap();
        for _ in 0..64 {
            for p in orig.inputs.clone() {
                let v = Bv::from_u64(64.min(p.width), rng.next_u64()).resize_zext(p.width);
                s1.poke(&p.name, v.clone());
                s2.poke(&p.name, v);
            }
            s1.eval();
            s2.eval();
            for o in &orig.outputs {
                assert_eq!(s1.output(&o.name), s2.output(&o.name), "output {}", o.name);
            }
        }
    }

    #[test]
    fn commutative_gvn_merges_mul_operand_orders() {
        let mut b = ModuleBuilder::new("comm");
        let a = b.input("a", 16);
        let x = b.input("x", 16);
        let p = b.mul(a, x);
        let q = b.mul(x, a);
        let d = b.xor(p, q);
        b.output("d", d);
        let m = b.finish().unwrap();
        let (opt, map, stats) = optimize(&m);
        // Both products intern to one value number, so the xor folds to 0.
        assert!(stats.gvn_merged >= 1);
        let dn = opt.output_drivers[0];
        assert_eq!(opt.nodes[dn.index()], Node::Const(Bv::zero(16)));
        assert_eq!(map.len(), m.nodes.len());
        assert_comb_equiv(&m, &opt, 0x1);
    }

    #[test]
    fn constant_folding_and_identities() {
        let mut b = ModuleBuilder::new("ids");
        let x = b.input("x", 8);
        let zero = b.constant(Bv::zero(8));
        let ones = b.constant(Bv::ones(8));
        let t1 = b.and(x, zero); // 0
        let t2 = b.or(x, ones); // ones
        let t3 = b.xor(x, zero); // x
        let c = b.input("c", 1);
        let t4 = b.mux(c, x, x); // x
        let sum = b.add(t1, t2); // ones
        let both = b.xor(t3, t4); // 0
        let y = b.or(sum, both); // ones
        b.output("y", y);
        let k1 = b.constant(Bv::from_u64(4, 3));
        let k2 = b.constant(Bv::from_u64(4, 2));
        let s1 = b.shl(x, k1);
        let s2 = b.shl(s1, k2); // x << 5
        b.output("s", s2);
        let m = b.finish().unwrap();
        let (opt, _, stats) = optimize(&m);
        assert!(stats.rewritten >= 5, "stats: {stats:?}");
        let y = opt.output_drivers[m.output_index("y").unwrap()];
        assert_eq!(opt.nodes[y.index()], Node::Const(Bv::ones(8)));
        assert_comb_equiv(&m, &opt, 0x2);
    }

    #[test]
    fn slice_and_extension_rules() {
        let mut b = ModuleBuilder::new("slices");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let cat = b.concat(x, y);
        let lo = b.slice(cat, 7, 0); // = y
        let hi = b.slice(cat, 15, 8); // = x
        let again = b.slice(cat, 11, 4); // stays a slice of cat
        let zx = b.zext(x, 8); // = x
        let d1 = b.xor(lo, y); // 0
        let d2 = b.xor(hi, zx); // 0
        let out = b.concat(d1, d2);
        b.output("o", out);
        b.output("m", again);
        let m = b.finish().unwrap();
        let (opt, _, _) = optimize(&m);
        let o = opt.output_drivers[m.output_index("o").unwrap()];
        assert_eq!(opt.nodes[o.index()], Node::Const(Bv::zero(16)));
        assert_comb_equiv(&m, &opt, 0x3);
    }

    #[test]
    fn registers_and_memories_survive_with_names() {
        let mut b = ModuleBuilder::new("seq");
        let en = b.input("en", 1);
        let d = b.input("d", 8);
        let r = b.reg("state", 8, Bv::zero(8));
        let q = b.reg_q(r);
        let zero = b.constant(Bv::zero(8));
        let sum = b.add(q, d);
        let sum2 = b.add(sum, zero); // identity: collapses onto sum
        b.connect_reg(r, sum2);
        b.reg_enable(r, en);
        b.output("q", q);
        let m = b.finish().unwrap();
        let (opt, map, stats) = optimize(&m);
        assert_eq!(opt.regs.len(), 1);
        assert_eq!(opt.regs[0].name, "state");
        assert!(stats.nodes_after < stats.nodes_before);
        // Sequential behavior is preserved.
        let mut s1 = Simulator::new(m.clone()).unwrap();
        let mut s2 = Simulator::new(opt).unwrap();
        for i in 0..8u64 {
            let stim = [
                ("en", Bv::from_bool(i % 3 != 0)),
                ("d", Bv::from_u64(8, i * 17)),
            ];
            s1.step_with(&stim);
            s2.step_with(&stim);
            assert_eq!(s1.output("q"), s2.output("q"));
        }
        assert_eq!(map.len(), m.nodes.len());
    }

    #[test]
    fn node_map_points_at_equal_values() {
        let mut b = ModuleBuilder::new("map");
        let x = b.input("x", 8);
        let zero = b.constant(Bv::zero(8));
        let t = b.add(x, zero);
        b.name_node(t, "t");
        b.output("y", t);
        let m = b.finish().unwrap();
        let (opt, map, _) = optimize(&m);
        // `t` collapsed onto `x`'s input node; the map says so and the
        // debug name followed it.
        let new_t = map[t.index()].expect("live node maps");
        assert_eq!(opt.nodes[new_t.index()], Node::Input(0));
        assert_eq!(opt.node_named("t"), Some(new_t));
    }

    #[test]
    fn random_modules_stay_equivalent() {
        // Fuzz: random expression DAGs, optimized, compared on random
        // stimulus. Division included — fold rules must match the oracle.
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(0xDF50A + seed);
            let mut b = ModuleBuilder::new("fuzz");
            let mut pool = vec![b.input("a", 8), b.input("b", 8), b.input("c", 8)];
            let sel = b.input("s", 1);
            for k in 0..24 {
                let i = pool[rng.below(pool.len() as u64) as usize];
                let j = pool[rng.below(pool.len() as u64) as usize];
                let n = match rng.below(12) {
                    0 => b.add(i, j),
                    1 => b.sub(i, j),
                    2 => b.mul(i, j),
                    3 => b.and(i, j),
                    4 => b.or(i, j),
                    5 => b.xor(i, j),
                    6 => b.mux(sel, i, j),
                    7 => b.not(i),
                    8 => {
                        let c = b.constant(Bv::from_u64(8, rng.next_u64()));
                        b.add(i, c)
                    }
                    9 => b.udiv(i, j),
                    10 => b.urem(i, j),
                    _ => {
                        let s = b.slice(i, 3 + (k % 4), 0);
                        b.zext(s, 8)
                    }
                };
                pool.push(n);
            }
            let out = *pool.last().unwrap();
            b.output("y", out);
            let m = b.finish().unwrap();
            let (opt, map, _) = optimize(&m);
            assert!(map.iter().filter(|e| e.is_some()).count() >= 1);
            assert_comb_equiv(&m, &opt, seed);
        }
    }
}
