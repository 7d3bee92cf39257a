//! Whole-function compiler: an SLM-C function, callees inlined, lowered to
//! one `dfv-vm` program plus a basic-block table.
//!
//! The tree-walking interpreter in [`crate::interp`] is the oracle; this
//! is the fast engine [`crate::Interp::new_compiled`] runs a whole entry
//! on. It covers the subset conditioned SLM-C uses: scalars and fixed
//! arrays of width ≤ 64; `if`/`for`/`while`/`break`/`continue`/`return`/
//! `?:`; non-recursive calls, inlined with fresh slots (a call with `out`
//! parameters only as a statement, so no half-evaluated expression can
//! see a variable change under it). Anything else — pointers, `malloc`,
//! wider values, recursion, a construct the walker could reject — leaves
//! the function to the walker. The one walker error compiled code can
//! reach, using a void call's value, ends its block in [`Term::Bail`].
//!
//! Every variable, array element, temporary and literal owns a fixed
//! arena slot holding its value masked to its width; literals live in a
//! pool written once per run. Straight-line code forms a [`Block`]: an
//! instruction range, the interpreter ticks it charges (one per statement,
//! expression node and loop-head test, exactly as [`crate::interp`] counts
//! them) and a [`Term`]. The interpreter drives the table over
//! `Program::run_range`, so control flow never enters the VM.

use std::collections::{HashMap, HashSet};
use std::mem::{replace, take};

use dfv_vm::{Instr, Program as VmProgram};

use crate::ast::*;
use crate::sema::{int_promote, literal_ty, promote};

/// A compiled entry function.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// Every block's instructions, validated once.
    pub prog: VmProgram,
    /// The block table; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Literal pool: (slot, value), written before each run.
    pub consts: Vec<(u32, u64)>,
    /// Storage of each parameter, in declaration order.
    pub params: Vec<Var>,
    /// Where a scalar return value lands.
    pub ret: Option<Var>,
    /// Deepest call nesting of the inlined callees.
    pub depth: u32,
}

/// The storage of one variable: `len` slots from `base` (1 for a scalar).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Var {
    pub base: u32,
    pub len: u32,
    /// The scalar type, or the element type of an array.
    pub ty: ScalarTy,
    pub array: bool,
}

/// A straight-line run of instructions and how it ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub lo: usize,
    pub hi: usize,
    /// Interpreter ticks the block charges, all up front.
    pub ticks: u64,
    pub term: Term,
}

/// How a block ends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    Goto(usize),
    /// (condition slot, block if nonzero, block if zero).
    Branch(u32, usize, usize),
    /// The entry returns; `true` if the return slot holds a value.
    Return(bool),
    /// The walk would fail here (a void call's value is used): give the
    /// run to the walker.
    Bail,
}

/// Inlining stops (and the function stays on the walker) past this many
/// instructions, so a call tree that doubles at every level cannot blow up.
const MAX_INSTRS: usize = 1 << 16;

/// Compiles `f`, or returns `None` to leave it to the walker (which
/// reports any real error itself).
pub(crate) fn compile(prog: &Program, f: &Func) -> Option<Compiled> {
    let mut b = Builder {
        prog,
        instrs: Vec::new(),
        blocks: Vec::new(),
        cur: 0,
        slots: 0,
        consts: HashMap::new(),
        scopes: Vec::new(),
        loops: Vec::new(),
        frame: Frame::default(),
        active: vec![&f.name],
        depth: 0,
    };
    let [entry, exit, void] = b.blocks();
    b.open(entry);
    b.blocks[exit].term = Term::Return(true);
    b.blocks[void].term = Term::Return(false);
    let params = b.params(f)?;
    let ret = b.ret_var(f)?;
    // The walker collects the entry's outs by name: names must be unique.
    let names: HashSet<_> = f.params.iter().map(|p| &p.name).collect();
    (names.len() == f.params.len()).then_some(())?;
    b.body(f, &params, Frame { ret, exit, void })?;
    b.end(Term::Goto(void));
    if b.instrs.len() > MAX_INSTRS {
        return None;
    }
    let prog = VmProgram::new(b.instrs, b.slots as usize)
        .expect("function lowering emitted invalid bytecode");
    Some(Compiled {
        prog,
        blocks: b.blocks,
        consts: b.consts.into_iter().map(|(v, s)| (s, v)).collect(),
        params,
        ret,
        depth: b.depth,
    })
}

/// Where the returns of the body being compiled go.
#[derive(Default, Clone, Copy)]
struct Frame {
    ret: Option<Var>,
    /// `return e;` stores into `ret` and jumps here.
    exit: usize,
    /// `return;` and falling off the end jump here.
    void: usize,
}

struct Builder<'p> {
    prog: &'p Program,
    instrs: Vec<Instr>,
    blocks: Vec<Block>,
    /// The block being filled.
    cur: usize,
    slots: u32,
    /// Literal value → pool slot.
    consts: HashMap<u64, u32>,
    /// Names visible in the body being compiled, innermost last.
    scopes: Vec<(&'p str, Var)>,
    /// Its enclosing loops: (continue target, break target).
    loops: Vec<(usize, usize)>,
    frame: Frame,
    /// The inlining stack, entry first (recursion check).
    active: Vec<&'p str>,
    depth: u32,
}

/// An array index: a literal (wrapped at compile time) or a slot.
enum Index {
    Const(u64),
    Slot(u32),
}

fn ok_width(t: ScalarTy) -> Option<ScalarTy> {
    (1..=64).contains(&t.width).then_some(t)
}

impl<'p> Builder<'p> {
    /// `N` new blocks; one nothing opens stays a `Bail`.
    fn blocks<const N: usize>(&mut self) -> [usize; N] {
        std::array::from_fn(|_| {
            self.blocks.push(Block {
                lo: 0,
                hi: 0,
                ticks: 0,
                term: Term::Bail,
            });
            self.blocks.len() - 1
        })
    }

    fn open(&mut self, b: usize) {
        self.blocks[b].lo = self.instrs.len();
        self.cur = b;
    }

    fn end(&mut self, term: Term) {
        let blk = &mut self.blocks[self.cur];
        blk.hi = self.instrs.len();
        blk.term = term;
    }

    /// Ends the current block with `term` and continues in `next`.
    fn jump(&mut self, term: Term, next: usize) {
        self.end(term);
        self.open(next);
    }

    /// Jumps to `target`; what follows is unreachable and compiles into a
    /// block nothing enters.
    fn leave(&mut self, target: usize) {
        let [dead] = self.blocks();
        self.jump(Term::Goto(target), dead);
    }

    fn tick(&mut self) {
        self.blocks[self.cur].ticks += 1;
    }

    fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    fn alloc(&mut self, n: u32) -> u32 {
        self.slots += n;
        self.slots - n
    }

    fn var(&mut self, ty: Ty) -> Option<Var> {
        let (ty, len, array) = match ty {
            Ty::Scalar(s) => (s, 1, false),
            Ty::Array(s, n) if (1..=MAX_INSTRS).contains(&n) => (s, n as u32, true),
            _ => return None,
        };
        Some(Var {
            base: self.alloc(len),
            len,
            ty: ok_width(ty)?,
            array,
        })
    }

    fn params(&mut self, f: &Func) -> Option<Vec<Var>> {
        f.params.iter().map(|p| self.var(p.ty)).collect()
    }

    fn ret_var(&mut self, f: &Func) -> Option<Option<Var>> {
        match f.ret {
            Ty::Void => Some(None),
            ty => self.var(ty).map(Some),
        }
    }

    fn constant(&mut self, v: u64) -> u32 {
        let fresh = self.slots;
        let s = *self.consts.entry(v).or_insert(fresh);
        self.slots += (s == fresh) as u32;
        s
    }

    fn lookup(&self, n: &str) -> Option<Var> {
        let found = self.scopes.iter().rev().find(|(name, _)| *name == n);
        found.map(|(_, v)| *v)
    }

    fn scalar(&self, n: &str) -> Option<Var> {
        self.lookup(n).filter(|v| !v.array)
    }

    fn zero(&mut self, v: Var) {
        for dst in v.base..v.base + v.len {
            self.emit(Instr::Const1 { dst, imm: 0 });
        }
    }

    /// Compiles `e` and stores it, resized, into the scalar `v`.
    fn assign(&mut self, e: &'p Expr, v: Var) -> Option<()> {
        let (a, t) = self.expr(e)?;
        self.store_resized(a, t, v.base, v.ty);
        Some(())
    }

    /// Compiles `f`'s body with `params` bound, seeing none of the
    /// caller's names or loops. The fall-off end is left to the caller.
    fn body(&mut self, f: &'p Func, params: &[Var], frame: Frame) -> Option<()> {
        let saved = (take(&mut self.scopes), take(&mut self.loops));
        let saved_frame = replace(&mut self.frame, frame);
        let names = f.params.iter().map(|p| p.name.as_str());
        self.scopes.extend(names.zip(params.iter().copied()));
        self.stmts(&f.body)?;
        (self.scopes, self.loops) = saved;
        self.frame = saved_frame;
        Some(())
    }

    fn stmts(&mut self, body: &'p [Stmt]) -> Option<()> {
        let mark = self.scopes.len();
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.truncate(mark);
        Some(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Option<()> {
        self.tick();
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let v = self.var(*ty)?;
                match init {
                    // Array initializers are ignored, as the walker does.
                    Some(e) if !v.array => self.assign(e, v)?,
                    _ => self.zero(v),
                }
                self.scopes.push((name, v));
            }
            StmtKind::Assign { lhs, rhs } => match lhs {
                LValue::Var(n) => {
                    let v = self.scalar(n)?;
                    self.assign(rhs, v)?;
                }
                LValue::Index { base, index } => {
                    let i = self.index(index)?;
                    let (a, t) = self.expr(rhs)?;
                    let v = self.lookup(base)?;
                    match i {
                        Index::Const(k) => {
                            self.store_resized(a, t, v.base + (k % v.len as u64) as u32, v.ty)
                        }
                        Index::Slot(i) => {
                            let (len, src) = (v.len, self.resize_to(a, t, v.ty));
                            self.emit(Instr::StoreIdx1 {
                                a: v.base,
                                len,
                                i,
                                src,
                            });
                        }
                    }
                }
                LValue::Deref(_) => return None,
            },
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Call { callee, args } => {
                    self.tick();
                    self.call(callee, args, false)?;
                }
                _ => {
                    self.expr(e)?;
                }
            },
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let (c, _) = self.expr(cond)?;
                let [t, f, join] = self.blocks();
                self.jump(Term::Branch(c, t, f), t);
                self.stmts(then_body)?;
                self.jump(Term::Goto(join), f);
                self.stmts(else_body)?;
                self.jump(Term::Goto(join), join);
            }
            StmtKind::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let v = self.var(Ty::Scalar(ScalarTy::INT))?;
                self.assign(init, v)?;
                self.scopes.push((var, v));
                self.looped(cond, body, Some((step, v)))?;
                self.scopes.pop();
            }
            StmtKind::While { cond, body } => self.looped(cond, body, None)?,
            StmtKind::Return(e) => {
                let Frame { ret, exit, void } = self.frame;
                let target = match (e, ret) {
                    (None, _) => void,
                    (Some(e), Some(r)) => {
                        self.assign(e, r)?;
                        exit
                    }
                    (Some(_), None) => return None,
                };
                self.leave(target);
            }
            StmtKind::Break | StmtKind::Continue => {
                let &(cont, brk) = self.loops.last()?;
                let is_break = matches!(s.kind, StmtKind::Break);
                self.leave(if is_break { brk } else { cont });
            }
            StmtKind::Block(body) => self.stmts(body)?,
        }
        Some(())
    }

    /// A loop, laid out test-last: the body, the `for` step (where
    /// `continue` goes), then the head, which ticks once and tests `cond`.
    fn looped(
        &mut self,
        cond: &'p Expr,
        body: &'p [Stmt],
        step: Option<(&'p Expr, Var)>,
    ) -> Option<()> {
        let [t, next, head, exit] = self.blocks();
        self.jump(Term::Goto(head), t);
        self.loops.push((next, exit));
        self.stmts(body)?;
        self.loops.pop();
        self.jump(Term::Goto(next), next);
        if let Some((e, v)) = step {
            self.assign(e, v)?;
        }
        self.jump(Term::Goto(head), head);
        self.tick();
        let (c, _) = self.expr(cond)?;
        self.jump(Term::Branch(c, t, exit), exit);
        Some(())
    }

    /// An index expression; a literal folds to a fixed element.
    fn index(&mut self, e: &'p Expr) -> Option<Index> {
        if let ExprKind::Int(k) = e.kind {
            self.tick();
            return Some(Index::Const(k));
        }
        Some(Index::Slot(self.expr(e)?.0))
    }

    /// Compiles a scalar-valued expression; returns its slot and type.
    fn expr(&mut self, e: &'p Expr) -> Option<(u32, ScalarTy)> {
        self.tick();
        Some(match &e.kind {
            ExprKind::Int(v) => (self.constant(*v), literal_ty(*v)),
            ExprKind::Var(n) => {
                let v = self.scalar(n)?;
                (v.base, v.ty)
            }
            ExprKind::Index { base, index } => {
                let i = self.index(index)?;
                let v = self.lookup(base)?;
                match i {
                    Index::Const(k) => (v.base + (k % v.len as u64) as u32, v.ty),
                    Index::Slot(i) => {
                        let (dst, len) = (self.alloc(1), v.len);
                        self.emit(Instr::LoadIdx1 {
                            dst,
                            a: v.base,
                            len,
                            i,
                        });
                        (dst, v.ty)
                    }
                }
            }
            ExprKind::Call { callee, args } => self.call(callee, args, true)??,
            ExprKind::Un(op, a) => {
                let (a, at) = self.expr(a)?;
                let (dst, w) = (self.alloc(1), at.width as u8);
                let (ins, ty) = match op {
                    UnOp::Neg => (Instr::Neg1 { dst, a, w }, at),
                    UnOp::Not => (Instr::Not1 { dst, a, w }, at),
                    UnOp::LNot => (Instr::EqZ1 { dst, a }, ScalarTy::BOOL),
                };
                self.emit(ins);
                (dst, ty)
            }
            ExprKind::Bin(op, a, b) => {
                let (a, at) = self.expr(a)?;
                let (b, bt) = self.expr(b)?;
                let dst = self.alloc(1);
                (dst, self.binop(*op, dst, a, at, b, bt)?)
            }
            ExprKind::Ternary { cond, t, f } => {
                // Only the taken side runs (and ticks), so `?:` branches.
                // Each arm lands in `dst` converted to the arms' common
                // type, which is known only once both are compiled: the
                // true arm's store is a placeholder until then.
                let (c, _) = self.expr(cond)?;
                let [tb, fb, join] = self.blocks();
                let dst = self.alloc(1);
                self.jump(Term::Branch(c, tb, fb), tb);
                let (a, at) = self.expr(t)?;
                let store_t = self.instrs.len();
                self.emit(Instr::Copy1 { dst, a });
                self.jump(Term::Goto(join), fb);
                let (b, ft) = self.expr(f)?;
                let rt = promote(at, ft);
                self.instrs[store_t] = resized(a, at, dst, rt);
                self.emit(resized(b, ft, dst, rt));
                self.jump(Term::Goto(join), join);
                (dst, rt)
            }
            ExprKind::Cast(ty, a) => {
                let ty = ok_width(*ty)?;
                let (a, at) = self.expr(a)?;
                (self.resize_to(a, at, ty), ty)
            }
            ExprKind::AddrOf(_) | ExprKind::Deref(_) | ExprKind::Malloc { .. } => return None,
        })
    }

    /// Inlines a call (its expression tick already charged). `want`: the
    /// value is used, so a void return bails and `out` parameters, whose
    /// copy-back could change a variable an enclosing expression already
    /// read, are refused.
    fn call(
        &mut self,
        name: &str,
        args: &'p [Expr],
        want: bool,
    ) -> Option<Option<(u32, ScalarTy)>> {
        let prog = self.prog;
        let g = prog.func(name)?;
        if args.len() != g.params.len()
            || self.active.contains(&name)
            || self.instrs.len() > MAX_INSTRS
            || (want && (g.ret == Ty::Void || g.params.iter().any(|p| p.is_out)))
        {
            return None;
        }
        let params = self.params(g)?;
        let mut outs = Vec::new();
        for ((p, a), &pv) in g.params.iter().zip(args).zip(&params) {
            if !pv.array && !p.is_out {
                self.assign(a, pv)?;
                continue;
            }
            // Bound by shape from a plain variable, as the walker does.
            self.tick();
            let ExprKind::Var(n) = &a.kind else {
                return None;
            };
            let cv = self.lookup(n)?;
            if cv.array != pv.array || (pv.array && (cv.len, cv.ty) != (pv.len, pv.ty)) {
                return None;
            }
            for k in 0..pv.len {
                self.store_resized(cv.base + k, cv.ty, pv.base + k, pv.ty);
            }
            if p.is_out {
                outs.push((pv, cv));
            }
        }
        self.depth = self.depth.max(self.active.len() as u32);
        self.active.push(&g.name);
        let ret = self.ret_var(g)?;
        let [exit, bail] = self.blocks();
        let void = if want { bail } else { exit };
        self.body(g, &params, Frame { ret, exit, void })?;
        self.jump(Term::Goto(void), exit);
        for (pv, cv) in outs {
            for k in 0..pv.len {
                self.store_resized(pv.base + k, pv.ty, cv.base + k, cv.ty);
            }
        }
        self.active.pop();
        Some(ret.map(|r| (r.base, r.ty)))
    }

    /// Lowers `dst = a op b` with the exact promotion rules of
    /// `interp::eval_binop`; returns the result type.
    fn binop(
        &mut self,
        op: BinOp,
        dst: u32,
        a: u32,
        at: ScalarTy,
        b: u32,
        bt: ScalarTy,
    ) -> Option<ScalarTy> {
        use BinOp::*;
        use Instr::*;
        if let LAnd | LOr = op {
            // Eager on the unpromoted operands, like the walker:
            // !(a==0 | b==0) for &&, !(a==0 & b==0) for ||.
            let z = self.alloc(2);
            let (za, zb) = (z, z + 1);
            self.emit(EqZ1 { dst: za, a });
            self.emit(EqZ1 { dst: zb, a: b });
            self.emit(if op == LAnd {
                Or1 { dst, a: za, b: zb }
            } else {
                And1 { dst, a: za, b: zb }
            });
            self.emit(XorC1 {
                dst,
                a: dst,
                imm: 1,
            });
            return Some(ScalarTy::BOOL);
        }
        let shift = matches!(op, Shl | Shr);
        // A shift promotes only its left side; the raw right value is the
        // amount (`eval_binop` passes it unresized).
        let p = ok_width(if shift {
            int_promote(at)
        } else {
            promote(at, bt)
        })?;
        let (w, aw, bw) = (p.width as u8, p.width as u8, p.width as u8);
        let a = self.resize_to(a, at, p);
        let b = if shift { b } else { self.resize_to(b, bt, p) };
        let (ins, bool_result) = match (op, p.signed) {
            (Shl, _) => (Shl1 { dst, a, b, w }, false),
            (Shr, true) => (AShr1 { dst, a, b, w }, false),
            (Shr, false) => (LShr1 { dst, a, b, w }, false),
            (Add, _) => (Add1 { dst, a, b, w }, false),
            (Sub, _) => (Sub1 { dst, a, b, w }, false),
            (Mul, _) => (Mul1 { dst, a, b, w }, false),
            (Div, true) => (SDiv1 { dst, a, b, aw, bw }, false),
            (Div, false) => (UDiv1 { dst, a, b, w }, false),
            (Rem, true) => (SRem1 { dst, a, b, aw, bw }, false),
            (Rem, false) => (URem1 { dst, a, b }, false),
            (And, _) => (And1 { dst, a, b }, false),
            (Or, _) => (Or1 { dst, a, b }, false),
            (Xor, _) => (Xor1 { dst, a, b }, false),
            (Eq, _) => (Eq1 { dst, a, b }, true),
            (Ne, _) => (Ne1 { dst, a, b }, true),
            // a > b == b < a; a >= b == b <= a
            (Lt, false) => (Ult1 { dst, a, b }, true),
            (Le, false) => (Ule1 { dst, a, b }, true),
            (Gt, false) => (Ult1 { dst, a: b, b: a }, true),
            (Ge, false) => (Ule1 { dst, a: b, b: a }, true),
            (Lt, true) => (Slt1 { dst, a, b, aw, bw }, true),
            (Le, true) => (Sle1 { dst, a, b, aw, bw }, true),
            (Gt, true) => (
                Slt1 {
                    dst,
                    a: b,
                    b: a,
                    aw,
                    bw,
                },
                true,
            ),
            (Ge, true) => (
                Sle1 {
                    dst,
                    a: b,
                    b: a,
                    aw,
                    bw,
                },
                true,
            ),
            (LAnd | LOr, _) => unreachable!("lowered above"),
        };
        self.emit(ins);
        Some(if bool_result { ScalarTy::BOOL } else { p })
    }

    /// The value in `slot` resized from `from` to `to` (per *source*
    /// signedness, the SLM-C conversion rule), reusing the slot when the
    /// masked bits are already the answer.
    fn resize_to(&mut self, slot: u32, from: ScalarTy, to: ScalarTy) -> u32 {
        if to.width == from.width || (to.width > from.width && !from.signed) {
            return slot;
        }
        let dst = self.alloc(1);
        self.store_resized(slot, from, dst, to);
        dst
    }

    /// Writes the value in `src`, resized from `from` to `to`, into `dst`.
    fn store_resized(&mut self, src: u32, from: ScalarTy, dst: u32, to: ScalarTy) {
        match resized(src, from, dst, to) {
            Instr::Copy1 { dst, a } if dst == a => {}
            ins => self.emit(ins),
        }
    }
}

/// The instruction writing the value in `src`, resized from `from` to
/// `to`, into `dst`.
fn resized(src: u32, from: ScalarTy, dst: u32, to: ScalarTy) -> Instr {
    let (fw, tw) = (from.width as u8, to.width as u8);
    if tw < fw {
        Instr::Slice1 {
            dst,
            a: src,
            sh: 0,
            w: tw,
        }
    } else if tw > fw && from.signed {
        Instr::Sext1 {
            dst,
            a: src,
            aw: fw,
            ow: tw,
        }
    } else {
        Instr::Copy1 { dst, a: src }
    }
}
