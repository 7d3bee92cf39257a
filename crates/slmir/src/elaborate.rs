//! Static elaboration: conditioned SLM-C → a combinational hardware model.
//!
//! This is the tool capability the paper's §4.3 conditions models *for*:
//! "the SLM must be written such that a hardware-like model can be inferred
//! statically from the source by the tool". Given a program that passes the
//! error-severity lints (no pointers, no dynamic allocation, static loop
//! bounds), [`elaborate`] inlines all calls, fully unrolls all loops,
//! converts control flow to predicated multiplexers, and lowers arrays to
//! register-file-style mux trees — producing a purely combinational
//! [`Module`] in the shared `dfv-rtl` IR, ready for sequential equivalence
//! checking against hand-written RTL.
//!
//! Semantics match the interpreter ([`crate::interp`]) exactly (property
//! tested): C-style integer promotion, wrap-on-overflow, array indices
//! wrapping modulo the array length.
//!
//! The cost follows what is emitted, not what is unrolled: nodes are
//! built through [`Fold`], which folds constant guards and
//! constant-operand nodes as they are built, and static expressions are
//! evaluated on [`Static`] integers against a flat, borrowed variable
//! stack.

use dfv_bits::Bv;
use dfv_rtl::{Module, NodeId};

use crate::ast::*;
use crate::fold::Fold;
use crate::sema::{self, int_promote, literal_ty, promote};
use crate::statics::Static;
use crate::token::Span;
use std::fmt;

/// An elaboration error with location. Messages reference the DFV lint rule
/// that predicts them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Where elaboration failed.
    pub span: Span,
    /// Description.
    pub message: String,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: elaboration error: {}", self.span, self.message)
    }
}

impl std::error::Error for ElabError {}

/// Elaboration limits.
#[derive(Debug, Clone, Copy)]
pub struct ElabOptions {
    /// Maximum iterations unrolled per loop.
    pub max_unroll: u32,
    /// Maximum call-inlining depth.
    pub max_call_depth: u32,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions {
            max_unroll: 4096,
            max_call_depth: 64,
        }
    }
}

/// Elaborates `entry` (and everything it calls) into a combinational
/// module named after the entry function.
///
/// Interface mapping:
///
/// * non-`out` scalar parameter → input port of the scalar's width;
/// * non-`out` array parameter `t x[n]` → one wide input port of width
///   `n * t.width` (element 0 in the least significant bits) — the paper's
///   "parallel interface" (§3.2);
/// * `out` parameters → output ports (arrays packed the same way);
/// * a non-void return value → output port `"return"`.
///
/// # Errors
///
/// Returns [`ElabError`] for type errors, unconditioned constructs
/// (pointers, `malloc`, data-dependent bounds, `while`, recursion — see
/// [`crate::lint`]), or blown unroll/depth limits.
///
/// # Example
///
/// ```
/// use dfv_slmir::{elaborate, parse};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = parse("uint8 top(uint8 a, uint8 b) { return a ^ b; }")?;
/// let module = elaborate(&prog, "top")?;
/// assert_eq!(module.inputs.len(), 2);
/// assert_eq!(module.outputs[0].name, "return");
/// assert!(module.is_combinational());
/// # Ok(())
/// # }
/// ```
pub fn elaborate(prog: &Program, entry: &str) -> Result<Module, ElabError> {
    elaborate_with(prog, entry, &ElabOptions::default())
}

/// [`elaborate`] with explicit limits.
///
/// # Errors
///
/// As [`elaborate`].
pub fn elaborate_with(
    prog: &Program,
    entry: &str,
    opts: &ElabOptions,
) -> Result<Module, ElabError> {
    sema::check(prog).map_err(|e| ElabError {
        span: e.span,
        message: e.message,
    })?;
    let f = prog.func(entry).ok_or_else(|| ElabError {
        span: Span::default(),
        message: format!("no function named {entry:?}"),
    })?;
    let mut el = Elab {
        prog,
        b: Fold::new(entry),
        opts,
        call_stack: vec![entry.to_string()],
    };
    let tru = el.b.constant(Bv::from_bool(true));

    let mut frame = el.new_frame(f);
    // Bind parameters to module ports.
    for p in &f.params {
        match (&p.ty, p.is_out) {
            (Ty::Scalar(s), false) => {
                let n = el.b.input(&p.name, s.width);
                frame.declare(&p.name, Slot::Scalar { node: n, ty: *s });
            }
            (Ty::Array(s, len), false) => {
                let port = el.b.input(&p.name, s.width * *len as u32);
                let elems = (0..*len)
                    .map(|i| {
                        let lo = i as u32 * s.width;
                        el.b.slice(port, lo + s.width - 1, lo)
                    })
                    .collect();
                frame.declare(&p.name, Slot::Array { elems, ty: *s });
            }
            (Ty::Scalar(s), true) => {
                let z = el.b.constant(Bv::zero(s.width));
                frame.declare(&p.name, Slot::Scalar { node: z, ty: *s });
            }
            (Ty::Array(s, len), true) => {
                let z = el.b.constant(Bv::zero(s.width));
                frame.declare(
                    &p.name,
                    Slot::Array {
                        elems: vec![z; *len],
                        ty: *s,
                    },
                );
            }
            (Ty::Ptr(_), _) => {
                return Err(ElabError {
                    span: f.span,
                    message: format!(
                        "parameter {:?} is a pointer; not synthesizable (DFV002)",
                        p.name
                    ),
                })
            }
            (Ty::Void, _) => unreachable!("void parameters cannot parse"),
        }
    }
    el.stmts(&mut frame, &f.body, tru, &mut None)?;

    // Outputs: return value, then out params in order.
    let mut have_output = false;
    if let Some(v) = frame.ret_val {
        el.b.output("return", v);
        have_output = true;
    }
    for p in &f.params {
        if !p.is_out {
            continue;
        }
        match frame.slot(&p.name).expect("declared above").clone() {
            Slot::Scalar { node, .. } => el.b.output(&p.name, node),
            Slot::Array { elems, .. } => {
                let mut acc = elems[0];
                for &e in &elems[1..] {
                    acc = el.b.concat(e, acc);
                }
                el.b.output(&p.name, acc);
            }
        }
        have_output = true;
    }
    if !have_output {
        return Err(ElabError {
            span: f.span,
            message: "entry function produces no outputs (void, no out parameters)".into(),
        });
    }
    el.b.finish().map_err(|e| ElabError {
        span: f.span,
        message: format!("internal: generated module failed checks: {e}"),
    })
}

#[derive(Debug, Clone)]
enum Slot {
    Scalar { node: NodeId, ty: ScalarTy },
    Array { elems: Vec<NodeId>, ty: ScalarTy },
}

/// One inlined function's variables. Names borrow from the program, and
/// both stacks are searched innermost-first by a linear scan: a
/// conditioned function has a handful of live names, so a scan is
/// cheaper than hashing a name once per scope.
#[derive(Debug)]
struct Frame<'p> {
    /// Declared variables, innermost last.
    vars: Vec<(&'p str, Slot)>,
    /// Where each open block's declarations start in `vars`.
    scopes: Vec<usize>,
    /// Constant values of in-flight loop variables, for bound evaluation,
    /// innermost last.
    consts: Vec<(&'p str, Static)>,
    ret_ty: Option<ScalarTy>,
    ret_val: Option<NodeId>,
    returned: NodeId,
}

impl<'p> Frame<'p> {
    fn open(&mut self) {
        self.scopes.push(self.vars.len());
    }

    fn close(&mut self) {
        let start = self.scopes.pop().expect("scope stack nonempty");
        self.vars.truncate(start);
    }

    fn declare(&mut self, name: &'p str, slot: Slot) {
        self.vars.push((name, slot));
    }

    fn slot(&self, name: &str) -> Option<&Slot> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    fn slot_mut(&mut self, name: &str) -> Option<&mut Slot> {
        self.vars
            .iter_mut()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// The constant value of loop variable `name`, if it is one.
    fn const_of(&self, name: &str) -> Option<&Static> {
        self.consts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

/// Loop-control predicates for the innermost loop.
struct LoopCtx {
    broke: NodeId,
    continued: NodeId,
}

struct Elab<'p> {
    prog: &'p Program,
    b: Fold,
    opts: &'p ElabOptions,
    call_stack: Vec<String>,
}

impl<'p> Elab<'p> {
    fn err<T>(&self, span: Span, message: impl Into<String>) -> Result<T, ElabError> {
        Err(ElabError {
            span,
            message: message.into(),
        })
    }

    fn new_frame(&mut self, f: &Func) -> Frame<'p> {
        let ret_ty = match f.ret {
            Ty::Scalar(s) => Some(s),
            _ => None,
        };
        let returned = self.b.constant(Bv::from_bool(false));
        let ret_val = ret_ty.map(|s| self.b.constant(Bv::zero(s.width)));
        Frame {
            vars: Vec::new(),
            scopes: Vec::new(),
            consts: Vec::new(),
            ret_ty,
            ret_val,
            returned,
        }
    }

    /// Resizes `node` (of type `from`) to width `to.width`, extending per
    /// the source signedness — mirroring [`crate::interp::resize`].
    fn resize_node(&mut self, node: NodeId, from: ScalarTy, to: ScalarTy) -> NodeId {
        if from.width == to.width {
            node
        } else if from.width > to.width {
            self.b.trunc(node, to.width)
        } else if from.signed {
            self.b.sext(node, to.width)
        } else {
            self.b.zext(node, to.width)
        }
    }

    /// 1-bit truthiness of a scalar.
    fn boolify(&mut self, node: NodeId) -> NodeId {
        if self.b.node_width(node) == 1 {
            node
        } else {
            self.b.red_or(node)
        }
    }

    /// The effective guard: `guard & !returned [& !broke & !continued]`.
    fn effective_guard(
        &mut self,
        fr: &Frame<'p>,
        guard: NodeId,
        loop_ctx: &Option<LoopCtx>,
    ) -> NodeId {
        let nr = self.b.not(fr.returned);
        let mut g = self.b.and(guard, nr);
        if let Some(lc) = loop_ctx {
            let nb = self.b.not(lc.broke);
            g = self.b.and(g, nb);
            let nc = self.b.not(lc.continued);
            g = self.b.and(g, nc);
        }
        g
    }

    /// Constant evaluation over literals, loop variables, and pure
    /// operators — used for loop bounds (the "static" in static analysis).
    fn const_eval(&self, fr: &Frame<'p>, e: &Expr) -> Option<Static> {
        Some(match &e.kind {
            ExprKind::Int(v) => Static::literal(*v),
            ExprKind::Var(n) => *fr.const_of(n)?,
            ExprKind::Un(op, a) => Static::un(*op, self.const_eval(fr, a)?),
            ExprKind::Bin(op, a, b) => {
                Static::bin(*op, self.const_eval(fr, a)?, self.const_eval(fr, b)?)
            }
            ExprKind::Ternary { cond, t, f } => {
                if self.const_eval(fr, cond)?.is_zero() {
                    self.const_eval(fr, f)?
                } else {
                    self.const_eval(fr, t)?
                }
            }
            ExprKind::Cast(ty, a) => self.const_eval(fr, a)?.cast(*ty),
            _ => return None,
        })
    }

    /// If `index` is statically constant, its value modulo `len`.
    fn const_index(&self, fr: &Frame<'p>, index: &Expr, len: usize) -> Option<usize> {
        Some((self.const_eval(fr, index)?.low_u64() as usize) % len.max(1))
    }

    /// Builds the effective (wrapped) index node for an array of `len`
    /// elements.
    fn index_node(
        &mut self,
        fr: &mut Frame<'p>,
        index: &'p Expr,
        len: usize,
        guard: NodeId,
        loop_ctx: &mut Option<LoopCtx>,
    ) -> Result<NodeId, ElabError> {
        let (idx, it) = self.expr(fr, index, guard, loop_ctx)?;
        // Width able to address all elements. The raw index *bits* are what
        // wrap (matching the interpreter's `to_u64() % len`), so widening is
        // always a zero-extension regardless of the index's signedness.
        let need = (usize::BITS - (len.max(2) - 1).leading_zeros()).max(1);
        let idxw = if it.width < need {
            self.b.zext(idx, need)
        } else {
            idx
        };
        let w = self.b.node_width(idxw);
        if len.is_power_of_two() {
            let bits = len.trailing_zeros().max(1);
            return Ok(if w > bits {
                self.b.trunc(idxw, bits)
            } else {
                idxw
            });
        }
        let len_c = self.b.lit(w, len as u64);
        Ok(self.b.urem(idxw, len_c))
    }

    fn stmts(
        &mut self,
        fr: &mut Frame<'p>,
        body: &'p [Stmt],
        guard: NodeId,
        loop_ctx: &mut Option<LoopCtx>,
    ) -> Result<(), ElabError> {
        fr.open();
        let mut result = Ok(());
        for s in body {
            result = self.stmt(fr, s, guard, loop_ctx);
            if result.is_err() {
                break;
            }
        }
        fr.close();
        result
    }

    fn stmt(
        &mut self,
        fr: &mut Frame<'p>,
        s: &'p Stmt,
        guard: NodeId,
        loop_ctx: &mut Option<LoopCtx>,
    ) -> Result<(), ElabError> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let slot = match ty {
                    Ty::Scalar(sc) => {
                        let node = match init {
                            Some(e) => {
                                let (n, t) = self.expr(fr, e, guard, loop_ctx)?;
                                self.resize_node(n, t, *sc)
                            }
                            None => self.b.constant(Bv::zero(sc.width)),
                        };
                        Slot::Scalar { node, ty: *sc }
                    }
                    Ty::Array(sc, len) => {
                        let z = self.b.constant(Bv::zero(sc.width));
                        Slot::Array {
                            elems: vec![z; *len],
                            ty: *sc,
                        }
                    }
                    Ty::Ptr(_) => {
                        return self.err(
                            s.span,
                            format!("{name:?} is a pointer; not synthesizable (DFV002)"),
                        )
                    }
                    Ty::Void => unreachable!(),
                };
                fr.declare(name, slot);
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                let g = self.effective_guard(fr, guard, loop_ctx);
                let (rv, rt) = self.expr(fr, rhs, guard, loop_ctx)?;
                match lhs {
                    LValue::Var(n) => {
                        if fr.const_of(n).is_some() {
                            return self.err(
                                s.span,
                                format!(
                                    "loop variable {n:?} is assigned inside the loop body; \
                                     the loop cannot be statically unrolled (DFV003)"
                                ),
                            );
                        }
                        let Some(slot) = fr.slot(n).cloned() else {
                            return self.err(s.span, format!("undeclared variable {n:?}"));
                        };
                        let Slot::Scalar { node: old, ty } = slot else {
                            return self.err(s.span, format!("cannot assign whole array {n:?}"));
                        };
                        let nv = self.resize_node(rv, rt, ty);
                        let muxed = self.b.mux(g, nv, old);
                        *fr.slot_mut(n).expect("exists") = Slot::Scalar { node: muxed, ty };
                        Ok(())
                    }
                    LValue::Index { base, index } => {
                        let (len, ty) = match fr.slot(base) {
                            Some(Slot::Array { elems, ty }) => (elems.len(), *ty),
                            Some(_) => {
                                return self.err(s.span, format!("{base:?} is not an array"))
                            }
                            None => {
                                return self.err(s.span, format!("undeclared variable {base:?}"))
                            }
                        };
                        let nv = self.resize_node(rv, rt, ty);
                        if let Some(i) = self.const_index(fr, index, len) {
                            let Some(Slot::Array { elems, .. }) = fr.slot_mut(base) else {
                                unreachable!("an array above")
                            };
                            elems[i] = self.b.mux(g, nv, elems[i]);
                            return Ok(());
                        }
                        let Some(Slot::Array { elems, .. }) = fr.slot(base).cloned() else {
                            unreachable!("an array above")
                        };
                        let idx = self.index_node(fr, index, len, guard, loop_ctx)?;
                        let iw = self.b.node_width(idx);
                        let mut es = Vec::with_capacity(len);
                        for (i, &old) in elems.iter().enumerate() {
                            let iv = self.b.lit(iw, i as u64);
                            let hit = self.b.eq(idx, iv);
                            let strobe = self.b.and(g, hit);
                            es.push(self.b.mux(strobe, nv, old));
                        }
                        *fr.slot_mut(base).expect("exists") = Slot::Array { elems: es, ty };
                        Ok(())
                    }
                    LValue::Deref(n) => self.err(
                        s.span,
                        format!("store through pointer {n:?}; not synthesizable (DFV002)"),
                    ),
                }
            }
            StmtKind::Expr(e) => {
                self.expr(fr, e, guard, loop_ctx)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                // Statically decidable conditions avoid useless mux trees
                // (and allow guard-independent loop bounds inside).
                if let Some(c) = self.const_eval(fr, cond) {
                    return if !c.is_zero() {
                        self.stmts(fr, then_body, guard, loop_ctx)
                    } else {
                        self.stmts(fr, else_body, guard, loop_ctx)
                    };
                }
                let (c, _) = self.expr(fr, cond, guard, loop_ctx)?;
                let cb = self.boolify(c);
                let g_then = self.b.and(guard, cb);
                let ncb = self.b.not(cb);
                let g_else = self.b.and(guard, ncb);
                self.stmts(fr, then_body, g_then, loop_ctx)?;
                self.stmts(fr, else_body, g_else, loop_ctx)
            }
            StmtKind::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                // The loop variable is an `int`.
                let Some(mut v) = self.const_eval(fr, init).map(|v| v.cast(ScalarTy::INT)) else {
                    return self.err(
                        init.span,
                        "loop initial value is not a static constant (DFV003)",
                    );
                };
                let mut broke = self.b.constant(Bv::from_bool(false));
                let mut iterations = 0u32;
                fr.consts.push((var, v));
                let result = loop {
                    fr.consts.last_mut().expect("pushed above").1 = v;
                    let Some(c) = self.const_eval(fr, cond) else {
                        break self.err(
                            cond.span,
                            "loop bound is not static (DFV003); rewrite with a static \
                             maximum and a conditional exit (`if (...) break;`)",
                        );
                    };
                    if c.is_zero() {
                        break Ok(());
                    }
                    iterations += 1;
                    if iterations > self.opts.max_unroll {
                        break self.err(
                            s.span,
                            format!(
                                "loop exceeds the unroll limit of {} iterations",
                                self.opts.max_unroll
                            ),
                        );
                    }
                    // The break predicate persists across iterations; the
                    // continue predicate is fresh per iteration. `returned`
                    // is handled by effective_guard.
                    let cont = self.b.constant(Bv::from_bool(false));
                    let mut inner = Some(LoopCtx {
                        broke,
                        continued: cont,
                    });
                    // Bind the loop variable as a constant in a new scope.
                    fr.open();
                    let vn = self.b.constant(v.to_bv());
                    fr.declare(
                        var,
                        Slot::Scalar {
                            node: vn,
                            ty: ScalarTy::INT,
                        },
                    );
                    let body_result = self.stmts(fr, body, guard, &mut inner);
                    fr.close();
                    broke = inner.expect("still set").broke;
                    if let Err(e) = body_result {
                        break Err(e);
                    }
                    // Advance the loop variable statically.
                    let Some(nv) = self.const_eval(fr, step) else {
                        break self.err(step.span, "loop step is not static (DFV003)");
                    };
                    v = nv.cast(ScalarTy::INT);
                };
                fr.consts.pop();
                result
            }
            StmtKind::While { cond, .. } => {
                // A while with a statically false condition is dead code.
                if let Some(c) = self.const_eval(fr, cond) {
                    if c.is_zero() {
                        return Ok(());
                    }
                }
                self.err(
                    s.span,
                    "while loops have no static bound (DFV004); rewrite as a for loop \
                     with a static bound and a conditional exit",
                )
            }
            StmtKind::Return(value) => {
                let g = self.effective_guard(fr, guard, loop_ctx);
                if let (Some(e), Some(rt)) = (value, fr.ret_ty) {
                    let (vn, vt) = self.expr(fr, e, guard, loop_ctx)?;
                    let vn = self.resize_node(vn, vt, rt);
                    let old = fr.ret_val.expect("initialized for scalar returns");
                    fr.ret_val = Some(self.b.mux(g, vn, old));
                }
                fr.returned = self.b.or(fr.returned, g);
                Ok(())
            }
            StmtKind::Break => {
                let g = self.effective_guard(fr, guard, loop_ctx);
                match loop_ctx {
                    Some(lc) => {
                        lc.broke = self.b.or(lc.broke, g);
                        Ok(())
                    }
                    None => self.err(s.span, "break outside a loop"),
                }
            }
            StmtKind::Continue => {
                let g = self.effective_guard(fr, guard, loop_ctx);
                match loop_ctx {
                    Some(lc) => {
                        lc.continued = self.b.or(lc.continued, g);
                        Ok(())
                    }
                    None => self.err(s.span, "continue outside a loop"),
                }
            }
            StmtKind::Block(body) => self.stmts(fr, body, guard, loop_ctx),
        }
    }

    fn expr(
        &mut self,
        fr: &mut Frame<'p>,
        e: &'p Expr,
        guard: NodeId,
        loop_ctx: &mut Option<LoopCtx>,
    ) -> Result<(NodeId, ScalarTy), ElabError> {
        match &e.kind {
            ExprKind::Int(v) => {
                let t = literal_ty(*v);
                Ok((self.b.constant(Bv::from_u64(t.width, *v)), t))
            }
            ExprKind::Var(n) => match fr.slot(n) {
                Some(Slot::Scalar { node, ty }) => Ok((*node, *ty)),
                Some(Slot::Array { .. }) => {
                    self.err(e.span, format!("array {n:?} used as a scalar"))
                }
                None => self.err(e.span, format!("undeclared variable {n:?}")),
            },
            ExprKind::Index { base, index } => {
                let (len, ty) = match fr.slot(base) {
                    Some(Slot::Array { elems, ty }) => (elems.len(), *ty),
                    Some(_) => {
                        return self.err(
                            e.span,
                            format!("{base:?} is not an array (pointer indexing is DFV002)"),
                        )
                    }
                    None => return self.err(e.span, format!("undeclared variable {base:?}")),
                };
                if let Some(i) = self.const_index(fr, index, len) {
                    let Some(Slot::Array { elems, .. }) = fr.slot(base) else {
                        unreachable!("an array above")
                    };
                    return Ok((elems[i], ty));
                }
                // The index may call a function that writes the array: read
                // the elements as they were before it.
                let Some(Slot::Array { elems, .. }) = fr.slot(base).cloned() else {
                    unreachable!("an array above")
                };
                let idx = self.index_node(fr, index, len, guard, loop_ctx)?;
                let iw = self.b.node_width(idx);
                let mut acc = self.b.constant(Bv::zero(ty.width));
                for (i, &el) in elems.iter().enumerate() {
                    let iv = self.b.lit(iw, i as u64);
                    let hit = self.b.eq(idx, iv);
                    acc = self.b.mux(hit, el, acc);
                }
                Ok((acc, ty))
            }
            ExprKind::Call { callee, args } => {
                self.inline_call(fr, e.span, callee, args, guard, loop_ctx)
            }
            ExprKind::Un(op, a) => {
                let (an, at) = self.expr(fr, a, guard, loop_ctx)?;
                Ok(match op {
                    UnOp::Neg => (self.b.neg(an), at),
                    UnOp::Not => (self.b.not(an), at),
                    UnOp::LNot => {
                        let b = self.boolify(an);
                        (self.b.not(b), ScalarTy::BOOL)
                    }
                })
            }
            ExprKind::Bin(op, a, b) => {
                let (an, at) = self.expr(fr, a, guard, loop_ctx)?;
                let (bn, bt) = self.expr(fr, b, guard, loop_ctx)?;
                self.bin_node(*op, an, at, bn, bt)
            }
            ExprKind::Ternary { cond, t, f } => {
                let (cn, _) = self.expr(fr, cond, guard, loop_ctx)?;
                let cb = self.boolify(cn);
                let (tn, tt) = self.expr(fr, t, guard, loop_ctx)?;
                let (fn_, ft) = self.expr(fr, f, guard, loop_ctx)?;
                let rt = promote(tt, ft);
                let tn = self.resize_node(tn, tt, rt);
                let fn_ = self.resize_node(fn_, ft, rt);
                Ok((self.b.mux(cb, tn, fn_), rt))
            }
            ExprKind::Cast(ty, a) => {
                let (an, at) = self.expr(fr, a, guard, loop_ctx)?;
                Ok((self.resize_node(an, at, *ty), *ty))
            }
            ExprKind::AddrOf(_) | ExprKind::Deref(_) => self.err(
                e.span,
                "pointer aliasing is not synthesizable (DFV002); use explicit arrays",
            ),
            ExprKind::Malloc { .. } => self.err(
                e.span,
                "dynamic allocation is not synthesizable (DFV001); use a static array",
            ),
        }
    }

    /// Elaborates one binary operation with SLM-C (C-like) promotion.
    fn bin_node(
        &mut self,
        op: BinOp,
        an: NodeId,
        at: ScalarTy,
        bn: NodeId,
        bt: ScalarTy,
    ) -> Result<(NodeId, ScalarTy), ElabError> {
        use BinOp::*;
        let p = promote(at, bt);
        match op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor => {
                let a = self.resize_node(an, at, p);
                let b = self.resize_node(bn, bt, p);
                let n = match (op, p.signed) {
                    (Add, _) => self.b.add(a, b),
                    (Sub, _) => self.b.sub(a, b),
                    (Mul, _) => self.b.mul(a, b),
                    (Div, false) => self.b.udiv(a, b),
                    (Div, true) => self.b.sdiv(a, b),
                    (Rem, false) => self.b.urem(a, b),
                    (Rem, true) => self.b.srem(a, b),
                    (And, _) => self.b.and(a, b),
                    (Or, _) => self.b.or(a, b),
                    (Xor, _) => self.b.xor(a, b),
                    _ => unreachable!(),
                };
                Ok((n, p))
            }
            Shl | Shr => {
                let lt = int_promote(at);
                let a = self.resize_node(an, at, lt);
                let n = match (op, lt.signed) {
                    (Shl, _) => self.b.shl(a, bn),
                    (Shr, true) => self.b.ashr(a, bn),
                    (Shr, false) => self.b.lshr(a, bn),
                    _ => unreachable!(),
                };
                Ok((n, lt))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let a = self.resize_node(an, at, p);
                let b = self.resize_node(bn, bt, p);
                let n = match (op, p.signed) {
                    (Eq, _) => self.b.eq(a, b),
                    (Ne, _) => self.b.ne(a, b),
                    (Lt, false) => self.b.ult(a, b),
                    (Lt, true) => self.b.slt(a, b),
                    (Le, false) => self.b.ule(a, b),
                    (Le, true) => self.b.sle(a, b),
                    (Gt, false) => self.b.ult(b, a),
                    (Gt, true) => self.b.slt(b, a),
                    (Ge, false) => self.b.ule(b, a),
                    (Ge, true) => self.b.sle(b, a),
                    _ => unreachable!(),
                };
                Ok((n, ScalarTy::BOOL))
            }
            LAnd => {
                let a = self.boolify(an);
                let b = self.boolify(bn);
                Ok((self.b.and(a, b), ScalarTy::BOOL))
            }
            LOr => {
                let a = self.boolify(an);
                let b = self.boolify(bn);
                Ok((self.b.or(a, b), ScalarTy::BOOL))
            }
        }
    }

    fn inline_call(
        &mut self,
        fr: &mut Frame<'p>,
        span: Span,
        callee: &str,
        args: &'p [Expr],
        guard: NodeId,
        loop_ctx: &mut Option<LoopCtx>,
    ) -> Result<(NodeId, ScalarTy), ElabError> {
        if self.call_stack.iter().any(|n| n == callee) {
            return self.err(
                span,
                format!("recursive call to {callee:?}; not synthesizable (DFV005)"),
            );
        }
        if self.call_stack.len() as u32 >= self.opts.max_call_depth {
            return self.err(span, "call inlining depth limit exceeded");
        }
        let prog = self.prog;
        let g = Self::err_to_elab(prog.func(callee), span, callee)?;
        // Evaluate arguments in the caller's frame.
        enum ArgVal {
            Scalar(NodeId, ScalarTy),
            Array(Vec<NodeId>, ScalarTy),
        }
        let mut vals = Vec::with_capacity(args.len());
        for (p, a) in g.params.iter().zip(args) {
            let v = match &p.ty {
                Ty::Array(..) => {
                    let ExprKind::Var(n) = &a.kind else {
                        return self.err(a.span, "array arguments must be plain variables");
                    };
                    let Some(Slot::Array { elems, ty }) = fr.slot(n).cloned() else {
                        return self.err(a.span, format!("{n:?} is not an array"));
                    };
                    ArgVal::Array(elems, ty)
                }
                Ty::Scalar(s) => {
                    if p.is_out {
                        // Out params start from the callee's perspective at
                        // the caller's current value.
                        let ExprKind::Var(n) = &a.kind else {
                            return self.err(a.span, "out arguments must be plain variables");
                        };
                        let Some(Slot::Scalar { node, ty }) = fr.slot(n).cloned() else {
                            return self.err(a.span, format!("{n:?} is not a scalar"));
                        };
                        let node = self.resize_node(node, ty, *s);
                        ArgVal::Scalar(node, *s)
                    } else {
                        let (n, t) = self.expr(fr, a, guard, loop_ctx)?;
                        ArgVal::Scalar(self.resize_node(n, t, *s), *s)
                    }
                }
                Ty::Ptr(_) => {
                    return self.err(a.span, "pointer parameters are not synthesizable (DFV002)")
                }
                Ty::Void => unreachable!(),
            };
            vals.push(v);
        }
        // Build the callee frame; its statements are guarded by the
        // caller's effective guard at the call site.
        let call_guard = self.effective_guard(fr, guard, loop_ctx);
        self.call_stack.push(callee.to_string());
        let mut inner = self.new_frame(g);
        for (p, v) in g.params.iter().zip(vals) {
            match v {
                ArgVal::Scalar(node, ty) => inner.declare(&p.name, Slot::Scalar { node, ty }),
                ArgVal::Array(elems, ty) => inner.declare(&p.name, Slot::Array { elems, ty }),
            }
        }
        let body_result = self.stmts(&mut inner, &g.body, call_guard, &mut None);
        self.call_stack.pop();
        body_result?;
        // Copy out parameters back (their values are already correctly
        // muxed against the call guard, since the callee started from the
        // caller's values and wrote under the call guard).
        for (p, a) in g.params.iter().zip(args) {
            if !p.is_out {
                continue;
            }
            let ExprKind::Var(n) = &a.kind else {
                unreachable!("checked above")
            };
            let new_slot = inner.slot(&p.name).expect("declared").clone();
            match new_slot {
                Slot::Scalar {
                    node,
                    ty: callee_ty,
                } => {
                    let Some(Slot::Scalar { ty: caller_ty, .. }) = fr.slot(n).cloned() else {
                        return self.err(a.span, "out argument shape mismatch");
                    };
                    let resized = self.resize_node(node, callee_ty, caller_ty);
                    *fr.slot_mut(n).expect("exists") = Slot::Scalar {
                        node: resized,
                        ty: caller_ty,
                    };
                }
                Slot::Array { elems, ty } => {
                    let Some(Slot::Array { .. }) = fr.slot(n) else {
                        return self.err(a.span, "out argument shape mismatch");
                    };
                    *fr.slot_mut(n).expect("exists") = Slot::Array { elems, ty };
                }
            }
        }
        match (inner.ret_val, inner.ret_ty) {
            (Some(v), Some(t)) => Ok((v, t)),
            _ => {
                // Void call: produce a dummy zero (only reachable in
                // statement position, where the value is discarded).
                Ok((self.b.constant(Bv::zero(1)), ScalarTy::BOOL))
            }
        }
    }

    fn err_to_elab<'f>(
        f: Option<&'f Func>,
        span: Span,
        callee: &str,
    ) -> Result<&'f Func, ElabError> {
        f.ok_or_else(|| ElabError {
            span,
            message: format!("unknown function {callee:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dfv_rtl::Simulator;

    fn elab(src: &str, entry: &str) -> Module {
        elaborate(&parse(src).unwrap(), entry).unwrap()
    }

    fn run_comb(m: &Module, inputs: &[(&str, Bv)]) -> Bv {
        let mut sim = Simulator::new(m.clone()).unwrap();
        sim.eval_comb(inputs)["return"].clone()
    }

    #[test]
    fn straightline_arithmetic() {
        let m = elab("uint8 f(uint8 a, uint8 b) { return a * 2 + b; }", "f");
        assert!(m.is_combinational());
        let r = run_comb(&m, &[("a", Bv::from_u64(8, 10)), ("b", Bv::from_u64(8, 5))]);
        assert_eq!(r.to_u64(), 25);
    }

    #[test]
    fn if_becomes_mux() {
        let src = r#"
            uint8 f(uint8 a) {
                uint8 r = 0;
                if (a > 10) { r = 1; } else { r = 2; }
                return r;
            }
        "#;
        let m = elab(src, "f");
        assert_eq!(run_comb(&m, &[("a", Bv::from_u64(8, 20))]).to_u64(), 1);
        assert_eq!(run_comb(&m, &[("a", Bv::from_u64(8, 5))]).to_u64(), 2);
    }

    #[test]
    fn early_return_predication() {
        let src = r#"
            uint8 f(uint8 a) {
                if (a == 0) { return 99; }
                return a;
            }
        "#;
        let m = elab(src, "f");
        assert_eq!(run_comb(&m, &[("a", Bv::zero(8))]).to_u64(), 99);
        assert_eq!(run_comb(&m, &[("a", Bv::from_u64(8, 7))]).to_u64(), 7);
    }

    #[test]
    fn loop_unrolls_with_break() {
        // The paper's conditioned idiom: static bound + conditional exit.
        let src = r#"
            uint32 f(uint8 n) {
                uint32 acc = 0;
                for (int i = 0; i < 8; i++) {
                    if (i >= n) break;
                    acc += i;
                }
                return acc;
            }
        "#;
        let m = elab(src, "f");
        // n=4: 0+1+2+3 = 6; n=20 (beyond bound): 0..7 = 28.
        assert_eq!(run_comb(&m, &[("n", Bv::from_u64(8, 4))]).to_u64(), 6);
        assert_eq!(run_comb(&m, &[("n", Bv::from_u64(8, 20))]).to_u64(), 28);
        assert_eq!(run_comb(&m, &[("n", Bv::zero(8))]).to_u64(), 0);
    }

    #[test]
    fn continue_skips_iteration() {
        let src = r#"
            uint32 f() {
                uint32 acc = 0;
                for (int i = 0; i < 10; i++) {
                    if (i % 2 == 0) continue;
                    acc += i;
                }
                return acc;
            }
        "#;
        let m = elab(src, "f");
        assert_eq!(run_comb(&m, &[]).to_u64(), 25);
    }

    #[test]
    fn arrays_with_dynamic_index() {
        let src = r#"
            uint8 f(uint8 xs[4], uint8 i) {
                uint8 copy[4];
                for (int k = 0; k < 4; k++) { copy[k] = xs[k]; }
                copy[i] = 0xFF;
                return copy[i];
            }
        "#;
        let m = elab(src, "f");
        assert_eq!(m.inputs[0].width, 32); // packed array port
        let xs = Bv::from_u64(32, 0x04030201);
        let r = run_comb(&m, &[("xs", xs.clone()), ("i", Bv::from_u64(8, 2))]);
        assert_eq!(r.to_u64(), 0xFF);
        // Index wraps modulo the length like the interpreter.
        let r2 = run_comb(&m, &[("xs", xs), ("i", Bv::from_u64(8, 6))]);
        assert_eq!(r2.to_u64(), 0xFF);
    }

    #[test]
    fn function_inlining_and_out_params() {
        let src = r#"
            void split(uint16 v, out uint8 hi, out uint8 lo) {
                hi = (uint8)(v >> 8);
                lo = (uint8) v;
            }
            uint16 top(uint16 v) {
                uint8 h = 0;
                uint8 l = 0;
                split(v, h, l);
                return ((uint16) h << 8) | (uint16) l;
            }
        "#;
        let m = elab(src, "top");
        let r = run_comb(&m, &[("v", Bv::from_u64(16, 0xBEEF))]);
        assert_eq!(r.to_u64(), 0xBEEF);
    }

    #[test]
    fn out_array_becomes_output_port() {
        let src = r#"
            void double_all(uint8 xs[3], out uint8 ys[3]) {
                for (int i = 0; i < 3; i++) { ys[i] = xs[i] * 2; }
            }
        "#;
        let m = elab(src, "double_all");
        assert_eq!(m.outputs.len(), 1);
        assert_eq!(m.outputs[0].name, "ys");
        assert_eq!(m.outputs[0].width, 24);
        let mut sim = Simulator::new(m).unwrap();
        let outs = sim.eval_comb(&[("xs", Bv::from_u64(24, 0x03_02_01))]);
        assert_eq!(outs["ys"].to_u64(), 0x06_04_02);
    }

    #[test]
    fn rejects_unconditioned_constructs() {
        let ptr = "int f() { int x = 1; int *p = &x; return *p; }";
        let e = elaborate(&parse(ptr).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("DFV002"));

        let mal = "int f() { int *p = malloc(4); return 0; }";
        let e = elaborate(&parse(mal).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("DFV002") || e.message.contains("DFV001"));

        let dyn_bound =
            "int f(int n) { int a = 0; for (int i = 0; i < n; i++) { a += i; } return a; }";
        let e = elaborate(&parse(dyn_bound).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("DFV003"));

        let wl = "int f(int n) { while (n > 0) { n -= 1; } return n; }";
        let e = elaborate(&parse(wl).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("DFV004"));

        let rec = "int f(int n) { return n == 0 ? 1 : f(n - 1); }";
        let e = elaborate(&parse(rec).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("DFV005"));
    }

    #[test]
    fn unroll_limit_enforced() {
        let src = "int f() { int a = 0; for (int i = 0; i < 100000; i++) { a += 1; } return a; }";
        let e = elaborate(&parse(src).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("unroll limit"));
    }

    #[test]
    fn loop_var_assignment_rejected() {
        let src = "int f() { int a = 0; for (int i = 0; i < 4; i++) { i = 0; } return a; }";
        let e = elaborate(&parse(src).unwrap(), "f").unwrap_err();
        assert!(e.message.contains("statically unrolled"));
    }

    #[test]
    fn nested_loops_with_dependent_bounds() {
        let src = r#"
            uint32 f() {
                uint32 acc = 0;
                for (int i = 0; i < 4; i++) {
                    for (int j = 0; j <= i; j++) {
                        acc += 1;
                    }
                }
                return acc;
            }
        "#;
        let m = elab(src, "f");
        assert_eq!(run_comb(&m, &[]).to_u64(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn return_inside_loop() {
        let src = r#"
            uint8 find(uint8 xs[4], uint8 needle) {
                for (int i = 0; i < 4; i++) {
                    if (xs[i] == needle) { return (uint8) i; }
                }
                return 0xFF;
            }
        "#;
        let m = elab(src, "find");
        let xs = Bv::from_u64(32, 0x40_30_20_10);
        let hit = run_comb(&m, &[("xs", xs.clone()), ("needle", Bv::from_u64(8, 0x30))]);
        assert_eq!(hit.to_u64(), 2);
        let miss = run_comb(&m, &[("xs", xs), ("needle", Bv::from_u64(8, 0x99))]);
        assert_eq!(miss.to_u64(), 0xFF);
    }
}
