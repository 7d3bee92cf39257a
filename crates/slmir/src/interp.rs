//! The SLM-C interpreter — the *executable* system-level model.
//!
//! This is the fast path the paper's methodology leans on: the SLM "simulates
//! several orders of magnitude faster" than RTL because it is an untimed,
//! single-threaded program with no clocks or events. The interpreter executes
//! bit-accurately over [`Bv`] values, so its results agree exactly with the
//! elaborated hardware model and the RTL (when the RTL is correct).
//!
//! Array indices wrap modulo the array length — matching the elaborated
//! hardware's mux-tree semantics, so interpretation and elaboration can never
//! silently disagree on out-of-range accesses.
//!
//! Two engines sit behind [`Interp::run`]: this tree-walker, which runs
//! every program and is the semantic oracle, and (with
//! [`Interp::new_compiled`]) whole functions compiled to `dfv-vm` bytecode
//! (`compile.rs`). A run uses one engine from start to finish.

use std::collections::HashMap;
use std::fmt;

use dfv_bits::Bv;

use crate::ast::*;
use crate::compile::{compile, Compiled, Term};
use crate::sema::{binop_result, literal_ty, promote};
use crate::token::Span;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar with its signedness.
    Scalar(Bv, bool),
    /// An array of same-width scalars.
    Array(Vec<Bv>, ScalarTy),
    /// A pointer into the interpreter's store.
    Ptr(PtrVal),
    /// No value.
    Void,
}

impl Value {
    /// Convenience constructor from a `u64`.
    pub fn from_u64(ty: ScalarTy, v: u64) -> Value {
        Value::Scalar(Bv::from_u64(ty.width, v), ty.signed)
    }

    /// Convenience constructor from an `i64`.
    pub fn from_i64(ty: ScalarTy, v: i64) -> Value {
        Value::Scalar(Bv::from_i64(ty.width, v), ty.signed)
    }

    /// The scalar [`Bv`], if this is a scalar.
    pub fn as_bv(&self) -> Option<&Bv> {
        match self {
            Value::Scalar(b, _) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(b, true) => write!(f, "{}", b.to_i64()),
            Value::Scalar(b, false) => write!(f, "{b}"),
            Value::Array(ws, _) => {
                write!(f, "[")?;
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
            Value::Ptr(p) => write!(f, "ptr({}+{})", p.cell, p.offset),
            Value::Void => write!(f, "void"),
        }
    }
}

/// A pointer value: a store cell plus an element offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrVal {
    cell: usize,
    offset: usize,
}

/// A runtime error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Where execution failed.
    pub span: Span,
    /// Description.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: runtime error: {}", self.span, self.message)
    }
}

impl std::error::Error for EvalError {}

/// The result of running an entry function.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The return value.
    pub ret: Value,
    /// Final values of `out` parameters, in declaration order.
    pub outs: Vec<(String, Value)>,
    /// Number of statements executed (the speed metric for experiment E2).
    pub steps: u64,
}

#[derive(Debug, Clone)]
struct Cell {
    words: Vec<Bv>,
    ty: ScalarTy,
    /// What the cell holds, fixed when it is created: reads and writes by
    /// name follow the cell in scope, not some other declaration.
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    Array,
    /// One word holding an encoded (cell, offset) pair.
    Ptr,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Interpreter state for one program.
#[derive(Debug)]
pub struct Interp<'p> {
    prog: &'p Program,
    store: Vec<Cell>,
    fuel: u64,
    steps: u64,
    call_depth: u32,
    max_call_depth: u32,
    /// Compiled functions, parallel to `prog.funcs`; empty unless
    /// constructed with [`Interp::new_compiled`].
    compiled: Vec<Option<Compiled>>,
    /// The compiled engine's slot arena, reused across runs.
    arena: Vec<u64>,
    /// Wide-op scratch for the VM (unused by single-limb code).
    scratch: Vec<u64>,
}

/// Default statement budget before an execution is declared runaway.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Default call-nesting budget before an execution is declared runaway.
/// Recursion is rejected by lint DFV005, but the interpreter also accepts
/// unlinted programs, so it must bound its own (native) stack use.
pub const DEFAULT_MAX_CALL_DEPTH: u32 = 64;

impl<'p> Interp<'p> {
    /// Creates an interpreter for `prog` with the default fuel.
    pub fn new(prog: &'p Program) -> Self {
        Interp {
            prog,
            store: Vec::new(),
            fuel: DEFAULT_FUEL,
            steps: 0,
            call_depth: 0,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
            compiled: Vec::new(),
            arena: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Creates an interpreter that compiles every function it can, callees
    /// inlined, to `dfv-vm` bytecode, and runs such an entry wholly on it.
    ///
    /// Results are bit-identical to [`Interp::new`] — same return value,
    /// same `out` parameters, same [`RunResult::steps`], same errors at the
    /// same spans. Functions outside the compiled subset (see
    /// [`Interp::is_compiled`]) run on the tree-walker, and so does any
    /// compiled run that would exhaust its fuel, exceed the call-depth
    /// budget or fail: the walker re-runs it and reports the exact error.
    pub fn new_compiled(prog: &'p Program) -> Self {
        let mut i = Interp::new(prog);
        i.compiled = prog.funcs.iter().map(|f| compile(prog, f)).collect();
        i
    }

    /// Whether [`Interp::run`] executes `func` on compiled bytecode: false
    /// for [`Interp::new`], and for a function outside the compiled subset
    /// (one that uses pointers, values wider than 64 bits or recursion,
    /// for example). Exposed so tests can assert which engine runs.
    pub fn is_compiled(&self, func: &str) -> bool {
        self.compiled_index(func).is_some()
    }

    fn compiled_index(&self, func: &str) -> Option<usize> {
        let i = self.prog.funcs.iter().position(|f| f.name == func)?;
        self.compiled.get(i)?.as_ref().map(|_| i)
    }

    /// Overrides the statement budget (for tests of runaway loops).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Overrides the call-nesting budget.
    pub fn with_max_call_depth(mut self, depth: u32) -> Self {
        self.max_call_depth = depth;
        self
    }

    /// Runs `entry` with the given argument values.
    ///
    /// Scalar arguments are resized to the parameter type; array arguments
    /// must match exactly. `out` parameters receive zero-initialized storage
    /// and their final values are returned in [`RunResult::outs`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on a runtime failure (unknown entry, argument
    /// mismatch, fuel exhaustion, null dereference, ...).
    pub fn run(&mut self, entry: &str, args: &[Value]) -> Result<RunResult, EvalError> {
        if let Some(r) = self.run_compiled(entry, args) {
            return Ok(r);
        }
        let nowhere = Span::default();
        let f = self.prog.func(entry).ok_or_else(|| EvalError {
            span: nowhere,
            message: format!("no function named {entry:?}"),
        })?;
        // `out` params may be omitted from the argument list entirely.
        let required: Vec<&Param> = f.params.iter().filter(|p| !p.is_out).collect();
        if args.len() != required.len() && args.len() != f.params.len() {
            return Err(EvalError {
                span: f.span,
                message: format!(
                    "{entry:?} takes {} arguments ({} with outs), {} given",
                    required.len(),
                    f.params.len(),
                    args.len()
                ),
            });
        }
        self.store.clear();
        self.steps = 0;
        self.call_depth = 0;
        let mut env: HashMap<String, usize> = HashMap::new();
        let mut arg_iter = args.iter();
        for p in &f.params {
            let v = if p.is_out && args.len() == required.len() {
                // Zero-initialize omitted out params. Sema rejects
                // pointer-typed outs, but `run` also accepts programs that
                // never went through sema, so report rather than panic.
                match p.ty {
                    Ty::Scalar(s) => Value::Scalar(Bv::zero(s.width), s.signed),
                    Ty::Array(s, n) => Value::Array(vec![Bv::zero(s.width); n], s),
                    _ => {
                        return Err(EvalError {
                            span: f.span,
                            message: format!(
                                "out parameter {:?} has unsupported type {} (run sema first)",
                                p.name, p.ty
                            ),
                        })
                    }
                }
            } else {
                arg_iter.next().cloned().ok_or_else(|| EvalError {
                    span: f.span,
                    message: "missing argument".into(),
                })?
            };
            let cell = self.bind_param(f, p, v)?;
            env.insert(p.name.clone(), cell);
        }
        let flow = self.exec_block(f, &f.body, &mut env)?;
        let ret = match flow {
            Flow::Return(v) => v,
            _ => Value::Void,
        };
        let outs = f
            .params
            .iter()
            .filter(|p| p.is_out)
            .map(|p| {
                let cell = &self.store[env[&p.name]];
                let v = match p.ty {
                    Ty::Scalar(s) => Value::Scalar(cell.words[0].clone(), s.signed),
                    Ty::Array(s, _) => Value::Array(cell.words.clone(), s),
                    // Invariant: `bind_param` (and the omitted-out zero-init
                    // above) reject every other param type before the body
                    // runs, so no other type reaches the outs collection.
                    _ => unreachable!("non-scalar/array params are rejected at binding"),
                };
                (p.name.clone(), v)
            })
            .collect();
        Ok(RunResult {
            ret,
            outs,
            steps: self.steps,
        })
    }

    /// Runs `entry` wholly on its compiled form. `None` (no compiled form,
    /// arguments the walker would reject, or a run that would exhaust its
    /// fuel, exceed the call-depth budget or fail) leaves the run to the
    /// walker, which is exact in every such case.
    fn run_compiled(&mut self, entry: &str, args: &[Value]) -> Option<RunResult> {
        let i = self.compiled_index(entry)?;
        let (f, c) = (&self.prog.funcs[i], self.compiled[i].as_ref()?);
        let n_in = f.params.iter().filter(|p| !p.is_out).count();
        let all = args.len() == f.params.len();
        if c.depth > self.max_call_depth || (!all && args.len() != n_in) {
            return None;
        }
        let arena = &mut self.arena;
        arena.resize(c.prog.arena_len(), 0);
        for &(slot, v) in &c.consts {
            arena[slot as usize] = v;
        }
        let mut args = args.iter();
        for (p, v) in f.params.iter().zip(&c.params) {
            let slots = &mut arena[v.base as usize..][..v.len as usize];
            if p.is_out && !all {
                slots.fill(0);
                continue;
            }
            match args.next()? {
                Value::Scalar(b, signed) if !v.array => {
                    slots[0] = resize(b, *signed, v.ty).to_u64()
                }
                Value::Array(ws, wt)
                    if v.array
                        && *wt == v.ty
                        && ws.len() == slots.len()
                        && ws.iter().all(|w| w.width() == wt.width) =>
                {
                    for (s, w) in slots.iter_mut().zip(ws) {
                        *s = w.to_u64();
                    }
                }
                _ => return None,
            }
        }
        let (mut b, mut steps) = (0, 0u64);
        let has_value = loop {
            let blk = &c.blocks[b];
            steps += blk.ticks;
            if steps > self.fuel {
                return None;
            }
            c.prog.run_range(blk.lo, blk.hi, arena, &mut self.scratch);
            b = match blk.term {
                Term::Goto(n) => n,
                Term::Branch(cond, then, other) => match arena[cond as usize] {
                    0 => other,
                    _ => then,
                },
                Term::Return(v) => break v,
                Term::Bail => return None,
            };
        };
        let word = |base: u32, ty: ScalarTy| Bv::from_u64(ty.width, arena[base as usize]);
        let ret = match c.ret {
            Some(r) if has_value => Value::Scalar(word(r.base, r.ty), r.ty.signed),
            _ => Value::Void,
        };
        let outs = f
            .params
            .iter()
            .zip(&c.params)
            .filter(|(p, _)| p.is_out)
            .map(|(p, v)| {
                let val = if v.array {
                    Value::Array((0..v.len).map(|k| word(v.base + k, v.ty)).collect(), v.ty)
                } else {
                    Value::Scalar(word(v.base, v.ty), v.ty.signed)
                };
                (p.name.clone(), val)
            })
            .collect();
        Some(RunResult { ret, outs, steps })
    }

    fn bind_param(&mut self, f: &Func, p: &Param, v: Value) -> Result<usize, EvalError> {
        let cell = match (&p.ty, v) {
            (Ty::Scalar(s), Value::Scalar(b, signed)) => Cell {
                words: vec![resize(&b, signed, *s)],
                ty: *s,
                kind: Kind::Scalar,
            },
            (Ty::Array(s, n), Value::Array(ws, wt)) => {
                if ws.len() != *n || wt != *s {
                    return Err(EvalError {
                        span: f.span,
                        message: format!(
                            "array argument for {:?} has wrong shape (got {}x{}, want {}x{})",
                            p.name,
                            ws.len(),
                            wt,
                            n,
                            s
                        ),
                    });
                }
                Cell {
                    words: ws,
                    ty: *s,
                    kind: Kind::Array,
                }
            }
            (ty, v) => {
                return Err(EvalError {
                    span: f.span,
                    message: format!("argument for {:?}: expected {ty}, got {v}", p.name),
                })
            }
        };
        self.store.push(cell);
        Ok(self.store.len() - 1)
    }

    fn tick(&mut self, span: Span) -> Result<(), EvalError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(EvalError {
                span,
                message: "fuel exhausted (runaway loop? see lint DFV006)".into(),
            });
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        f: &Func,
        body: &[Stmt],
        env: &mut HashMap<String, usize>,
    ) -> Result<Flow, EvalError> {
        // Block scoping: names declared inside are removed after (restore
        // the shadowed binding if there was one).
        let mut shadowed: Vec<(String, Option<usize>)> = Vec::new();
        let mut flow = Flow::Normal;
        for s in body {
            match self.exec_stmt(f, s, env, &mut shadowed)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        for (name, old) in shadowed.into_iter().rev() {
            match old {
                Some(c) => env.insert(name, c),
                None => env.remove(&name),
            };
        }
        Ok(flow)
    }

    fn exec_stmt(
        &mut self,
        f: &Func,
        s: &Stmt,
        env: &mut HashMap<String, usize>,
        shadowed: &mut Vec<(String, Option<usize>)>,
    ) -> Result<Flow, EvalError> {
        self.tick(s.span)?;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let cell = match ty {
                    Ty::Scalar(sc) => {
                        let w = match init {
                            Some(e) => {
                                let (b, signed) = self.scalar(f, e, env)?;
                                resize(&b, signed, *sc)
                            }
                            None => Bv::zero(sc.width),
                        };
                        Cell {
                            words: vec![w],
                            ty: *sc,
                            kind: Kind::Scalar,
                        }
                    }
                    Ty::Array(sc, n) => Cell {
                        words: vec![Bv::zero(sc.width); *n],
                        ty: *sc,
                        kind: Kind::Array,
                    },
                    Ty::Ptr(sc) => {
                        // Pointers are stored as a 64-bit encoded (cell,
                        // offset) pair in a side value; model them as a
                        // one-word cell holding the encoding.
                        let enc = match init {
                            Some(e) => match self.eval(f, e, env)? {
                                Value::Ptr(p) => encode_ptr(p),
                                other => {
                                    return Err(EvalError {
                                        span: e.span,
                                        message: format!("expected pointer, got {other}"),
                                    })
                                }
                            },
                            None => Bv::zero(64),
                        };
                        Cell {
                            words: vec![enc],
                            ty: *sc,
                            kind: Kind::Ptr,
                        }
                    }
                    // Invariant: the parser only produces `Ty::Void` for
                    // function return types (see `Parser::func`); declaration
                    // statements are always scalar, pointer, or array typed.
                    Ty::Void => unreachable!("parser never produces void declarations"),
                };
                self.store.push(cell);
                let idx = self.store.len() - 1;
                shadowed.push((name.clone(), env.insert(name.clone(), idx)));
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Var(n) => {
                        let cell_idx = lookup(env, n, s.span)?;
                        if self.store[cell_idx].kind == Kind::Ptr {
                            let v = self.eval(f, rhs, env)?;
                            let Value::Ptr(p) = v else {
                                return Err(EvalError {
                                    span: rhs.span,
                                    message: format!("expected pointer, got {v}"),
                                });
                            };
                            self.store[cell_idx].words[0] = encode_ptr(p);
                        } else {
                            let (b, signed) = self.scalar(f, rhs, env)?;
                            let ty = self.store[cell_idx].ty;
                            self.store[cell_idx].words[0] = resize(&b, signed, ty);
                        }
                    }
                    LValue::Index { base, index } => {
                        let (iv, _) = self.scalar(f, index, env)?;
                        let (b, signed) = self.scalar(f, rhs, env)?;
                        let cell_idx = lookup(env, base, s.span)?;
                        if self.store[cell_idx].kind == Kind::Ptr {
                            // Write through the pointer: p[i] aliases the
                            // pointee, not the pointer cell.
                            let p = decode_ptr(&self.store[cell_idx].words[0], s.span)?;
                            let target = self.store.get(p.cell).ok_or_else(|| dangling(s.span))?.ty;
                            let w = resize(&b, signed, target);
                            let words = &mut self
                                .store
                                .get_mut(p.cell)
                                .ok_or_else(|| dangling(s.span))?
                                .words;
                            let i = p.offset + iv.to_u64() as usize;
                            if i >= words.len() {
                                return Err(dangling(s.span));
                            }
                            words[i] = w;
                        } else {
                            let len = self.store[cell_idx].words.len();
                            let ty = self.store[cell_idx].ty;
                            let i = (iv.to_u64() as usize) % len.max(1);
                            self.store[cell_idx].words[i] = resize(&b, signed, ty);
                        }
                    }
                    LValue::Deref(n) => {
                        let (b, signed) = self.scalar(f, rhs, env)?;
                        let cell_idx = lookup(env, n, s.span)?;
                        let p = decode_ptr(&self.store[cell_idx].words[0], s.span)?;
                        let target = self.store.get(p.cell).ok_or_else(|| dangling(s.span))?.ty;
                        let w = resize(&b, signed, target);
                        let words = &mut self
                            .store
                            .get_mut(p.cell)
                            .ok_or_else(|| dangling(s.span))?
                            .words;
                        if p.offset >= words.len() {
                            return Err(dangling(s.span));
                        }
                        words[p.offset] = w;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(f, e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let (c, _) = self.scalar(f, cond, env)?;
                if !c.is_zero() {
                    self.exec_block(f, then_body, env)
                } else {
                    self.exec_block(f, else_body, env)
                }
            }
            StmtKind::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let (iv, signed) = self.scalar(f, init, env)?;
                self.store.push(Cell {
                    words: vec![resize(&iv, signed, ScalarTy::INT)],
                    ty: ScalarTy::INT,
                    kind: Kind::Scalar,
                });
                let idx = self.store.len() - 1;
                let old = env.insert(var.clone(), idx);
                let mut result = Flow::Normal;
                loop {
                    self.tick(s.span)?;
                    let (c, _) = self.scalar(f, cond, env)?;
                    if c.is_zero() {
                        break;
                    }
                    match self.exec_block(f, body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => {
                            result = r;
                            break;
                        }
                    }
                    let (sv, ssigned) = self.scalar(f, step, env)?;
                    self.store[idx].words[0] = resize(&sv, ssigned, ScalarTy::INT);
                }
                match old {
                    Some(c) => env.insert(var.clone(), c),
                    None => env.remove(var),
                };
                Ok(result)
            }
            StmtKind::While { cond, body } => loop {
                self.tick(s.span)?;
                let (c, _) = self.scalar(f, cond, env)?;
                if c.is_zero() {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(f, body, env)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    r @ Flow::Return(_) => return Ok(r),
                }
            },
            StmtKind::Return(v) => {
                let val = match (v, &f.ret) {
                    (None, _) => Value::Void,
                    (Some(e), Ty::Scalar(sc)) => {
                        let (b, signed) = self.scalar(f, e, env)?;
                        Value::Scalar(resize(&b, signed, *sc), sc.signed)
                    }
                    (Some(e), _) => self.eval(f, e, env)?,
                };
                Ok(Flow::Return(val))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(body) => self.exec_block(f, body, env),
        }
    }

    /// Evaluates an expression to a scalar (Bv, signedness).
    fn scalar(
        &mut self,
        f: &Func,
        e: &Expr,
        env: &mut HashMap<String, usize>,
    ) -> Result<(Bv, bool), EvalError> {
        match self.eval(f, e, env)? {
            Value::Scalar(b, s) => Ok((b, s)),
            other => Err(EvalError {
                span: e.span,
                message: format!("expected scalar, got {other}"),
            }),
        }
    }

    fn eval(
        &mut self,
        f: &Func,
        e: &Expr,
        env: &mut HashMap<String, usize>,
    ) -> Result<Value, EvalError> {
        self.tick(e.span)?;
        match &e.kind {
            ExprKind::Int(v) => {
                let t = literal_ty(*v);
                Ok(Value::Scalar(Bv::from_u64(t.width, *v), t.signed))
            }
            ExprKind::Var(n) => {
                let idx = lookup(env, n, e.span)?;
                let cell = &self.store[idx];
                match cell.kind {
                    Kind::Ptr => Ok(Value::Ptr(decode_ptr(&cell.words[0], e.span)?)),
                    Kind::Array => Ok(Value::Array(cell.words.clone(), cell.ty)),
                    Kind::Scalar => Ok(Value::Scalar(cell.words[0].clone(), cell.ty.signed)),
                }
            }
            ExprKind::Index { base, index } => {
                let (iv, _) = self.scalar(f, index, env)?;
                let idx = lookup(env, base, e.span)?;
                if self.store[idx].kind == Kind::Ptr {
                    let p = decode_ptr(&self.store[idx].words[0].clone(), e.span)?;
                    let cell = self.store.get(p.cell).ok_or_else(|| dangling(e.span))?;
                    let i = p.offset + iv.to_u64() as usize;
                    let w = cell.words.get(i).ok_or_else(|| dangling(e.span))?;
                    return Ok(Value::Scalar(w.clone(), cell.ty.signed));
                }
                let cell = &self.store[idx];
                let len = cell.words.len().max(1);
                let i = (iv.to_u64() as usize) % len;
                Ok(Value::Scalar(cell.words[i].clone(), cell.ty.signed))
            }
            ExprKind::Call { callee, args } => self.call(f, e.span, callee, args, env),
            ExprKind::Un(op, a) => {
                let (b, signed) = self.scalar(f, a, env)?;
                Ok(match op {
                    UnOp::Neg => Value::Scalar(b.wrapping_neg(), signed),
                    UnOp::Not => Value::Scalar(b.not(), signed),
                    UnOp::LNot => Value::Scalar(Bv::from_bool(b.is_zero()), false),
                })
            }
            ExprKind::Bin(op, a, b) => {
                let (av, asig) = self.scalar(f, a, env)?;
                let (bv, bsig) = self.scalar(f, b, env)?;
                Ok(eval_binop(
                    *op,
                    &av,
                    ScalarTy {
                        width: av.width(),
                        signed: asig,
                    },
                    &bv,
                    ScalarTy {
                        width: bv.width(),
                        signed: bsig,
                    },
                ))
            }
            ExprKind::Ternary { cond, t, f: fe } => {
                let (c, _) = self.scalar(f, cond, env)?;
                // Both sides are pure in SLM-C, so evaluate only the taken
                // side for speed. The other side still sets the result's
                // type: C converts both arms to their common type.
                let (taken, other) = if c.is_zero() { (fe, t) } else { (t, fe) };
                let v = self.eval(f, taken, env)?;
                Ok(match (v, self.scalar_ty(other, env)) {
                    (Value::Scalar(b, signed), Some(ot)) => {
                        let rt = promote(
                            ScalarTy {
                                width: b.width(),
                                signed,
                            },
                            ot,
                        );
                        Value::Scalar(resize(&b, signed, rt), rt.signed)
                    }
                    (v, _) => v,
                })
            }
            ExprKind::Cast(ty, a) => {
                let (b, signed) = self.scalar(f, a, env)?;
                Ok(Value::Scalar(resize(&b, signed, *ty), ty.signed))
            }
            ExprKind::AddrOf(n) => {
                let idx = lookup(env, n, e.span)?;
                Ok(Value::Ptr(PtrVal {
                    cell: idx,
                    offset: 0,
                }))
            }
            ExprKind::Deref(p) => {
                let v = self.eval(f, p, env)?;
                let Value::Ptr(pv) = v else {
                    return Err(EvalError {
                        span: e.span,
                        message: format!("cannot dereference {v}"),
                    });
                };
                let cell = self.store.get(pv.cell).ok_or_else(|| dangling(e.span))?;
                let w = cell.words.get(pv.offset).ok_or_else(|| dangling(e.span))?;
                Ok(Value::Scalar(w.clone(), cell.ty.signed))
            }
            ExprKind::Malloc { elem, count } => {
                let (n, _) = self.scalar(f, count, env)?;
                let n = n.to_u64() as usize;
                self.store.push(Cell {
                    words: vec![Bv::zero(elem.width); n.max(1)],
                    ty: *elem,
                    kind: Kind::Array,
                });
                Ok(Value::Ptr(PtrVal {
                    cell: self.store.len() - 1,
                    offset: 0,
                }))
            }
        }
    }

    /// The scalar type `e` evaluates to in `env`, found without evaluating
    /// it (so no fuel is spent); `None` for a non-scalar or undeclared
    /// value.
    fn scalar_ty(&self, e: &Expr, env: &HashMap<String, usize>) -> Option<ScalarTy> {
        let cell = |n: &str| env.get(n).map(|&i| &self.store[i]);
        Some(match &e.kind {
            ExprKind::Int(v) => literal_ty(*v),
            ExprKind::Var(n) => cell(n).filter(|c| c.kind == Kind::Scalar)?.ty,
            ExprKind::Index { base, .. } => cell(base).filter(|c| c.kind != Kind::Scalar)?.ty,
            ExprKind::Deref(p) => match &p.kind {
                ExprKind::Var(n) => cell(n).filter(|c| c.kind == Kind::Ptr)?.ty,
                _ => return None,
            },
            ExprKind::Call { callee, .. } => match self.prog.func(callee)?.ret {
                Ty::Scalar(s) => s,
                _ => return None,
            },
            ExprKind::Un(UnOp::LNot, _) => ScalarTy::BOOL,
            ExprKind::Un(_, a) => self.scalar_ty(a, env)?,
            ExprKind::Bin(op, a, b) => {
                binop_result(*op, self.scalar_ty(a, env)?, self.scalar_ty(b, env)?)
            }
            ExprKind::Ternary { t, f, .. } => {
                promote(self.scalar_ty(t, env)?, self.scalar_ty(f, env)?)
            }
            ExprKind::Cast(ty, _) => *ty,
            ExprKind::AddrOf(_) | ExprKind::Malloc { .. } => return None,
        })
    }

    fn call(
        &mut self,
        caller: &Func,
        span: Span,
        callee: &str,
        args: &[Expr],
        env: &mut HashMap<String, usize>,
    ) -> Result<Value, EvalError> {
        if self.call_depth >= self.max_call_depth {
            return Err(EvalError {
                span,
                message: format!(
                    "call depth exceeds {} (runaway recursion? see lint DFV005)",
                    self.max_call_depth
                ),
            });
        }
        let prog = self.prog;
        let g = prog.func(callee).ok_or_else(|| EvalError {
            span,
            message: format!("unknown function {callee:?}"),
        })?;
        let mut new_env: HashMap<String, usize> = HashMap::new();
        let mut out_links: Vec<(String, usize)> = Vec::new();
        for (p, a) in g.params.iter().zip(args) {
            let v = self.eval(caller, a, env)?;
            let cell = self.bind_param(g, p, v)?;
            if p.is_out {
                // Remember the caller's variable so we can copy back.
                let ExprKind::Var(n) = &a.kind else {
                    return Err(EvalError {
                        span: a.span,
                        message: "out arguments must be plain variables".into(),
                    });
                };
                out_links.push((n.clone(), cell));
            }
            new_env.insert(p.name.clone(), cell);
        }
        self.call_depth += 1;
        let flow = self.exec_block(g, &g.body, &mut new_env);
        self.call_depth -= 1;
        let flow = flow?;
        // Copy out parameters back to the caller, converting each word to
        // the caller variable's type (widths may differ through implicit
        // scalar conversion).
        for (caller_var, callee_cell) in out_links {
            let src_ty = self.store[callee_cell].ty;
            let words = self.store[callee_cell].words.clone();
            let dst = lookup(env, &caller_var, span)?;
            let dst_ty = self.store[dst].ty;
            self.store[dst].words = words
                .iter()
                .map(|w| resize(w, src_ty.signed, dst_ty))
                .collect();
        }
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Void,
        })
    }
}

fn lookup(env: &HashMap<String, usize>, n: &str, span: Span) -> Result<usize, EvalError> {
    env.get(n).copied().ok_or_else(|| EvalError {
        span,
        message: format!("undeclared variable {n:?}"),
    })
}

fn dangling(span: Span) -> EvalError {
    EvalError {
        span,
        message: "dangling or null pointer access".into(),
    }
}

fn encode_ptr(p: PtrVal) -> Bv {
    Bv::from_u64(
        64,
        ((p.cell as u64) << 24) | (p.offset as u64 & 0xFF_FFFF) | (1 << 63),
    )
}

fn decode_ptr(b: &Bv, span: Span) -> Result<PtrVal, EvalError> {
    let raw = b.to_u64();
    if raw & (1 << 63) == 0 {
        return Err(EvalError {
            span,
            message: "dereference of uninitialized pointer".into(),
        });
    }
    Ok(PtrVal {
        cell: ((raw >> 24) & 0xFFFF_FFFF) as usize,
        offset: (raw & 0xFF_FFFF) as usize,
    })
}

/// Resizes a scalar to a target type, extending per the *source* signedness
/// (the SLM-C conversion rule).
pub fn resize(b: &Bv, src_signed: bool, target: ScalarTy) -> Bv {
    if src_signed {
        b.resize_sext(target.width)
    } else {
        b.resize_zext(target.width)
    }
}

/// Evaluates a binary operator with SLM-C promotion, shared between the
/// interpreter and tests.
pub fn eval_binop(op: BinOp, a: &Bv, at: ScalarTy, b: &Bv, bt: ScalarTy) -> Value {
    use BinOp::*;
    let rt = binop_result(op, at, bt);
    let p = promote(at, bt);
    let ap = resize(a, at.signed, p);
    let bp = resize(b, bt.signed, p);
    match op {
        Add => Value::Scalar(ap.wrapping_add(&bp), rt.signed),
        Sub => Value::Scalar(ap.wrapping_sub(&bp), rt.signed),
        Mul => Value::Scalar(ap.wrapping_mul(&bp), rt.signed),
        Div => Value::Scalar(
            if p.signed { ap.sdiv(&bp) } else { ap.udiv(&bp) },
            rt.signed,
        ),
        Rem => Value::Scalar(
            if p.signed { ap.srem(&bp) } else { ap.urem(&bp) },
            rt.signed,
        ),
        And => Value::Scalar(ap.and(&bp), rt.signed),
        Or => Value::Scalar(ap.or(&bp), rt.signed),
        Xor => Value::Scalar(ap.xor(&bp), rt.signed),
        Shl => {
            let lt = crate::sema::int_promote(at);
            let ap = resize(a, at.signed, lt);
            Value::Scalar(ap.shl_bv(b), lt.signed)
        }
        Shr => {
            let lt = crate::sema::int_promote(at);
            let ap = resize(a, at.signed, lt);
            Value::Scalar(
                if lt.signed {
                    ap.ashr_bv(b)
                } else {
                    ap.lshr_bv(b)
                },
                lt.signed,
            )
        }
        Eq => Value::Scalar(Bv::from_bool(ap == bp), false),
        Ne => Value::Scalar(Bv::from_bool(ap != bp), false),
        Lt => Value::Scalar(
            Bv::from_bool(if p.signed { ap.slt(&bp) } else { ap.ult(&bp) }),
            false,
        ),
        Le => Value::Scalar(
            Bv::from_bool(if p.signed { !bp.slt(&ap) } else { !bp.ult(&ap) }),
            false,
        ),
        Gt => Value::Scalar(
            Bv::from_bool(if p.signed { bp.slt(&ap) } else { bp.ult(&ap) }),
            false,
        ),
        Ge => Value::Scalar(
            Bv::from_bool(if p.signed { !ap.slt(&bp) } else { !ap.ult(&bp) }),
            false,
        ),
        LAnd => Value::Scalar(Bv::from_bool(!a.is_zero() && !b.is_zero()), false),
        LOr => Value::Scalar(Bv::from_bool(!a.is_zero() || !b.is_zero()), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run1(src: &str, entry: &str, args: &[Value]) -> Value {
        let prog = parse(src).unwrap();
        crate::sema::check(&prog).unwrap();
        Interp::new(&prog).run(entry, args).unwrap().ret
    }

    fn u8v(v: u64) -> Value {
        Value::from_u64(
            ScalarTy {
                width: 8,
                signed: false,
            },
            v,
        )
    }

    #[test]
    fn basic_arithmetic() {
        let src = "uint8 f(uint8 a, uint8 b) { return a * 2 + b; }";
        assert_eq!(run1(src, "f", &[u8v(10), u8v(5)]), u8v(25));
    }

    #[test]
    fn fig1_masked_by_wide_ints() {
        // The paper's Fig 1 written with `int` temporaries: no overflow,
        // both orders agree — the SLM masks the bug.
        let src = r#"
            int lhs(int8 a, int8 b, int8 c) { int t = a + b; return t + c; }
            int rhs(int8 a, int8 b, int8 c) { int t = b + c; return t + a; }
        "#;
        let args = [
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                127,
            ),
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                127,
            ),
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                -1,
            ),
        ];
        let l = run1(src, "lhs", &args);
        let r = run1(src, "rhs", &args);
        assert_eq!(l, r);
        assert_eq!(l.as_bv().unwrap().to_i64(), 253);
    }

    #[test]
    fn fig1_exposed_by_narrow_temp() {
        // With an 8-bit temporary the same computation diverges.
        let src = r#"
            int lhs(int8 a, int8 b, int8 c) { int8 t = a + b; return t + c; }
            int rhs(int8 a, int8 b, int8 c) { int8 t = b + c; return t + a; }
        "#;
        let args = [
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                127,
            ),
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                127,
            ),
            Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                -1,
            ),
        ];
        let l = run1(src, "lhs", &args);
        let r = run1(src, "rhs", &args);
        assert_ne!(l, r);
        assert_eq!(l.as_bv().unwrap().to_i64(), -3);
        assert_eq!(r.as_bv().unwrap().to_i64(), 253);
    }

    #[test]
    fn loops_and_arrays() {
        let src = r#"
            uint32 sum(uint8 xs[8]) {
                uint32 acc = 0;
                for (int i = 0; i < 8; i++) {
                    acc += xs[i];
                }
                return acc;
            }
        "#;
        let xs = Value::Array(
            (1..=8).map(|i| Bv::from_u64(8, i)).collect(),
            ScalarTy {
                width: 8,
                signed: false,
            },
        );
        let r = run1(src, "sum", &[xs]);
        assert_eq!(r.as_bv().unwrap().to_u64(), 36);
    }

    #[test]
    fn break_and_continue() {
        let src = r#"
            int f() {
                int acc = 0;
                for (int i = 0; i < 100; i++) {
                    if (i % 2 == 0) continue;
                    if (i > 10) break;
                    acc += i;
                }
                return acc;
            }
        "#;
        // 1 + 3 + 5 + 7 + 9 = 25
        assert_eq!(run1(src, "f", &[]).as_bv().unwrap().to_i64(), 25);
    }

    #[test]
    fn function_calls_and_out_params() {
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
        let v = Value::from_u64(
            ScalarTy {
                width: 16,
                signed: false,
            },
            0xABCD,
        );
        assert_eq!(run1(src, "top", std::slice::from_ref(&v)), v);
    }

    #[test]
    fn out_params_surface_in_run_result() {
        let src = "void f(uint8 x, out uint8 y) { y = x + 1; }";
        let prog = parse(src).unwrap();
        let r = Interp::new(&prog).run("f", &[u8v(9)]).unwrap();
        assert_eq!(r.outs.len(), 1);
        assert_eq!(r.outs[0].0, "y");
        assert_eq!(r.outs[0].1, u8v(10));
    }

    #[test]
    fn pointers_and_malloc() {
        let src = r#"
            int f() {
                int x = 5;
                int *p = &x;
                *p = 7;
                int *q = malloc(4);
                q[2] = 0; // default zero anyway
                *q = 35;
                return *p + *q;
            }
        "#;
        assert_eq!(run1(src, "f", &[]).as_bv().unwrap().to_i64(), 42);
    }

    #[test]
    fn uninitialized_pointer_faults() {
        let src = "int f() { int *p; return *p; }";
        let prog = parse(src).unwrap();
        let e = Interp::new(&prog).run("f", &[]).unwrap_err();
        assert!(e.message.contains("uninitialized pointer"));
    }

    #[test]
    fn call_depth_stops_runaway_recursion() {
        // Recursion is a DFV005 lint error, but the interpreter also runs
        // unlinted programs: it must fail cleanly, not blow the native stack.
        let src = "int f(int n) { return f(n + 1); }";
        let prog = parse(src).unwrap();
        let e = Interp::new(&prog)
            .run("f", &[Value::from_i64(ScalarTy::INT, 0)])
            .unwrap_err();
        assert!(e.message.contains("call depth"), "{}", e.message);

        // Legitimate nested (non-recursive) calls still work under a
        // tightened budget.
        let src = r#"
            int leaf(int x) { return x + 1; }
            int mid(int x) { return leaf(x) + 1; }
            int top(int x) { return mid(x) + 1; }
        "#;
        let prog = parse(src).unwrap();
        let r = Interp::new(&prog)
            .with_max_call_depth(3)
            .run("top", &[Value::from_i64(ScalarTy::INT, 0)])
            .unwrap();
        assert_eq!(r.ret.as_bv().unwrap().to_i64(), 3);
    }

    #[test]
    fn pointer_out_param_is_a_typed_error_without_sema() {
        // Sema rejects pointer-typed out params, but the interpreter also
        // accepts parsed-but-unchecked programs: it must report, not panic.
        let src = "void f(out int* p) { }";
        let prog = parse(src).unwrap();
        let e = Interp::new(&prog).run("f", &[]).unwrap_err();
        assert!(e.message.contains("run sema first"), "{}", e.message);
    }

    #[test]
    fn fuel_stops_runaway_loops() {
        let src = "int f() { int x = 1; while (x) { x = 1; } return x; }";
        let prog = parse(src).unwrap();
        let e = Interp::new(&prog)
            .with_fuel(10_000)
            .run("f", &[])
            .unwrap_err();
        assert!(e.message.contains("fuel"));
    }

    #[test]
    fn index_wraps_like_hardware() {
        let src = r#"
            uint8 f(uint8 xs[4], uint8 i) { return xs[i]; }
        "#;
        let xs = Value::Array(
            (0..4).map(|i| Bv::from_u64(8, 10 + i)).collect(),
            ScalarTy {
                width: 8,
                signed: false,
            },
        );
        // Index 6 wraps to 2.
        let r = run1(src, "f", &[xs, u8v(6)]);
        assert_eq!(r.as_bv().unwrap().to_u64(), 12);
    }

    #[test]
    fn signed_unsigned_comparison_promotion() {
        // int8 vs uint8 promote to int (C's integer promotion), so the
        // comparison behaves mathematically...
        let src = "bool f(int8 a, uint8 b) { return a > b; }";
        let s8 = ScalarTy {
            width: 8,
            signed: true,
        };
        let r = run1(src, "f", &[Value::from_i64(s8, -1), u8v(1)]);
        assert_eq!(r.as_bv().unwrap().to_u64(), 0);
        // ...but at 64 bits unsigned wins and -1 reads as u64::MAX — the
        // classic C trap, faithfully reproduced.
        let src64 = "bool f(int64 a, uint64 b) { return a > b; }";
        let s64 = ScalarTy {
            width: 64,
            signed: true,
        };
        let u64t = ScalarTy {
            width: 64,
            signed: false,
        };
        let r = run1(
            src64,
            "f",
            &[Value::from_i64(s64, -1), Value::from_u64(u64t, 1)],
        );
        assert_eq!(r.as_bv().unwrap().to_u64(), 1);
    }

    /// Runs `entry` through both the AST oracle and `new_compiled` and
    /// asserts the full [`RunResult`] — return value, out params, and
    /// exact step count — or the error is identical. Returns whether the
    /// entry ran compiled, so callers can assert which engine ran.
    fn parity(src: &str, entry: &str, args: &[Value]) -> bool {
        let prog = parse(src).unwrap();
        let oracle = Interp::new(&prog).run(entry, args);
        let mut compiled = Interp::new_compiled(&prog);
        assert_eq!(compiled.run(entry, args), oracle, "compiled vs oracle");
        compiled.is_compiled(entry)
    }

    /// [`parity`] for a sema-valid source whose entry must compile whole.
    fn assert_compiled_parity(src: &str, entry: &str, args: &[Value]) {
        crate::sema::check(&parse(src).unwrap()).unwrap();
        assert!(parity(src, entry, args), "{entry} stayed on the walker");
    }

    #[test]
    fn compiled_straight_line_matches_oracle() {
        let src = r#"
            uint16 f(uint8 a, int8 b) {
                int t = a * 3 + b;
                uint16 u = (uint16) t ^ 0x55;
                u = u + (uint16) a;
                return u - 1;
            }
        "#;
        let b = Value::from_i64(
            ScalarTy {
                width: 8,
                signed: true,
            },
            -7,
        );
        assert_compiled_parity(src, "f", &[u8v(200), b]);
    }

    #[test]
    fn compiled_loops_match_oracle() {
        // Declarations inside the loop body, mixed-signedness comparisons
        // feeding arithmetic, and the loop head's own tick per iteration.
        let src = r#"
            uint32 f(uint8 seed) {
                uint32 acc = 0;
                for (int i = 0; i < 37; i++) {
                    uint32 x = acc * 1103515245 + (uint32) seed;
                    x = x ^ (x >> 7);
                    acc = acc + x % 251;
                }
                int k = 0;
                while (k < (int) seed) { k = k + 3; if (k == 9) { continue; } acc += k; }
                return acc;
            }
        "#;
        assert_compiled_parity(src, "f", &[u8v(0x5A)]);
    }

    #[test]
    fn compiled_edge_operators_match_oracle() {
        // Division/remainder by zero, shifts past the width, negation at
        // minimum, logical ops on nonzero-but-not-one values: the exact
        // corners where a lowering that is "almost" eval_binop diverges.
        let src = r#"
            int f(int a, int b) {
                int q = a / b;
                int r = a % b;
                int s1 = a << 33;
                int s2 = a >> 31;
                uint8 t = (uint8) a;
                int s3 = (int)(t >> 9);
                int l = (a && b) + (a || b) + !a;
                int n = -a + ~b;
                return q + r + s1 + s2 + s3 + l + n;
            }
        "#;
        for (a, b) in [(7, 0), (-2147483648, -1), (0, 5), (-9, 4), (12345, -678)] {
            let args = [
                Value::from_i64(ScalarTy::INT, a),
                Value::from_i64(ScalarTy::INT, b),
            ];
            assert_compiled_parity(src, "f", &args);
        }
    }

    #[test]
    fn compiled_callees_and_outs_match_oracle() {
        // An out-parameter call as a statement, a value call nested in its
        // own argument, and array arguments copied in by shape.
        let src = r#"
            void mix(uint16 v, out uint16 hi, out uint16 lo) {
                hi = v >> 8;
                lo = v & 255;
            }
            uint16 sum(uint16 xs[3]) { return xs[0] + xs[1] + xs[2]; }
            uint16 inc(uint16 x) { return x + 1; }
            uint16 top(uint16 v) {
                uint16 h = 0;
                uint16 l = 0;
                mix(inc(inc(v)) * 3, h, l);
                uint16 xs[3];
                xs[0] = h; xs[1] = l; xs[2] = v;
                return ((h << 8) | l) ^ sum(xs);
            }
        "#;
        let args = [Value::from_u64(
            ScalarTy {
                width: 16,
                signed: false,
            },
            0xBEEF,
        )];
        assert_compiled_parity(src, "top", &args);
    }

    #[test]
    fn conditional_arms_convert_to_their_common_type() {
        // C's rule: `c ? a : b` has the arms' common type, here uint32,
        // whichever arm runs, so the comparison is unsigned and false.
        let src = "int f(int a, uint32 b, bool c) { if ((c ? a : b) < 0) { return 1; } return 0; }";
        let int = |v| Value::from_i64(ScalarTy::INT, v);
        let u32v = Value::from_u64(
            ScalarTy {
                width: 32,
                signed: false,
            },
            5,
        );
        let args = [int(-1), u32v, Value::from_u64(ScalarTy::BOOL, 1)];
        let prog = parse(src).unwrap();
        assert_eq!(Interp::new(&prog).run("f", &args).unwrap().ret, int(0));
        assert_compiled_parity(src, "f", &args);
        // Two uint8 arms promote to int, so the negation is an int's.
        let src = "int g(uint8 x, bool c) { return -(c ? x : x); }";
        let x = Value::from_u64(
            ScalarTy {
                width: 8,
                signed: false,
            },
            1,
        );
        let args = [x, Value::from_u64(ScalarTy::BOOL, 0)];
        let prog = parse(src).unwrap();
        assert_eq!(Interp::new(&prog).run("g", &args).unwrap().ret, int(-1));
        assert_compiled_parity(src, "g", &args);
        // Arms of different widths compile too, each extended by its own
        // signedness.
        let src = "int h(int x) { uint8 a = 200; int8 b = -3; return (x > 0 ? a : b) + (x > 1 ? b : x); }";
        for v in [-1, 1, 2] {
            assert_compiled_parity(src, "h", &[int(v)]);
        }
    }

    #[test]
    fn uncompilable_functions_run_on_the_walker() {
        // Pointers, recursion, a value call with out params, a repeated
        // out-parameter name: each stays on the walker, unchanged.
        let cases = [
            "int f(int x) { int y = x * 2; int *p = &y; *p = *p + 1; return y; }",
            "int f(int x) { if (x > 0) { return f(x - 1) + 1; } return 0; }",
            "int g(int a, out int b) { b = a; return a; } int f(int x) { int o = 0; return g(x, o) + o; }",
            "void f(int x, out int8 y, out int y) { y = x * 300; }",
        ];
        for src in cases {
            let args = [Value::from_i64(ScalarTy::INT, 3)];
            assert!(!parity(src, "f", &args), "{src}");
        }
    }

    #[test]
    fn compiled_shadowing_matches_oracle() {
        // A parameter assigned, then redeclared in the same block: reads
        // before the redeclaration see the parameter, reads after it the
        // new variable.
        let src = r#"
            int f(int x) {
                x = x + 1;
                int y = x * 2;
                int x = y - 3;
                return x + y;
            }
        "#;
        for v in [-5, 0, 41] {
            let args = [Value::from_i64(ScalarTy::INT, v)];
            assert_compiled_parity(src, "f", &args);
        }
    }

    #[test]
    fn cell_kind_follows_scope_not_first_declaration() {
        // `x` is an array in one branch and a scalar in the other; the
        // walker once classified it by the first declaration in the body.
        let src = r#"
            uint8 f(uint8 a) {
                uint8 r = 0;
                if (a > 1) { uint8 x[4]; x[1] = a; r = x[1]; }
                else       { uint8 x = a + 1; r = x; }
                return r;
            }
        "#;
        assert_eq!(run1(src, "f", &[u8v(0)]), u8v(1));
        assert_eq!(run1(src, "f", &[u8v(7)]), u8v(7));
        for a in [0, 1, 2, 200] {
            assert_compiled_parity(src, "f", &[u8v(a)]);
        }
    }

    #[test]
    fn compiled_void_value_bails_to_the_walker_error() {
        // `g` falls off its end for small `a`: using that void as a value
        // is a walker error, which the compiled engine hands over exactly.
        let src = r#"
            uint8 g(uint8 a) { if (a > 3) { return a; } }
            uint8 f(uint8 a) { return g(a) + 1; }
        "#;
        assert_compiled_parity(src, "f", &[u8v(9)]);
        let prog = parse(src).unwrap();
        let e = Interp::new_compiled(&prog).run("f", &[u8v(1)]).unwrap_err();
        assert!(e.message.contains("expected scalar"), "{}", e.message);
    }

    #[test]
    fn compiled_fuel_and_depth_errors_match_oracle_exactly() {
        // The step counts must agree at every prefix, so the fuel error
        // fires after the same statement with the same span. Probe every
        // budget up to and past the run's step count.
        let src = r#"
            int leaf(int x) { return x * x + 1; }
            int f() {
                int acc = 0;
                for (int i = 0; i < 8; i++) {
                    int t = i > 3 ? leaf(i) : i;
                    acc = acc + t;
                }
                return acc;
            }
        "#;
        assert_compiled_parity(src, "f", &[]);
        let prog = parse(src).unwrap();
        let steps = Interp::new(&prog).run("f", &[]).unwrap().steps;
        for fuel in 1..steps + 3 {
            let oracle = Interp::new(&prog).with_fuel(fuel).run("f", &[]);
            let compiled = Interp::new_compiled(&prog).with_fuel(fuel).run("f", &[]);
            assert_eq!(compiled, oracle, "fuel={fuel}");
        }
        for depth in 0..3 {
            let oracle = Interp::new(&prog).with_max_call_depth(depth).run("f", &[]);
            let compiled = Interp::new_compiled(&prog)
                .with_max_call_depth(depth)
                .run("f", &[]);
            assert_eq!(compiled, oracle, "depth={depth}");
        }
    }

    #[test]
    fn compiled_interp_reports_compiled_functions() {
        let src = "int f() { int a = 1; int b = 2; return a + b; }";
        let prog = parse(src).unwrap();
        assert!(!Interp::new(&prog).is_compiled("f"));
        assert!(Interp::new_compiled(&prog).is_compiled("f"));
        assert!(!Interp::new_compiled(&prog).is_compiled("missing"));
    }

    #[test]
    fn shift_semantics() {
        let src = "int8 f(int8 a) { return a >> 1; }";
        let r = run1(
            src,
            "f",
            &[Value::from_i64(
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                -8,
            )],
        );
        assert_eq!(r.as_bv().unwrap().to_i64(), -4); // arithmetic shift
        let src2 = "uint8 g(uint8 a) { return a >> 1; }";
        let r2 = run1(src2, "g", &[u8v(0x80)]);
        assert_eq!(r2.as_bv().unwrap().to_u64(), 0x40);
    }
}
