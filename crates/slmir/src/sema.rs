//! Semantic analysis: scoped name resolution and bit-accurate typing.
//!
//! SLM-C follows **C's usual arithmetic conversions** deliberately:
//! operands narrower than 32 bits are first promoted to `int` (or to
//! `uint<32>` if their values would not fit, which cannot happen below 32
//! bits), then the wider type wins, with unsigned winning ties. This is the
//! very behaviour the paper's §3.1.1 warns about — `int`-based C models
//! silently compute at 32 bits and *mask* the overflow bugs of narrow RTL
//! datapaths (Figure 1). Keeping the C semantics here lets the workspace
//! reproduce that masking, and the lint/elaboration flow then pushes models
//! toward explicit widths.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use dfv_bits::FxHasher;

use crate::ast::*;
use crate::token::Span;

/// A semantic error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    /// Where the problem is.
    pub span: Span,
    /// Description.
    pub message: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: type error: {}", self.span, self.message)
    }
}

impl std::error::Error for SemaError {}

/// The result of type checking: every expression's type, by expression id.
#[derive(Debug, Clone, Default)]
pub struct TypeMap {
    types: FxMap<u32, Ty>,
}

impl TypeMap {
    /// The type of an expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression was not part of the checked program.
    pub fn ty(&self, e: &Expr) -> Ty {
        self.types[&e.id]
    }

    /// The scalar type of an expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression is not scalar-typed (the checker
    /// guarantees scalar contexts).
    pub fn scalar(&self, e: &Expr) -> ScalarTy {
        match self.ty(e) {
            Ty::Scalar(s) => s,
            other => panic!("expression at {} is {other}, not scalar", e.span),
        }
    }
}

/// C's *integer promotion*: types narrower than `int` promote to `int`
/// (every value of a sub-32-bit type fits in a 32-bit signed integer).
pub fn int_promote(t: ScalarTy) -> ScalarTy {
    if t.width < 32 {
        ScalarTy::INT
    } else {
        t
    }
}

/// C's *usual arithmetic conversions*: integer-promote both operands, then
/// the wider type wins; on equal widths, unsigned wins.
pub fn promote(a: ScalarTy, b: ScalarTy) -> ScalarTy {
    let a = int_promote(a);
    let b = int_promote(b);
    match a.width.cmp(&b.width) {
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Equal => ScalarTy {
            width: a.width,
            signed: a.signed && b.signed,
        },
    }
}

/// The literal type of an integer constant: the narrowest of `int`,
/// `int<64>`, `uint<64>` that holds it.
pub fn literal_ty(v: u64) -> ScalarTy {
    if v <= i32::MAX as u64 {
        ScalarTy::INT
    } else if v <= i64::MAX as u64 {
        ScalarTy {
            width: 64,
            signed: true,
        }
    } else {
        ScalarTy {
            width: 64,
            signed: false,
        }
    }
}

/// The result type of a binary operator on (already promoted) scalars.
pub fn binop_result(op: BinOp, lhs: ScalarTy, rhs: ScalarTy) -> ScalarTy {
    match op {
        BinOp::Add
        | BinOp::Sub
        | BinOp::Mul
        | BinOp::Div
        | BinOp::Rem
        | BinOp::And
        | BinOp::Or
        | BinOp::Xor => promote(lhs, rhs),
        BinOp::Shl | BinOp::Shr => int_promote(lhs),
        BinOp::Eq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge
        | BinOp::LAnd
        | BinOp::LOr => ScalarTy::BOOL,
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

struct Scope {
    vars: Vec<FxMap<String, Ty>>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            vars: vec![FxMap::default()],
        }
    }

    fn push(&mut self) {
        self.vars.push(FxMap::default());
    }

    fn pop(&mut self) {
        self.vars.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty) -> bool {
        self.vars
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.to_string(), ty)
            .is_none()
    }

    fn lookup(&self, name: &str) -> Option<Ty> {
        self.vars.iter().rev().find_map(|m| m.get(name)).copied()
    }
}

struct Checker<'p> {
    prog: &'p Program,
    map: TypeMap,
    scope: Scope,
    current_ret: Ty,
    loop_depth: u32,
}

/// Type-checks a program.
///
/// # Errors
///
/// Returns [`SemaError`] for the first problem found.
pub fn check(prog: &Program) -> Result<TypeMap, SemaError> {
    let mut names = HashMap::new();
    for f in &prog.funcs {
        if names.insert(f.name.as_str(), ()).is_some() {
            return Err(SemaError {
                span: f.span,
                message: format!("duplicate function {:?}", f.name),
            });
        }
    }
    let mut ck = Checker {
        prog,
        map: TypeMap::default(),
        scope: Scope::new(),
        current_ret: Ty::Void,
        loop_depth: 0,
    };
    for f in &prog.funcs {
        ck.scope = Scope::new();
        ck.current_ret = f.ret;
        for p in &f.params {
            if p.is_out && matches!(p.ty, Ty::Ptr(_)) {
                return Err(SemaError {
                    span: f.span,
                    message: format!("out parameter {:?} cannot be a pointer", p.name),
                });
            }
            if !ck.scope.declare(&p.name, p.ty) {
                return Err(SemaError {
                    span: f.span,
                    message: format!("duplicate parameter {:?}", p.name),
                });
            }
        }
        ck.stmts(&f.body)?;
    }
    Ok(ck.map)
}

impl<'p> Checker<'p> {
    fn err<T>(&self, span: Span, message: impl Into<String>) -> Result<T, SemaError> {
        Err(SemaError {
            span,
            message: message.into(),
        })
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), SemaError> {
        self.scope.push();
        for s in body {
            self.stmt(s)?;
        }
        self.scope.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), SemaError> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                if let Some(e) = init {
                    let it = self.expr(e)?;
                    match (ty, it) {
                        (Ty::Scalar(_), Ty::Scalar(_)) => {} // implicit resize
                        (Ty::Ptr(a), Ty::Ptr(b)) if *a == b => {}
                        _ => return self.err(e.span, format!("cannot initialize {ty} from {it}")),
                    }
                }
                if !self.scope.declare(name, *ty) {
                    return self.err(s.span, format!("redeclaration of {name:?} in this scope"));
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                let rt = self.expr(rhs)?;
                let lt = self.lvalue_ty(s.span, lhs)?;
                match (lt, rt) {
                    (Ty::Scalar(_), Ty::Scalar(_)) => Ok(()),
                    (Ty::Ptr(a), Ty::Ptr(b)) if a == b => Ok(()),
                    _ => self.err(s.span, format!("cannot assign {rt} to {lt}")),
                }
            }
            StmtKind::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.scalar_expr(cond)?;
                self.stmts(then_body)?;
                self.stmts(else_body)
            }
            StmtKind::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                self.scope.push();
                self.scalar_expr(init)?;
                self.scope.declare(var, Ty::Scalar(ScalarTy::INT));
                self.scalar_expr(cond)?;
                self.scalar_expr(step)?;
                self.loop_depth += 1;
                let r = self.stmts(body);
                self.loop_depth -= 1;
                self.scope.pop();
                r
            }
            StmtKind::While { cond, body } => {
                self.scalar_expr(cond)?;
                self.loop_depth += 1;
                let r = self.stmts(body);
                self.loop_depth -= 1;
                r
            }
            StmtKind::Return(value) => match (self.current_ret, value) {
                (Ty::Void, None) => Ok(()),
                (Ty::Void, Some(e)) => self.err(e.span, "void function returns a value"),
                (_, None) => self.err(s.span, "missing return value"),
                (Ty::Scalar(_), Some(e)) => {
                    self.scalar_expr(e)?;
                    Ok(())
                }
                (Ty::Ptr(want), Some(e)) => {
                    let t = self.expr(e)?;
                    if t == Ty::Ptr(want) {
                        Ok(())
                    } else {
                        self.err(e.span, format!("cannot return {t} as {}", Ty::Ptr(want)))
                    }
                }
                (Ty::Array(..), Some(_)) => self.err(s.span, "functions cannot return arrays"),
            },
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return self.err(s.span, "break/continue outside a loop");
                }
                Ok(())
            }
            StmtKind::Block(body) => self.stmts(body),
        }
    }

    fn lvalue_ty(&mut self, span: Span, lv: &LValue) -> Result<Ty, SemaError> {
        match lv {
            LValue::Var(n) => self
                .scope
                .lookup(n)
                .ok_or(())
                .or_else(|_| self.err(span, format!("undeclared variable {n:?}"))),
            LValue::Index { base, index } => {
                self.scalar_expr(index)?;
                match self.scope.lookup(base) {
                    Some(Ty::Array(s, _)) => Ok(Ty::Scalar(s)),
                    Some(Ty::Ptr(s)) => Ok(Ty::Scalar(s)),
                    Some(other) => self.err(span, format!("{base:?} is {other}, not indexable")),
                    None => self.err(span, format!("undeclared variable {base:?}")),
                }
            }
            LValue::Deref(n) => match self.scope.lookup(n) {
                Some(Ty::Ptr(s)) => Ok(Ty::Scalar(s)),
                Some(other) => self.err(span, format!("{n:?} is {other}, cannot dereference")),
                None => self.err(span, format!("undeclared variable {n:?}")),
            },
        }
    }

    fn scalar_expr(&mut self, e: &Expr) -> Result<ScalarTy, SemaError> {
        match self.expr(e)? {
            Ty::Scalar(s) => Ok(s),
            other => self.err(e.span, format!("expected a scalar value, found {other}")),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Ty, SemaError> {
        let ty = self.expr_inner(e)?;
        self.map.types.insert(e.id, ty);
        Ok(ty)
    }

    fn expr_inner(&mut self, e: &Expr) -> Result<Ty, SemaError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Ty::Scalar(literal_ty(*v))),
            ExprKind::Var(n) => self
                .scope
                .lookup(n)
                .ok_or(())
                .or_else(|_| self.err(e.span, format!("undeclared variable {n:?}"))),
            ExprKind::Index { base, index } => {
                self.scalar_expr(index)?;
                match self.scope.lookup(base) {
                    Some(Ty::Array(s, _)) | Some(Ty::Ptr(s)) => Ok(Ty::Scalar(s)),
                    Some(other) => self.err(e.span, format!("{base:?} is {other}, not indexable")),
                    None => self.err(e.span, format!("undeclared variable {base:?}")),
                }
            }
            ExprKind::Call { callee, args } => {
                let Some(f) = self.prog.func(callee) else {
                    return self.err(e.span, format!("unknown function {callee:?}"));
                };
                if f.params.len() != args.len() {
                    return self.err(
                        e.span,
                        format!(
                            "{callee:?} takes {} arguments, {} given",
                            f.params.len(),
                            args.len()
                        ),
                    );
                }
                let ret = f.ret;
                let params = f.params.clone();
                for (p, a) in params.iter().zip(args) {
                    let at = self.expr(a)?;
                    let ok = match (p.ty, at) {
                        (Ty::Scalar(_), Ty::Scalar(_)) => true,
                        (Ty::Array(s, n), Ty::Array(t, m)) => s == t && n == m,
                        (Ty::Ptr(s), Ty::Ptr(t)) => s == t,
                        _ => false,
                    };
                    if !ok {
                        return self.err(
                            a.span,
                            format!("argument for {:?} has type {at}, expected {}", p.name, p.ty),
                        );
                    }
                    if p.is_out && !matches!(a.kind, ExprKind::Var(_)) {
                        return self.err(a.span, "out arguments must be plain variables");
                    }
                }
                Ok(ret)
            }
            ExprKind::Un(op, a) => {
                let at = self.scalar_expr(a)?;
                Ok(Ty::Scalar(match op {
                    UnOp::Neg | UnOp::Not => at,
                    UnOp::LNot => ScalarTy::BOOL,
                }))
            }
            ExprKind::Bin(op, a, b) => {
                let at = self.scalar_expr(a)?;
                let bt = self.scalar_expr(b)?;
                Ok(Ty::Scalar(binop_result(*op, at, bt)))
            }
            ExprKind::Ternary { cond, t, f } => {
                self.scalar_expr(cond)?;
                let tt = self.scalar_expr(t)?;
                let ft = self.scalar_expr(f)?;
                Ok(Ty::Scalar(promote(tt, ft)))
            }
            ExprKind::Cast(ty, a) => {
                self.scalar_expr(a)?;
                Ok(Ty::Scalar(*ty))
            }
            ExprKind::AddrOf(n) => match self.scope.lookup(n) {
                Some(Ty::Scalar(s)) => Ok(Ty::Ptr(s)),
                Some(Ty::Array(s, _)) => Ok(Ty::Ptr(s)),
                Some(other) => self.err(e.span, format!("cannot take address of {other}")),
                None => self.err(e.span, format!("undeclared variable {n:?}")),
            },
            ExprKind::Deref(p) => match self.expr(p)? {
                Ty::Ptr(s) => Ok(Ty::Scalar(s)),
                other => self.err(e.span, format!("cannot dereference {other}")),
            },
            ExprKind::Malloc { elem, count } => {
                self.scalar_expr(count)?;
                Ok(Ty::Ptr(*elem))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TypeMap, SemaError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn promotion_rule_is_c_like() {
        let s8 = ScalarTy {
            width: 8,
            signed: true,
        };
        let u16 = ScalarTy {
            width: 16,
            signed: false,
        };
        // Narrow types promote to int first: int8 + uint16 computes as int.
        assert_eq!(promote(s8, u16), ScalarTy::INT);
        // At 64 bits, unsigned wins ties (the classic C trap).
        let s64 = ScalarTy {
            width: 64,
            signed: true,
        };
        let u64t = ScalarTy {
            width: 64,
            signed: false,
        };
        assert!(!promote(s64, u64t).signed);
        // A wider signed type beats a narrower unsigned one.
        let u33 = ScalarTy {
            width: 33,
            signed: false,
        };
        let s40 = ScalarTy {
            width: 40,
            signed: true,
        };
        assert!(promote(u33, s40).signed);
        assert_eq!(promote(u33, s40).width, 40);
    }

    #[test]
    fn accepts_wellformed() {
        let src = r#"
            uint8 helper(uint8 x) { return x * 2; }
            uint<9> top(uint8 a, uint8 b) {
                uint8 t = helper(a);
                return (uint<9>) t + (uint<9>) b;
            }
        "#;
        let map = check_src(src).unwrap();
        let _ = map;
    }

    #[test]
    fn rejects_undeclared() {
        let e = check_src("int f() { return x; }").unwrap_err();
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn rejects_bad_call() {
        assert!(check_src("int g(int a) { return a; } int f() { return g(); }").is_err());
        assert!(check_src("int f() { return h(); }").is_err());
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = check_src("int f() { break; return 0; }").unwrap_err();
        assert!(e.message.contains("outside a loop"));
    }

    #[test]
    fn rejects_array_misuse() {
        assert!(check_src("int f(int a) { return a[0]; }").is_err());
        assert!(check_src("void f(uint8 b[4]) { b = 3; }").is_err());
    }

    #[test]
    fn scoping_allows_shadowing_across_blocks() {
        let src = r#"
            int f() {
                int x = 1;
                { int x = 2; }
                return x;
            }
        "#;
        assert!(check_src(src).is_ok());
        assert!(check_src("int f() { int x = 1; int x = 2; return x; }").is_err());
    }

    #[test]
    fn pointer_typing() {
        let src = r#"
            int f() {
                int x = 5;
                int *p = &x;
                *p = 7;
                return *p;
            }
        "#;
        assert!(check_src(src).is_ok());
        assert!(check_src("int f() { int x = 1; uint8 *p = &x; return 0; }").is_err());
    }

    #[test]
    fn typemap_records_expression_types() {
        // uint<9> operands integer-promote to int, so the sum types as int;
        // the return statement then converts back to uint<9>.
        let prog = parse("uint<9> f(uint8 a) { return (uint<9>) a + (uint<9>) a; }").unwrap();
        let map = check(&prog).unwrap();
        let StmtKind::Return(Some(e)) = &prog.funcs[0].body[0].kind else {
            panic!()
        };
        assert_eq!(map.ty(e), Ty::Scalar(ScalarTy::INT));
        // A 33-bit operand is wide enough to escape promotion.
        let prog2 = parse("uint<33> g(uint<33> a) { return a + a; }").unwrap();
        let map2 = check(&prog2).unwrap();
        let StmtKind::Return(Some(e2)) = &prog2.funcs[0].body[0].kind else {
            panic!()
        };
        assert_eq!(
            map2.ty(e2),
            Ty::Scalar(ScalarTy {
                width: 33,
                signed: false
            })
        );
    }

    #[test]
    fn out_params_must_be_vars() {
        let src = r#"
            void g(out uint8 y) { y = 1; }
            int f() { g(3); return 0; }
        "#;
        assert!(check_src(src).is_err());
    }
}
