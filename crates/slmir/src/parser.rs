//! Recursive-descent parser for SLM-C.

use std::fmt;

use crate::ast::*;
use crate::token::{lex, LexError, Span, Tok, Token};

/// The longest array the language accepts. Elaboration builds one node
/// per element (and an array parameter one port bit per element bit), so
/// an unbounded length from hostile source would exhaust memory before
/// any limit downstream could see it.
const MAX_ARRAY_LEN: usize = 1 << 16;

/// A parse error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem is.
    pub span: Span,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: parse error: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

/// Parses a complete SLM-C program.
///
/// # Errors
///
/// Returns [`ParseError`] with the location of the first problem.
///
/// # Example
///
/// ```
/// let src = r#"
///     uint8 inc(uint8 x) {
///         return x + 1;
///     }
/// "#;
/// let prog = dfv_slmir::parse(src)?;
/// assert_eq!(prog.funcs.len(), 1);
/// assert_eq!(prog.funcs[0].name, "inc");
/// # Ok::<(), dfv_slmir::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_expr_id: 0,
    };
    let mut prog = Program::default();
    while !p.at_eof() {
        prog.funcs.push(p.func()?);
    }
    Ok(prog)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_expr_id: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn at_eof(&self) -> bool {
        self.peek().tok == Tok::Eof
    }

    /// Steps past the current token (never past the end-of-input one).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            span: self.peek().span,
            message: message.into(),
        })
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(&self.peek().tok, Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Span, ParseError> {
        let span = self.peek().span;
        if self.eat_punct(p) {
            Ok(span)
        } else {
            self.err(format!(
                "expected {p:?}, found {}",
                describe(&self.peek().tok)
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = &self.peek().tok {
            if s == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        let span = self.peek().span;
        match &self.peek().tok {
            Tok::Ident(s) if !is_keyword(s) => {
                let s = s.clone();
                self.bump();
                Ok((s, span))
            }
            other => self.err(format!("expected identifier, found {}", describe(other))),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.peek().tok {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {}", describe(other))),
        }
    }

    /// An array length: an integer in `1..=MAX_ARRAY_LEN`.
    fn array_len(&mut self) -> Result<usize, ParseError> {
        let n = self.expect_int()?;
        match usize::try_from(n) {
            Ok(n) if (1..=MAX_ARRAY_LEN).contains(&n) => Ok(n),
            _ => self.err(format!(
                "unsupported array length {n} (1..={MAX_ARRAY_LEN})"
            )),
        }
    }

    fn expr_id(&mut self) -> u32 {
        let id = self.next_expr_id;
        self.next_expr_id += 1;
        id
    }

    fn mk(&mut self, span: Span, kind: ExprKind) -> Expr {
        Expr {
            id: self.expr_id(),
            span,
            kind,
        }
    }

    /// Tries to parse a scalar type name at the current position.
    fn peek_scalar_ty(&self) -> Option<(ScalarTy, usize)> {
        let Tok::Ident(name) = &self.peek().tok else {
            return None;
        };
        let base = match name.as_str() {
            "bool" => Some((ScalarTy::BOOL, 1)),
            "int" => Some((ScalarTy::INT, 1)),
            "unsigned" | "uint" => Some((
                ScalarTy {
                    width: 32,
                    signed: false,
                },
                1,
            )),
            "int8" => Some((
                ScalarTy {
                    width: 8,
                    signed: true,
                },
                1,
            )),
            "int16" => Some((
                ScalarTy {
                    width: 16,
                    signed: true,
                },
                1,
            )),
            "int32" => Some((
                ScalarTy {
                    width: 32,
                    signed: true,
                },
                1,
            )),
            "int64" => Some((
                ScalarTy {
                    width: 64,
                    signed: true,
                },
                1,
            )),
            "uint8" => Some((
                ScalarTy {
                    width: 8,
                    signed: false,
                },
                1,
            )),
            "uint16" => Some((
                ScalarTy {
                    width: 16,
                    signed: false,
                },
                1,
            )),
            "uint32" => Some((
                ScalarTy {
                    width: 32,
                    signed: false,
                },
                1,
            )),
            "uint64" => Some((
                ScalarTy {
                    width: 64,
                    signed: false,
                },
                1,
            )),
            _ => None,
        }?;
        // Optional <N> width parameter on int/uint.
        let next_is = |off: usize, p: &str| matches!(self.tokens.get(self.pos + off).map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p);
        if (name == "int" || name == "uint") && next_is(1, "<") {
            if let Some(Token {
                tok: Tok::Int(w), ..
            }) = self.tokens.get(self.pos + 2)
            {
                if next_is(3, ">") {
                    return Some((
                        ScalarTy {
                            // Out-of-range widths saturate, so `scalar_ty`
                            // rejects them instead of a wrapped value.
                            width: u32::try_from(*w).unwrap_or(u32::MAX),
                            signed: name == "int",
                        },
                        4,
                    ));
                }
            }
            return None;
        }
        Some(base)
    }

    fn scalar_ty(&mut self) -> Result<ScalarTy, ParseError> {
        match self.peek_scalar_ty() {
            Some((ty, n)) => {
                if ty.width == 0 || ty.width > 128 {
                    return self.err(format!("unsupported width {} (1..=128)", ty.width));
                }
                for _ in 0..n {
                    self.bump();
                }
                Ok(ty)
            }
            None => self.err(format!(
                "expected type, found {}",
                describe(&self.peek().tok)
            )),
        }
    }

    fn func(&mut self) -> Result<Func, ParseError> {
        let span = self.peek().span;
        let ret = if self.eat_kw("void") {
            Ty::Void
        } else {
            let s = self.scalar_ty()?;
            if self.eat_punct("*") {
                Ty::Ptr(s)
            } else {
                Ty::Scalar(s)
            }
        };
        let (name, _) = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let is_out = self.eat_kw("out");
                let s = self.scalar_ty()?;
                if self.eat_punct("*") {
                    let (pname, _) = self.expect_ident()?;
                    params.push(Param {
                        name: pname,
                        ty: Ty::Ptr(s),
                        is_out,
                    });
                } else {
                    let (pname, _) = self.expect_ident()?;
                    let ty = if self.eat_punct("[") {
                        let n = self.array_len()?;
                        self.expect_punct("]")?;
                        Ty::Array(s, n)
                    } else {
                        Ty::Scalar(s)
                    };
                    params.push(Param {
                        name: pname,
                        ty,
                        is_out,
                    });
                }
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Func {
            name,
            span,
            params,
            ret,
            body,
        })
    }

    /// A `{ ... }` block or a single statement (for `if`/`for`/`while`
    /// bodies without braces).
    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.is_punct("{") {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return self.err("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek().span;
        // Declarations start with a type name.
        if self.peek_scalar_ty().is_some() {
            let s = self.scalar_ty()?;
            if self.eat_punct("*") {
                let (name, _) = self.expect_ident()?;
                let init = if self.eat_punct("=") {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                return Ok(Stmt {
                    span,
                    kind: StmtKind::Decl {
                        name,
                        ty: Ty::Ptr(s),
                        init,
                    },
                });
            }
            let (name, _) = self.expect_ident()?;
            if self.eat_punct("[") {
                let n = self.array_len()?;
                self.expect_punct("]")?;
                self.expect_punct(";")?;
                return Ok(Stmt {
                    span,
                    kind: StmtKind::Decl {
                        name,
                        ty: Ty::Array(s, n),
                        init: None,
                    },
                });
            }
            let init = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Decl {
                    name,
                    ty: Ty::Scalar(s),
                    init,
                },
            });
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_body = self.stmt_or_block()?;
            let else_body = if self.eat_kw("else") {
                self.stmt_or_block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt {
                span,
                kind: StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                },
            });
        }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            // for (int i = e; cond; i = step) — the loop declares its var.
            if self.peek_scalar_ty().is_some() {
                let _ = self.scalar_ty()?;
            }
            let (var, _) = self.expect_ident()?;
            self.expect_punct("=")?;
            let init = self.expr()?;
            self.expect_punct(";")?;
            let cond = self.expr()?;
            self.expect_punct(";")?;
            let step = self.for_step(&var)?;
            self.expect_punct(")")?;
            let body = self.stmt_or_block()?;
            return Ok(Stmt {
                span,
                kind: StmtKind::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                },
            });
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.stmt_or_block()?;
            return Ok(Stmt {
                span,
                kind: StmtKind::While { cond, body },
            });
        }
        if self.eat_kw("return") {
            let value = if self.eat_punct(";") {
                None
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(e)
            };
            return Ok(Stmt {
                span,
                kind: StmtKind::Return(value),
            });
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Break,
            });
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Continue,
            });
        }
        if self.is_punct("{") {
            let body = self.block()?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Block(body),
            });
        }
        // Assignment or expression statement.
        if self.is_punct("*") {
            self.bump();
            let (name, _) = self.expect_ident()?;
            self.expect_punct("=")?;
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Assign {
                    lhs: LValue::Deref(name),
                    rhs,
                },
            });
        }
        // ident (= | [i] = | ++/--/op= | call)
        let (name, nspan) = self.expect_ident()?;
        if self.eat_punct("(") {
            let args = self.call_args()?;
            self.expect_punct(";")?;
            let call = self.mk(nspan, ExprKind::Call { callee: name, args });
            return Ok(Stmt {
                span,
                kind: StmtKind::Expr(call),
            });
        }
        if self.eat_punct("[") {
            let index = self.expr()?;
            self.expect_punct("]")?;
            let lhs = LValue::Index { base: name, index };
            let rhs = self.compound_rhs(&lhs)?;
            self.expect_punct(";")?;
            return Ok(Stmt {
                span,
                kind: StmtKind::Assign { lhs, rhs },
            });
        }
        let lhs = LValue::Var(name);
        let rhs = self.compound_rhs(&lhs)?;
        self.expect_punct(";")?;
        Ok(Stmt {
            span,
            kind: StmtKind::Assign { lhs, rhs },
        })
    }

    /// Parses `= e`, `op= e`, `++`, or `--` and desugars to a plain rhs.
    fn compound_rhs(&mut self, lhs: &LValue) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        let current = |p: &mut Parser| -> Expr {
            match lhs {
                LValue::Var(n) => p.mk(span, ExprKind::Var(n.clone())),
                LValue::Index { base, index } => p.mk(
                    span,
                    ExprKind::Index {
                        base: base.clone(),
                        index: Box::new(index.clone()),
                    },
                ),
                LValue::Deref(n) => {
                    let v = p.mk(span, ExprKind::Var(n.clone()));
                    p.mk(span, ExprKind::Deref(Box::new(v)))
                }
            }
        };
        for (punct, op) in [
            ("+=", BinOp::Add),
            ("-=", BinOp::Sub),
            ("*=", BinOp::Mul),
            ("/=", BinOp::Div),
            ("%=", BinOp::Rem),
            ("&=", BinOp::And),
            ("|=", BinOp::Or),
            ("^=", BinOp::Xor),
            ("<<=", BinOp::Shl),
            (">>=", BinOp::Shr),
        ] {
            if self.eat_punct(punct) {
                let rhs = self.expr()?;
                let cur = current(self);
                return Ok(self.mk(span, ExprKind::Bin(op, Box::new(cur), Box::new(rhs))));
            }
        }
        if self.eat_punct("++") {
            let cur = current(self);
            let one = self.mk(span, ExprKind::Int(1));
            return Ok(self.mk(
                span,
                ExprKind::Bin(BinOp::Add, Box::new(cur), Box::new(one)),
            ));
        }
        if self.eat_punct("--") {
            let cur = current(self);
            let one = self.mk(span, ExprKind::Int(1));
            return Ok(self.mk(
                span,
                ExprKind::Bin(BinOp::Sub, Box::new(cur), Box::new(one)),
            ));
        }
        self.expect_punct("=")?;
        self.expr()
    }

    /// The step of a `for`: `i = expr`, `i += e`, `i++`, `i--`.
    fn for_step(&mut self, var: &str) -> Result<Expr, ParseError> {
        let (name, span) = self.expect_ident()?;
        if name != var {
            return Err(ParseError {
                span,
                message: format!("for-step must update the loop variable {var:?}"),
            });
        }
        self.compound_rhs(&LValue::Var(name))
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat_punct(")") {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat_punct(")") {
                return Ok(args);
            }
            self.expect_punct(",")?;
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let span = cond.span;
            let t = self.expr()?;
            self.expect_punct(":")?;
            let f = self.expr()?;
            return Ok(self.mk(
                span,
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    t: Box::new(t),
                    f: Box::new(f),
                },
            ));
        }
        Ok(cond)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span;
            lhs = self.mk(span, ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let Tok::Punct(p) = &self.peek().tok else {
            return None;
        };
        Some(match *p {
            "||" => (BinOp::LOr, 1),
            "&&" => (BinOp::LAnd, 2),
            "|" => (BinOp::Or, 3),
            "^" => (BinOp::Xor, 4),
            "&" => (BinOp::And, 5),
            "==" => (BinOp::Eq, 6),
            "!=" => (BinOp::Ne, 6),
            "<" => (BinOp::Lt, 7),
            "<=" => (BinOp::Le, 7),
            ">" => (BinOp::Gt, 7),
            ">=" => (BinOp::Ge, 7),
            "<<" => (BinOp::Shl, 8),
            ">>" => (BinOp::Shr, 8),
            "+" => (BinOp::Add, 9),
            "-" => (BinOp::Sub, 9),
            "*" => (BinOp::Mul, 10),
            "/" => (BinOp::Div, 10),
            "%" => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        if self.eat_punct("-") {
            let e = self.unary()?;
            return Ok(self.mk(span, ExprKind::Un(UnOp::Neg, Box::new(e))));
        }
        if self.eat_punct("~") {
            let e = self.unary()?;
            return Ok(self.mk(span, ExprKind::Un(UnOp::Not, Box::new(e))));
        }
        if self.eat_punct("!") {
            let e = self.unary()?;
            return Ok(self.mk(span, ExprKind::Un(UnOp::LNot, Box::new(e))));
        }
        if self.eat_punct("&") {
            let (name, _) = self.expect_ident()?;
            return Ok(self.mk(span, ExprKind::AddrOf(name)));
        }
        if self.eat_punct("*") {
            let e = self.unary()?;
            return Ok(self.mk(span, ExprKind::Deref(Box::new(e))));
        }
        // Cast: '(' type ')' unary
        if self.is_punct("(") {
            let save = self.pos;
            self.bump();
            if self.peek_scalar_ty().is_some() {
                let ty = self.scalar_ty()?;
                if self.eat_punct(")") {
                    let e = self.unary()?;
                    return Ok(self.mk(span, ExprKind::Cast(ty, Box::new(e))));
                }
            }
            self.pos = save;
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        if let Tok::Int(v) = self.peek().tok {
            self.bump();
            return Ok(self.mk(span, ExprKind::Int(v)));
        }
        if self.eat_kw("true") {
            return Ok(self.mk(span, ExprKind::Int(1)));
        }
        if self.eat_kw("false") {
            return Ok(self.mk(span, ExprKind::Int(0)));
        }
        if self.eat_kw("malloc") {
            // malloc<ty>(count) — element type defaults to uint<32>.
            let elem = if self.eat_punct("<") {
                let t = self.scalar_ty()?;
                self.expect_punct(">")?;
                t
            } else {
                ScalarTy::INT
            };
            self.expect_punct("(")?;
            let count = self.expr()?;
            self.expect_punct(")")?;
            return Ok(self.mk(
                span,
                ExprKind::Malloc {
                    elem,
                    count: Box::new(count),
                },
            ));
        }
        let (name, _) = self.expect_ident()?;
        if self.eat_punct("(") {
            let args = self.call_args()?;
            return Ok(self.mk(span, ExprKind::Call { callee: name, args }));
        }
        if self.eat_punct("[") {
            let index = self.expr()?;
            self.expect_punct("]")?;
            return Ok(self.mk(
                span,
                ExprKind::Index {
                    base: name,
                    index: Box::new(index),
                },
            ));
        }
        Ok(self.mk(span, ExprKind::Var(name)))
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "for"
            | "while"
            | "return"
            | "break"
            | "continue"
            | "void"
            | "out"
            | "malloc"
            | "true"
            | "false"
            | "int"
            | "uint"
            | "unsigned"
            | "bool"
            | "int8"
            | "int16"
            | "int32"
            | "int64"
            | "uint8"
            | "uint16"
            | "uint32"
            | "uint64"
    )
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => format!("identifier {s:?}"),
        Tok::Int(v) => format!("integer {v}"),
        Tok::Punct(p) => format!("{p:?}"),
        Tok::Eof => "end of input".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse("uint8 inc(uint8 x) { return x + 1; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.name, "inc");
        assert_eq!(
            f.ret,
            Ty::Scalar(ScalarTy {
                width: 8,
                signed: false
            })
        );
        assert_eq!(f.params.len(), 1);
        assert!(matches!(f.body[0].kind, StmtKind::Return(Some(_))));
    }

    #[test]
    fn rejects_out_of_range_array_lengths_and_widths() {
        // A zero-length or oversized array once reached the elaborator and
        // built a zero-width port (a panic) or a multi-gigabyte node list.
        for src in [
            "uint8 f(uint8 xs[0]) { return xs[0]; }",
            "uint8 f(uint8 xs[4294967296]) { return xs[0]; }",
            "uint8 f(uint8 a) { uint8 t[65537]; return a; }",
            // A width past u32 once wrapped to `uint<1>`.
            "uint8 f(uint<4294967297> a) { return (uint8) a; }",
        ] {
            assert!(parse(src).is_err(), "{src}");
        }
        assert!(parse("uint8 f(uint8 a) { uint8 t[65536]; return a; }").is_ok());
    }

    #[test]
    fn parses_generic_widths() {
        let p = parse("int<9> f(uint<3> a) { return (int<9>) a; }").unwrap();
        assert_eq!(
            p.funcs[0].ret,
            Ty::Scalar(ScalarTy {
                width: 9,
                signed: true
            })
        );
        assert_eq!(
            p.funcs[0].params[0].ty,
            Ty::Scalar(ScalarTy {
                width: 3,
                signed: false
            })
        );
    }

    #[test]
    fn parses_arrays_and_out_params() {
        let p = parse("void f(uint8 img[16], out uint8 res[16]) { res[0] = img[0]; }").unwrap();
        let f = &p.funcs[0];
        assert_eq!(
            f.params[0].ty,
            Ty::Array(
                ScalarTy {
                    width: 8,
                    signed: false
                },
                16
            )
        );
        assert!(!f.params[0].is_out);
        assert!(f.params[1].is_out);
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            int sum(int n) {
                int acc = 0;
                for (int i = 0; i < 10; i++) {
                    if (i == n) break;
                    acc += i;
                }
                while (acc > 100) { acc -= 3; }
                return acc;
            }
        "#;
        let p = parse(src).unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.body.len(), 4);
        assert!(matches!(f.body[1].kind, StmtKind::For { .. }));
        assert!(matches!(f.body[2].kind, StmtKind::While { .. }));
    }

    #[test]
    fn parses_pointers_and_malloc() {
        let src = r#"
            int f() {
                int x = 5;
                int *p = &x;
                *p = 7;
                int *q = malloc(4);
                return *p + *q;
            }
        "#;
        let p = parse(src).unwrap();
        assert!(matches!(
            p.funcs[0].body[1].kind,
            StmtKind::Decl { ty: Ty::Ptr(_), .. }
        ));
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse("int f(int a, int b, int c) { return a + b * c; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        let ExprKind::Bin(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected + at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn ternary_and_logical() {
        let p = parse("int f(int a) { return a > 0 && a < 10 ? a : 0 - a; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn errors_have_locations() {
        let e = parse("uint8 f(uint8 x) { return x + ; }").unwrap_err();
        assert_eq!(e.span.line, 1);
        assert!(e.message.contains("expected"));
        assert!(parse("uint8 f( { }").is_err());
        assert!(parse("uint8 f() { int x = 1 }").is_err()); // missing ;
        assert!(parse("uint<0> f() { return 0; }").is_err()); // zero width
    }

    #[test]
    fn for_step_must_touch_loop_var() {
        assert!(parse("int f(int j) { for (int i = 0; i < 4; j++) { } return 0; }").is_err());
    }

    #[test]
    fn compound_assignment_desugars() {
        let p = parse("int f(int a) { a <<= 2; return a; }").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Shl, _, _)));
    }
}
