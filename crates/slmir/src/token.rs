//! Lexer for SLM-C, the workspace's C-like system-level modelling language.

use std::fmt;

/// A source location (1-based line and column) used in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (value, and whether it was written in hex).
    Int(u64),
    /// Punctuation / operators.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it starts.
    pub span: Span,
}

/// A lexing error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Where the bad input starts.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: lex error: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// The punctuation token starting `rest` (non-empty), longest match
/// first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let at = |k: usize| rest.get(k).copied().unwrap_or(0);
    Some(match (rest[0], at(1)) {
        (b'<', b'<') if at(2) == b'=' => "<<=",
        (b'>', b'>') if at(2) == b'=' => ">>=",
        (b'<', b'<') => "<<",
        (b'>', b'>') => ">>",
        (b'<', b'=') => "<=",
        (b'>', b'=') => ">=",
        (b'=', b'=') => "==",
        (b'!', b'=') => "!=",
        (b'&', b'&') => "&&",
        (b'|', b'|') => "||",
        (b'+', b'=') => "+=",
        (b'-', b'=') => "-=",
        (b'*', b'=') => "*=",
        (b'/', b'=') => "/=",
        (b'%', b'=') => "%=",
        (b'&', b'=') => "&=",
        (b'|', b'=') => "|=",
        (b'^', b'=') => "^=",
        (b'+', b'+') => "++",
        (b'-', b'-') => "--",
        (b'-', b'>') => "->",
        (b'+', _) => "+",
        (b'-', _) => "-",
        (b'*', _) => "*",
        (b'/', _) => "/",
        (b'%', _) => "%",
        (b'&', _) => "&",
        (b'|', _) => "|",
        (b'^', _) => "^",
        (b'~', _) => "~",
        (b'!', _) => "!",
        (b'<', _) => "<",
        (b'>', _) => ">",
        (b'=', _) => "=",
        (b'(', _) => "(",
        (b')', _) => ")",
        (b'{', _) => "{",
        (b'}', _) => "}",
        (b'[', _) => "[",
        (b']', _) => "]",
        (b';', _) => ";",
        (b',', _) => ",",
        (b'?', _) => "?",
        (b':', _) => ":",
        _ => return None,
    })
}

/// The value of an integer literal's digits in `radix`, `_` separators
/// skipped; `None` for an empty, malformed or overflowing literal.
fn literal_value(digits: &[u8], radix: u32) -> Option<u64> {
    let mut value = 0u64;
    let mut any = false;
    for &b in digits {
        if b == b'_' {
            continue;
        }
        let d = char::from(b).to_digit(radix)?;
        value = value
            .checked_mul(u64::from(radix))?
            .checked_add(u64::from(d))?;
        any = true;
    }
    any.then_some(value)
}

/// Tokenizes SLM-C source. `//` and `/* */` comments are skipped.
///
/// # Errors
///
/// Returns [`LexError`] on unrecognized characters or malformed literals.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    // Past the end of a word: its bytes are all on one line.
    let word_end = |mut j: usize| {
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        j
    };
    while i < bytes.len() {
        let span = Span { line, col };
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            col += 1;
            i += 1;
            continue;
        }
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
                col += 1;
            }
            continue;
        }
        if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let body = i + 2;
            let Some(len) = bytes[body..].windows(2).position(|w| w == b"*/") else {
                return Err(LexError {
                    span,
                    message: "unterminated block comment".into(),
                });
            };
            let end = body + len + 2;
            for &b in &bytes[i..end] {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            i = end;
            continue;
        }
        let start = i;
        let tok = if c.is_ascii_alphabetic() || c == b'_' {
            i = word_end(i);
            Tok::Ident(src[start..i].to_string())
        } else if c.is_ascii_digit() {
            let hex = c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x';
            let digits = if hex { (i + 2).min(bytes.len()) } else { i };
            i = word_end(digits);
            let value = literal_value(&bytes[digits..i], if hex { 16 } else { 10 });
            Tok::Int(value.ok_or_else(|| LexError {
                span,
                message: format!("invalid integer literal {:?}", &src[start..i]),
            })?)
        } else if let Some(p) = punct(&bytes[i..]) {
            i += p.len();
            Tok::Punct(p)
        } else {
            return Err(LexError {
                span,
                message: format!("unexpected character {:?}", c as char),
            });
        };
        // Tokens never span a newline.
        col += (i - start) as u32;
        out.push(Token { tok, span });
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span { line, col },
    });
    Ok(out)
}

/// `prop_elab`'s conditioned corpus.
#[cfg(test)]
#[path = "../tests/corpus/mod.rs"]
mod corpus;

/// The punctuation-scanning lexer [`lex`] replaced, as its oracle.
#[cfg(test)]
mod reference {
    use super::{LexError, Span, Tok, Token};

    const PUNCTS: &[&str] = &[
        // Longest first so maximal munch works.
        "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
        "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<",
        ">", "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
    ];

    /// The original lexer, kept as the oracle of [`super::lex`].
    /// Tokenizes SLM-C source. `//` and `/* */` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] on unrecognized characters or malformed literals.
    pub(super) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
        let bytes = src.as_bytes();
        let mut out = Vec::new();
        let mut i = 0usize;
        let mut line = 1u32;
        let mut col = 1u32;
        let advance = |i: &mut usize, line: &mut u32, col: &mut u32, n: usize, bytes: &[u8]| {
            for _ in 0..n {
                if bytes[*i] == b'\n' {
                    *line += 1;
                    *col = 1;
                } else {
                    *col += 1;
                }
                *i += 1;
            }
        };
        'outer: while i < bytes.len() {
            let span = Span { line, col };
            let c = bytes[i];
            if c.is_ascii_whitespace() {
                advance(&mut i, &mut line, &mut col, 1, bytes);
                continue;
            }
            if c == b'/' && i + 1 < bytes.len() {
                if bytes[i + 1] == b'/' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        advance(&mut i, &mut line, &mut col, 1, bytes);
                    }
                    continue;
                }
                if bytes[i + 1] == b'*' {
                    advance(&mut i, &mut line, &mut col, 2, bytes);
                    while i + 1 < bytes.len() {
                        if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                            advance(&mut i, &mut line, &mut col, 2, bytes);
                            continue 'outer;
                        }
                        advance(&mut i, &mut line, &mut col, 1, bytes);
                    }
                    return Err(LexError {
                        span,
                        message: "unterminated block comment".into(),
                    });
                }
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    advance(&mut i, &mut line, &mut col, 1, bytes);
                }
                out.push(Token {
                    tok: Tok::Ident(src[start..i].to_string()),
                    span,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                let hex = c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x';
                if hex {
                    advance(&mut i, &mut line, &mut col, 2, bytes);
                }
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    advance(&mut i, &mut line, &mut col, 1, bytes);
                }
                let text = &src[start..i];
                let digits = if hex { &text[2..] } else { text };
                let value =
                    u64::from_str_radix(&digits.replace('_', ""), if hex { 16 } else { 10 })
                        .map_err(|_| LexError {
                            span,
                            message: format!("invalid integer literal {text:?}"),
                        })?;
                out.push(Token {
                    tok: Tok::Int(value),
                    span,
                });
                continue;
            }
            for p in PUNCTS {
                if src[i..].starts_with(p) {
                    advance(&mut i, &mut line, &mut col, p.len(), bytes);
                    out.push(Token {
                        tok: Tok::Punct(p),
                        span,
                    });
                    continue 'outer;
                }
            }
            return Err(LexError {
                span,
                message: format!("unexpected character {:?}", c as char),
            });
        }
        out.push(Token {
            tok: Tok::Eof,
            span: Span { line, col },
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        assert_eq!(
            toks("x1 = 0xFF + 42;"),
            vec![
                Tok::Ident("x1".into()),
                Tok::Punct("="),
                Tok::Int(255),
                Tok::Punct("+"),
                Tok::Int(42),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn maximal_munch() {
        assert_eq!(
            toks("a<<=b<<c<=d<e"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<<="),
                Tok::Ident("b".into()),
                Tok::Punct("<<"),
                Tok::Ident("c".into()),
                Tok::Punct("<="),
                Tok::Ident("d".into()),
                Tok::Punct("<"),
                Tok::Ident("e".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n /* block\n comment */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn spans_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].span, Span { line: 1, col: 1 });
        assert_eq!(ts[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn errors_located() {
        let e = lex("a @ b").unwrap_err();
        assert_eq!(e.span, Span { line: 1, col: 3 });
        assert!(e.to_string().contains('@'));
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn underscored_and_hex_literals() {
        assert_eq!(toks("1_000"), vec![Tok::Int(1000), Tok::Eof]);
        assert_eq!(toks("0xdead_beef"), vec![Tok::Int(0xDEAD_BEEF), Tok::Eof]);
        assert!(lex("0xZZ").is_err());
    }

    /// Lexes `src` with both lexers and demands the same tokens, spans and
    /// errors.
    fn same_as_reference(src: &str) {
        assert_eq!(lex(src), super::reference::lex(src), "{src:?}");
    }

    #[test]
    fn lexes_like_the_reference_on_every_source_and_seeded_soups() {
        for (src, _) in super::corpus::CORPUS {
            same_as_reference(src);
        }
        let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(7));
        let designs = [
            dfv_designs::alu::slm_int_style().to_string(),
            dfv_designs::alu::slm_bit_accurate().to_string(),
            dfv_designs::alu::slm_reassociated().to_string(),
            dfv_designs::conv::slm_source().to_string(),
            dfv_designs::fir::slm_source().to_string(),
            dfv_designs::fir::slm_source_with_coeffs([3, -1, 4, -9]),
            dfv_designs::memsys::slm_source(&table),
        ];
        for src in &designs {
            same_as_reference(src);
        }
        // Soups of punctuation, words, literals (good and bad), comments,
        // whitespace and stray bytes.
        const PIECES: &[&str] = &[
            "<<=",
            ">>=",
            "<<",
            ">>",
            "<=",
            ">=",
            "==",
            "!=",
            "&&",
            "||",
            "+=",
            "-=",
            "*=",
            "/=",
            "%=",
            "&=",
            "|=",
            "^=",
            "++",
            "--",
            "->",
            "+",
            "-",
            "*",
            "/",
            "%",
            "&",
            "|",
            "^",
            "~",
            "!",
            "<",
            ">",
            "=",
            "(",
            ")",
            "{",
            "}",
            "[",
            "]",
            ";",
            ",",
            "?",
            ":",
            "x",
            "_a1",
            "uint8",
            "0",
            "42",
            "1_000",
            "0x",
            "0X1f",
            "0xdead_beef",
            "0x_",
            "0xZZ",
            "18446744073709551615",
            "18446744073709551616",
            "0xffffffffffffffff",
            "0x10000000000000000",
            "12ab",
            "0b101",
            " ",
            "\t",
            "\n",
            "\r\n",
            "// c\n",
            "/* c\n */",
            "/*",
            "*/",
            "@",
            "#",
            "$",
            "\"",
            "'",
            ".",
            "é",
            "\u{c}",
        ];
        let mut rng = dfv_bits::SplitMix64::new(0x1e8e_5eed);
        for _ in 0..4000 {
            let n = 1 + rng.next_u64() % 24;
            let src: String = (0..n)
                .map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize])
                .collect();
            same_as_reference(&src);
        }
    }
}
