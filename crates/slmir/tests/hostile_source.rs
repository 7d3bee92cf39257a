//! Hostile SLM-C source: seeded corruptions of the conditioned corpus —
//! byte flips, deleted and duplicated tokens, huge literals, extreme
//! `int<N>`/`uint<N>` widths — pushed through `parse`, `lint` and
//! `elaborate` with default limits. Every stage must answer with a value
//! or a typed error: no panic, and no case may run past a time cap.
//!
//! Uses the in-tree `SplitMix64` so the suite runs offline; the seed is
//! fixed, making every run reproducible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dfv_bits::SplitMix64;
use dfv_slmir::{elaborate, lint, parse};

mod corpus;
use corpus::CORPUS;

/// Corrupted variants per corpus entry.
const PER_ENTRY: usize = 64;

/// Wall-clock cap for one case through all three stages. Generous for an
/// unoptimized build; an unbounded loop or a blow-up past the default
/// limits trips it by orders of magnitude.
const CASE_CAP: Duration = Duration::from_secs(5);

/// Literals that overflow every integer type the language has.
const HUGE_LITERALS: &[&str] = &[
    "18446744073709551616",
    "340282366920938463463374607431768211457",
    "99999999999999999999999999999999999999999999999999",
    "0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF",
    "4294967296",
];

/// Width arguments at and past the edges of the accepted range.
const EXTREME_WIDTHS: &[&str] = &[
    "0",
    "1",
    "128",
    "129",
    "65535",
    "4294967295",
    "4294967296",
    "18446744073709551616",
];

/// Splits source into tokens: identifier/number runs, whitespace runs,
/// and single other characters. Concatenating the tokens gives the
/// source back.
fn tokens(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let class = |c: char| {
        if c.is_ascii_alphanumeric() || c == '_' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    for (k, &(_, c)) in chars.iter().enumerate() {
        let next = chars.get(k + 1);
        let split = match next {
            None => true,
            Some(&(_, d)) => class(c) == 2 || class(c) != class(d),
        };
        if split {
            let end = next.map_or(src.len(), |&(j, _)| j);
            out.push(&src[start..end]);
            start = end;
        }
    }
    out
}

fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// One seeded corruption of `src`.
fn corrupt(src: &str, rng: &mut SplitMix64) -> String {
    let toks = tokens(src);
    let idx = rng.below(toks.len() as u64) as usize;
    match rng.below(6) {
        // Flip up to three bytes to random values (possibly breaking
        // UTF-8, which the lossy conversion turns into U+FFFD).
        0 => {
            let mut bytes = src.as_bytes().to_vec();
            for _ in 0..rng.range_u64(1, 3) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = rng.bits(8) as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Delete a token.
        1 => {
            let mut t = toks.clone();
            t.remove(idx);
            t.concat()
        }
        // Duplicate a token.
        2 => {
            let mut t = toks.clone();
            t.insert(idx, toks[idx]);
            t.concat()
        }
        // Replace a number with a huge literal.
        3 => {
            let numbers: Vec<usize> = (0..toks.len())
                .filter(|&i| toks[i].starts_with(|c: char| c.is_ascii_digit()))
                .collect();
            let mut t = toks.clone();
            let at = match numbers.len() {
                0 => idx,
                n => numbers[rng.below(n as u64) as usize],
            };
            t[at] = pick(rng, HUGE_LITERALS);
            t.concat()
        }
        // Give a type an extreme width: `uint8` -> `uint<N>`, or a
        // `<N>` argument replaced.
        4 => {
            let types: Vec<usize> = (0..toks.len())
                .filter(|&i| toks[i].starts_with("int") || toks[i].starts_with("uint"))
                .collect();
            let mut t: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
            if let Some(&at) = types.get(rng.below(types.len().max(1) as u64) as usize) {
                let base = if toks[at].starts_with('u') {
                    "uint"
                } else {
                    "int"
                };
                let w = pick(rng, EXTREME_WIDTHS);
                if t.get(at + 1).map(String::as_str) == Some("<") && at + 2 < t.len() {
                    t[at + 2] = w.to_string();
                } else {
                    t[at] = format!("{base}<{w}>");
                }
            }
            t.concat()
        }
        // A huge literal as a loop bound or array size wherever a
        // number sits next to `<` or `[`.
        _ => {
            let mut t = toks.clone();
            for i in 1..t.len() {
                if (t[i - 1] == "<" || t[i - 1] == "[")
                    && t[i].starts_with(|c: char| c.is_ascii_digit())
                {
                    t[i] = pick(rng, HUGE_LITERALS);
                    break;
                }
            }
            t.concat()
        }
    }
}

#[test]
fn tokenizer_round_trips() {
    for (src, _) in CORPUS {
        assert_eq!(tokens(src).concat(), *src);
    }
}

#[test]
fn corrupted_corpus_never_panics_or_hangs() {
    let mut rng = SplitMix64::new(0x4057_11E5_0001);
    let (mut parsed, mut elaborated) = (0usize, 0usize);
    for (e, (src, entry)) in CORPUS.iter().enumerate() {
        for k in 0..PER_ENTRY {
            let bad = corrupt(src, &mut rng);
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let Ok(prog) = parse(&bad) else {
                    return (false, false);
                };
                let _ = lint(&prog, Some(entry));
                (true, elaborate(&prog, entry).is_ok())
            }));
            let elapsed = started.elapsed();
            match outcome {
                Ok((p, el)) => {
                    parsed += usize::from(p);
                    elaborated += usize::from(el);
                }
                Err(_) => panic!("entry {e} case {k} panicked on:\n{bad}"),
            }
            assert!(
                elapsed < CASE_CAP,
                "entry {e} case {k} took {elapsed:?} on:\n{bad}"
            );
        }
    }
    // The corruptions must reach past the parser often enough that lint
    // and elaborate see hostile programs, not only the parser.
    let total = CORPUS.len() * PER_ENTRY;
    assert!(parsed >= total / 5, "only {parsed}/{total} cases parsed");
    assert!(elaborated > 0, "no corrupted case elaborated");
}
