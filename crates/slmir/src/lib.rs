//! SLM-C: a C-like system-level modelling language with an interpreter, a
//! design-for-verification lint, and a static elaborator to hardware.
//!
//! This crate is the workspace's stand-in for the C/C++/SystemC system-level
//! models of the paper ("Design for Verification in System-level Models and
//! RTL", DAC 2007). It implements the paper's §4.3 flow end to end:
//!
//! 1. [`parse`] SLM-C source (a C subset with bit-accurate `int<N>`/`uint<N>`
//!    types — plus the *unconditioned* constructs the paper warns about:
//!    pointers, `malloc`, data-dependent loop bounds, `while`);
//! 2. type-check with [`sema::check`] (C-style integer promotion, so
//!    `int`-based models mask narrow-RTL overflows exactly as §3.1.1
//!    describes);
//! 3. execute fast with the [`interp`] interpreter — the untimed SLM;
//! 4. [`lint`] against the DFV001–DFV007 design-for-verification rules;
//! 5. [`elaborate`] conditioned programs into a combinational `dfv-rtl`
//!    module ("inferring a hardware-like model statically from the
//!    source"), ready for sequential equivalence checking by `dfv-sec`.
//!
//! # Example
//!
//! ```
//! use dfv_slmir::{elaborate, lint, parse, Severity};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     uint8 saturating_add(uint8 a, uint8 b) {
//!         uint16 wide = (uint16) a + (uint16) b;
//!         if (wide > 255) { return 255; }
//!         return (uint8) wide;
//!     }
//! "#;
//! let prog = parse(src)?;
//! assert!(lint(&prog, Some("saturating_add"))
//!     .iter()
//!     .all(|f| f.severity != Severity::Error));
//! let hw = elaborate(&prog, "saturating_add")?;
//! assert!(hw.is_combinational());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod compile;
mod elaborate;
mod fold;
pub mod interp;
mod lint;
mod parser;
pub mod sema;
mod statics;
mod token;

pub use ast::{Program, ScalarTy, Ty};
pub use elaborate::{elaborate, elaborate_with, ElabError, ElabOptions};
pub use interp::{Interp, RunResult, Value};
pub use lint::{call_graph, is_conditioned, lint, LintFinding, LintRule, Severity};
pub use parser::{parse, ParseError};
pub use token::Span;
