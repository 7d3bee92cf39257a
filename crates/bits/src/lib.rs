//! Arbitrary-width bit vectors and related value types with *hardware*
//! semantics.
//!
//! This crate is the data-type substrate of the `dfv` workspace. The DAC 2007
//! paper this workspace reproduces ("Design for Verification in System-level
//! Models and RTL") identifies the mismatch between C's fixed-width `int`
//! types and RTL's custom-sized bit vectors as the *main source of
//! computational discrepancy* between system-level models and RTL
//! (§3.1.1). It also notes that teams end up writing their own bit-vector
//! libraries because C/C++ has no native support for wide vectors, bit
//! selects, or concatenation — and that those home-grown libraries must
//! faithfully capture HDL semantics. [`Bv`] is that library, with Verilog-like
//! two's-complement semantics:
//!
//! * every value has an explicit bit width; arithmetic wraps modulo `2^w`,
//! * sign is an *interpretation* (signed methods are suffixed `s`, e.g.
//!   [`Bv::scmp`]), not part of the type,
//! * part-select ([`Bv::slice`]), concatenation ([`Bv::concat`]),
//!   replication ([`Bv::repeat`]) and zero/sign extension are first-class,
//! * division follows common hardware convention for divide-by-zero
//!   (all-ones quotient, dividend remainder) rather than panicking.
//!
//! The crate also provides:
//!
//! * [`Fx`] — fixed-point values (a [`Bv`] plus a binary-point position) with
//!   explicit rounding and overflow modes, for the word-width-exploration
//!   use-case the paper describes for signal-processing SLMs,
//! * [`Xv`] — four-state (0/1/X) vectors with pessimistic X propagation, used
//!   for reset analysis of RTL models,
//! * [`SplitMix64`] — a tiny seeded PRNG used for constrained-random
//!   stimulus and benches, so the workspace builds with no external (and
//!   therefore no network-fetched) dependencies.
//!
//! # Example
//!
//! The paper's Figure 1 shows that addition is non-associative in finite
//! precision: with 8-bit temporaries, `(a + b) + c != (b + c) + a` for
//! `a = b = 127, c = -1` — an effect a plain-`int` C model masks.
//!
//! ```
//! use dfv_bits::Bv;
//!
//! let a = Bv::from_i64(8, 127);
//! let b = Bv::from_i64(8, 127);
//! let c = Bv::from_i64(8, -1);
//!
//! // RTL-style: the temporary `a + b` is only 8 bits wide and overflows.
//! let lhs = a.wrapping_add(&b).sext(9).wrapping_add(&c.sext(9));
//! let rhs = b.wrapping_add(&c).sext(9).wrapping_add(&a.sext(9));
//! assert_ne!(lhs, rhs);
//!
//! // C-style: 32-bit `int` temporaries never overflow here, masking the bug.
//! let wide = |x: &Bv| x.sext(32);
//! let lhs32 = wide(&a).wrapping_add(&wide(&b)).wrapping_add(&wide(&c));
//! let rhs32 = wide(&b).wrapping_add(&wide(&c)).wrapping_add(&wide(&a));
//! assert_eq!(lhs32, rhs32);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arith;
mod bv;
mod error;
mod fixed;
mod fmt;
mod fourstate;
mod hash;
pub mod limbs;
mod logic;
mod rng;

pub use bv::Bv;
pub use error::ParseBvError;
pub use fixed::{Fx, OverflowMode, RoundingMode};
pub use fourstate::Xv;
pub use hash::{fnv64, Fnv, FxHasher};
pub use rng::SplitMix64;
