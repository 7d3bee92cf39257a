//! Word-level synchronous RTL: IR, builder, structural checks, hierarchy
//! flattening, a text netlist format, a cycle-accurate simulator, and VCD
//! export.
//!
//! This crate is the RTL substrate of the `dfv` workspace (a reproduction of
//! "Design for Verification in System-level Models and RTL", DAC 2007). The
//! same [`Module`] IR is executed by the [`Simulator`], produced by the
//! SLM-to-hardware elaborator in `dfv-slmir`, and bit-blasted by the
//! sequential equivalence checker in `dfv-sec` — one shared semantic core,
//! which is exactly what keeps system-level models and RTL consistent.
//!
//! # Quick start
//!
//! ```
//! use dfv_bits::Bv;
//! use dfv_rtl::{ModuleBuilder, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8-bit accumulator with clock enable.
//! let mut b = ModuleBuilder::new("accum");
//! let en = b.input("en", 1);
//! let din = b.input("din", 8);
//! let acc = b.reg("acc", 8, Bv::zero(8));
//! let q = b.reg_q(acc);
//! let sum = b.add(q, din);
//! b.connect_reg(acc, sum);
//! b.reg_enable(acc, en);
//! b.output("acc", q);
//!
//! let mut sim = Simulator::new(b.finish()?)?;
//! sim.step_with(&[("en", Bv::from_bool(true)), ("din", Bv::from_u64(8, 5))]);
//! sim.step_with(&[("en", Bv::from_bool(true)), ("din", Bv::from_u64(8, 7))]);
//! assert_eq!(sim.output("acc").to_u64(), 12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod check;
pub mod cone;
mod flatten;
pub mod ir;
mod lanes;
mod lower;
mod netlist;
mod opt;
mod schedule;
mod sim;
mod vcd;
mod xprop;

pub use builder::ModuleBuilder;
pub use check::{check_module, RtlError};
pub use cone::FanoutMap;
pub use cone::{fanin_cone, ConeEntry, ConeKind, ConeStart};
pub use flatten::flatten;
pub use ir::{Design, Module, ModuleStats, NodeId};
pub use lanes::{LaneSim, LaneStats};
pub use netlist::{
    parse_design, parse_module, write_design, write_module, MAX_MEM_DEPTH, MAX_WIDTH,
};
pub use opt::{optimize, OptStats};
pub use schedule::SimSchedule;
pub use sim::{eval_bin, eval_un, EvalMode, SimStats, Simulator, TraceStep};
pub use vcd::trace_to_vcd;
pub use xprop::{reset_coverage, XpropReport};
