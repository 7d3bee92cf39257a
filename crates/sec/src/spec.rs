//! Transaction specifications: how one SLM computation maps onto `k` RTL
//! cycles.
//!
//! Sequential equivalence checking "requires the specification of how the
//! inputs map between the SLM and RTL and specification of when to check the
//! outputs" (paper §2). An [`EquivSpec`] is exactly that: per-(port, cycle)
//! input [`Binding`]s, output compare points, environment constraints, and
//! the initial-state convention.

use std::error::Error;
use std::fmt;

use dfv_bits::Bv;
use dfv_rtl::Module;

/// Where an RTL input port gets its value on a particular cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// The whole SLM input of this name.
    Slm(String),
    /// A bit slice `name[hi:lo]` of an SLM input — the serialization
    /// mapping for the paper's parallel-SLM / serial-RTL interfaces
    /// (§3.2: "the SLM ... may read in the entire image as a single array
    /// of pixels while the RTL reads it as a stream").
    SlmSlice {
        /// SLM input name.
        name: String,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// A constant tie-off (control signals, mode pins).
    Const(Bv),
    /// A free symbolic value: the checker proves equivalence for *any*
    /// value here (e.g. don't-care inputs, stall lines allowed to wiggle).
    Free,
}

/// One output compare point of an [`EquivSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComparePoint {
    /// SLM output port name.
    pub slm_output: String,
    /// Optional `[hi:lo]` slice of the SLM output to compare (whole output
    /// when `None`).
    pub slm_slice: Option<(u32, u32)>,
    /// RTL output port name.
    pub rtl_output: String,
    /// RTL cycle at which the RTL output is sampled.
    pub rtl_cycle: u32,
}

/// How the RTL's state starts the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitState {
    /// Registers at their reset values, memories at their initial contents
    /// — transaction-from-reset checking.
    #[default]
    Reset,
    /// Fully symbolic start state: proves the transaction equivalent from
    /// *every* state (much stronger; fails for designs that rely on reset).
    Free,
}

/// A transaction-level equivalence specification between a combinational
/// SLM model and a sequential RTL module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EquivSpec {
    /// Number of RTL cycles in one transaction.
    pub rtl_cycles: u32,
    /// Input bindings: `(rtl_port, cycle, binding)`. Unbound (port, cycle)
    /// pairs default to constant zero.
    pub bindings: Vec<(String, u32, Binding)>,
    /// Output compare points.
    pub compares: Vec<ComparePoint>,
    /// Environment constraints: combinational 1-bit-output modules over a
    /// subset of the SLM inputs; each must evaluate to 1. This is the
    /// paper's mechanism for excluding e.g. float corner cases (§3.1.2).
    pub constraints: Vec<Module>,
    /// Initial-state convention.
    pub init: InitState,
}

impl EquivSpec {
    /// A spec skeleton for a `k`-cycle transaction.
    pub fn new(rtl_cycles: u32) -> Self {
        EquivSpec {
            rtl_cycles,
            ..EquivSpec::default()
        }
    }

    /// Binds an RTL input on one cycle.
    pub fn bind(mut self, rtl_port: &str, cycle: u32, binding: Binding) -> Self {
        self.bindings.push((rtl_port.into(), cycle, binding));
        self
    }

    /// Binds an RTL input identically on every cycle of the transaction.
    pub fn bind_all_cycles(mut self, rtl_port: &str, binding: Binding) -> Self {
        for c in 0..self.rtl_cycles {
            self.bindings.push((rtl_port.into(), c, binding.clone()));
        }
        self
    }

    /// Adds an output compare point: the whole SLM output against an RTL
    /// output port sampled during cycle `rtl_cycle` (combinational value
    /// after `rtl_cycle` clock edges have committed).
    pub fn compare(mut self, slm_output: &str, rtl_output: &str, rtl_cycle: u32) -> Self {
        self.compares.push(ComparePoint {
            slm_output: slm_output.into(),
            slm_slice: None,
            rtl_output: rtl_output.into(),
            rtl_cycle,
        });
        self
    }

    /// Adds a *sliced* compare point: `slm_output[hi:lo]` against an RTL
    /// output port at `rtl_cycle`. This is the deserialization mapping for
    /// the paper's parallel-SLM / serial-RTL interfaces: each beat of the
    /// RTL output stream is compared against the corresponding slice of
    /// the SLM's packed array output.
    pub fn compare_slice(
        mut self,
        slm_output: &str,
        hi: u32,
        lo: u32,
        rtl_output: &str,
        rtl_cycle: u32,
    ) -> Self {
        self.compares.push(ComparePoint {
            slm_output: slm_output.into(),
            slm_slice: Some((hi, lo)),
            rtl_output: rtl_output.into(),
            rtl_cycle,
        });
        self
    }

    /// Adds an environment constraint module.
    pub fn constrain(mut self, module: Module) -> Self {
        self.constraints.push(module);
        self
    }

    /// Uses a fully symbolic initial state.
    pub fn from_any_state(mut self) -> Self {
        self.init = InitState::Free;
        self
    }

    /// Validates the spec against concrete SLM and RTL modules.
    ///
    /// # Errors
    ///
    /// Returns [`SecError::Spec`] describing the first inconsistency
    /// (unknown port, width mismatch, out-of-range cycle, non-combinational
    /// SLM or constraint).
    pub fn validate(&self, slm: &Module, rtl: &Module) -> Result<(), SecError> {
        let err = |m: String| Err(SecError::Spec(m));
        if self.rtl_cycles == 0 {
            return err("transaction must span at least one RTL cycle".into());
        }
        if !slm.is_combinational() {
            return err(format!(
                "SLM module {:?} must be combinational (elaborate it first)",
                slm.name
            ));
        }
        if self.compares.is_empty() {
            return err("no output compare points".into());
        }
        for (port, cycle, binding) in &self.bindings {
            let Some(idx) = rtl.input_index(port) else {
                return err(format!("RTL has no input port {port:?}"));
            };
            let want = rtl.inputs[idx].width;
            if *cycle >= self.rtl_cycles {
                return err(format!(
                    "binding for {port:?} at cycle {cycle} out of range"
                ));
            }
            let got = match binding {
                Binding::Slm(name) => match slm.input_index(name) {
                    Some(i) => slm.inputs[i].width,
                    None => return err(format!("SLM has no input {name:?}")),
                },
                Binding::SlmSlice { name, hi, lo } => match slm.input_index(name) {
                    Some(i) => {
                        let w = slm.inputs[i].width;
                        if hi < lo || *hi >= w {
                            return err(format!(
                                "slice [{hi}:{lo}] out of range for SLM input {name:?}"
                            ));
                        }
                        hi - lo + 1
                    }
                    None => return err(format!("SLM has no input {name:?}")),
                },
                Binding::Const(v) => v.width(),
                Binding::Free => want,
            };
            if got != want {
                return err(format!(
                    "binding for RTL port {port:?} has width {got}, port is {want}"
                ));
            }
        }
        for cp in &self.compares {
            let Some(si) = slm.output_index(&cp.slm_output) else {
                return err(format!("SLM has no output {:?}", cp.slm_output));
            };
            let Some(ri) = rtl.output_index(&cp.rtl_output) else {
                return err(format!("RTL has no output {:?}", cp.rtl_output));
            };
            let slm_width = match cp.slm_slice {
                None => slm.outputs[si].width,
                Some((hi, lo)) => {
                    if hi < lo || hi >= slm.outputs[si].width {
                        return err(format!(
                            "compare slice [{hi}:{lo}] out of range for {:?}",
                            cp.slm_output
                        ));
                    }
                    hi - lo + 1
                }
            };
            if slm_width != rtl.outputs[ri].width {
                return err(format!(
                    "compare {:?} vs {:?}: widths {} vs {}",
                    cp.slm_output, cp.rtl_output, slm_width, rtl.outputs[ri].width
                ));
            }
            if cp.rtl_cycle >= self.rtl_cycles {
                return err(format!("compare at cycle {} out of range", cp.rtl_cycle));
            }
        }
        for c in &self.constraints {
            if !c.is_combinational() {
                return err(format!(
                    "constraint module {:?} must be combinational",
                    c.name
                ));
            }
            if c.outputs.len() != 1 || c.outputs[0].width != 1 {
                return err(format!(
                    "constraint module {:?} must have a single 1-bit output",
                    c.name
                ));
            }
            for p in &c.inputs {
                match slm.input_index(&p.name) {
                    Some(i) if slm.inputs[i].width == p.width => {}
                    _ => {
                        return err(format!(
                            "constraint input {:?} does not match an SLM input",
                            p.name
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// Errors from the equivalence checker and bounded model checker.
#[derive(Debug, Clone, PartialEq)]
pub enum SecError {
    /// The spec is inconsistent with the given modules.
    Spec(String),
    /// A structural problem in a module (propagated from `dfv-rtl`).
    Rtl(dfv_rtl::RtlError),
    /// A memory is too large to bit-blast.
    MemTooLarge {
        /// Memory name.
        mem: String,
        /// Its depth in words.
        depth: usize,
        /// The supported limit.
        limit: usize,
    },
}

impl fmt::Display for SecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecError::Spec(m) => write!(f, "invalid equivalence spec: {m}"),
            SecError::Rtl(e) => write!(f, "rtl error: {e}"),
            SecError::MemTooLarge { mem, depth, limit } => write!(
                f,
                "memory {mem:?} has {depth} words, beyond the {limit}-word bit-blasting \
                 limit; constrain the transaction or shrink the memory"
            ),
        }
    }
}

impl Error for SecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SecError::Rtl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dfv_rtl::RtlError> for SecError {
    fn from(e: dfv_rtl::RtlError) -> Self {
        SecError::Rtl(e)
    }
}
