//! The FIR filter at every abstraction level of the paper's §1 model
//! catalogue — the ladder experiment E2 climbs.
//!
//! All four models compute the identical bit-accurate function (checked in
//! tests); they differ only in how much timing/communication detail they
//! carry, which is what determines simulation speed.

use std::cell::RefCell;
use std::rc::Rc;

use dfv_bits::Bv;
use dfv_designs::fir::{BLOCK, COEFFS, TAPS};
use dfv_rtl::Simulator;
use dfv_slm::{Clock, Kernel, Signal};
use dfv_slmir::{Interp, Program, ScalarTy, Value};

/// Level 0 — **untimed native**: the compiled C model (a plain function).
/// One call processes a whole block; no events, no clocks.
pub fn untimed_fir(xs: &[i64; BLOCK]) -> [i64; BLOCK] {
    let mut ys = [0i64; BLOCK];
    for n in 0..BLOCK {
        let mut acc = 0i64;
        for (k, &c) in COEFFS.iter().enumerate().take(n + 1) {
            acc += c * xs[n - k];
        }
        ys[n] = acc;
    }
    ys
}

/// Level 1 — **SLM-C**: the same untimed model executed by `dfv-slmir`,
/// either on the tree-walking interpreter ([`InterpFir::run`]) or compiled
/// to `dfv-vm` bytecode once and run on that ([`run_block`] over
/// [`Interp::new_compiled`] of [`InterpFir::program`]).
pub struct InterpFir {
    prog: Program,
}

impl InterpFir {
    /// Parses the design's SLM-C source.
    pub fn new() -> Self {
        InterpFir {
            prog: dfv_slmir::parse(dfv_designs::fir::slm_source()).expect("source parses"),
        }
    }

    /// The parsed model.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Processes one block on a fresh tree-walking interpreter.
    pub fn run(&self, xs: &[i64; BLOCK]) -> [i64; BLOCK] {
        run_block(&mut Interp::new(&self.prog), xs)
    }
}

/// Processes one block of the FIR model on `interp`, whichever engine it
/// runs.
pub fn run_block(interp: &mut Interp, xs: &[i64; BLOCK]) -> [i64; BLOCK] {
    let s8 = ScalarTy {
        width: 8,
        signed: true,
    };
    let arr = Value::Array(xs.iter().map(|&x| Bv::from_i64(8, x)).collect(), s8);
    let r = interp.run("fir", &[arr]).expect("fir executes");
    let (_, Value::Array(ys, _)) = &r.outs[0] else {
        panic!("fir has one out array")
    };
    let mut out = [0i64; BLOCK];
    for (o, y) in out.iter_mut().zip(ys) {
        *o = y.to_i64();
    }
    out
}

impl Default for InterpFir {
    fn default() -> Self {
        InterpFir::new()
    }
}

/// Level 2 — **cycle-approximate SLM**: a clocked process on the `dfv-slm`
/// event kernel, one sample per clock edge, but computing in native
/// integers (no bit-level datapath detail).
pub struct CycleApproxFir {
    kernel: Kernel,
    input: Signal<i64>,
    output: Rc<RefCell<Vec<i64>>>,
    period: u64,
}

impl CycleApproxFir {
    /// Builds the model with the given clock period.
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        let clock = Clock::new(&mut kernel, "clk", 2);
        let input: Signal<i64> = Signal::new(&mut kernel, "x", 0);
        let output = Rc::new(RefCell::new(Vec::new()));
        let (sig, out) = (input.clone(), Rc::clone(&output));
        let mut hist = [0i64; TAPS];
        kernel.process("mac", &[clock.posedge()], move |_| {
            hist.rotate_right(1);
            hist[0] = sig.read();
            let y: i64 = COEFFS.iter().zip(&hist).map(|(c, x)| c * x).sum();
            out.borrow_mut().push(y);
        });
        CycleApproxFir {
            kernel,
            input,
            output,
            period: clock.period(),
        }
    }

    /// Streams one block through, returning the outputs.
    pub fn run(&mut self, xs: &[i64; BLOCK]) -> [i64; BLOCK] {
        self.output.borrow_mut().clear();
        let start = self.kernel.time();
        // Rising edges land on odd times (period 2, first edge at t = 1).
        let first_edge = if start.is_multiple_of(self.period) {
            start + self.period / 2
        } else {
            start + self.period
        };
        for (i, &x) in xs.iter().enumerate() {
            // Present the sample, then run through its rising edge.
            self.input.write(x);
            self.kernel
                .run(first_edge + self.period * i as u64)
                .expect("cycle model stays within kernel watchdog bounds");
        }
        let out = self.output.borrow();
        let mut ys = [0i64; BLOCK];
        let n = out.len();
        ys.copy_from_slice(&out[n - BLOCK..]);
        ys
    }

    /// Kernel statistics (for the activity report).
    pub fn stats(&self) -> dfv_slm::KernelStats {
        self.kernel.stats()
    }

    /// Streams the kernel's `slm.*` counters into `rec`.
    pub fn set_recorder(&mut self, rec: dfv_obs::SharedRecorder) {
        self.kernel.set_recorder(rec);
    }
}

impl Default for CycleApproxFir {
    fn default() -> Self {
        CycleApproxFir::new()
    }
}

/// Level 3 — **RTL**: the gate-accurate streaming datapath on the cycle
/// simulator.
pub struct RtlFir {
    sim: Simulator,
}

impl RtlFir {
    /// Builds the simulator (default bytecode engine).
    pub fn new() -> Self {
        RtlFir {
            sim: Simulator::new(dfv_designs::fir::rtl()).expect("fir rtl builds"),
        }
    }

    /// Builds the simulator on the full-reevaluation reference engine —
    /// the pre-compilation baseline for engine throughput comparisons.
    pub fn new_reference() -> Self {
        RtlFir {
            sim: Simulator::new_reference(dfv_designs::fir::rtl()).expect("fir rtl builds"),
        }
    }

    /// Streams one block through, returning the outputs.
    pub fn run(&mut self, xs: &[i64; BLOCK]) -> [i64; BLOCK] {
        self.sim.reset();
        let mut ys = [0i64; BLOCK];
        for (i, &x) in xs.iter().enumerate() {
            self.sim.poke("in_valid", Bv::from_bool(true));
            self.sim.poke("stall", Bv::from_bool(false));
            self.sim.poke("x", Bv::from_i64(8, x));
            self.sim.step();
            ys[i] = self.sim.output("y").to_i64();
        }
        ys
    }

    /// Streams the simulator's `rtl.*` counters into `rec`.
    pub fn set_recorder(&mut self, rec: dfv_obs::SharedRecorder) {
        self.sim.set_recorder(rec);
    }
}

impl Default for RtlFir {
    fn default() -> Self {
        RtlFir::new()
    }
}

/// A deterministic sample-block generator for throughput runs.
pub fn sample_block(seed: u64) -> [i64; BLOCK] {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut xs = [0i64; BLOCK];
    for x in &mut xs {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *x = ((s % 256) as i64) - 128;
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_models_agree() {
        let interp = InterpFir::new();
        let mut compiled = Interp::new_compiled(interp.program());
        assert!(compiled.is_compiled("fir"));
        let mut cycle = CycleApproxFir::new();
        let mut rtl = RtlFir::new();
        for seed in 0..10 {
            let xs = sample_block(seed);
            let golden = untimed_fir(&xs);
            assert_eq!(interp.run(&xs), golden, "interp seed {seed}");
            assert_eq!(
                run_block(&mut compiled, &xs),
                golden,
                "compiled seed {seed}"
            );
            assert_eq!(rtl.run(&xs), golden, "rtl seed {seed}");
        }
        // The cycle-approximate model keeps history across blocks (it has
        // no reset), so compare it on a single fresh run.
        let xs = sample_block(42);
        assert_eq!(cycle.run(&xs), untimed_fir(&xs));
    }
}
