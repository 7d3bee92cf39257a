//! E16 — the register-bytecode VM: both hot loops lowered to the same
//! flat bytecode, with the interpreters kept as oracles.
//!
//! Two halves, one report:
//!
//! * **RTL** — the three standard workloads run on the bytecode VM
//!   ([`dfv_rtl::EvalMode::Bytecode`], the default engine) and the
//!   full-reevaluation reference oracle, with the VM's output hash
//!   asserted against the oracle's before any counter lands (the
//!   [`crate::simbench::add_engine_sweep`] counters);
//! * **SLM** — a scalar-heavy SLM-C mixing loop runs on the tree-walking
//!   interpreter ([`dfv_slmir::Interp::new`]) and on compiled functions
//!   ([`dfv_slmir::Interp::new_compiled`]), which lower the whole entry,
//!   loop and all, to the same bytecode; the full
//!   [`dfv_slmir::RunResult`] — return value, out params, and the exact
//!   fuel-visible step count — is asserted identical.
//!
//! Wall-clock lives only in the report's timing section; the canonical
//! JSON is a pure function of the fixed seeds.

use dfv_obs::{Json, RunReport};
use dfv_slmir::{parse, Interp, ScalarTy, Value};

use crate::render_table;
use crate::simbench;

/// Cycles per RTL workload stream.
const RTL_CYCLES: u64 = 400;
/// Iterations of the SLM mixing loop.
const SLM_ROUNDS: u64 = 20_000;
/// Timed repetitions of each SLM engine, interleaved; the best counts.
const SLM_REPS: usize = 5;

/// A scalar-heavy SLM-C kernel: every loop-body statement is a 32-bit
/// scalar op, so the whole function compiles, the loop included.
const MIX_SRC: &str = r#"
    uint32 mix(uint32 seed, uint32 rounds) {
        uint32 h = seed;
        for (uint32 i = 0; i < rounds; i++) {
            uint32 x = h ^ i;
            x = x * 40503;
            x = x ^ (x >> 13);
            x = x + 40961;
            x = x * 257;
            x = x ^ (x >> 7);
            h = h + x;
        }
        return h;
    }
"#;

/// Runs E16 and reduces it to a [`RunReport`]. The canonical JSON is a
/// pure function of the fixed seeds.
///
/// # Panics
///
/// Panics if the VM's output hash diverges from the reference
/// oracle, or if the compiled SLM interpreter's `RunResult` differs from
/// the tree-walking oracle's in any field.
pub fn e16_report() -> RunReport {
    let mut rep = RunReport::new("e16_bytecode_vm");
    simbench::add_engine_sweep(&mut rep, RTL_CYCLES);

    let prog = parse(MIX_SRC).expect("mix kernel parses");
    let u32ty = ScalarTy {
        width: 32,
        signed: false,
    };
    let args = [
        Value::from_u64(u32ty, 0x5EED),
        Value::from_u64(u32ty, SLM_ROUNDS),
    ];
    let mut last = None;
    for _ in 0..SLM_REPS {
        let oracle_res = rep.phase("slm.oracle", || {
            Interp::new(&prog).run("mix", &args).expect("mix runs")
        });
        let (compiled_res, compiled) = rep.phase("slm.compiled", || {
            let mut interp = Interp::new_compiled(&prog);
            let r = interp.run("mix", &args).expect("mix runs");
            (r, interp.is_compiled("mix"))
        });
        assert_eq!(
            compiled_res, oracle_res,
            "compiled function diverged from the oracle"
        );
        last = Some((oracle_res, compiled));
    }
    let (oracle_res, compiled) = last.expect("SLM_REPS > 0");
    rep.set_counter("e16.slm.compiled_functions", compiled as u64);
    rep.set_counter("e16.slm.steps", oracle_res.steps);
    rep.set_counter(
        "e16.slm.ret",
        oracle_res.ret.as_bv().expect("scalar return").to_u64(),
    );
    rep.set_value("slm_rounds", Json::UInt(SLM_ROUNDS));
    rep
}

/// Runs E16 and renders its report.
pub fn e16_bytecode_vm() -> String {
    let rep = e16_report();
    let mut out = String::from(
        "E16 — register-bytecode VM: RTL schedule levels and whole SLM-IR\nfunctions lowered to one flat bytecode, interpreters kept as oracles\n\n",
    );
    out.push_str(&simbench::render_sim_bench(&rep));

    let best = |name: &str| {
        let walls = rep.phases().iter().filter(|p| p.name == name);
        walls.map(|p| p.wall.as_micros()).min().unwrap_or(0)
    };
    let (oracle_us, compiled_us) = (best("slm.oracle"), best("slm.compiled"));
    let rows = vec![
        vec![
            "tree-walking oracle".into(),
            rep.counter("e16.slm.steps").to_string(),
            "-".into(),
            format!("{oracle_us}"),
        ],
        vec![
            "compiled function".into(),
            rep.counter("e16.slm.steps").to_string(),
            rep.counter("e16.slm.compiled_functions").to_string(),
            format!("{compiled_us}"),
        ],
    ];
    out.push_str(&format!(
        "\nSLM mixing loop ({SLM_ROUNDS} rounds, ret {:#x}; best of {SLM_REPS} interleaved runs):\n\n",
        rep.counter("e16.slm.ret"),
    ));
    out.push_str(&render_table(
        &[
            "interpreter",
            "steps (fuel ticks)",
            "compiled functions",
            "us",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nboth interpreters report the identical RunResult — return value, outs, and\nthe exact step count — and the compiled one runs {} whole function(s) on\nbytecode instead of walking the statement tree",
        rep.counter("e16.slm.compiled_functions"),
    ));
    if compiled_us > 0 {
        out.push_str(&format!(
            " ({:.2}x wall, timing section only)",
            oracle_us as f64 / compiled_us as f64
        ));
    }
    out.push_str(
        ".\n\ncanonical JSON (byte-reproducible; timing lives only in the full report):\n",
    );
    out.push_str(&rep.canonical_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_vm_parity_holds() {
        let a = e16_report();
        let b = e16_report();
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert!(!a.canonical_json().contains("wall_us"));
        // The mixing loop must run as a compiled function.
        assert_eq!(a.counter("e16.slm.compiled_functions"), 1);
        // And the vm rows must be present with the same step counters as
        // the reference rows (same stimulus).
        for w in ["fir_dense", "conv_stream", "memsys_sparse"] {
            assert!(a.counter(&format!("sim.{w}.vm.steps")) > 0);
            assert_eq!(
                a.counter(&format!("sim.{w}.vm.steps")),
                a.counter(&format!("sim.{w}.reference.steps"))
            );
        }
    }
}
