//! E2 — §2's "the SLM simulates several orders of magnitude faster
//! (typically 10x to 1000x) than the RTL model".
//!
//! The same FIR function is run at four abstraction levels (see
//! [`crate::models`]); throughput is measured in samples/second and
//! reported relative to RTL.

use std::time::{Duration, Instant};

use crate::models::{run_block, sample_block, untimed_fir, CycleApproxFir, InterpFir, RtlFir};
use crate::render_table;
use dfv_designs::fir::BLOCK;
use dfv_slmir::Interp;

fn throughput(mut f: impl FnMut(u64), min_time: Duration, samples_per_call: u64) -> f64 {
    // Warm up.
    for seed in 0..3 {
        f(seed);
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < min_time {
        f(calls);
        calls += 1;
    }
    (calls * samples_per_call) as f64 / start.elapsed().as_secs_f64()
}

/// Runs E2 and renders its report.
pub fn e2_simulation_speed() -> String {
    let mut out =
        String::from("E2 — simulation speed across abstraction levels (FIR, samples/sec)\n\n");
    let budget = Duration::from_millis(300);
    let spb = BLOCK as u64;

    let mut sink = 0i64; // prevent the optimizer from deleting the work
    let untimed = throughput(
        |seed| {
            let ys = untimed_fir(&sample_block(seed));
            sink ^= ys[0];
        },
        budget,
        spb,
    );
    let interp_model = InterpFir::new();
    let interp = throughput(
        |seed| {
            let ys = interp_model.run(&sample_block(seed));
            sink ^= ys[0];
        },
        budget,
        spb,
    );
    // Compiled once, like the C model a compiler would build, then run.
    let mut compiled_model = Interp::new_compiled(interp_model.program());
    let compiled = throughput(
        |seed| {
            let ys = run_block(&mut compiled_model, &sample_block(seed));
            sink ^= ys[0];
        },
        budget,
        spb,
    );
    let mut cyc_model = CycleApproxFir::new();
    let cycle = throughput(
        |seed| {
            let ys = cyc_model.run(&sample_block(seed));
            sink ^= ys[0];
        },
        budget,
        spb,
    );
    let mut rtl_model = RtlFir::new();
    let rtl = throughput(
        |seed| {
            let ys = rtl_model.run(&sample_block(seed));
            sink ^= ys[0];
        },
        budget,
        spb,
    );
    std::hint::black_box(sink);

    let rows: Vec<Vec<String>> = [
        ("untimed native (compiled C model)", untimed),
        ("untimed SLM-C (interpreted)", interp),
        ("untimed SLM-C (compiled to dfv-vm)", compiled),
        ("cycle-approx SLM (event kernel)", cycle),
        ("RTL (cycle-accurate netlist)", rtl),
    ]
    .iter()
    .map(|(name, s)| {
        vec![
            name.to_string(),
            format!("{s:.0}"),
            format!("{:.1}x", s / rtl),
        ]
    })
    .collect();
    out.push_str(&render_table(&["model", "samples/sec", "vs RTL"], &rows));
    out.push_str(&format!(
        "\nshape: the paper claims 10x-1000x; measured here the untimed native \
         model runs {:.0}x\nfaster than RTL; SLM-C compiled to dfv-vm runs at {:.1}x RTL \
         ({:.0}x the interpreted SLM-C);\nthe cycle-approximate event-kernel SLM \
         runs at {:.1}x RTL.\n",
        untimed / rtl,
        compiled / rtl,
        compiled / interp,
        cycle / rtl
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untimed_is_much_faster_than_rtl() {
        // A cheap inline version of the measurement with tiny budgets.
        let budget = Duration::from_millis(40);
        let mut sink = 0i64;
        let untimed = throughput(
            |seed| {
                sink ^= untimed_fir(&sample_block(seed))[0];
            },
            budget,
            BLOCK as u64,
        );
        let mut rtl_model = RtlFir::new();
        let rtl = throughput(
            |seed| {
                sink ^= rtl_model.run(&sample_block(seed))[0];
            },
            budget,
            BLOCK as u64,
        );
        std::hint::black_box(sink);
        assert!(
            untimed > rtl * 10.0,
            "untimed {untimed:.0} must be >=10x RTL {rtl:.0}"
        );
    }
}
