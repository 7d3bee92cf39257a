//! Standalone benchmark runner (no external harness).
//!
//! Usage:
//! ```text
//! cargo run --release -p dfv-bench --bin bench -- sim
//! cargo run --release -p dfv-bench --bin bench -- sim --smoke
//! cargo run --release -p dfv-bench --bin bench -- sim --out BENCH_sim.json --canonical /tmp/c.json
//! cargo run --release -p dfv-bench --bin bench -- sec
//! cargo run --release -p dfv-bench --bin bench -- sec --smoke --canonical /tmp/c.json
//! cargo run --release -p dfv-bench --bin bench -- sat
//! ```
//!
//! The `sim` subcommand runs the deterministic simulator workload sweep
//! (FIR, convolution, memory system) and writes the full report —
//! measured wall-clock included — to `BENCH_sim.json` (override with
//! `--out`). Both scalar engines run — the register-bytecode VM and the
//! full-reevaluation reference oracle, whose output hash the VM's is
//! asserted against — followed by the 64-lane batched campaign sweep
//! (64 seeded streams per workload: 64 scalar simulators vs one
//! `LaneSim`), whose `sim_batch.*` counters land in the same report.
//! With `--canonical PATH` it additionally writes the timing-free
//! canonical JSON, which is byte-identical across runs and is what CI
//! diffs. `--smoke` shrinks the cycle counts for fast gating runs.
//!
//! The `sec` subcommand runs the SAT-sweeping miter sweep: every SEC
//! workload checked sweep-off and sweep-on with verdict and
//! counterexample-location parity asserted inside the harness, written
//! to `BENCH_sec.json`. Same `--smoke`/`--out`/`--canonical` contract.
//!
//! The `sat` subcommand runs the CDCL solver alone on pigeonhole, random
//! 3-SAT and incremental-assumption instances, written to
//! `BENCH_sat.json`: full search counters per instance (canonical) and
//! best-of-5 wall-clock (timing). Same contract.

use dfv_bench::{satbench, secbench, simbench};
use dfv_obs::RunReport;

/// Cycles per workload for a real measurement run.
const FULL_CYCLES: u64 = 20_000;
/// Cycles per workload in `--smoke` mode (CI gate).
const SMOKE_CYCLES: u64 = 500;
/// Cycles per stream in the batched sweep's full mode — the scalar side
/// runs 64 streams per workload, so this keeps a full run's wall-clock
/// comparable to the single-stream sweep's.
const FULL_BATCH_CYCLES: u64 = 2_000;
/// Cycles per stream in the batched sweep's `--smoke` mode.
const SMOKE_BATCH_CYCLES: u64 = 120;

fn usage() -> ! {
    eprintln!("usage: bench sim|sec|sat [--smoke] [--out PATH] [--canonical PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sim") => run_report(&args[1..], "BENCH_sim.json", |smoke| {
            let rep = if smoke {
                simbench::sim_bench_report(SMOKE_CYCLES, SMOKE_BATCH_CYCLES)
            } else {
                simbench::sim_bench_report(FULL_CYCLES, FULL_BATCH_CYCLES)
            };
            print!("{}", simbench::render_sim_bench(&rep));
            print!("\n{}", simbench::render_sim_batch(&rep));
            rep
        }),
        Some("sec") => run_report(&args[1..], "BENCH_sec.json", |smoke| {
            let rep = secbench::sec_bench_report(smoke);
            print!("{}", secbench::render_sec_bench(&rep));
            rep
        }),
        Some("sat") => run_report(&args[1..], "BENCH_sat.json", |smoke| {
            let rep = satbench::sat_bench_report(smoke);
            print!("{}", satbench::render_sat_bench(&rep));
            rep
        }),
        _ => usage(),
    }
}

/// The shared runner of the report subcommands: parses `--smoke`,
/// `--out` and `--canonical`, runs the sweep and writes its reports.
fn run_report(args: &[String], default_out: &str, sweep: impl FnOnce(bool) -> RunReport) {
    let mut smoke = false;
    let mut out_path = String::from(default_out);
    let mut canonical_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--canonical" => canonical_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let rep = sweep(smoke);
    std::fs::write(&out_path, rep.full_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nfull report (with timing) written to {out_path}");
    if let Some(p) = canonical_path {
        std::fs::write(&p, rep.canonical_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(1);
        });
        println!("canonical report (deterministic) written to {p}");
    }
}
