//! `dfvbench` — the end-to-end benchmark of the dfv verification stack.
//!
//! ```text
//! cargo run --release --manifest-path dfvbench/Cargo.toml -- \
//!     --workload <sec_cold|incremental_edit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run drives one workload closed-loop from one client thread, with
//! at most one compute thread busy at a time, for `--seconds` of measured
//! time after its set-up. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. See `README.md` beside this file for the workloads, the
//! metrics and what each layer metric predicts.

mod campaign;
mod daemon;
mod gen;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, peak_rss_mb, quantile, reference_kernel_ms, Fnv};
use trace::Tracer;

/// Jobs folded into the output digest: a fixed prefix, so the digest of a
/// seed is the same however many jobs a run completes.
const DIGEST_JOBS: usize = 64;
/// Jobs a run must complete so that ten latency samples lie beyond p90.
const MIN_JOBS: usize = 100;

/// One benchmark workload. The harness times `setup` (several times; the
/// last set-up serves the measurement) and runs `job` closed-loop.
pub trait Workload {
    /// Work done once before set-up and never timed: the reference answers
    /// the correctness gate checks against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// What a user pays once before the first job: generating inputs,
    /// starting and connecting the daemon, warm-up. Replaces any earlier
    /// set-up's state.
    fn setup(&mut self) -> Result<(), String>;

    /// Releases what `setup` started.
    fn teardown(&mut self) {}

    /// An upper bound on jobs, for workloads whose inputs are prepared.
    fn max_jobs(&self) -> Option<usize> {
        None
    }

    /// Runs and checks job `i`, returning its latency in milliseconds from
    /// submission to the checked result. With a tracer, records the job's
    /// spans and counters; with a digest, folds the job's outputs into it.
    fn job(
        &mut self,
        i: usize,
        tr: Option<&mut Tracer>,
        digest: Option<&mut Fnv>,
    ) -> Result<f64, String>;
}

/// A seeded 64-bit mix of two values (SplitMix64's finalizer).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workloads, with the set-up repetitions each one's set-up cost
/// allows within a run.
const WORKLOADS: [(&str, usize); 2] = [("sec_cold", 15), ("incremental_edit", 3)];

/// The per-layer metrics of a traced run: name, unit. Time metrics are
/// self time summed over a job's spans; every metric but the mostly-zero
/// `sec.not_equivalent` (a mean) is the median across traced jobs. Every
/// layer runs on both workloads.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("serve.residual_ms", "ms"),
    ("rtl.netlist_write_ms", "ms"),
    ("rtl.netlist_parse_ms", "ms"),
    ("core.hash_ms", "ms"),
    ("core.store_hit_ratio", "ratio"),
    ("slmir.parse_ms", "ms"),
    ("slmir.lint_ms", "ms"),
    ("slmir.elaborate_ms", "ms"),
    ("sec.check_ms", "ms"),
    ("sec.cnf_vars", "count"),
    ("sec.cnf_clauses", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sec.not_equivalent", "count"),
    ("sec.sweep.candidates", "count"),
    ("sec.sweep.proved", "count"),
    ("sec.sweep.merged_lits", "count"),
    ("rtl.lane_build_ms", "ms"),
    ("rtl.lane_poke_ms", "ms"),
    ("rtl.lane_step_ms", "ms"),
    ("rtl.lane_peek_ms", "ms"),
    ("rtl.lane_node_evals", "count"),
    ("cosim.stimulus_ms", "ms"),
    ("rtl.sim_build_ms", "ms"),
    ("rtl.sim_step_ms", "ms"),
    ("rtl.node_evals", "count"),
    ("slmir.interp_ms", "ms"),
    ("cosim.compare_ms", "ms"),
    ("cosim.mismatches", "count"),
    ("trace.job_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.ref_kernel_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything the run writes lives here, relative to the checkout root.
fn out_dir() -> PathBuf {
    PathBuf::from("dfvbench").join("out")
}

/// The workload `a` names; daemon workloads keep their (empty) state
/// directory at `state`.
fn make(a: &Args, state: PathBuf) -> Box<dyn Workload> {
    match a.workload.as_str() {
        "sec_cold" => Box::new(campaign::SecCold::new(a.seed, state)),
        "incremental_edit" => Box::new(campaign::IncrementalEdit::new(a.seed, state, a.seconds)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The timed closed loop's results.
#[derive(Default)]
struct Loop {
    /// Latencies of the measured jobs: every job of an untraced run, the
    /// traced jobs of a traced one.
    latencies: Vec<f64>,
    /// A traced run's untraced jobs.
    untraced: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    /// Peak resident memory when the `MIN_JOBS`-th job completed.
    rss_mb: Option<f64>,
}

/// Runs jobs until `seconds` pass (or the workload runs out). With a
/// tracer, odd jobs are traced and even ones are not, so the two sets see
/// the same host conditions and their latency difference is the tracing
/// overhead.
fn run_loop(
    w: &mut dyn Workload,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    digest: &mut Fnv,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds && w.max_jobs().is_none_or(|m| i < m) {
        out.attempted += 1;
        let d = (i < DIGEST_JOBS).then_some(&mut *digest);
        let traced = tr.as_deref_mut().filter(|_| i % 2 == 1);
        let res = match traced {
            Some(t) => {
                let res = w.job(i, Some(&mut *t), d);
                t.end_job();
                res
            }
            None => w.job(i, None, d),
        };
        match res {
            Ok(lat) if tr.is_some() && i % 2 == 0 => out.untraced.push(lat),
            Ok(lat) => {
                out.latencies.push(lat);
                if out.latencies.len() == MIN_JOBS {
                    out.rss_mb = Some(peak_rss_mb());
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.failed <= 5 {
                    eprintln!("dfvbench: job {i} failed: {e}");
                }
            }
        }
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn run(a: &Args) -> Result<(), String> {
    let ref_before = reference_kernel_ms();
    let state = out_dir().join(format!("state-{}", std::process::id()));
    let mut w = make(a, state.clone());
    let reps = WORKLOADS
        .iter()
        .find(|(n, _)| *n == a.workload)
        .map(|(_, r)| *r)
        .expect("workload names are checked when parsed");

    w.prepare()?;
    let mut setups = Vec::new();
    for r in 0..reps {
        if r > 0 {
            w.teardown();
        }
        let t = Instant::now();
        w.setup()?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut digest = Fnv::default();
    let mut tracer = Tracer::default();
    let timed = run_loop(
        w.as_mut(),
        a.seconds,
        a.trace.then_some(&mut tracer),
        &mut digest,
    );
    w.teardown();
    let _ = std::fs::remove_dir_all(&state);
    let ref_after = reference_kernel_ms();

    let (attempted, failed) = (timed.attempted, timed.failed);
    let completed = (attempted - failed) as usize;
    if completed < MIN_JOBS {
        eprintln!(
            "dfvbench: only {completed} jobs completed; p90 has fewer than ten samples beyond it"
        );
    }
    println!(
        "workload {} seed {} digest {:016x} over the first {} jobs",
        a.workload,
        a.seed,
        digest.finish(),
        DIGEST_JOBS.min(completed)
    );
    println!(
        "host reference kernel {ref_before:.2} ms before, {ref_after:.2} ms after; setups {:?} s",
        setups
    );

    let p50 = median(&timed.latencies);
    let metrics: Vec<String> = if a.trace {
        let u50 = median(&timed.untraced);
        println!(
            "traced {} jobs, untraced {} jobs",
            timed.latencies.len(),
            timed.untraced.len()
        );
        let spans = out_dir().join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        tracer
            .write_spans(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!(
            "spans of the first {} traced jobs in {}",
            trace::KEEP_JOBS,
            spans.display()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.job_p50_ms" => p50,
                    "trace.untraced_p50_ms" => u50,
                    "trace.overhead_pct" => (p50 / u50 - 1.0) * 100.0,
                    "host.ref_kernel_ms" => median(&[ref_before, ref_after]),
                    "sec.not_equivalent" => tracer.mean_of(name),
                    _ => tracer.median_of(name),
                };
                metric(name, v, unit)
            })
            .collect()
    } else {
        vec![
            metric("setup_s", median(&setups), "s"),
            metric(
                "jobs_per_s",
                timed.latencies.len() as f64 / timed.wall_s,
                "1/s",
            ),
            metric("job_p50_ms", p50, "ms"),
            metric("job_p90_ms", quantile(&timed.latencies, 0.9), "ms"),
            // Read at a fixed job count: the daemon's verdict store grows
            // with every job, so a reading at the end would rise with speed.
            metric(
                "peak_rss_mb",
                timed.rss_mb.unwrap_or_else(peak_rss_mb),
                "MB",
            ),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && completed > 0,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dfvbench: {e}");
            eprintln!("usage: dfvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dfvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark definition at the repository root names exactly the
    /// workloads and per-layer metrics this binary implements.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let def = dfv_obs::parse_json(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            def.get(key)
                .and_then(dfv_obs::Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(dfv_obs::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            names("end_to_end"),
            [
                "setup_s",
                "jobs_per_s",
                "job_p50_ms",
                "job_p90_ms",
                "peak_rss_mb"
            ]
        );
    }

    /// Every workload sets up and runs a few checked jobs, traced and not.
    #[test]
    fn every_workload_runs_clean() {
        let state = std::env::temp_dir().join(format!("dfvbench-test-{}", std::process::id()));
        for (workload, _) in WORKLOADS {
            let args = Args {
                workload: workload.to_string(),
                seed: 9,
                seconds: 0.1,
                trace: false,
            };
            let mut w = make(&args, state.clone());
            w.prepare().expect("prepares");
            w.setup().expect("sets up");
            let mut tr = Tracer::default();
            let mut digest = Fnv::default();
            for i in 0..2 {
                w.job(i, None, Some(&mut digest))
                    .expect("untraced job is correct");
                w.job(i + 2, Some(&mut tr), None)
                    .expect("traced job is correct");
                tr.end_job();
            }
            w.teardown();
            assert_eq!(tr.jobs(), 2, "{workload}");
        }
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn mix_spreads_seeds() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
