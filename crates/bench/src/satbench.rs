//! The CDCL micro-benchmark behind `bench sat`: the `dfv-sat` solver on
//! its own, on classic instances — pigeonhole (UNSAT, exponential for
//! resolution), uniform random 3-SAT at the phase transition, and a chain
//! of single-literal assumption calls on one incremental solver, the
//! shape the SAT sweeper's merge proofs and BMC's per-depth checks use.
//!
//! The counters (conflicts, decisions, propagations, restarts,
//! reductions, learnt clauses, verdict) are a pure function of the
//! instances, so the canonical JSON reproduces byte-for-byte and pins the
//! search: a change to the solver's data structures that leaves them
//! untouched provably did not change what the solver does, only how fast
//! it does it. Wall-clock lives only in the timing section.

use dfv_bits::SplitMix64;
use dfv_obs::{Json, RunReport};
use dfv_sat::{Lit, SolveResult, Solver, SolverStats, Var};

/// Wall-clock repetitions per instance (best-of).
const TIMING_REPS: usize = 5;

/// `n + 1` pigeons into `n` holes.
#[allow(clippy::needless_range_loop)] // j indexes two rows at once
fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..n + 1).map(|_| s.new_vars(n)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    for j in 0..n {
        for i1 in 0..n + 1 {
            for i2 in (i1 + 1)..n + 1 {
                s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
            }
        }
    }
    s
}

/// Uniform random 3-SAT with `vars` variables at clause ratio 4.26.
fn random_3sat(vars: usize, seed: u64) -> Solver {
    let mut rng = SplitMix64::new(seed);
    let mut s = Solver::new();
    let vs = s.new_vars(vars);
    for _ in 0..vars * 426 / 100 {
        let c: Vec<Lit> = (0..3)
            .map(|_| vs[rng.below(vars as u64) as usize].lit(rng.next_bool()))
            .collect();
        s.add_clause(&c);
    }
    s
}

/// Runs one instance: builds the solver, makes an incremental instance's
/// 32 single-assumption calls, then solves plainly. Returns the final
/// verdict and the cumulative statistics.
fn run(inst: &Instance) -> (SolveResult, SolverStats) {
    let mut s = (inst.build)(inst.size);
    if inst.incremental {
        let mut rng = SplitMix64::new(0xA55E);
        let n = s.num_vars() as u64;
        for _ in 0..32 {
            let a = Var::from_index(rng.below(n) as usize).lit(rng.next_bool());
            s.solve_with(&[a]);
        }
    }
    (s.solve(), s.stats())
}

struct Instance {
    name: String,
    build: fn(usize) -> Solver,
    size: usize,
    incremental: bool,
}

fn instances(smoke: bool) -> Vec<Instance> {
    let holes: &[usize] = if smoke { &[5, 6] } else { &[6, 7, 8] };
    let vars: &[usize] = if smoke { &[60, 90] } else { &[90, 120, 150] };
    let mut out = Vec::new();
    for &n in holes {
        out.push(Instance {
            name: format!("php{n}"),
            build: pigeonhole,
            size: n,
            incremental: false,
        });
    }
    for &v in vars {
        out.push(Instance {
            name: format!("3sat_v{v}"),
            build: |v| random_3sat(v, v as u64 * 17),
            size: v,
            incremental: false,
        });
    }
    let v = if smoke { 80 } else { 120 };
    out.push(Instance {
        name: format!("assume_v{v}"),
        build: |v| random_3sat(v, 0xB0B),
        size: v,
        incremental: true,
    });
    out
}

fn verdict_code(r: SolveResult) -> u64 {
    match r {
        SolveResult::Sat => 0,
        SolveResult::Unsat => 1,
        SolveResult::Unknown(_) => 2,
    }
}

/// Runs every instance `TIMING_REPS` times and reduces the sweep to a
/// [`RunReport`]: deterministic counters per instance, best-of wall-clock
/// per instance in the timing section.
///
/// # Panics
///
/// Panics if two repetitions of one instance disagree on any counter —
/// the solver is deterministic, so that would be a bug, not noise.
pub fn sat_bench_report(smoke: bool) -> RunReport {
    let mut rep = RunReport::new("sat_solver");
    rep.set_value("smoke", Json::Bool(smoke));
    for inst in instances(smoke) {
        let mut best = std::time::Duration::MAX;
        let mut kept: Option<(SolveResult, SolverStats)> = None;
        for _ in 0..TIMING_REPS {
            let t = std::time::Instant::now();
            let got = run(&inst);
            best = best.min(t.elapsed());
            let first = *kept.get_or_insert(got);
            assert_eq!(first, got, "{}: nondeterministic search", inst.name);
        }
        let (r, s) = kept.expect("at least one timing rep");
        rep.push_phase(inst.name.clone(), best);
        let n = &inst.name;
        rep.set_counter(format!("sat.{n}.verdict"), verdict_code(r));
        rep.set_counter(format!("sat.{n}.conflicts"), s.conflicts);
        rep.set_counter(format!("sat.{n}.decisions"), s.decisions);
        rep.set_counter(format!("sat.{n}.propagations"), s.propagations);
        rep.set_counter(format!("sat.{n}.restarts"), s.restarts);
        rep.set_counter(format!("sat.{n}.reductions"), s.reductions);
        rep.set_counter(format!("sat.{n}.learnts"), s.learnts as u64);
    }
    rep
}

/// Renders the sweep as a table: one row per instance with its search
/// counters and best wall-clock.
pub fn render_sat_bench(rep: &RunReport) -> String {
    let mut out = String::from("CDCL solver micro-benchmark (dfv-sat), best of 5\n\n");
    let mut rows = Vec::new();
    for p in rep.phases() {
        let n = &p.name;
        let c = |k: &str| rep.counter(&format!("sat.{n}.{k}"));
        let us = p.wall.as_micros();
        let props = c("propagations");
        rows.push(vec![
            n.clone(),
            ["sat", "unsat", "unknown"][c("verdict") as usize].to_string(),
            c("conflicts").to_string(),
            props.to_string(),
            c("reductions").to_string(),
            us.to_string(),
            format!("{:.0}", us as f64 * 1000.0 / props.max(1) as f64),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "instance",
            "verdict",
            "conflicts",
            "propagations",
            "reductions",
            "us",
            "ns/prop",
        ],
        &rows,
    ));
    out.push_str(
        "\ncounters are deterministic and form the canonical JSON payload; us and ns/prop\nare measured wall-clock and live only in the full JSON's timing section.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_covers_every_verdict() {
        let a = sat_bench_report(true);
        let b = sat_bench_report(true);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert!(!a.canonical_json().contains("wall_us"));
        assert_eq!(a.counter("sat.php5.verdict"), 1);
        assert!(a.counter("sat.php6.conflicts") > a.counter("sat.php5.conflicts"));
    }
}
