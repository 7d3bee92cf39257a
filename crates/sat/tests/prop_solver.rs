//! Cross-validation of the CDCL solver against exhaustive enumeration on
//! random small formulas, including under assumptions, plus a pinned
//! search trace: the exact [`SolverStats`] of a fixed set of seeded
//! solves.
//!
//! Uses the repo's own `SplitMix64` so the suite runs offline; the seeds
//! are fixed, making every run reproducible.
//!
//! The pinned trace is the regression signal for changes that must not
//! move the search (storage layout, propagation loop, conflict
//! analysis): conflicts, decisions, propagations, restarts, learnt-clause
//! count and reductions must all come out exactly as recorded. A change
//! that *means* to alter the search (a new heuristic) pastes the table
//! the failing assertion prints into [`PINNED`] and says so.

use dfv_bits::SplitMix64;
use dfv_sat::{Budget, Cnf, Lit, SolveResult, Solver, SolverStats, Var};

/// A random formula: 2..=`max_vars` variables, 1..=`max_clauses` clauses
/// of 1..=4 literals each (repeats and tautologies allowed — the solver
/// must cope with both).
fn random_cnf(rng: &mut SplitMix64, max_vars: u64, max_clauses: u64) -> Cnf {
    let nv = rng.range_u64(2, max_vars) as usize;
    let nc = rng.range_u64(1, max_clauses);
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = (0..nv).map(|_| cnf.new_var()).collect();
    for _ in 0..nc {
        let len = rng.range_u64(1, 4);
        let clause: Vec<Lit> = (0..len)
            .map(|_| vars[rng.below(nv as u64) as usize].lit(rng.next_bool()))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

fn load(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    s.new_vars(cnf.num_vars());
    for c in cnf.clauses() {
        s.add_clause(c);
    }
    s
}

#[test]
fn cdcl_agrees_with_brute_force() {
    let mut rng = SplitMix64::new(0x5A7_0001);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng, 12, 60);
        let expect = cnf.brute_force_sat().unwrap();
        let (result, solver) = cnf.solve();
        assert_eq!(result == SolveResult::Sat, expect, "case {case}");
        if result == SolveResult::Sat {
            let assignment: Vec<bool> = (0..cnf.num_vars())
                .map(|i| solver.value(Var::from_index(i)).unwrap_or(false))
                .collect();
            assert!(
                cnf.eval(&assignment),
                "case {case}: returned model does not satisfy the formula"
            );
        }
    }
}

#[test]
fn assumptions_equal_added_units() {
    let mut rng = SplitMix64::new(0x5A7_0002);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng, 10, 40);
        let a0 = Var::from_index(0).lit(rng.next_bool());
        let a1 = Var::from_index(1).lit(rng.next_bool());
        let mut s1 = load(&cnf);
        let with_assumps = s1.solve_with(&[a0, a1]);
        let mut s2 = load(&cnf);
        s2.add_clause(&[a0]);
        s2.add_clause(&[a1]);
        let with_units = s2.solve();
        assert_eq!(with_assumps, with_units, "case {case}");
        // The solver that ran under assumptions must still agree with
        // brute force afterwards (no state corruption).
        let plain = s1.solve();
        assert_eq!(
            plain == SolveResult::Sat,
            cnf.brute_force_sat().unwrap(),
            "case {case}: state corrupted by the assumption call"
        );
    }
}

/// Several assumptions per call, checked against brute force with the
/// assumptions added as units. Each assumption gets its own decision
/// level and is propagated before the next is placed; placing them all
/// at once let a conflict clause carry no literal of the current level,
/// which conflict analysis cannot resolve.
#[test]
fn many_assumptions_agree_with_brute_force() {
    let mut rng = SplitMix64::new(0x5A7_0004);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng, 10, 40);
        let count = rng.range_u64(2, 6);
        let assumptions: Vec<Lit> = (0..count)
            .map(|_| {
                Var::from_index(rng.below(cnf.num_vars() as u64) as usize).lit(rng.next_bool())
            })
            .collect();
        let mut with_units = cnf.clone();
        for &a in &assumptions {
            with_units.add_clause([a]);
        }
        let expect = with_units.brute_force_sat().unwrap();
        let mut s = load(&cnf);
        let r = s.solve_with(&assumptions);
        assert_eq!(r == SolveResult::Sat, expect, "case {case}");
        if r == SolveResult::Sat {
            for &a in &assumptions {
                assert_eq!(
                    s.lit_value(a),
                    Some(true),
                    "case {case}: assumption dropped"
                );
            }
        }
        assert_eq!(
            s.solve() == SolveResult::Sat,
            cnf.brute_force_sat().unwrap(),
            "case {case}: state corrupted by the assumption call"
        );
    }
}

#[test]
fn repeated_solves_are_stable() {
    let mut rng = SplitMix64::new(0x5A7_0003);
    for case in 0..100 {
        let cnf = random_cnf(&mut rng, 10, 40);
        let (first, mut solver) = cnf.solve();
        for _ in 0..3 {
            assert_eq!(solver.solve(), first, "case {case}");
        }
    }
}

/// A pigeonhole instance (`n+1` pigeons into `n` holes): UNSAT, and its
/// resolution proofs grow exponentially in `n`.
#[allow(clippy::needless_range_loop)] // j indexes two rows at once
fn pigeonhole(s: &mut Solver, n: usize) {
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
}

/// Pigeonhole 6→5 must be UNSAT, and the solver must survive
/// clause-database reductions while proving it.
#[test]
fn pigeonhole_6_into_5() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 5);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// Uniform random k-SAT with `vars` variables and `clauses` clauses.
fn random_ksat(seed: u64, vars: usize, clauses: usize, k: usize) -> Solver {
    let mut rng = SplitMix64::new(seed);
    let mut s = Solver::new();
    let vs = s.new_vars(vars);
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..k)
            .map(|_| vs[rng.below(vars as u64) as usize].lit(rng.next_bool()))
            .collect();
        s.add_clause(&c);
    }
    s
}

/// One solver call of the pinned trace: its result and the solver's
/// cumulative statistics right after it.
fn record(trace: &mut Vec<(String, SolverStats)>, name: &str, s: &Solver, r: SolveResult) {
    let stats = s.stats();
    let SolverStats {
        conflicts,
        decisions,
        propagations,
        restarts,
        learnts,
        reductions,
    } = stats;
    let line = format!(
        "{name} {r:?} conflicts={conflicts} decisions={decisions} propagations={propagations} \
         restarts={restarts} learnts={learnts} reductions={reductions} clauses={}",
        s.num_clauses()
    );
    trace.push((line, stats));
}

/// The pinned workload: plain solves of random 3-SAT near the phase
/// transition (restarts and learnt-clause reductions both fire), a chain
/// of incremental assumption calls on one solver, and conflict- and
/// propagation-budgeted calls resumed to a definitive answer.
fn pinned_trace() -> Vec<(String, SolverStats)> {
    let mut trace = Vec::new();
    for seed in 1..=6u64 {
        // Clause/variable ratios 4.0..4.5 straddle the SAT/UNSAT threshold.
        let clauses = 360 + 9 * seed as usize;
        let mut s = random_ksat(seed, 90, clauses, 3);
        let r = s.solve();
        record(&mut trace, &format!("ksat3_v90_c{clauses}_s{seed}"), &s, r);
    }
    let mut s = random_ksat(0xA55, 130, 553, 3);
    let r = s.solve();
    record(&mut trace, "ksat3_v130", &s, r);

    // Incremental: one solver, a sequence of single-literal assumption
    // calls (the shape the sweeper's merge proofs and BMC's per-depth
    // checks use), then a plain solve — learnt clauses carry across every
    // call.
    let mut s = random_ksat(0xB0B, 80, 300, 3);
    let mut rng = SplitMix64::new(0xC0FFEE);
    for call in 0..12 {
        let a = Var::from_index(rng.below(80) as usize).lit(rng.next_bool());
        let r = s.solve_with(&[a]);
        record(&mut trace, &format!("assume_{call}"), &s, r);
    }
    let r = s.solve();
    record(&mut trace, "assume_plain", &s, r);

    // Budgeted: exhaust, then resume from the stronger database.
    let mut s = Solver::new();
    pigeonhole(&mut s, 7);
    let r = s.solve_budgeted(&[], &Budget::unlimited().with_conflicts(700));
    record(&mut trace, "php7_conflicts_700", &s, r);
    let r = s.solve_budgeted(&[], &Budget::unlimited().with_propagations(5000));
    record(&mut trace, "php7_props_5000", &s, r);
    let r = s.solve();
    record(&mut trace, "php7_resume", &s, r);
    trace
}

/// The trace recorded before the solver's clause storage, propagation
/// loop and conflict analysis were rewritten for speed (flat clause
/// arena, in-place watch compaction, clone-free analysis). The rewrite
/// had to reproduce it exactly.
#[rustfmt::skip]
const PINNED: &[&str] = &[
    "ksat3_v90_c369_s1 Unsat conflicts=189 decisions=232 propagations=4117 restarts=2 learnts=182 reductions=0 clauses=547",
    "ksat3_v90_c378_s2 Unsat conflicts=216 decisions=268 propagations=4394 restarts=2 learnts=207 reductions=0 clauses=577",
    "ksat3_v90_c387_s3 Unsat conflicts=272 decisions=332 propagations=6175 restarts=3 learnts=266 reductions=0 clauses=648",
    "ksat3_v90_c396_s4 Unsat conflicts=139 decisions=177 propagations=2931 restarts=2 learnts=133 reductions=0 clauses=524",
    "ksat3_v90_c405_s5 Sat conflicts=103 decisions=140 propagations=2678 restarts=1 learnts=103 reductions=0 clauses=503",
    "ksat3_v90_c414_s6 Unsat conflicts=167 decisions=211 propagations=3452 restarts=2 learnts=161 reductions=0 clauses=567",
    "ksat3_v130 Unsat conflicts=969 decisions=1160 propagations=27585 restarts=9 learnts=963 reductions=0 clauses=1514",
    "assume_0 Sat conflicts=24 decisions=44 propagations=620 restarts=0 learnts=24 reductions=0 clauses=320",
    "assume_1 Unsat conflicts=88 decisions=117 propagations=2023 restarts=1 learnts=87 reductions=0 clauses=383",
    "assume_2 Unsat conflicts=187 decisions=236 propagations=4039 restarts=2 learnts=185 reductions=0 clauses=481",
    "assume_3 Sat conflicts=191 decisions=248 propagations=4236 restarts=2 learnts=189 reductions=0 clauses=485",
    "assume_4 Sat conflicts=191 decisions=257 propagations=4314 restarts=2 learnts=189 reductions=0 clauses=485",
    "assume_5 Sat conflicts=191 decisions=266 propagations=4392 restarts=2 learnts=189 reductions=0 clauses=485",
    "assume_6 Sat conflicts=202 decisions=283 propagations=4825 restarts=2 learnts=200 reductions=0 clauses=496",
    "assume_7 Sat conflicts=202 decisions=294 propagations=4903 restarts=2 learnts=200 reductions=0 clauses=496",
    "assume_8 Unsat conflicts=232 decisions=324 propagations=5630 restarts=2 learnts=229 reductions=0 clauses=525",
    "assume_9 Sat conflicts=234 decisions=335 propagations=5739 restarts=2 learnts=231 reductions=0 clauses=527",
    "assume_10 Sat conflicts=234 decisions=343 propagations=5816 restarts=2 learnts=231 reductions=0 clauses=527",
    "assume_11 Sat conflicts=234 decisions=351 propagations=5893 restarts=2 learnts=231 reductions=0 clauses=527",
    "assume_plain Sat conflicts=234 decisions=360 propagations=5970 restarts=2 learnts=231 reductions=0 clauses=527",
    "php7_conflicts_700 Unknown(Conflicts) conflicts=700 decisions=954 propagations=9815 restarts=6 learnts=700 reductions=0 clauses=904",
    "php7_props_5000 Unknown(Propagations) conflicts=1050 decisions=1422 propagations=14815 restarts=10 learnts=1050 reductions=0 clauses=1254",
    "php7_resume Unsat conflicts=5638 decisions=6923 propagations=78536 restarts=40 learnts=2331 reductions=3 clauses=2535",
];

#[test]
fn search_trace_is_pinned() {
    let trace = pinned_trace();
    let lines: Vec<&str> = trace.iter().map(|(l, _)| l.as_str()).collect();
    let table: String = lines.iter().map(|l| format!("    \"{l}\",\n")).collect();
    assert_eq!(
        lines, PINNED,
        "the CDCL search changed; new trace:\n{table}"
    );
    // The workload must exercise every search mechanism it pins.
    assert!(trace.iter().any(|(_, s)| s.restarts > 0), "no restart");
    assert!(trace.iter().any(|(_, s)| s.reductions > 0), "no reduction");
    for outcome in [
        " Sat ",
        " Unsat ",
        "Unknown(Conflicts)",
        "Unknown(Propagations)",
    ] {
        assert!(lines.iter().any(|l| l.contains(outcome)), "no {outcome}");
    }
}
