//! E17 — the SAT-sweeping miter front-end: word-level rewriting plus
//! simulation-guided fraiging before CNF, measured sweep-on versus
//! sweep-off with verdict parity gated per workload.
//!
//! Two halves, one report:
//!
//! * **Workload sweep** — the full `bench sec` miter set
//!   ([`crate::secbench::sec_bench_report`]): commuted multipliers, a
//!   multiply-accumulate, reassociated adders, an FMA mantissa slice, the
//!   memory-system fast bank, and a seeded-bug falsification. Each
//!   workload is checked both ways; the verdicts and counterexample
//!   mismatch locations are asserted identical before any number lands.
//! * **The former cliff** — commuted multiplier miters at widths up to the
//!   paper-scale 16 bits. The unswept path once exhausted any budget here;
//!   the bit-blaster's canonical multiplier operand order now gives both
//!   sides the same gates, so sweep-off (under a hard conflict budget)
//!   and sweep-on both prove each miter with zero conflicts. The gate is
//!   that both prove; the two may never return contradictory
//!   Equivalent/NotEquivalent verdicts.
//!
//! Wall-clock lives only in the report's timing section; every counter is
//! a pure function of the fixed workloads.

use dfv_obs::{Json, RunReport};
use dfv_sec::{check_equivalence_with, Budget, CheckOptions, EquivOutcome};

use crate::render_table;
use crate::secbench;

/// Conflict budget for the unswept side of the cliff table — far below
/// what independently ordered multipliers would want.
const CLIFF_CONFLICT_BUDGET: u64 = 20_000;

/// Multiplier widths for the cliff table. With independent operand
/// orders, width 8 cost the raw path ~200k conflicts; 16 is the
/// paper-scale datapath.
const CLIFF_WIDTHS: [u32; 3] = [8, 12, 16];

/// Runs E17 and reduces it to a [`RunReport`].
///
/// # Panics
///
/// Panics if sweeping changes any workload's verdict or counterexample
/// locations (the workload sweep), if a cliff miter fails to prove on
/// either path, or if a cliff pair returns contradictory verdicts.
pub fn e17_report() -> RunReport {
    let mut rep = secbench::sec_bench_report(false);

    for &w in &CLIFF_WIDTHS {
        let (slm, rtl, spec) = secbench::mul_pair(w, false);
        let mut opts =
            CheckOptions::with_budget(Budget::unlimited().with_conflicts(CLIFF_CONFLICT_BUDGET));
        opts.fallback_transactions = 0;
        let off = rep.phase(format!("cliff.mul{w}.off"), || {
            check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap()
        });
        let mut swept = opts;
        swept.sweep = dfv_sec::SweepOptions::on();
        let on = rep.phase(format!("cliff.mul{w}.on"), || {
            check_equivalence_with(&slm, &rtl, &spec, &swept).unwrap()
        });
        // Sweeping may only *rescue* proofs, never flip one. A
        // contradiction here would be a soundness bug.
        let contradiction = matches!(
            (&off.outcome, &on.outcome),
            (EquivOutcome::Equivalent, EquivOutcome::NotEquivalent(_))
                | (EquivOutcome::NotEquivalent(_), EquivOutcome::Equivalent)
        );
        assert!(
            !contradiction,
            "mul{w}: contradictory verdicts off={:?} on={:?}",
            off.outcome, on.outcome
        );
        for (tag, r) in [("unswept", &off), ("swept", &on)] {
            assert!(
                r.outcome.is_equivalent(),
                "mul{w}: {tag} commutativity miter must prove, got {:?}",
                r.outcome
            );
        }
        let code = |o: &EquivOutcome| match o {
            EquivOutcome::Equivalent => 0u64,
            EquivOutcome::NotEquivalent(_) => 1,
            EquivOutcome::Inconclusive { .. } => 2,
        };
        rep.set_counter(format!("cliff.mul{w}.off.verdict"), code(&off.outcome));
        rep.set_counter(format!("cliff.mul{w}.on.verdict"), code(&on.outcome));
        rep.set_counter(
            format!("cliff.mul{w}.off.conflicts"),
            off.solver_stats.conflicts,
        );
        rep.set_counter(
            format!("cliff.mul{w}.on.conflicts"),
            on.solver_stats.conflicts,
        );
    }
    rep.set_value("cliff_conflict_budget", Json::UInt(CLIFF_CONFLICT_BUDGET));
    rep
}

/// Runs E17 and renders both tables.
pub fn e17_sat_sweeping() -> String {
    let rep = e17_report();
    let mut out = String::from(
        "E17 — SAT-sweeping miter front-end: word-level rewriting + simulation-guided\nfraiging before CNF, verdict parity gated per workload\n\n",
    );
    out.push_str(&secbench::render_sec_bench(&rep));

    let mut rows = Vec::new();
    for &w in &CLIFF_WIDTHS {
        let verdict = |v: u64| match v {
            0 => "equivalent",
            1 => "not-equiv",
            _ => "inconclusive",
        };
        let (mut off_us, mut on_us) = (0u128, 0u128);
        for p in rep.phases() {
            if p.name == format!("cliff.mul{w}.off") {
                off_us += p.wall.as_micros();
            } else if p.name == format!("cliff.mul{w}.on") {
                on_us += p.wall.as_micros();
            }
        }
        rows.push(vec![
            format!("mul{w}_comm"),
            verdict(rep.counter(&format!("cliff.mul{w}.off.verdict"))).into(),
            rep.counter(&format!("cliff.mul{w}.off.conflicts"))
                .to_string(),
            format!("{off_us}"),
            verdict(rep.counter(&format!("cliff.mul{w}.on.verdict"))).into(),
            rep.counter(&format!("cliff.mul{w}.on.conflicts"))
                .to_string(),
            format!("{on_us}"),
        ]);
    }
    out.push_str(&format!(
        "\nthe former cliff: commuted multiplier miters, sweep-off capped at {CLIFF_CONFLICT_BUDGET} conflicts\n\n"
    ));
    out.push_str(&render_table(
        &[
            "miter",
            "off verdict",
            "off conflicts",
            "off us",
            "on verdict",
            "on conflicts",
            "on us",
        ],
        &rows,
    ));
    out.push_str(
        "\nthe bit-blaster orders multiplier operands canonically, so a*b and b*a share\ntheir gates and both paths prove every width with zero solver conflicts\n(sweep-off once exhausted its budget here). Contradictory verdicts are\nasserted impossible before this table is printed.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A debug-build-sized slice of the cliff: one width, a small
    /// budget. The full table (all widths, 20k-conflict budget, the
    /// whole workload sweep) runs in release via `experiments -- e17`,
    /// which `scripts/check.sh` gates on.
    #[test]
    fn both_paths_close_the_multiplier_cliff() {
        let (slm, rtl, spec) = secbench::mul_pair(8, false);
        let mut opts = CheckOptions::with_budget(Budget::unlimited().with_conflicts(500));
        opts.fallback_transactions = 0;
        let off = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert!(off.outcome.is_equivalent(), "{:?}", off.outcome);
        assert_eq!(off.solver_stats.conflicts, 0);
        opts.sweep = dfv_sec::SweepOptions::on();
        let on = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert!(on.outcome.is_equivalent(), "{:?}", on.outcome);
        assert_eq!(on.solver_stats.conflicts, 0);
    }
}
