//! Bounded model checking of safety properties on the RTL IR.
//!
//! A property is a 1-bit output port that must be 1 on every cycle. BMC
//! unrolls the design `k` cycles from reset with free symbolic inputs and
//! searches for a violating trace — the block-level "did I break an
//! invariant" check that complements transaction equivalence.

use std::time::{Duration, Instant};

use dfv_bits::Bv;
use dfv_obs::{ObsHook, SharedRecorder};
use dfv_rtl::{Module, Simulator};
use dfv_sat::{Budget, ExhaustedReason, SolveResult};

use crate::bitblast::BitBlaster;
use crate::spec::{InitState, SecError};
use crate::unroll::SymbolicSim;
use crate::word::{WordDag, WordId};

/// A violating trace found by [`check_property`].
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyTrace {
    /// Inputs per cycle (named, in port order).
    pub inputs: Vec<Vec<(String, Bv)>>,
    /// The first cycle at which the property output was 0.
    pub violation_cycle: u32,
    /// The property output that failed.
    pub property: String,
}

/// The result of a bounded model check.
#[derive(Debug, Clone, PartialEq)]
pub enum BmcOutcome {
    /// No violation within the bound.
    HoldsUpTo(u32),
    /// A replay-validated violating trace.
    Violated(Box<PropertyTrace>),
    /// The budget ran out partway through the unrolling (only produced by
    /// [`check_property_budgeted`]). The property *is* proven for the first
    /// `holds_up_to` cycles — partial depth is still evidence.
    Inconclusive {
        /// Depth up to which the property is proven to hold.
        holds_up_to: u32,
        /// Which resource ran out.
        reason: ExhaustedReason,
    },
}

/// Result of [`check_property`] with statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BmcReport {
    /// The verdict.
    pub outcome: BmcOutcome,
    /// CNF variables allocated.
    pub cnf_vars: usize,
    /// Wall-clock time.
    pub duration: Duration,
}

/// Bounded-model-checks that the 1-bit output `property` of `module` is 1
/// on every one of the first `bound` cycles from reset, for all inputs.
///
/// # Errors
///
/// Returns [`SecError`] if the output is missing or not 1 bit wide, the
/// module is not flat, or a memory is too large.
pub fn check_property(module: &Module, property: &str, bound: u32) -> Result<BmcReport, SecError> {
    let start = Instant::now();
    validate_property(module, property, bound)?;

    let mut dag = WordDag::new();
    let mut bb = BitBlaster::new();
    let mut sym = SymbolicSim::new(&mut dag, module, InitState::Reset)?;
    let mut input_words: Vec<Vec<WordId>> = Vec::new();
    let mut props: Vec<WordId> = Vec::new();
    for _ in 0..bound {
        let inputs: Vec<WordId> = module.inputs.iter().map(|p| dag.leaf(p.width)).collect();
        let cyc = sym.step(&mut dag, &inputs);
        props.push(cyc.output(module, property));
        input_words.push(inputs);
    }
    let mut any = bb.false_lit();
    for &p in &props {
        let v = !bb.lower(&dag, p)[0];
        any = bb.or_gate(any, v);
    }
    bb.assert_lit(any);

    let cnf_vars = bb.solver().num_vars();
    let outcome = match bb.solve(&[], &Budget::unlimited()) {
        SolveResult::Unsat => BmcOutcome::HoldsUpTo(bound),
        SolveResult::Sat => BmcOutcome::Violated(Box::new(extract_trace(
            &bb,
            &dag,
            module,
            property,
            &input_words,
        ))),
        // `solve()` is unbudgeted and can never exhaust.
        SolveResult::Unknown(_) => unreachable!("unbudgeted solve returned Unknown"),
    };
    Ok(BmcReport {
        outcome,
        cnf_vars,
        duration: start.elapsed(),
    })
}

/// Like [`check_property`], but solves *incrementally, depth by depth*
/// under a resource [`Budget`]: each depth gets one budgeted solve (learnt
/// clauses carry over), and when the budget runs out the report says how
/// deep the property *was* proven —
/// [`BmcOutcome::Inconclusive`]`{ holds_up_to, .. }` — instead of
/// discarding the whole run. The budget's conflict/propagation caps apply
/// per depth; its wall-clock limits bound the *whole unrolling* (a relative
/// `timeout` is converted to an absolute deadline at entry — otherwise each
/// of `bound` depths would get its own fresh timeout), so a 1 ms deadline
/// returns in bounded time regardless of `bound`.
///
/// A side benefit of per-depth solving: the returned trace always violates
/// at the *shallowest* reachable depth.
///
/// # Errors
///
/// As [`check_property`].
pub fn check_property_budgeted(
    module: &Module,
    property: &str,
    bound: u32,
    budget: &Budget,
) -> Result<BmcReport, SecError> {
    check_property_budgeted_inner(module, property, bound, budget, &ObsHook::none())
}

/// Like [`check_property_budgeted`], but streams progress into `rec`:
/// the whole unrolling runs under a `sec.bmc` span, each depth emits a
/// `sec.depth` event (depth, CNF size so far, per-depth verdict) and
/// bumps the `sec.depths` counter, the final CNF size lands in
/// `sec.cnf_vars`, and the verdict is recorded as a `sec.outcome` event.
/// The same recorder is forwarded into the underlying SAT solver, so
/// `sat.*` counters accumulate alongside.
///
/// # Errors
///
/// As [`check_property`].
pub fn check_property_observed(
    module: &Module,
    property: &str,
    bound: u32,
    budget: &Budget,
    rec: SharedRecorder,
) -> Result<BmcReport, SecError> {
    check_property_budgeted_inner(module, property, bound, budget, &ObsHook::attached(rec))
}

fn check_property_budgeted_inner(
    module: &Module,
    property: &str,
    bound: u32,
    budget: &Budget,
    obs: &ObsHook,
) -> Result<BmcReport, SecError> {
    let start = Instant::now();
    validate_property(module, property, bound)?;
    let mut budget = *budget;
    if let Some(t) = budget.timeout.take() {
        let d = start + t;
        budget.deadline = Some(budget.deadline.map_or(d, |x| x.min(d)));
    }

    obs.begin_span("sec.bmc");
    let mut dag = WordDag::new();
    let mut bb = BitBlaster::new();
    if let Some(rec) = obs.recorder() {
        bb.set_recorder(rec);
    }
    let mut sym = match SymbolicSim::new(&mut dag, module, InitState::Reset) {
        Ok(s) => s,
        Err(e) => {
            obs.end_span("sec.bmc");
            return Err(e);
        }
    };
    let mut input_words: Vec<Vec<WordId>> = Vec::new();
    let mut outcome = None;
    let mut holds_up_to = 0u32;
    for depth in 0..bound {
        let inputs: Vec<WordId> = module.inputs.iter().map(|p| dag.leaf(p.width)).collect();
        let cyc = sym.step(&mut dag, &inputs);
        let prop = cyc.output(module, property);
        let violated = !bb.lower(&dag, prop)[0];
        input_words.push(inputs);
        let result = bb.solve(&[violated], &budget);
        obs.add("sec.depths", 1);
        let vars_now = bb.solver().num_vars();
        obs.event("sec.depth", || {
            let verdict = match &result {
                SolveResult::Unsat => "holds",
                SolveResult::Sat => "violated",
                SolveResult::Unknown(_) => "exhausted",
            };
            format!("depth={depth} cnf_vars={vars_now} {verdict}")
        });
        match result {
            SolveResult::Unsat => holds_up_to += 1,
            SolveResult::Sat => {
                outcome = Some(BmcOutcome::Violated(Box::new(extract_trace(
                    &bb,
                    &dag,
                    module,
                    property,
                    &input_words,
                ))));
                break;
            }
            SolveResult::Unknown(reason) => {
                outcome = Some(BmcOutcome::Inconclusive {
                    holds_up_to,
                    reason,
                });
                break;
            }
        }
    }
    let outcome = outcome.unwrap_or(BmcOutcome::HoldsUpTo(bound));
    let cnf_vars = bb.solver().num_vars();
    obs.add("sec.cnf_vars", cnf_vars as u64);
    obs.event("sec.outcome", || match &outcome {
        BmcOutcome::HoldsUpTo(k) => format!("holds_up_to {k}"),
        BmcOutcome::Violated(t) => format!("violated at cycle {}", t.violation_cycle),
        BmcOutcome::Inconclusive {
            holds_up_to,
            reason,
        } => format!("inconclusive ({reason:?}) after depth {holds_up_to}"),
    });
    obs.end_span("sec.bmc");
    Ok(BmcReport {
        outcome,
        cnf_vars,
        duration: start.elapsed(),
    })
}

fn validate_property(module: &Module, property: &str, bound: u32) -> Result<(), SecError> {
    dfv_rtl::check_module(module)?;
    let pidx = module
        .output_index(property)
        .ok_or_else(|| SecError::Spec(format!("no output {property:?}")))?;
    if module.outputs[pidx].width != 1 {
        return Err(SecError::Spec(format!(
            "property {property:?} must be 1 bit"
        )));
    }
    if bound == 0 {
        return Err(SecError::Spec("bound must be at least 1".into()));
    }
    Ok(())
}

/// Reads the SAT model for the unrolled cycles in `input_words`, replays
/// it through the compiled bytecode engine, and validates that the replay
/// hits a violation — with the full-reevaluation oracle run in lockstep
/// and every output asserted identical each cycle, so a counterexample
/// can never be an artifact of the compiled engine.
fn extract_trace(
    bb: &BitBlaster,
    dag: &WordDag,
    module: &Module,
    property: &str,
    input_words: &[Vec<WordId>],
) -> PropertyTrace {
    let inputs: Vec<Vec<(String, Bv)>> = input_words
        .iter()
        .map(|cycle| {
            module
                .inputs
                .iter()
                .zip(cycle)
                .map(|(p, &w)| (p.name.clone(), bb.model_value(dag, w)))
                .collect()
        })
        .collect();
    // Replay to find (and validate) the first violation. The constructors
    // cannot fail: the module already passed `check_module`.
    let mut sim = Simulator::new(module.clone()).expect("checked");
    let mut oracle = Simulator::new_reference(module.clone()).expect("checked");
    let mut violation_cycle = None;
    for (t, cycle_inputs) in inputs.iter().enumerate() {
        for (name, v) in cycle_inputs {
            sim.poke(name, v.clone());
            oracle.poke(name, v.clone());
        }
        for p in &module.outputs {
            assert_eq!(
                sim.output(&p.name),
                oracle.output(&p.name),
                "bytecode replay diverged from the oracle on output {:?} at cycle {t}",
                p.name
            );
        }
        if !sim.output(property).bit(0) {
            violation_cycle = Some(t as u32);
            break;
        }
        sim.step();
        oracle.step();
    }
    let violation_cycle = violation_cycle
        .expect("SAT model did not replay to a violation: bit-blasting soundness bug");
    PropertyTrace {
        inputs,
        violation_cycle,
        property: property.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;

    /// A saturating counter that must never exceed LIMIT... unless the
    /// implementation forgot the clamp on one path.
    fn counter(clamped: bool) -> Module {
        let mut b = ModuleBuilder::new("ctr");
        let up = b.input("up", 1);
        let r = b.reg("count", 4, Bv::zero(4));
        let q = b.reg_q(r);
        let one = b.lit(4, 1);
        let inc = b.add(q, one);
        let limit = b.lit(4, 10);
        let at_limit = b.eq(q, limit);
        let next_inc = if clamped {
            b.mux(at_limit, q, inc)
        } else {
            inc // bug: wraps past the limit
        };
        let next = b.mux(up, next_inc, q);
        b.connect_reg(r, next);
        let ok = b.ule(q, limit);
        b.output("count", q);
        b.output("ok", ok);
        b.finish().unwrap()
    }

    #[test]
    fn clamped_counter_holds() {
        let report = check_property(&counter(true), "ok", 16).unwrap();
        assert_eq!(report.outcome, BmcOutcome::HoldsUpTo(16));
    }

    #[test]
    fn unclamped_counter_violates_at_depth_11() {
        let report = check_property(&counter(false), "ok", 16).unwrap();
        match report.outcome {
            BmcOutcome::Violated(trace) => {
                // The counter needs at least 11 increments to pass 10 (the
                // solver may return a longer trace that idles first).
                assert!(trace.violation_cycle >= 11);
                assert_eq!(trace.property, "ok");
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The exact frontier: depth 12 reaches the bug, depth 11 does not
        // (the property is sampled before the 11th increment commits).
        let at12 = check_property(&counter(false), "ok", 12).unwrap();
        assert!(matches!(at12.outcome, BmcOutcome::Violated(_)));
        let at11 = check_property(&counter(false), "ok", 11).unwrap();
        assert_eq!(at11.outcome, BmcOutcome::HoldsUpTo(11));
    }

    #[test]
    fn shallow_bound_misses_deep_bug() {
        // BMC is bounded: the same bug is invisible at depth 5 — which is
        // why equivalence checking over full transactions matters.
        let report = check_property(&counter(false), "ok", 5).unwrap();
        assert_eq!(report.outcome, BmcOutcome::HoldsUpTo(5));
    }

    #[test]
    fn property_errors() {
        assert!(check_property(&counter(true), "nope", 4).is_err());
        assert!(check_property(&counter(true), "count", 4).is_err());
        assert!(check_property(&counter(true), "ok", 0).is_err());
        assert!(check_property_budgeted(&counter(true), "nope", 4, &Budget::unlimited()).is_err());
    }

    #[test]
    fn budgeted_bmc_matches_unbudgeted_when_unlimited() {
        let r = check_property_budgeted(&counter(true), "ok", 16, &Budget::unlimited()).unwrap();
        assert_eq!(r.outcome, BmcOutcome::HoldsUpTo(16));
        let r = check_property_budgeted(&counter(false), "ok", 16, &Budget::unlimited()).unwrap();
        match r.outcome {
            // Per-depth solving always finds the *shallowest* violation.
            BmcOutcome::Violated(trace) => assert_eq!(trace.violation_cycle, 11),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn zero_conflict_budget_is_inconclusive_at_depth_zero() {
        let budget = Budget::unlimited().with_conflicts(0);
        let r = check_property_budgeted(&counter(true), "ok", 16, &budget).unwrap();
        assert_eq!(
            r.outcome,
            BmcOutcome::Inconclusive {
                holds_up_to: 0,
                reason: ExhaustedReason::Conflicts,
            }
        );
    }

    #[test]
    fn observed_bmc_records_depths_and_outcome() {
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let r = check_property_observed(&counter(true), "ok", 8, &Budget::unlimited(), rec.clone())
            .unwrap();
        assert_eq!(r.outcome, BmcOutcome::HoldsUpTo(8));
        let m = rec.lock().unwrap();
        assert_eq!(m.counter("sec.depths"), 8);
        assert_eq!(m.counter("sec.cnf_vars"), r.cnf_vars as u64);
        assert_eq!(m.events_of("sec.depth").len(), 8);
        assert_eq!(m.events_of("sec.outcome"), vec!["holds_up_to 8"]);
        // The forwarded recorder also sees the solver's own counters.
        assert!(m.counter("sat.propagations") > 0);
    }

    #[test]
    fn deadline_reports_partial_depth_in_bounded_time() {
        // A huge bound with a millisecond deadline: the check must stop
        // quickly and report the depth it *did* prove.
        let started = Instant::now();
        let budget = Budget::unlimited().with_timeout(Duration::from_millis(5));
        let r = check_property_budgeted(&counter(true), "ok", 1_000_000, &budget).unwrap();
        match r.outcome {
            BmcOutcome::Inconclusive {
                holds_up_to,
                reason,
            } => {
                assert_eq!(reason, ExhaustedReason::Deadline);
                assert!(holds_up_to < 1_000_000);
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(30));
    }
}
