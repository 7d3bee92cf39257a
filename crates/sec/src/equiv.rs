//! The sequential equivalence checker: miter construction, solving, and
//! validated counterexample extraction.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use dfv_bits::Bv;
use dfv_cosim::{FieldSpec, StimulusGen};
use dfv_obs::{ObsHook, SharedRecorder};
use dfv_rtl::ir::BinOp;
use dfv_rtl::{Module, NodeId, Simulator};
use dfv_sat::{Budget, ExhaustedReason, Lit, SolveResult, SolverStats};

use crate::bitblast::BitBlaster;
use crate::spec::{Binding, EquivSpec, InitState, SecError};
use crate::sweep::{SweepOptions, SweepStats, Sweeper};
use crate::unroll::{eval_comb_symbolic, output_driver, SymbolicCycle, SymbolicSim};
use crate::word::{Word, WordDag, WordId};

/// One output disagreement within a counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// SLM output name.
    pub slm_output: String,
    /// RTL output port name.
    pub rtl_output: String,
    /// RTL cycle at which the outputs were compared.
    pub rtl_cycle: u32,
    /// Value the SLM produced.
    pub slm_value: Bv,
    /// Value the RTL produced.
    pub rtl_value: Bv,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} but {}@cycle{} = {}",
            self.slm_output, self.slm_value, self.rtl_output, self.rtl_cycle, self.rtl_value
        )
    }
}

/// A concrete, *replay-validated* witness that the SLM and RTL disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// SLM input values by name.
    pub slm_inputs: Vec<(String, Bv)>,
    /// RTL input values per cycle (in input-port order, named).
    pub rtl_inputs: Vec<Vec<(String, Bv)>>,
    /// Initial register state (named), for [`InitState::Free`] checks.
    pub initial_regs: Vec<(String, Bv)>,
    /// The disagreeing compare points.
    pub mismatches: Vec<Mismatch>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counterexample: ")?;
        for (n, v) in &self.slm_inputs {
            write!(f, "{n}={v} ")?;
        }
        write!(f, "=> ")?;
        for m in &self.mismatches {
            write!(f, "[{m}] ")?;
        }
        Ok(())
    }
}

/// What the bounded random-simulation fallback established after a proof
/// budget ran out: not a proof, but quantified negative evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalsificationSummary {
    /// Constraint-satisfying random transactions replayed without finding a
    /// mismatch.
    pub transactions: u64,
    /// The stimulus seed (rerun with the same seed to reproduce exactly).
    pub seed: u64,
    /// Transaction depth in RTL cycles (the spec's `rtl_cycles`).
    pub rtl_cycles: u32,
}

impl fmt::Display for FalsificationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no counterexample in {} random transactions at depth {} (seed {:#x})",
            self.transactions, self.rtl_cycles, self.seed
        )
    }
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivOutcome {
    /// The models agree on every compare point for every input satisfying
    /// the constraints.
    Equivalent,
    /// A validated counterexample was found.
    NotEquivalent(Box<Counterexample>),
    /// The proof budget ran out before the solver reached an answer. When
    /// the check fell back to bounded random simulation (see
    /// [`CheckOptions::fallback_transactions`]), `falsification` quantifies
    /// how much of the input space was sampled without a mismatch.
    Inconclusive {
        /// Which resource ran out.
        reason: ExhaustedReason,
        /// Simulation-fallback evidence, if the fallback ran.
        falsification: Option<FalsificationSummary>,
    },
}

impl EquivOutcome {
    /// Whether the outcome is [`EquivOutcome::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivOutcome::Equivalent)
    }

    /// Whether the outcome is [`EquivOutcome::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, EquivOutcome::Inconclusive { .. })
    }
}

/// Resource limits and degradation policy for one equivalence check.
///
/// The default is an unlimited budget (the solver runs to completion, so
/// the outcome is never [`EquivOutcome::Inconclusive`]) with a 256-
/// transaction simulation fallback should a caller-supplied budget run out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOptions {
    /// Resource budget for the SAT search.
    pub budget: Budget,
    /// On budget exhaustion, how many constraint-satisfying random
    /// transactions to replay looking for a concrete counterexample.
    /// `0` disables the fallback.
    pub fallback_transactions: u64,
    /// Seed for the fallback stimulus generator.
    pub fallback_seed: u64,
    /// The SAT-sweeping front-end (word-level rewriting, signature
    /// classes, budgeted merge proofs). Off by default; verdict-neutral
    /// when on.
    pub sweep: SweepOptions,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            budget: Budget::unlimited(),
            fallback_transactions: 256,
            fallback_seed: 0xDF5,
            sweep: SweepOptions::default(),
        }
    }
}

impl CheckOptions {
    /// Options with the given budget and the default fallback.
    pub fn with_budget(budget: Budget) -> Self {
        CheckOptions {
            budget,
            ..CheckOptions::default()
        }
    }

    /// The default options with the sweeping front-end enabled.
    pub fn swept() -> Self {
        CheckOptions {
            sweep: SweepOptions::on(),
            ..CheckOptions::default()
        }
    }
}

/// Result of an equivalence check with solver statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivReport {
    /// The verdict.
    pub outcome: EquivOutcome,
    /// Compare points proved at word level: their SLM and RTL sides are
    /// the same node of the normalized word DAG, so they cost no SAT
    /// work.
    pub word_closed: usize,
    /// Words in the miter's DAG: both sides, every unrolled cycle's
    /// demanded logic, the bindings and the constraints.
    pub dag_words: usize,
    /// SLM inputs a constraint narrowed before the miter was built
    /// (`x <u 2^k`, `2^w - 2^k <=u x` or `x == c`; see DESIGN.md §19).
    pub constraint_facts: usize,
    /// CNF variables allocated. Only the cones of lowered words allocate
    /// any: the open compare points, the constraints they are checked
    /// under, and (with the sweep on) every node word the sweep visits.
    /// A check whose compare points all close at word level allocates
    /// none beyond the constant.
    pub cnf_vars: usize,
    /// CNF clauses emitted: the final solve's cone (gate definitions
    /// reachable from the difference assertion and the constraints) plus
    /// whatever sweep proofs emitted before it. Recorded gates outside
    /// every cone never become clauses.
    pub cnf_clauses: usize,
    /// SAT search statistics.
    pub solver_stats: SolverStats,
    /// What the sweeping front-end did, when it was enabled.
    pub sweep: Option<SweepStats>,
    /// Wall-clock time of the whole check.
    pub duration: Duration,
}

/// Checks transaction-level equivalence between a combinational SLM module
/// and a sequential (flat) RTL module under `spec`.
///
/// On a SAT answer, the counterexample is **replayed concretely** on both
/// models before being returned; an inconsistency between the SAT model and
/// the replay would indicate a bit-blasting soundness bug and panics.
///
/// # Errors
///
/// Returns [`SecError`] for invalid specs, non-flat RTL, or oversized
/// memories.
///
/// # Example
///
/// ```
/// use dfv_bits::Bv;
/// use dfv_rtl::ModuleBuilder;
/// use dfv_sec::{check_equivalence, Binding, EquivSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // SLM: y = a + b (9 bits, no overflow).
/// let mut sb = ModuleBuilder::new("slm_add");
/// let a = sb.input("a", 8);
/// let b = sb.input("b", 8);
/// let (aw, bw) = (sb.zext(a, 9), sb.zext(b, 9));
/// let y = sb.add(aw, bw);
/// sb.output("y", y);
/// let slm = sb.finish()?;
///
/// // RTL: one-cycle registered version of the same adder.
/// let mut rb = ModuleBuilder::new("rtl_add");
/// let a = rb.input("a", 8);
/// let b = rb.input("b", 8);
/// let (aw, bw) = (rb.zext(a, 9), rb.zext(b, 9));
/// let sum = rb.add(aw, bw);
/// let r = rb.reg("r", 9, Bv::zero(9));
/// rb.connect_reg(r, sum);
/// let q = rb.reg_q(r);
/// rb.output("y", q);
/// let rtl = rb.finish()?;
///
/// let spec = EquivSpec::new(2)
///     .bind("a", 0, Binding::Slm("a".into()))
///     .bind("b", 0, Binding::Slm("b".into()))
///     .compare("y", "y", 1);
/// let report = check_equivalence(&slm, &rtl, &spec)?;
/// assert!(report.outcome.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
) -> Result<EquivReport, SecError> {
    check_equivalence_with(slm, rtl, spec, &CheckOptions::default())
}

/// Like [`check_equivalence`], but under a resource [`Budget`] with graceful
/// degradation: if the budget runs out before the solver answers, the check
/// falls back to bounded constrained-random simulation (the `dfv-cosim`
/// stimulus machinery) and returns either a *genuine* replay-validated
/// counterexample found by simulation, or
/// [`EquivOutcome::Inconclusive`] carrying a [`FalsificationSummary`] —
/// "no counterexample in N random transactions at depth k" — so a campaign
/// always learns something from the time it spent.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_with(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
) -> Result<EquivReport, SecError> {
    check_equivalence_inner(slm, rtl, spec, opts, &ObsHook::none())
}

/// Like [`check_equivalence_with`], but streams instrumentation into
/// `rec`: the whole check runs under a `sec.equiv` span, the miter's
/// unroll size lands in the `sec.cnf_vars` / `sec.cnf_clauses` counters,
/// the verdict is recorded as a `sec.outcome` event, and the same
/// recorder is forwarded into the SAT solver so `sat.*` counters
/// accumulate alongside.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_observed(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
    rec: SharedRecorder,
) -> Result<EquivReport, SecError> {
    check_equivalence_inner(slm, rtl, spec, opts, &ObsHook::attached(rec))
}

fn check_equivalence_inner(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
    obs: &ObsHook,
) -> Result<EquivReport, SecError> {
    let start = Instant::now();
    let mut ctx = build_miter(slm, rtl, spec, &opts.sweep)?;
    obs.begin_span("sec.equiv");
    if let Some(rec) = obs.recorder() {
        ctx.bb.set_recorder(rec);
    }
    let word_closed = ctx.diffs.iter().filter(|d| d.is_none()).count();
    // The open points whose difference did not fold to false while
    // lowering. With none left there is nothing to solve.
    let open: Vec<Lit> = ctx
        .diffs
        .iter()
        .flatten()
        .copied()
        .filter(|&d| d != ctx.bb.false_lit())
        .collect();
    if !open.is_empty() {
        // Assert that *some* compare point differs: one clause over the
        // diffs. Emitting its cone now, rather than inside the solve,
        // lets the counters below report the CNF the final solve runs on.
        ctx.bb.assert_clause(&open);
        ctx.bb.emit_cone(&[]);
    }
    let cnf_vars = ctx.bb.solver().num_vars();
    let cnf_clauses = ctx.bb.solver().num_clauses();
    obs.add("sec.word_closed", word_closed as u64);
    obs.add("sec.dag_words", ctx.dag_words as u64);
    obs.add("sec.constraint_facts", ctx.constraint_facts as u64);
    obs.add("sec.cnf_vars", cnf_vars as u64);
    obs.add("sec.cnf_clauses", cnf_clauses as u64);
    if let Some(s) = &ctx.sweep {
        obs.add("sec.sweep.classes", s.classes);
        obs.add("sec.sweep.candidates", s.candidates);
        obs.add("sec.sweep.proved", s.proved);
        obs.add("sec.sweep.refuted", s.refuted);
        obs.add("sec.sweep.merged_lits", s.merged_lits);
        obs.add("sec.sweep.proof_conflicts", s.proof_conflicts);
        obs.add("sec.sweep.nodes_removed", s.nodes_before - s.nodes_after);
    }
    let result = if open.is_empty() {
        SolveResult::Unsat
    } else {
        ctx.bb.solve(&[], &opts.budget)
    };
    let outcome = match result {
        SolveResult::Unsat => EquivOutcome::Equivalent,
        SolveResult::Sat => EquivOutcome::NotEquivalent(Box::new(extract_and_replay(
            &mut ctx,
            slm,
            rtl,
            spec,
            &[],
            &opts.budget,
        ))),
        SolveResult::Unknown(reason) => {
            if opts.fallback_transactions == 0 {
                EquivOutcome::Inconclusive {
                    reason,
                    falsification: None,
                }
            } else {
                match simulate_falsify(
                    slm,
                    rtl,
                    spec,
                    opts.fallback_transactions,
                    opts.fallback_seed,
                ) {
                    Falsification::Found(cex) => EquivOutcome::NotEquivalent(cex),
                    Falsification::NoneFound(summary) => EquivOutcome::Inconclusive {
                        reason,
                        falsification: Some(summary),
                    },
                }
            }
        }
    };
    obs.event("sec.outcome", || match &outcome {
        EquivOutcome::Equivalent => "equivalent".to_string(),
        EquivOutcome::NotEquivalent(cex) => {
            format!("not_equivalent ({} mismatches)", cex.mismatches.len())
        }
        EquivOutcome::Inconclusive {
            reason,
            falsification,
        } => match falsification {
            Some(f) => format!(
                "inconclusive ({reason:?}); no cex in {} simulated transactions",
                f.transactions
            ),
            None => format!("inconclusive ({reason:?})"),
        },
    });
    obs.end_span("sec.equiv");
    Ok(EquivReport {
        outcome,
        word_closed,
        dag_words: ctx.dag_words,
        constraint_facts: ctx.constraint_facts,
        cnf_vars,
        cnf_clauses,
        solver_stats: ctx.bb.solver().stats(),
        sweep: ctx.sweep,
        duration: start.elapsed(),
    })
}

/// The verdict for a single compare point of a per-output check.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputVerdict {
    /// The compare point this verdict is for.
    pub compare: crate::ComparePoint,
    /// Equivalent, or a replay-validated counterexample for this output.
    pub outcome: EquivOutcome,
    /// Solve time for this output (shared learning makes later outputs
    /// cheaper).
    pub duration: Duration,
}

/// Result of [`check_equivalence_per_output`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerOutputReport {
    /// One verdict per compare point, in spec order.
    pub verdicts: Vec<OutputVerdict>,
    /// CNF variables allocated (shared across all outputs).
    pub cnf_vars: usize,
    /// What the sweeping front-end did, when it was enabled.
    pub sweep: Option<SweepStats>,
    /// Total wall-clock time.
    pub duration: Duration,
}

impl PerOutputReport {
    /// Whether every output was proven equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.verdicts.iter().all(|v| v.outcome.is_equivalent())
    }
}

/// Like [`check_equivalence`], but checks each compare point *separately*
/// under SAT assumptions on one shared CNF — so the solver's learned clauses
/// carry over between outputs and a divergence is localized to the specific
/// output (and cycle) that disagrees, rather than one global verdict.
///
/// This is the intra-session face of the paper's §4.1 incremental SEC;
/// `dfv-core`'s campaign cache is the cross-run face.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_per_output(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
) -> Result<PerOutputReport, SecError> {
    check_equivalence_per_output_with(slm, rtl, spec, &CheckOptions::default())
}

/// Like [`check_equivalence_per_output`], but each per-output solve runs
/// under `opts.budget`. A compare point the word DAG closes is
/// [`EquivOutcome::Equivalent`] without a solve. The budget's conflict/propagation caps apply to
/// each output separately; an absolute `deadline` naturally bounds the
/// whole sweep. An exhausted output gets an
/// [`EquivOutcome::Inconclusive`] verdict (without the simulation fallback
/// — use [`check_equivalence_with`] for that) and the sweep moves on, so
/// one hard output cannot starve the rest of their budget.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_per_output_with(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
) -> Result<PerOutputReport, SecError> {
    let start = Instant::now();
    let mut ctx = build_miter(slm, rtl, spec, &opts.sweep)?;
    let cnf_vars = ctx.bb.solver().num_vars();
    let mut verdicts = Vec::with_capacity(spec.compares.len());
    for (cp, diff) in spec.compares.iter().zip(ctx.diffs.clone()) {
        let t0 = Instant::now();
        let Some(d) = diff else {
            verdicts.push(OutputVerdict {
                compare: cp.clone(),
                outcome: EquivOutcome::Equivalent,
                duration: t0.elapsed(),
            });
            continue;
        };
        let outcome = match ctx.bb.solve(&[d], &opts.budget) {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => EquivOutcome::NotEquivalent(Box::new(extract_and_replay(
                &mut ctx,
                slm,
                rtl,
                spec,
                &[d],
                &opts.budget,
            ))),
            SolveResult::Unknown(reason) => EquivOutcome::Inconclusive {
                reason,
                falsification: None,
            },
        };
        verdicts.push(OutputVerdict {
            compare: cp.clone(),
            outcome,
            duration: t0.elapsed(),
        });
    }
    Ok(PerOutputReport {
        verdicts,
        cnf_vars,
        sweep: ctx.sweep,
        duration: start.elapsed(),
    })
}

/// Everything shared between the one-shot and per-output checkers: the
/// word DAG of both sides, the bit-blaster holding the lowered cones
/// (only the cones earlier sweep proofs needed are emitted yet), one
/// difference literal per compare point (unasserted; `None` where the
/// DAG closed the point), and the words needed for counterexample
/// extraction.
struct MiterCtx {
    dag: WordDag,
    bb: BitBlaster,
    diffs: Vec<Option<Lit>>,
    slm_words: HashMap<String, WordId>,
    free_words: HashMap<(usize, u32), WordId>,
    initial_reg_words: Vec<WordId>,
    /// Words in the DAG once both sides are built.
    dag_words: usize,
    /// SLM inputs replaced by a constraint-derived form.
    constraint_facts: usize,
    sweep: Option<SweepStats>,
}

/// Reads an exact input fact off a constraint word: if `ok` is one of
///
/// - `x <u 2^k`, the word `x` can be is `zext(y)` for a fresh `k`-bit `y`;
/// - `2^w - 2^k <=u x`, it is `{ones, y}` for a fresh `k`-bit `y`;
/// - `x == c`, it is `c`,
///
/// where `x` is `inputs[i]` and still the leaf `leaves[i]`, returns `i`
/// and that form. The form ranges over exactly the values of `x` the
/// constraint admits, so substituting it for `x` leaves the constrained
/// input space unchanged. Every other constraint reaches only the solver.
fn input_fact(
    dag: &mut WordDag,
    ok: WordId,
    leaves: &[WordId],
    inputs: &[WordId],
) -> Option<(usize, WordId)> {
    let free = |x: WordId| (0..leaves.len()).find(|&i| leaves[i] == x && inputs[i] == x);
    match *dag.word(ok) {
        Word::Bin(BinOp::ULt, x, k) => {
            let i = free(x)?;
            let c = dag.const_value(k)?;
            if c.count_ones() != 1 {
                return None;
            }
            let bits = (0..c.width()).find(|&b| c.bit(b)).expect("one bit set");
            let w = dag.width(x);
            Some((i, narrowed(dag, w, bits, false)))
        }
        Word::Bin(BinOp::ULe, k, x) => {
            let i = free(x)?;
            let c = dag.const_value(k)?;
            let w = c.width();
            let ones = c.count_ones();
            let bits = w - ones;
            if ones == 0 || !c.slice(w - 1, bits).is_ones() {
                return None;
            }
            Some((i, narrowed(dag, w, bits, true)))
        }
        Word::Bin(BinOp::Eq, a, b) => {
            let (i, c) = match (free(a), free(b)) {
                (Some(i), _) if dag.const_value(b).is_some() => (i, b),
                (_, Some(i)) if dag.const_value(a).is_some() => (i, a),
                _ => return None,
            };
            Some((i, c))
        }
        _ => None,
    }
}

/// A `w`-bit word whose low `bits` bits are a fresh leaf and whose high
/// bits are all ones (`high`) or all zeros.
fn narrowed(dag: &mut WordDag, w: u32, bits: u32, high: bool) -> WordId {
    let fill = if high { Bv::ones(w) } else { Bv::zero(w) };
    if bits == 0 {
        return dag.constant(&fill);
    }
    let low = dag.leaf(bits);
    if high {
        let top = dag.constant(&Bv::ones(w - bits));
        dag.concat(top, low)
    } else {
        dag.zext(low, w)
    }
}

/// Builds the miter. Both sides are evaluated into one [`WordDag`]: the
/// SLM once, the RTL cycle by cycle, each demanding only the outputs the
/// compare points read. A compare point whose two words are the same
/// node is closed; only the open points' cones, and the constraints they
/// are checked under, are lowered into the [`BitBlaster`].
///
/// Before either side is built, each constraint is read for an exact
/// input fact ([`input_fact`]), and an SLM input it narrows is replaced
/// by the narrowed form everywhere, so the DAG's rewrites see the fact.
/// The constraints themselves are re-evaluated over the replaced inputs
/// and still asserted whenever a point is open.
///
/// With sweeping enabled, both modules are first canonicalized by
/// `dfv_rtl::optimize` and the *optimized* modules are encoded; every
/// node word of every site is then lowered in order (SLM nodes, then RTL
/// cycles 0..k), and the [`Sweeper`] proves and merges candidate-equal
/// bits of each before later words are lowered from it. The optimizer
/// preserves ports, registers, and memories by name and order, so
/// counterexample extraction and concrete replay keep using the caller's
/// original modules.
fn build_miter(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    sweep: &SweepOptions,
) -> Result<MiterCtx, SecError> {
    spec.validate(slm, rtl)?;
    dfv_rtl::check_module(slm)?;
    dfv_rtl::check_module(rtl)?;

    // Sweeping stage 1 (word-level rewriting).
    let optimized = sweep
        .enabled
        .then(|| (dfv_rtl::optimize(slm).0, dfv_rtl::optimize(rtl).0));
    let nodes_before = slm.nodes.len() + rtl.nodes.len();
    let (slm, rtl) = match &optimized {
        Some((s, r)) => (s, r),
        None => (slm, rtl),
    };

    let mut dag = WordDag::new();
    let mut bb = BitBlaster::new();

    // Symbolic SLM inputs, narrowed by the constraints' input facts.
    let leaves: Vec<WordId> = slm.inputs.iter().map(|p| dag.leaf(p.width)).collect();
    let mut slm_input_vec = leaves.clone();
    let eval_constraints = |dag: &mut WordDag, inputs: &[WordId]| -> Vec<WordId> {
        spec.constraints
            .iter()
            .map(|c| {
                let ins: Vec<WordId> = c
                    .inputs
                    .iter()
                    .map(|p| inputs[slm.input_index(&p.name).expect("validated")])
                    .collect();
                eval_comb_symbolic(dag, c, &ins).output(c, &c.outputs[0].name)
            })
            .collect()
    };
    let mut constraints = eval_constraints(&mut dag, &slm_input_vec);
    let mut constraint_facts = 0;
    for &ok in &constraints {
        if let Some((i, form)) = input_fact(&mut dag, ok, &leaves, &slm_input_vec) {
            slm_input_vec[i] = form;
            constraint_facts += 1;
        }
    }
    if constraint_facts > 0 {
        constraints = eval_constraints(&mut dag, &slm_input_vec);
    }
    let slm_words: HashMap<String, WordId> = slm
        .inputs
        .iter()
        .zip(&slm_input_vec)
        .map(|(p, &w)| (p.name.clone(), w))
        .collect();
    let assert_constraints = |dag: &WordDag, bb: &mut BitBlaster| {
        for &ok in &constraints {
            let l = bb.lower(dag, ok)[0];
            bb.assert_lit(l);
        }
    };

    // SLM evaluation: the compared outputs, or with the sweep on every
    // node, whose words the sweep keeps per site: the SLM's, then each
    // RTL cycle's.
    let all_nodes = |m: &Module| m.node_ids().collect::<Vec<_>>();
    let slm_demand: Vec<NodeId> = if sweep.enabled {
        all_nodes(slm)
    } else {
        spec.compares
            .iter()
            .map(|cp| output_driver(slm, &cp.slm_output))
            .collect()
    };
    let mut slm_sim = SymbolicSim::new(&mut dag, slm, InitState::Reset)?;
    let slm_cycle = slm_sim.step(&mut dag, &slm_input_vec, &slm_demand);
    let mut sites = Vec::new();
    let site_words = |cycle: &SymbolicCycle, m: &Module| -> Vec<WordId> {
        m.node_ids()
            .map(|id| cycle.node(id).expect("the sweep demands every node"))
            .collect()
    };
    if sweep.enabled {
        sites.push(site_words(slm_cycle, slm));
    }

    // RTL unrolling, each cycle demanding the outputs compared on it.
    let mut binding_at: HashMap<(usize, u32), &Binding> = HashMap::new();
    for (port, cycle, b) in &spec.bindings {
        let idx = rtl.input_index(port).expect("validated");
        binding_at.insert((idx, *cycle), b);
    }
    let rtl_all = if sweep.enabled {
        all_nodes(rtl)
    } else {
        Vec::new()
    };
    let mut sym = SymbolicSim::new(&mut dag, rtl, spec.init)?;
    let initial_reg_words = sym.reg_state().to_vec();
    // Free-binding words, recorded for counterexample extraction.
    let mut free_words: HashMap<(usize, u32), WordId> = HashMap::new();
    // The RTL words the compare points read, captured as each cycle is
    // unrolled.
    let mut rtl_outs: Vec<Option<WordId>> = vec![None; spec.compares.len()];
    let mut demand = Vec::new();
    for t in 0..spec.rtl_cycles {
        let inputs: Vec<WordId> = rtl
            .inputs
            .iter()
            .enumerate()
            .map(|(i, p)| match binding_at.get(&(i, t)) {
                Some(Binding::Slm(name)) => slm_words[name],
                Some(Binding::SlmSlice { name, hi, lo }) => dag.slice(slm_words[name], *hi, *lo),
                Some(Binding::Const(v)) => dag.constant(v),
                Some(Binding::Free) => {
                    let w = dag.leaf(p.width);
                    free_words.insert((i, t), w);
                    w
                }
                None => dag.constant(&Bv::zero(p.width)),
            })
            .collect();
        demand.clear();
        if sweep.enabled {
            demand.extend_from_slice(&rtl_all);
        } else {
            demand.extend(
                spec.compares
                    .iter()
                    .filter(|cp| cp.rtl_cycle == t)
                    .map(|cp| output_driver(rtl, &cp.rtl_output)),
            );
        }
        let cycle = sym.step(&mut dag, &inputs, &demand);
        if sweep.enabled {
            sites.push(site_words(cycle, rtl));
        }
        for (cp, out) in spec.compares.iter().zip(&mut rtl_outs) {
            if cp.rtl_cycle == t {
                *out = Some(cycle.output(rtl, &cp.rtl_output));
            }
        }
    }

    // The two words of each compare point; a point whose words are one
    // node is closed.
    let sides: Vec<(WordId, WordId)> = spec
        .compares
        .iter()
        .zip(rtl_outs)
        .map(|(cp, r)| {
            let mut s = slm_cycle.output(slm, &cp.slm_output);
            if let Some((hi, lo)) = cp.slm_slice {
                s = dag.slice(s, hi, lo);
            }
            (s, r.expect("validated compare cycle"))
        })
        .collect();
    let dag_words = dag.len();
    // Nothing is lowered unless some point is open. The constraints are
    // lowered first, so their assertions are emitted before the gates
    // they constrain and the solver simplifies those gates' clauses
    // against them; with the sweep on, they are asserted before any sweep
    // proof runs, so every proof emits them and merges are sound relative
    // to the constrained input space — exactly the space the verdict
    // quantifies over.
    let open = sides.iter().any(|(s, r)| s != r);
    if open {
        assert_constraints(&dag, &mut bb);
    }
    // Sweeping stages 2 (signature classes) and 3 (merge proofs), site by
    // site in encoding order, when the DAG left something to prove.
    let mut sweep_stats = None;
    if let Some((slm_o, rtl_o)) = &optimized {
        let mut stats = SweepStats::default();
        if open {
            let mut sw = Sweeper::analyze(slm_o, rtl_o, spec, sweep)?;
            for (site, nodes) in sites.iter().enumerate() {
                sw.process_site(&dag, &mut bb, site, nodes);
            }
            stats = sw.stats();
        }
        stats.nodes_before = nodes_before as u64;
        stats.nodes_after = (slm_o.nodes.len() + rtl_o.nodes.len()) as u64;
        sweep_stats = Some(stats);
    }
    // One (unasserted) difference literal per open compare point.
    let diffs = sides
        .into_iter()
        .map(|(s, r)| {
            (s != r).then(|| {
                let (ls, lr) = (bb.lower(&dag, s), bb.lower(&dag, r));
                !bb.eq_word(&ls, &lr)
            })
        })
        .collect();
    Ok(MiterCtx {
        dag,
        bb,
        diffs,
        slm_words,
        free_words,
        initial_reg_words,
        dag_words,
        constraint_facts,
        sweep: sweep_stats,
    })
}

/// Builds the concrete per-cycle RTL input vectors for given SLM input
/// values, asking `free_value` for each [`Binding::Free`] port/cycle.
///
/// The `expect("validated")` / map-indexing here is invariant-protected:
/// `spec.validate` (run by `build_miter` before any caller reaches this)
/// guarantees every bound port exists on the RTL and every `Binding::Slm`
/// name is an SLM input.
fn concretize_rtl_inputs(
    rtl: &Module,
    spec: &EquivSpec,
    slm_map: &HashMap<&str, &Bv>,
    mut free_value: impl FnMut(usize, u32, u32) -> Bv,
) -> Vec<Vec<(String, Bv)>> {
    let mut binding_at: HashMap<(usize, u32), &Binding> = HashMap::new();
    for (port, cycle, b) in &spec.bindings {
        binding_at.insert((rtl.input_index(port).expect("validated"), *cycle), b);
    }
    (0..spec.rtl_cycles)
        .map(|t| {
            rtl.inputs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let v = match binding_at.get(&(i, t)) {
                        Some(Binding::Slm(name)) => slm_map[name.as_str()].clone(),
                        Some(Binding::SlmSlice { name, hi, lo }) => {
                            slm_map[name.as_str()].slice(*hi, *lo)
                        }
                        Some(Binding::Const(v)) => v.clone(),
                        Some(Binding::Free) => free_value(i, t, p.width),
                        None => Bv::zero(p.width),
                    };
                    (p.name.clone(), v)
                })
                .collect()
        })
        .collect()
}

/// The simulators counterexample replay runs on: the model pair and one
/// per spec constraint, built once per check and reset before every
/// transaction, so replaying many transactions pays for one lowering of
/// each model.
struct Replayer {
    slm: Simulator,
    rtl: Simulator,
    constraints: Vec<Simulator>,
}

impl Replayer {
    /// `Simulator::new` only fails on malformed modules; both modules were
    /// already accepted by `check_module` in `build_miter`, and
    /// `spec.validate` checked the constraint modules, so the `expect`s are
    /// invariant-protected.
    fn new(slm: &Module, rtl: &Module, spec: &EquivSpec) -> Self {
        Replayer {
            slm: Simulator::new(slm.clone()).expect("validated slm"),
            rtl: Simulator::new(rtl.clone()).expect("validated rtl"),
            constraints: spec
                .constraints
                .iter()
                .map(|c| Simulator::new(c.clone()).expect("validated constraint"))
                .collect(),
        }
    }

    /// Whether concrete SLM inputs satisfy every spec constraint.
    fn admits(&mut self, spec: &EquivSpec, slm_map: &HashMap<&str, &Bv>) -> bool {
        self.constraints
            .iter_mut()
            .zip(&spec.constraints)
            .all(|(sim, c)| {
                let ins: Vec<(&str, Bv)> = c
                    .inputs
                    .iter()
                    .map(|p| (p.name.as_str(), (*slm_map[p.name.as_str()]).clone()))
                    .collect();
                sim.eval_comb(&ins)[&c.outputs[0].name].bit(0)
            })
    }

    /// Concretely replays one transaction on both simulators: per compare
    /// point, in spec order, the mismatch if the models disagree there.
    fn mismatches(
        &mut self,
        spec: &EquivSpec,
        slm_inputs: &[(String, Bv)],
        rtl_inputs: &[Vec<(String, Bv)>],
        initial_regs: &[(String, Bv)],
    ) -> Vec<Option<Mismatch>> {
        // Replay the SLM.
        let slm_sim = &mut self.slm;
        slm_sim.reset();
        let slm_in_refs: Vec<(&str, Bv)> = slm_inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let slm_outs = slm_sim.eval_comb(&slm_in_refs);

        // Replay the RTL.
        let rtl_sim = &mut self.rtl;
        rtl_sim.reset();
        if spec.init == InitState::Free {
            for (name, v) in initial_regs {
                rtl_sim.set_reg(name, v.clone());
            }
        }
        let mut sampled: HashMap<(String, u32), Bv> = HashMap::new();
        for (t, cycle_inputs) in rtl_inputs.iter().enumerate() {
            for (name, v) in cycle_inputs {
                rtl_sim.poke(name, v.clone());
            }
            for cp in &spec.compares {
                if cp.rtl_cycle == t as u32 {
                    let v = rtl_sim.output(&cp.rtl_output);
                    sampled.insert((cp.rtl_output.clone(), cp.rtl_cycle), v);
                }
            }
            rtl_sim.step();
        }

        spec.compares
            .iter()
            .map(|cp| {
                let mut sv = slm_outs[&cp.slm_output].clone();
                if let Some((hi, lo)) = cp.slm_slice {
                    sv = sv.slice(hi, lo);
                }
                let rv = sampled[&(cp.rtl_output.clone(), cp.rtl_cycle)].clone();
                (sv != rv).then(|| Mismatch {
                    slm_output: cp.slm_output.clone(),
                    rtl_output: cp.rtl_output.clone(),
                    rtl_cycle: cp.rtl_cycle,
                    slm_value: sv,
                    rtl_value: rv,
                })
            })
            .collect()
    }
}

/// The concrete inputs of one transaction: SLM inputs, per-cycle RTL
/// inputs, and (for free-init checks) initial register values.
struct Witness {
    slm_inputs: Vec<(String, Bv)>,
    rtl_inputs: Vec<Vec<(String, Bv)>>,
    initial_regs: Vec<(String, Bv)>,
}

impl Witness {
    /// Reads the transaction from the solver's current model. Inputs no
    /// lowered cone reached cannot affect an open point and read as 0.
    fn from_model(ctx: &MiterCtx, slm: &Module, rtl: &Module, spec: &EquivSpec) -> Witness {
        let value = |w: WordId| ctx.bb.model_value(&ctx.dag, w);
        let slm_inputs: Vec<(String, Bv)> = slm
            .inputs
            .iter()
            .map(|p| (p.name.clone(), value(ctx.slm_words[&p.name])))
            .collect();
        let slm_map: HashMap<&str, &Bv> = slm_inputs.iter().map(|(n, v)| (n.as_str(), v)).collect();
        let rtl_inputs = concretize_rtl_inputs(rtl, spec, &slm_map, |i, t, _| {
            value(ctx.free_words[&(i, t)])
        });
        let initial_regs: Vec<(String, Bv)> = rtl
            .regs
            .iter()
            .zip(&ctx.initial_reg_words)
            .map(|(r, &w)| (r.name.clone(), value(w)))
            .collect();
        Witness {
            slm_inputs,
            rtl_inputs,
            initial_regs,
        }
    }

    /// Replays the transaction: per compare point, the mismatch if any.
    ///
    /// # Panics
    ///
    /// Panics if the SLM inputs violate a spec constraint. The solver
    /// only answers under the asserted constraints, and an input a
    /// constraint narrowed reads back through its narrowed form, so a
    /// violating witness means the encoding or a substitution is unsound;
    /// it must never be reported as a counterexample.
    fn replay(&self, replayer: &mut Replayer, spec: &EquivSpec) -> Vec<Option<Mismatch>> {
        let slm_map: HashMap<&str, &Bv> = self
            .slm_inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v))
            .collect();
        assert!(
            replayer.admits(spec, &slm_map),
            "SAT model violates a spec constraint: encoding soundness bug"
        );
        replayer.mismatches(spec, &self.slm_inputs, &self.rtl_inputs, &self.initial_regs)
    }
}

/// Turns a satisfiable miter into a replay-validated counterexample whose
/// mismatch *locations* do not depend on which model the solver found.
/// `required` are the difference literals the last (satisfiable) solve
/// assumed. Walking the open compare points in spec order, each one joins
/// the assumptions if the models can disagree there together with every
/// point already joined: for free when the current witness already
/// disagrees there, else by a solve, whose model then becomes the
/// witness. A point left out cannot disagree alongside the points kept,
/// so the final witness mismatches exactly at the kept points: the
/// lexicographically first maximal set of jointly falsifiable points, a
/// function of the two models' semantics alone, not of the encoding. A
/// budget that runs out leaves the point out.
fn extract_and_replay(
    ctx: &mut MiterCtx,
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    required: &[Lit],
    budget: &Budget,
) -> Counterexample {
    let mut replayer = Replayer::new(slm, rtl, spec);
    let mut witness = Witness::from_model(ctx, slm, rtl, spec);
    let mut replayed = witness.replay(&mut replayer, spec);
    let mut chosen = required.to_vec();
    for (k, d) in ctx.diffs.clone().into_iter().enumerate() {
        let Some(d) = d else { continue };
        if chosen.contains(&d) || d == ctx.bb.false_lit() {
            continue;
        }
        chosen.push(d);
        if replayed[k].is_some() {
            continue;
        }
        if ctx.bb.solve(&chosen, budget) == SolveResult::Sat {
            witness = Witness::from_model(ctx, slm, rtl, spec);
            replayed = witness.replay(&mut replayer, spec);
        } else {
            chosen.pop();
        }
    }
    let mismatches: Vec<Mismatch> = replayed.into_iter().flatten().collect();
    // Not invariant-protected so much as soundness-checked: a SAT model
    // that fails to replay means the bit-blasted encoding diverged from the
    // simulators, which must never be reported as a "counterexample".
    assert!(
        !mismatches.is_empty(),
        "SAT model did not replay to a concrete mismatch: bit-blasting soundness bug"
    );
    let Witness {
        slm_inputs,
        rtl_inputs,
        initial_regs,
    } = witness;
    Counterexample {
        slm_inputs,
        rtl_inputs,
        initial_regs,
        mismatches,
    }
}

/// The result of the bounded random-simulation fallback.
enum Falsification {
    /// Simulation found a real, replay-validated mismatch.
    Found(Box<Counterexample>),
    /// All replayed transactions agreed.
    NoneFound(FalsificationSummary),
}

/// Replays up to `transactions` constraint-satisfying random transactions
/// on both models, looking for a concrete mismatch — the degradation path
/// when the proof budget runs out. Draws that violate an environment
/// constraint are discarded (bounded at 16 draws per accepted transaction,
/// so adversarially tight constraints degrade coverage, never hang).
fn simulate_falsify(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    transactions: u64,
    seed: u64,
) -> Falsification {
    // One stimulus field per SLM input, per free RTL binding, and (for
    // free-init checks) per register. The prefixes keep the namespaces
    // apart; port names cannot contain spaces.
    let mut gen = StimulusGen::new(seed);
    for p in &slm.inputs {
        gen = gen.field(
            &format!("in {}", p.name),
            FieldSpec::Uniform { width: p.width },
        );
    }
    for (port, cycle, b) in &spec.bindings {
        if matches!(b, Binding::Free) {
            let idx = rtl.input_index(port).expect("validated");
            gen = gen.field(
                &format!("free {idx} {cycle}"),
                FieldSpec::Uniform {
                    width: rtl.inputs[idx].width,
                },
            );
        }
    }
    if spec.init == InitState::Free {
        for r in &rtl.regs {
            gen = gen.field(
                &format!("reg {}", r.name),
                FieldSpec::Uniform { width: r.width },
            );
        }
    }
    let mut replayer = Replayer::new(slm, rtl, spec);

    let mut replayed = 0u64;
    let max_draws = transactions.saturating_mul(16);
    let mut draws = 0u64;
    while replayed < transactions && draws < max_draws {
        draws += 1;
        let txn = gen.next_transaction();
        let slm_inputs: Vec<(String, Bv)> = slm
            .inputs
            .iter()
            .map(|p| (p.name.clone(), txn[&format!("in {}", p.name)].clone()))
            .collect();
        let slm_map: HashMap<&str, &Bv> = slm_inputs.iter().map(|(n, v)| (n.as_str(), v)).collect();

        // Reject draws that violate an environment constraint.
        if !replayer.admits(spec, &slm_map) {
            continue;
        }
        replayed += 1;

        let rtl_inputs = concretize_rtl_inputs(rtl, spec, &slm_map, |i, t, _| {
            txn[&format!("free {i} {t}")].clone()
        });
        let initial_regs: Vec<(String, Bv)> = if spec.init == InitState::Free {
            rtl.regs
                .iter()
                .map(|r| (r.name.clone(), txn[&format!("reg {}", r.name)].clone()))
                .collect()
        } else {
            Vec::new()
        };
        let mismatches: Vec<Mismatch> = replayer
            .mismatches(spec, &slm_inputs, &rtl_inputs, &initial_regs)
            .into_iter()
            .flatten()
            .collect();
        if !mismatches.is_empty() {
            return Falsification::Found(Box::new(Counterexample {
                slm_inputs,
                rtl_inputs,
                initial_regs,
                mismatches,
            }));
        }
    }
    Falsification::NoneFound(FalsificationSummary {
        transactions: replayed,
        seed,
        rtl_cycles: spec.rtl_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;

    /// SLM for Fig 1: out = sext(b + c) + sext(a), computed with an 8-bit
    /// temporary — the "correct" ordering per the golden model.
    fn fig1_slm(order_bc: bool) -> Module {
        let name = if order_bc { "slm_bc" } else { "slm_ab" };
        let mut b = ModuleBuilder::new(name);
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let (x, y, z) = if order_bc { (bi, c, a) } else { (a, bi, c) };
        let tmp = b.add(x, y);
        let tw = b.sext(tmp, 9);
        let zw = b.sext(z, 9);
        let out = b.add(tw, zw);
        b.output("out", out);
        b.finish().unwrap()
    }

    /// Registered RTL computing (a + b) + c with an 8-bit tmp over 2 cycles.
    fn fig1_rtl() -> Module {
        let mut b = ModuleBuilder::new("rtl_ab");
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let tmp_r = b.reg("tmp", 8, Bv::zero(8));
        let c_r = b.reg("c_r", 8, Bv::zero(8));
        let sum = b.add(a, bi);
        b.connect_reg(tmp_r, sum);
        b.connect_reg(c_r, c);
        let tq = b.reg_q(tmp_r);
        let cq = b.reg_q(c_r);
        let tw = b.sext(tq, 9);
        let cw = b.sext(cq, 9);
        let out = b.add(tw, cw);
        b.output("out", out);
        b.finish().unwrap()
    }

    fn fig1_spec() -> EquivSpec {
        EquivSpec::new(2)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("out", "out", 1)
    }

    #[test]
    fn instrumented_check_runs_on_a_worker_thread() {
        // The whole proof stack (miter build, bit-blast, budgeted CDCL,
        // recorder handle) is Send: an observed check can be dispatched to
        // a scheduler worker and stream into a recorder owned elsewhere.
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let handle: dfv_obs::SharedRecorder = rec.clone();
        let report = std::thread::spawn(move || {
            check_equivalence_observed(
                &fig1_slm(false),
                &fig1_rtl(),
                &fig1_spec(),
                &CheckOptions::default(),
                handle,
            )
        })
        .join()
        .unwrap()
        .unwrap();
        assert!(report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        assert_eq!(m.events_of("sec.outcome"), vec!["equivalent"]);
    }

    #[test]
    fn observed_equivalence_records_unroll_size_and_outcome() {
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let report = check_equivalence_observed(
            &fig1_slm(false),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
            rec.clone(),
        )
        .unwrap();
        assert!(report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        assert_eq!(m.counter("sec.cnf_vars"), report.cnf_vars as u64);
        assert_eq!(m.counter("sec.cnf_clauses"), report.cnf_clauses as u64);
        assert_eq!(m.counter("sec.word_closed"), 1);
        assert_eq!(m.events_of("sec.outcome"), vec!["equivalent"]);
        // The forwarded recorder also sees the solver itself: any counter
        // deltas it records are bounded by the solver's cumulative stats
        // (this fixture's miter can even simplify to unsat while clauses
        // are *added*, in which case the solve call records nothing).
        assert!(m.counter("sat.propagations") <= report.solver_stats.propagations);

        let rec = MemoryRecorder::shared();
        let report = check_equivalence_observed(
            &fig1_slm(true),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
            rec.clone(),
        )
        .unwrap();
        assert!(!report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        let events = m.events_of("sec.outcome");
        assert_eq!(events.len(), 1);
        assert!(events[0].starts_with("not_equivalent"), "{}", events[0]);
    }

    #[test]
    fn fig1_same_order_is_equivalent() {
        let report = check_equivalence(&fig1_slm(false), &fig1_rtl(), &fig1_spec()).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        assert!(report.cnf_vars > 0);
    }

    #[test]
    fn fig1_reassociated_order_is_caught() {
        // The paper's Figure 1: with an 8-bit temporary, (b+c)+a differs
        // from (a+b)+c. The checker must produce a concrete witness.
        let report = check_equivalence(&fig1_slm(true), &fig1_rtl(), &fig1_spec()).unwrap();
        match report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.mismatches.len(), 1);
                assert_eq!(cex.slm_inputs.len(), 3);
                // Replay validation already ran inside the checker; check
                // the witness exhibits an overflow in one of the temps.
                let get = |n: &str| {
                    cex.slm_inputs
                        .iter()
                        .find(|(name, _)| name == n)
                        .unwrap()
                        .1
                        .clone()
                };
                let (a, b, c) = (get("a"), get("b"), get("c"));
                let l = a.wrapping_add(&b).sext(9).wrapping_add(&c.sext(9));
                let r = b.wrapping_add(&c).sext(9).wrapping_add(&a.sext(9));
                assert_ne!(l, r);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn fig1_widened_temp_fixes_reassociation() {
        // With a 9-bit temporary (the paper's fix), both orders agree.
        let mut b = ModuleBuilder::new("slm_wide");
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let bw = b.sext(bi, 10);
        let cw = b.sext(c, 10);
        let aw = b.sext(a, 10);
        let t = b.add(bw, cw);
        let out10 = b.add(t, aw);
        let out = b.trunc(out10, 9);
        b.output("out", out);
        let slm = b.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_wide");
        let a = rb.input("a", 8);
        let bi = rb.input("b", 8);
        let c = rb.input("c", 8);
        let aw = rb.sext(a, 10);
        let bw = rb.sext(bi, 10);
        let cw = rb.sext(c, 10);
        let s1 = rb.add(aw, bw);
        let tmp_r = rb.reg("tmp", 10, Bv::zero(10));
        rb.connect_reg(tmp_r, s1);
        let c_r = rb.reg("c_r", 10, Bv::zero(10));
        rb.connect_reg(c_r, cw);
        let tq = rb.reg_q(tmp_r);
        let cq = rb.reg_q(c_r);
        let out10 = rb.add(tq, cq);
        let out = rb.trunc(out10, 9);
        rb.output("out", out);
        let rtl = rb.finish().unwrap();

        let report = check_equivalence(&slm, &rtl, &fig1_spec()).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
    }

    #[test]
    fn constraint_masks_divergence() {
        // SLM and RTL disagree only when a == 0xFF (RTL has a bug there);
        // constraining a != 0xFF makes them equivalent (paper §3.1.2's
        // input-space constraining, applied to an integer corner case).
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        let one = sb.lit(8, 1);
        let y = sb.add(a, one);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let one = rb.lit(8, 1);
        let sum = rb.add(a, one);
        let ff = rb.lit(8, 0xFF);
        let is_ff = rb.eq(a, ff);
        let zero = rb.lit(8, 0x42); // wrong wraparound behaviour
        let y = rb.mux(is_ff, zero, sum);
        let r = rb.reg("r", 8, Bv::zero(8));
        rb.connect_reg(r, y);
        let q = rb.reg_q(r);
        rb.output("y", q);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(2)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 1);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        match &report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.slm_inputs[0].1.to_u64(), 0xFF);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }

        // Now constrain a != 0xFF.
        let mut cb = ModuleBuilder::new("no_ff");
        let a = cb.input("a", 8);
        let ff = cb.lit(8, 0xFF);
        let ok = cb.ne(a, ff);
        cb.output("ok", ok);
        let constraint = cb.finish().unwrap();
        let spec = spec.constrain(constraint);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    /// A 4-bit `addr` constrained by `constraint(addr)` (a 1-bit output).
    fn addr_constraint(name: &str, build: fn(&mut ModuleBuilder, NodeId) -> NodeId) -> Module {
        let mut cb = ModuleBuilder::new(name);
        let a = cb.input("addr", 4);
        let ok = build(&mut cb, a);
        cb.output("ok", ok);
        cb.finish().unwrap()
    }

    #[test]
    fn counterexample_satisfies_a_substituted_constraint_outside_its_cone() {
        // The mismatch (`y` against `y ^ 1`) does not read `addr`, so no
        // open point's cone reaches it; the constraint narrows it all the
        // same, and the reported witness must read it back through its
        // narrowed form and satisfy the constraint.
        let mut sb = ModuleBuilder::new("slm");
        let y = sb.input("y", 8);
        sb.input("addr", 4);
        sb.output("return", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let y = rb.input("y", 8);
        let one = rb.lit(8, 1);
        let out = rb.xor(y, one);
        rb.output("out", out);
        let rtl = rb.finish().unwrap();

        // `8 <= addr` (read back through `{1, a'}`, which the asserted
        // constraint lowers) and `addr == 11` (a constant, which nothing
        // lowers).
        let high: fn(&mut ModuleBuilder, NodeId) -> NodeId = |b, a| {
            let eight = b.lit(4, 8);
            b.ule(eight, a)
        };
        let eleven: fn(&mut ModuleBuilder, NodeId) -> NodeId = |b, a| {
            let k = b.lit(4, 11);
            b.eq(a, k)
        };
        for (build, admitted) in [(high, 8..16), (eleven, 11..12)] {
            let spec = EquivSpec::new(1)
                .bind("y", 0, Binding::Slm("y".into()))
                .compare("return", "out", 0)
                .constrain(addr_constraint("on_addr", build));
            let report = check_equivalence(&slm, &rtl, &spec).unwrap();
            assert_eq!(report.constraint_facts, 1);
            let EquivOutcome::NotEquivalent(cex) = &report.outcome else {
                panic!("expected a counterexample, got {:?}", report.outcome);
            };
            let addr = &cex.slm_inputs.iter().find(|(n, _)| n == "addr").unwrap().1;
            assert!(admitted.contains(&addr.to_u64()), "addr = {addr}");
            // The counterexample replays.
            let mut sim = Simulator::new(rtl.clone()).unwrap();
            let yv = &cex.slm_inputs.iter().find(|(n, _)| n == "y").unwrap().1;
            sim.poke("y", yv.clone());
            assert_eq!(sim.output("out"), cex.mismatches[0].rtl_value);
            assert_eq!(*yv, cex.mismatches[0].slm_value);
            assert_ne!(cex.mismatches[0].slm_value, cex.mismatches[0].rtl_value);
        }
    }

    #[test]
    fn constraint_facts_narrow_inputs_and_close_the_bank_lookup() {
        // A 16-entry table read by a 4-bit address, against an 8-entry
        // table read by its low 3 bits: equal exactly when the address
        // is in the low half. The constraint narrows `addr` to
        // `zext(a')`, the table's upper-half compares fold away, and both
        // sides become one word.
        let table: Vec<u64> = (0..16).map(|i| (i * 37 + 11) & 0xFF).collect();
        let lookup = |b: &mut ModuleBuilder, idx: NodeId, entries: &[u64]| {
            let w = b.node_width(idx);
            let mut acc = b.lit(8, 0);
            for (i, &v) in entries.iter().enumerate() {
                let iv = b.lit(w, i as u64);
                let hit = b.eq(idx, iv);
                let val = b.lit(8, v);
                acc = b.mux(hit, val, acc);
            }
            acc
        };
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("addr", 4);
        let y = lookup(&mut sb, a, &table);
        sb.output("return", y);
        let slm = sb.finish().unwrap();
        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("addr", 4);
        let low = rb.trunc(a, 3);
        let y = lookup(&mut rb, low, &table[..8]);
        rb.output("out", y);
        let rtl = rb.finish().unwrap();
        let spec = EquivSpec::new(1)
            .bind("addr", 0, Binding::Slm("addr".into()))
            .compare("return", "out", 0);

        // Unconstrained: the upper half differs.
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(!report.outcome.is_equivalent());
        assert_eq!(report.constraint_facts, 0);

        for (k, bound) in [(1, 8u64), (0, 12)] {
            let c = if bound == 8 {
                addr_constraint("low_half", |b, a| {
                    let k = b.lit(4, 8);
                    b.ult(a, k)
                })
            } else {
                // `addr < 12` is no power of two: solver only.
                addr_constraint("below_12", |b, a| {
                    let k = b.lit(4, 12);
                    b.ult(a, k)
                })
            };
            let report = check_equivalence(&slm, &rtl, &spec.clone().constrain(c)).unwrap();
            assert_eq!(report.constraint_facts, k, "addr < {bound}");
            if bound == 8 {
                assert!(report.outcome.is_equivalent());
                assert_eq!(report.word_closed, 1);
                assert_eq!(report.cnf_vars, 1);
            } else {
                let EquivOutcome::NotEquivalent(cex) = &report.outcome else {
                    panic!("addr in 8..12 differs");
                };
                let addr = cex.slm_inputs[0].1.to_u64();
                assert!((8..12).contains(&addr), "addr = {addr}");
            }
        }
    }

    #[test]
    fn free_binding_checks_all_environments() {
        // RTL output depends on a "mode" pin the SLM doesn't model: with a
        // Free binding the checker must find the bad mode value.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let mode = rb.input("mode", 1);
        let na = rb.not(a);
        let y = rb.mux(mode, na, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Free)
            .compare("y", "y", 0);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(!report.outcome.is_equivalent());

        // Tying the mode off makes them equivalent.
        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Const(Bv::zero(1)))
            .compare("y", "y", 0);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    /// Multiplier commutativity: `a*b` vs `b*a` over 16-bit operands
    /// zero-extended to 32 bits. Bit-blasted with independent operand
    /// orders this is a CDCL cliff; the canonical operand order of
    /// [`BitBlaster::mul_word`] makes both sides the same gates.
    fn hard_pair() -> (Module, Module, EquivSpec) {
        let mut sb = ModuleBuilder::new("slm_mul");
        let a = sb.input("a", 16);
        let b = sb.input("b", 16);
        let (aw, bw) = (sb.zext(a, 32), sb.zext(b, 32));
        let y = sb.mul(aw, bw);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_mul");
        let a = rb.input("a", 16);
        let b = rb.input("b", 16);
        let (aw, bw) = (rb.zext(a, 32), rb.zext(b, 32));
        let y = rb.mul(bw, aw);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .compare("y", "y", 0);
        (slm, rtl, spec)
    }

    /// `a*(b+c)` over 16-bit operands zero-extended to 32 bits: the SLM
    /// side of [`distrib_pair`], also used by the per-output test.
    /// Returns the input `a` and the product.
    fn distrib_slm(b: &mut ModuleBuilder) -> (dfv_rtl::NodeId, dfv_rtl::NodeId) {
        let a = b.input("a", 16);
        let bi = b.input("b", 16);
        let c = b.input("c", 16);
        let (aw, bw, cw) = (b.zext(a, 32), b.zext(bi, 32), b.zext(c, 32));
        let s = b.add(bw, cw);
        (a, b.mul(aw, s))
    }

    /// `a*b + a*c`, the RTL side of [`distrib_pair`], returning the input
    /// `a` and the sum.
    fn distrib_rtl(b: &mut ModuleBuilder) -> (dfv_rtl::NodeId, dfv_rtl::NodeId) {
        let a = b.input("a", 16);
        let bi = b.input("b", 16);
        let c = b.input("c", 16);
        let (aw, bw, cw) = (b.zext(a, 32), b.zext(bi, 32), b.zext(c, 32));
        let ab = b.mul(aw, bw);
        let ac = b.mul(aw, cw);
        (a, b.add(ab, ac))
    }

    /// A deliberately hard miter: distributivity, `a*(b+c)` vs
    /// `a*b + a*c`. No operand order or gate cache relates the two
    /// multiplier structures, and no word-level rewrite does either, so
    /// CDCL faces it with or without the sweep: tiny budgets reliably
    /// exhaust, while the models are genuinely equivalent, so the
    /// simulation fallback finds no counterexample.
    fn distrib_pair() -> (Module, Module, EquivSpec) {
        let mut sb = ModuleBuilder::new("slm_distrib");
        let (_, y) = distrib_slm(&mut sb);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_distrib");
        let (_, y) = distrib_rtl(&mut rb);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("y", "y", 0);
        (slm, rtl, spec)
    }

    #[test]
    fn unswept_multiplier_commutativity_is_free() {
        // The canonical operand order gives `a*b` and `b*a` the same
        // gates, so the difference folds to constant false during
        // encoding: no search, and no clause is ever emitted.
        let (slm, rtl, spec) = hard_pair();
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        assert_eq!(report.solver_stats.conflicts, 0);
        assert_eq!(report.cnf_clauses, 0);
    }

    #[test]
    fn word_closed_miter_allocates_nothing() {
        // Fig 1 in the golden order: the RTL's registers carry the SLM's
        // own words into cycle 1, so both sides build the same word and
        // the compare point closes in the DAG. Nothing is lowered: no
        // variable beyond the constant, no clause, no search.
        let report = check_equivalence(&fig1_slm(false), &fig1_rtl(), &fig1_spec()).unwrap();
        assert!(report.outcome.is_equivalent());
        assert_eq!(report.word_closed, 1);
        assert_eq!(report.cnf_vars, 1);
        assert_eq!(report.cnf_clauses, 0);
        assert_eq!(report.solver_stats.decisions, 0);
        // The reassociated order stays open and is lowered.
        let report = check_equivalence(&fig1_slm(true), &fig1_rtl(), &fig1_spec()).unwrap();
        assert_eq!(report.word_closed, 0);
        assert!(report.cnf_vars > 1);
    }

    #[test]
    fn sweep_collapses_multiplier_commutativity() {
        // The sweeping front-end's commutative GVN canonicalizes both
        // multipliers to the same operand order at the word level, the
        // shared input literals make the two cones literally identical
        // through the gate caches, and the difference folds to constant
        // false — Equivalent in milliseconds with (near) zero conflicts.
        let (slm, rtl, spec) = hard_pair();
        let report = check_equivalence_with(&slm, &rtl, &spec, &CheckOptions::swept()).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        let sweep = report.sweep.expect("sweep ran");
        assert!(sweep.nodes_after <= sweep.nodes_before);
        assert!(
            report.solver_stats.conflicts < 100,
            "canonicalized miter must be trivial, got {} conflicts",
            report.solver_stats.conflicts
        );
    }

    #[test]
    fn sweep_preserves_verdicts_on_fig1() {
        // Same verdict with and without the front-end, on both the
        // equivalent and the inequivalent orderings; the counterexample
        // must land on the same compare point and replay concretely
        // (extract_and_replay already asserts the replay).
        for order_bc in [false, true] {
            let slm = fig1_slm(order_bc);
            let rtl = fig1_rtl();
            let off = check_equivalence(&slm, &rtl, &fig1_spec()).unwrap();
            let on =
                check_equivalence_with(&slm, &rtl, &fig1_spec(), &CheckOptions::swept()).unwrap();
            assert_eq!(off.outcome.is_equivalent(), on.outcome.is_equivalent());
            assert!(on.sweep.is_some());
            assert!(off.sweep.is_none());
            if let (EquivOutcome::NotEquivalent(a), EquivOutcome::NotEquivalent(b)) =
                (&off.outcome, &on.outcome)
            {
                assert_eq!(a.mismatches[0].slm_output, b.mismatches[0].slm_output);
                assert_eq!(a.mismatches[0].rtl_cycle, b.mismatches[0].rtl_cycle);
            }
        }
    }

    #[test]
    fn sweep_respects_constraints_and_free_bindings() {
        // A Free-bound mode pin flips the output; sweeping must still
        // find the bad mode (signatures randomize free bindings, proofs
        // run under the same constraint clauses).
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let mode = rb.input("mode", 1);
        let na = rb.not(a);
        let y = rb.mux(mode, na, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Free)
            .compare("y", "y", 0);
        let report = check_equivalence_with(&slm, &rtl, &spec, &CheckOptions::swept()).unwrap();
        assert!(!report.outcome.is_equivalent());

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Const(Bv::zero(1)))
            .compare("y", "y", 0);
        let report = check_equivalence_with(&slm, &rtl, &spec, &CheckOptions::swept()).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    #[test]
    fn tiny_budget_yields_inconclusive_with_falsification() {
        let (slm, rtl, spec) = distrib_pair();
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(100),
            fallback_transactions: 64,
            fallback_seed: 7,
            ..CheckOptions::default()
        };
        let started = Instant::now();
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::Inconclusive {
                reason,
                falsification: Some(f),
            } => {
                assert_eq!(reason, ExhaustedReason::Conflicts);
                assert_eq!(f.transactions, 64);
                assert_eq!(f.seed, 7);
                assert_eq!(f.rtl_cycles, 1);
                assert!(f.to_string().contains("64 random transactions"));
            }
            other => panic!("expected inconclusive with fallback, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "budgeted check must return in bounded time"
        );
    }

    #[test]
    fn deadline_budget_yields_inconclusive() {
        let (slm, rtl, spec) = distrib_pair();
        let opts = CheckOptions {
            budget: Budget::unlimited().with_timeout(Duration::from_millis(1)),
            fallback_transactions: 0,
            fallback_seed: 0,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert_eq!(
            report.outcome,
            EquivOutcome::Inconclusive {
                reason: ExhaustedReason::Deadline,
                falsification: None,
            }
        );
    }

    #[test]
    fn fallback_simulation_finds_real_bugs() {
        // y = a vs y = !a differ everywhere, so even with a zero-conflict
        // proof budget the random fallback must produce a *validated*
        // counterexample, not an Inconclusive.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let y = rb.not(a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 0);
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(0),
            fallback_transactions: 32,
            fallback_seed: 1,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.mismatches.len(), 1);
                let (_, av) = &cex.slm_inputs[0];
                assert_eq!(cex.mismatches[0].slm_value, *av);
            }
            other => panic!("expected simulation-found counterexample, got {other:?}"),
        }
    }

    #[test]
    fn fallback_respects_constraints() {
        // The models differ only at a == 0; a constraint excludes that
        // value, so the fallback must never report the constrained-away
        // mismatch.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 2);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 2);
        let zero = rb.lit(2, 0);
        let is_zero = rb.eq(a, zero);
        let three = rb.lit(2, 3);
        let y = rb.mux(is_zero, three, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let mut cb = ModuleBuilder::new("nonzero");
        let a = cb.input("a", 2);
        let zero = cb.lit(2, 0);
        let ok = cb.ne(a, zero);
        cb.output("ok", ok);
        let constraint = cb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 0)
            .constrain(constraint);
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(0),
            fallback_transactions: 200,
            fallback_seed: 3,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::Inconclusive {
                falsification: Some(f),
                ..
            } => assert!(f.transactions > 0, "some draws must satisfy a != 0"),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn per_output_budget_localizes_exhaustion() {
        // One easy output (pass-through) and one hard output
        // (distributivity): under a tiny budget the easy one still
        // proves, only the hard one is inconclusive.
        let mut sb = ModuleBuilder::new("slm");
        let (a, p) = distrib_slm(&mut sb);
        sb.output("p", p);
        sb.output("pass", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let (a, p) = distrib_rtl(&mut rb);
        rb.output("p", p);
        rb.output("pass", a);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("pass", "pass", 0)
            .compare("p", "p", 0);
        let opts = CheckOptions::with_budget(Budget::unlimited().with_conflicts(50));
        let report = check_equivalence_per_output_with(&slm, &rtl, &spec, &opts).unwrap();
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.verdicts[0].outcome.is_equivalent());
        assert!(report.verdicts[1].outcome.is_inconclusive());
        assert!(!report.all_equivalent());
    }

    #[test]
    fn unlimited_budget_never_inconclusive() {
        let report = check_equivalence_with(
            &fig1_slm(false),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(report.outcome.is_equivalent());
    }

    #[test]
    fn spec_validation_errors() {
        let slm = fig1_slm(false);
        let rtl = fig1_rtl();
        let bad =
            EquivSpec::new(2)
                .compare("out", "out", 1)
                .bind("nope", 0, Binding::Slm("a".into()));
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad),
            Err(SecError::Spec(_))
        ));
        let bad2 = EquivSpec::new(2); // no compares
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad2),
            Err(SecError::Spec(_))
        ));
        let bad3 = fig1_spec().compare("out", "out", 7); // cycle out of range
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad3),
            Err(SecError::Spec(_))
        ));
    }
}
