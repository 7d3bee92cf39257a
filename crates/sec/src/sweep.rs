//! SAT sweeping: simulation-guided fraiging of the miter during encoding.
//!
//! The optimizing front-end of the equivalence checker (enabled via
//! [`crate::CheckOptions::sweep`]) runs in three stages:
//!
//! 1. **Word-level rewriting** — both modules are canonicalized by
//!    `dfv_rtl::optimize` (structural hashing / GVN, constant folding,
//!    identity rules) before any literal is allocated, so structurally
//!    different but syntactically convertible logic (`a*b` vs `b*a`)
//!    becomes literally identical and collapses through the bit-blaster's
//!    gate caches.
//! 2. **Simulation-guided candidate detection** (this module) — every
//!    node bit of the miter is fingerprinted under `rounds × 64` random
//!    stimulus patterns using the 64-lane [`LaneSim`]: a node's
//!    lane-transposed limbs *are* 64-pattern signatures, so one batched
//!    run refines candidate equivalence classes 64 patterns at a time
//!    with no per-lane extraction. Bits whose signatures still collide
//!    after every round become merge candidates; everything else is
//!    provably distinguishable and never reaches the solver.
//! 3. **SAT sweeping proper** — after each site (the SLM evaluation, each
//!    RTL cycle) is built in the word DAG, every node word is lowered in
//!    node order and each candidate bit is proved equal to its class
//!    representative with a small budgeted incremental `solve(&[xor], …)`
//!    call, which first emits the cones of both literals; proven bits are
//!    *replaced* by the representative literal in the word's lowering
//!    before any later word is lowered from it, so downstream cones
//!    collapse and the final difference check sees a fraigged miter.
//!
//! # Soundness
//!
//! A merge happens only after `CNF ∧ (a ≠ b)` is UNSAT, where CNF is the
//! clause set the solver holds at proof time: the gate definitions in the
//! cones of both literals, the environment-constraint assertions with
//! their cones, and whatever earlier solves emitted. Every emitted clause
//! is a Tseitin definition or an assertion, and clauses are only ever
//! *added* afterwards, so the entailment `CNF ⊨ a = b` persists to the
//! final solve. Tseitin definitions fix each gate variable as a function
//! of the inputs, so any input assignment the constraints allow extends
//! to a model of every definition at once, cone or not: substituting
//! `b := a` preserves the satisfiability of the difference assertion in
//! both directions, and (because constraints are part of CNF) "equal
//! under constraints" is exactly the equivalence the verdict is relative
//! to. Refuted or budget-exhausted candidates are simply left unmerged;
//! the sweep degrades to the unswept encoding, it never changes a
//! verdict. The `prop_sweep` suite asserts this parity over random module
//! pairs, and against exhaustive enumeration on narrow ones; the claim is
//! also gated in CI.

use std::collections::HashMap;

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::{LaneSim, Module};
use dfv_sat::{Budget, Lit, SolveResult};

use crate::bitblast::BitBlaster;
use crate::spec::{Binding, EquivSpec, InitState, SecError};
use crate::word::{WordDag, WordId};

/// Configuration of the sweeping front-end, carried inside
/// [`crate::CheckOptions`]. Disabled by default: sweeping changes no
/// verdict, but it does change the CNF, so opting in is explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Master switch. When false the checker encodes the raw miter.
    pub enabled: bool,
    /// Signature-refinement rounds; each round distinguishes candidates
    /// under 64 fresh random patterns.
    pub rounds: u32,
    /// Conflict budget for each candidate proof. Conflict-only (no
    /// deadline), so sweep decisions — and every derived counter — are
    /// bit-for-bit reproducible across runs and machines.
    pub proof_conflicts: u64,
    /// Cap on the number of candidate proofs attempted per check.
    pub max_proofs: usize,
    /// Seed for the signature stimulus.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            enabled: false,
            rounds: 4,
            proof_conflicts: 200,
            max_proofs: 4096,
            seed: 0x5EE9,
        }
    }
}

impl SweepOptions {
    /// The default configuration with sweeping switched on.
    pub fn on() -> Self {
        SweepOptions {
            enabled: true,
            ..SweepOptions::default()
        }
    }
}

/// What the sweep did to one miter, reported in
/// [`crate::EquivReport::sweep`] and mirrored into `sec.sweep.*` obs
/// counters. All counters are deterministic for a fixed input and
/// [`SweepOptions`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total nodes in both modules before word-level rewriting.
    pub nodes_before: u64,
    /// Total nodes after rewriting (GVN + folding + DCE).
    pub nodes_after: u64,
    /// Candidate equivalence classes that survived signature refinement
    /// (classes with at least two member bits, plus constant classes).
    pub classes: u64,
    /// Candidate bits that reached the prover (a representative literal
    /// existed and differed).
    pub candidates: u64,
    /// Candidates proved equal by a budgeted UNSAT.
    pub proved: u64,
    /// Candidates refuted (SAT) or abandoned (budget exhausted).
    pub refuted: u64,
    /// Literals actually replaced by their representative.
    pub merged_lits: u64,
    /// SAT conflicts spent inside sweep proofs (the overhead side of the
    /// ledger; the final solve's savings are visible in the solver's
    /// cumulative stats).
    pub proof_conflicts: u64,
}

/// Site index of the combinational SLM evaluation.
pub(crate) const SLM_SITE: usize = 0;

/// Site index of RTL cycle `t`.
pub(crate) fn rtl_site(t: u32) -> usize {
    1 + t as usize
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(h: u64, limb: u64) -> u64 {
    (h ^ limb).wrapping_mul(FNV_PRIME)
}

/// How a class obtains its representative literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClassKind {
    /// Signature matched constant 0/1 on every pattern; the
    /// representative is the bit-blaster's false/true literal.
    Const(bool),
    /// Representative is the first member bit reached during encoding.
    Member,
}

/// The sweep engine: signature classes from the analysis phase plus the
/// mutable proof state threaded through the lowering of each site.
pub(crate) struct Sweeper {
    opts: SweepOptions,
    /// `class_of[site][node][bit]` — `u32::MAX` marks a singleton class
    /// (provably distinguishable; never considered).
    class_of: Vec<Vec<Vec<u32>>>,
    kinds: Vec<ClassKind>,
    reprs: Vec<Option<Lit>>,
    proofs_attempted: usize,
    stats: SweepStats,
}

impl Sweeper {
    /// Runs the signature phase: `opts.rounds` batched 64-lane runs of
    /// both (already optimized) modules under binding-consistent random
    /// stimulus, then groups node bits by signature.
    ///
    /// # Errors
    ///
    /// Propagates [`SecError::Rtl`] if a module cannot be lane-simulated
    /// (both were already accepted by `check_module`, so this is
    /// invariant-protected in practice).
    pub(crate) fn analyze(
        slm: &Module,
        rtl: &Module,
        spec: &EquivSpec,
        opts: &SweepOptions,
    ) -> Result<Sweeper, SecError> {
        let k = spec.rtl_cycles;
        let mut sigs: Vec<Vec<Vec<u64>>> = Vec::with_capacity(rtl_site(k));
        sigs.push(per_bit_table(slm));
        for _ in 0..k {
            sigs.push(per_bit_table(rtl));
        }

        let mut slm_sim = LaneSim::new(slm.clone()).map_err(SecError::Rtl)?;
        let mut rtl_sim = LaneSim::new(rtl.clone()).map_err(SecError::Rtl)?;
        let mut binding_at: HashMap<(usize, u32), &Binding> = HashMap::new();
        for (port, cycle, b) in &spec.bindings {
            let idx = rtl.input_index(port).expect("validated");
            binding_at.insert((idx, *cycle), b);
        }
        let mut rng = SplitMix64::new(opts.seed);

        for _ in 0..opts.rounds {
            // One random transaction per lane: SLM inputs drive both the
            // SLM run and every `Binding::Slm`-bound RTL port, exactly
            // mirroring the miter's sharing of input literals.
            let slm_vals: Vec<Vec<Bv>> = slm
                .inputs
                .iter()
                .map(|p| (0..64).map(|_| uniform_bv(&mut rng, p.width)).collect())
                .collect();
            for (idx, p) in slm.inputs.iter().enumerate() {
                for (lane, v) in slm_vals[idx].iter().enumerate() {
                    slm_sim.poke_lane(&p.name, lane, v.clone());
                }
            }
            collect_sigs(&mut slm_sim, slm, &mut sigs[SLM_SITE]);

            rtl_sim.reset();
            if spec.init == InitState::Free {
                // Free-init checks give every register a fresh symbolic
                // word, so signatures must see it as random per lane.
                for r in &rtl.regs {
                    for lane in 0..64 {
                        rtl_sim.set_reg_lane(&r.name, lane, uniform_bv(&mut rng, r.width));
                    }
                }
            }
            for t in 0..k {
                for (i, p) in rtl.inputs.iter().enumerate() {
                    match binding_at.get(&(i, t)) {
                        Some(Binding::Slm(name)) => {
                            let si = slm.input_index(name).expect("validated");
                            for (lane, v) in slm_vals[si].iter().enumerate() {
                                rtl_sim.poke_lane(&p.name, lane, v.clone());
                            }
                        }
                        Some(Binding::SlmSlice { name, hi, lo }) => {
                            let si = slm.input_index(name).expect("validated");
                            for (lane, v) in slm_vals[si].iter().enumerate() {
                                rtl_sim.poke_lane(&p.name, lane, v.slice(*hi, *lo));
                            }
                        }
                        Some(Binding::Const(v)) => rtl_sim.poke_splat(&p.name, v.clone()),
                        Some(Binding::Free) => {
                            for lane in 0..64 {
                                rtl_sim.poke_lane(&p.name, lane, uniform_bv(&mut rng, p.width));
                            }
                        }
                        None => rtl_sim.poke_splat(&p.name, Bv::zero(p.width)),
                    }
                }
                collect_sigs(&mut rtl_sim, rtl, &mut sigs[rtl_site(t)]);
                rtl_sim.step();
            }
        }

        // Class assignment, deterministic in (site, node, bit) order. The
        // constant classes are seeded first so all-0 / all-1 signatures
        // merge toward the bit-blaster's constant literals.
        let sig_false = (0..opts.rounds).fold(FNV_OFFSET, |h, _| fnv_fold(h, 0));
        let sig_true = (0..opts.rounds).fold(FNV_OFFSET, |h, _| fnv_fold(h, u64::MAX));
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for site in &sigs {
            for node in site {
                for &s in node {
                    *counts.entry(s).or_insert(0) += 1;
                }
            }
        }
        let mut class_ids: HashMap<u64, u32> = HashMap::new();
        let mut kinds = vec![ClassKind::Const(false), ClassKind::Const(true)];
        class_ids.insert(sig_false, 0);
        class_ids.insert(sig_true, 1);
        let mut class_of: Vec<Vec<Vec<u32>>> = Vec::with_capacity(sigs.len());
        let mut populated = vec![false; 2];
        for site in &sigs {
            let mut site_classes = Vec::with_capacity(site.len());
            for node in site {
                let mut bits = Vec::with_capacity(node.len());
                for &s in node {
                    let id = match class_ids.get(&s) {
                        Some(&id) => id,
                        None if counts[&s] >= 2 => {
                            let id = kinds.len() as u32;
                            kinds.push(ClassKind::Member);
                            class_ids.insert(s, id);
                            populated.push(false);
                            id
                        }
                        None => u32::MAX,
                    };
                    if id != u32::MAX {
                        populated[id as usize] = true;
                    }
                    bits.push(id);
                }
                site_classes.push(bits);
            }
            class_of.push(site_classes);
        }
        let classes = populated.iter().filter(|&&p| p).count() as u64;
        let reprs = vec![None; kinds.len()];
        Ok(Sweeper {
            opts: *opts,
            class_of,
            kinds,
            reprs,
            proofs_attempted: 0,
            stats: SweepStats {
                classes,
                ..SweepStats::default()
            },
        })
    }

    /// One word of a sweep: inspects a freshly lowered node word at
    /// `site`, proves candidate bits against their class representative,
    /// and rewrites proven bits in place.
    pub(crate) fn process_word(
        &mut self,
        bb: &mut BitBlaster,
        site: usize,
        node: usize,
        word: &mut [Lit],
    ) {
        let budget = Budget::unlimited().with_conflicts(self.opts.proof_conflicts);
        for (bit, lit) in word.iter_mut().enumerate() {
            let c = self.class_of[site][node][bit];
            if c == u32::MAX {
                continue;
            }
            let repr = match self.kinds[c as usize] {
                ClassKind::Const(false) => bb.false_lit(),
                ClassKind::Const(true) => bb.true_lit(),
                ClassKind::Member => match self.reprs[c as usize] {
                    Some(r) => r,
                    None => {
                        self.reprs[c as usize] = Some(*lit);
                        continue;
                    }
                },
            };
            if repr == *lit {
                continue;
            }
            self.stats.candidates += 1;
            if self.proofs_attempted >= self.opts.max_proofs {
                self.stats.refuted += 1;
                continue;
            }
            let diff = bb.xor_gate(*lit, repr);
            if diff == bb.true_lit() {
                // The literals are complements; no proof can merge them.
                self.stats.refuted += 1;
                continue;
            }
            self.proofs_attempted += 1;
            let before = bb.solver().stats().conflicts;
            let res = bb.solve(&[diff], &budget);
            self.stats.proof_conflicts += bb.solver().stats().conflicts - before;
            match res {
                SolveResult::Unsat => {
                    self.stats.proved += 1;
                    self.stats.merged_lits += 1;
                    *lit = repr;
                }
                SolveResult::Sat | SolveResult::Unknown(_) => self.stats.refuted += 1,
            }
        }
    }

    /// Sweeps one site: lowers every node word in node order, runs
    /// [`Sweeper::process_word`] on it, and stores the rewritten literals
    /// as the word's lowering, so the words lowered after it (later
    /// nodes, later cycles) read the representatives.
    pub(crate) fn process_site(
        &mut self,
        dag: &WordDag,
        bb: &mut BitBlaster,
        site: usize,
        nodes: &[WordId],
    ) {
        for (node, &id) in nodes.iter().enumerate() {
            let mut word = bb.lower(dag, id);
            self.process_word(bb, site, node, &mut word);
            bb.relower(id, word);
        }
    }

    pub(crate) fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// One `u64` accumulator per (node, bit) of `m`, at the FNV offset basis.
fn per_bit_table(m: &Module) -> Vec<Vec<u64>> {
    m.node_widths
        .iter()
        .map(|&w| vec![FNV_OFFSET; w as usize])
        .collect()
}

/// Folds every node's lane-transposed limbs into its per-bit signature
/// accumulators.
fn collect_sigs(sim: &mut LaneSim, m: &Module, sigs: &mut [Vec<u64>]) {
    for id in m.node_ids() {
        let limbs = sim.node_lanes(id);
        let acc = &mut sigs[id.index()];
        for (a, &l) in acc.iter_mut().zip(limbs) {
            *a = fnv_fold(*a, l);
        }
    }
}

/// A uniformly random `Bv` of arbitrary width, 64 bits per chunk.
fn uniform_bv(rng: &mut SplitMix64, width: u32) -> Bv {
    if width <= 64 {
        return Bv::from_u64(width, rng.bits(width));
    }
    let mut v = Bv::from_u64(64, rng.next_u64());
    let mut remaining = width - 64;
    while remaining > 0 {
        let w = remaining.min(64);
        v = Bv::from_u64(w, rng.bits(w)).concat(&v);
        remaining -= w;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;

    /// Signatures must place equal-function bits in one class and
    /// distinguishable bits in singletons.
    #[test]
    fn signature_classes_group_equal_bits() {
        // y0 = a & b, y1 = b & a (GVN would merge these, but analyze
        // sees whatever module it is given), y2 = a ^ b.
        let mut b = ModuleBuilder::new("slm");
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let y0 = b.and(a, bi);
        let y1 = b.and(bi, a);
        let y2 = b.xor(a, bi);
        b.output("y0", y0);
        b.output("y1", y1);
        b.output("y2", y2);
        let slm = b.finish().unwrap();

        // Trivial RTL so a spec can be formed; one pass-through cycle.
        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        rb.output("y", a);
        let rtl = rb.finish().unwrap();
        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y0", "y", 0);

        let sw = Sweeper::analyze(&slm, &rtl, &spec, &SweepOptions::on()).unwrap();
        let and0 = y0;
        let and1 = y1;
        let xor = y2;
        for bit in 0..8 {
            assert_eq!(
                sw.class_of[SLM_SITE][and0.index()][bit],
                sw.class_of[SLM_SITE][and1.index()][bit],
                "bit {bit} of the two AND nodes must share a class"
            );
            assert_ne!(
                sw.class_of[SLM_SITE][and0.index()][bit],
                sw.class_of[SLM_SITE][xor.index()][bit],
                "bit {bit} of AND and XOR must be distinguishable"
            );
        }
        assert!(sw.stats().classes >= 1);
    }

    /// The constant classes match bits that are stuck at 0/1 under all
    /// stimulus.
    #[test]
    fn constant_bits_land_in_constant_classes() {
        let mut b = ModuleBuilder::new("slm");
        let a = b.input("a", 8);
        let zero = b.lit(8, 0);
        let y_and = b.and(a, zero); // always 0
        let ones = b.lit(8, 0xFF);
        let y_or = b.or(a, ones); // always 1
        b.output("z", y_and);
        b.output("o", y_or);
        let slm = b.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        rb.output("y", a);
        let rtl = rb.finish().unwrap();
        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("z", "y", 0);

        let sw = Sweeper::analyze(&slm, &rtl, &spec, &SweepOptions::on()).unwrap();
        for bit in 0..8 {
            assert_eq!(sw.class_of[SLM_SITE][y_and.index()][bit], 0, "stuck-at-0");
            assert_eq!(sw.class_of[SLM_SITE][y_or.index()][bit], 1, "stuck-at-1");
        }
        assert_eq!(sw.kinds[0], ClassKind::Const(false));
        assert_eq!(sw.kinds[1], ClassKind::Const(true));
    }

    /// Signature analysis is deterministic: two runs over the same inputs
    /// produce identical class tables.
    #[test]
    fn analysis_is_deterministic() {
        let mut b = ModuleBuilder::new("slm");
        let a = b.input("a", 16);
        let bi = b.input("b", 16);
        let s = b.add(a, bi);
        let m = b.mul(a, bi);
        let y = b.xor(s, m);
        b.output("y", y);
        let slm = b.finish().unwrap();
        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 16);
        rb.output("y", a);
        let rtl = rb.finish().unwrap();
        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 0);
        let s1 = Sweeper::analyze(&slm, &rtl, &spec, &SweepOptions::on()).unwrap();
        let s2 = Sweeper::analyze(&slm, &rtl, &spec, &SweepOptions::on()).unwrap();
        assert_eq!(s1.class_of, s2.class_of);
        assert_eq!(s1.stats(), s2.stats());
    }
}
