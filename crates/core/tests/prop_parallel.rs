//! Property tests for the determinism contract of the parallel campaign
//! scheduler: for seeded random plans, `Campaign` and `FaultCampaign`
//! produce byte-identical canonical reports across worker counts
//! {1, 2, 4, 8} and across repeated runs at the same count — including
//! plans with cache hits, budget-exhausted (inconclusive) blocks, lint
//! and parse failures, and dirty fault-sweep baselines.
//!
//! Randomness comes from the in-tree SplitMix64 (no external deps), so
//! the test itself is reproducible.

use dfv_bits::{Bv, SplitMix64};
use dfv_core::{
    BlockPair, Campaign, CampaignOptions, CampaignReport, FaultBlock, FaultCampaign, RetryPolicy,
    VerificationPlan,
};
use dfv_cosim::{ComparatorPolicy, StreamItem};
use dfv_rtl::{Module, ModuleBuilder};
use dfv_sec::{Binding, Budget, EquivSpec};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn inc_rtl(offset: u64) -> Module {
    let mut b = ModuleBuilder::new("inc_rtl");
    let x = b.input("x", 8);
    let k = b.lit(8, offset);
    let y = b.add(x, k);
    b.output("y", y);
    b.finish().unwrap()
}

/// A block whose flavor (verdict class) is drawn from the generator:
/// pass, fail (wrong constant), parse error, lint-blocked, or a
/// multiplier identity too hard for the tiny test budget (inconclusive).
fn random_block(i: usize, rng: &mut SplitMix64) -> BlockPair {
    let name = format!("b{i}");
    let spec = EquivSpec::new(1)
        .bind("x", 0, Binding::Slm("x".into()))
        .compare("return", "y", 0);
    match rng.next_u64() % 5 {
        0 => BlockPair {
            name,
            slm_source: "uint8 inc(uint8 x) { return x + 1; }".into(),
            slm_entry: "inc".into(),
            rtl: inc_rtl(1),
            spec,
        },
        1 => BlockPair {
            name,
            slm_source: "uint8 inc(uint8 x) { return x + 1; }".into(),
            slm_entry: "inc".into(),
            rtl: inc_rtl(2), // wrong constant: NotEquivalent
            spec,
        },
        2 => BlockPair {
            name,
            slm_source: "uint8 inc(uint8".into(), // parse error
            slm_entry: "inc".into(),
            rtl: inc_rtl(1),
            spec,
        },
        3 => BlockPair {
            name,
            // malloc is a DFV lint error: LintBlocked.
            slm_source: "uint8 inc(uint8 x) { int *p = malloc(4); return x + 1; }".into(),
            slm_entry: "inc".into(),
            rtl: inc_rtl(1),
            spec,
        },
        _ => {
            // 12-bit distributivity, a*(b+c) vs a*b + a*c: genuinely
            // equivalent but far beyond the tiny conflict budget below —
            // deterministically Inconclusive with seeded falsification
            // evidence.
            let mut rb = ModuleBuilder::new("rtl_distrib");
            let a = rb.input("a", 12);
            let b = rb.input("b", 12);
            let c = rb.input("c", 12);
            let (aw, bw, cw) = (rb.zext(a, 24), rb.zext(b, 24), rb.zext(c, 24));
            let ab = rb.mul(aw, bw);
            let ac = rb.mul(aw, cw);
            let y = rb.add(ab, ac);
            rb.output("y", y);
            BlockPair {
                name,
                slm_source: "uint<24> distrib(uint<12> a, uint<12> b, uint<12> c) { \
                             return (uint<24>)a * ((uint<24>)b + (uint<24>)c); }"
                    .into(),
                slm_entry: "distrib".into(),
                rtl: rb.finish().unwrap(),
                spec: EquivSpec::new(1)
                    .bind("a", 0, Binding::Slm("a".into()))
                    .bind("b", 0, Binding::Slm("b".into()))
                    .bind("c", 0, Binding::Slm("c".into()))
                    .compare("return", "y", 0),
            }
        }
    }
}

fn random_plan(seed: u64, blocks: usize) -> VerificationPlan {
    let mut rng = SplitMix64::new(seed);
    let mut plan = VerificationPlan::new();
    for i in 0..blocks {
        plan = plan.block(random_block(i, &mut rng));
    }
    plan
}

fn options(workers: usize) -> CampaignOptions {
    CampaignOptions {
        // A tiny budget keeps the hard blocks bounded (and inconclusive);
        // the seeded fallback keeps their evidence deterministic.
        retry: RetryPolicy {
            budgets: vec![Budget::unlimited().with_conflicts(50)],
            fallback_transactions: 16,
            fallback_seed: 0xFA11,
        },
        deadline: None,
        cache_path: None,
        workers: Some(workers),
        ..CampaignOptions::default()
    }
}

/// Everything observable about a run except wall time: the canonical
/// JSON plus the full per-block verdicts (status notes included, which
/// the canonical JSON elides).
fn fingerprint(report: &CampaignReport) -> String {
    let mut s = report.to_run_report().canonical_json();
    for b in &report.blocks {
        s.push_str(&format!(
            "\n{} {:?} cache={} attempts={} lint={}",
            b.name,
            b.status,
            b.from_cache,
            b.attempts,
            b.lint_findings.len()
        ));
    }
    s
}

#[test]
fn campaign_reports_are_byte_identical_across_worker_counts() {
    // DFV_WORKERS would override the per-run worker counts under test.
    assert!(
        std::env::var("DFV_WORKERS").is_err(),
        "unset DFV_WORKERS to run this test"
    );
    let mut covered_inconclusive = false;
    for seed in [1u64, 0xDF5, 0xB10C_5EED] {
        let plan = random_plan(seed, 8);
        let mut reference: Option<(String, String)> = None;
        for workers in WORKER_COUNTS {
            // Cold run, then a warm run over the same campaign so cached
            // verdicts participate too.
            let mut campaign = Campaign::with_options(options(workers));
            let cold = fingerprint(&campaign.run(&plan));
            let warm_report = campaign.run(&plan);
            assert!(warm_report.cache_hits() > 0, "seed {seed}: no cache hits");
            let warm = fingerprint(&warm_report);
            covered_inconclusive |= cold.contains("Inconclusive");
            match &reference {
                None => reference = Some((cold, warm)),
                Some((c, w)) => {
                    assert_eq!(&cold, c, "seed {seed}, workers {workers}: cold run differs");
                    assert_eq!(&warm, w, "seed {seed}, workers {workers}: warm run differs");
                }
            }
        }
    }
    // The generator must exercise the budget-exhausted path, not just
    // pass/fail/error/lint.
    assert!(
        covered_inconclusive,
        "no seed produced an inconclusive block"
    );
}

#[test]
fn campaign_repeated_runs_at_same_worker_count_are_identical() {
    let plan = random_plan(0xCAFE, 6);
    for workers in [2, 8] {
        let r1 = fingerprint(&Campaign::with_options(options(workers)).run(&plan));
        let r2 = fingerprint(&Campaign::with_options(options(workers)).run(&plan));
        assert_eq!(r1, r2, "workers {workers}: repeated cold runs differ");
    }
}

fn random_stream(rng: &mut SplitMix64, n: u64, constant: bool) -> Vec<StreamItem> {
    let base = rng.next_u64() % 0x1000;
    (0..n)
        .map(|i| StreamItem {
            value: Bv::from_u64(16, if constant { base } else { base + i }),
            time: i * 3,
        })
        .collect()
}

fn random_fault_blocks(seed: u64, n: usize) -> Vec<FaultBlock> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let flavor = rng.next_u64() % 4;
            let stream = random_stream(&mut rng, 48, flavor == 1);
            let mut actual = stream.clone();
            if flavor == 2 {
                // Dirty baseline: rejected before any injection.
                actual[0].value = Bv::from_u64(16, 0xBAD);
            }
            FaultBlock {
                name: format!("fb{i}"),
                expected: stream,
                actual,
                policy: if flavor == 3 {
                    ComparatorPolicy::Exact
                } else {
                    ComparatorPolicy::InOrder {
                        tolerance: u64::MAX,
                        max_skew: None,
                    }
                },
            }
        })
        .collect()
}

#[test]
fn fault_campaign_reports_are_byte_identical_across_worker_counts() {
    assert!(
        std::env::var("DFV_WORKERS").is_err(),
        "unset DFV_WORKERS to run this test"
    );
    for seed in [7u64, 0xF00D, 0xFEED_5EED] {
        let blocks = random_fault_blocks(seed, 9);
        let mut reference: Option<(String, String)> = None;
        for workers in WORKER_COUNTS {
            let campaign = FaultCampaign::new(seed).with_workers(workers);
            let report = campaign.run(&blocks);
            let canon = report.to_run_report().canonical_json();
            let text = report.to_string();
            match &reference {
                None => {
                    // The generator must exercise the interesting paths.
                    assert!(
                        !report.baseline_errors.is_empty(),
                        "seed {seed}: no dirty baseline generated"
                    );
                    assert!(!report.cases.is_empty());
                    reference = Some((canon, text));
                }
                Some((c, t)) => {
                    assert_eq!(&canon, c, "seed {seed}, workers {workers}: JSON differs");
                    assert_eq!(&text, t, "seed {seed}, workers {workers}: text differs");
                }
            }
        }
        // And repeated runs at one count reproduce byte-for-byte.
        let again = FaultCampaign::new(seed)
            .with_workers(4)
            .run(&blocks)
            .to_run_report()
            .canonical_json();
        assert_eq!(again, reference.unwrap().0);
    }
}
