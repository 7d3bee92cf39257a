//! Property tests for crash tolerance: for seeded random plans, a
//! campaign killed at a random journal point and resumed produces a
//! canonical report byte-identical to an uninterrupted run — across
//! worker counts 1 and 4 — and a chaos-injected worker panic yields a
//! quarantined `Crashed` verdict that the journal replays faithfully.
//!
//! The "kill" is simulated by truncating the journal file at a random
//! byte offset: that is exactly the on-disk state a SIGKILL can leave
//! (any prefix of the appended records, possibly ending mid-record), and
//! the checksummed journal must treat every such prefix as trustworthy
//! records + droppable tail. Randomness comes from the in-tree
//! SplitMix64, so every failure reproduces from the printed seed.

use dfv_bits::SplitMix64;
use dfv_core::{
    BlockPair, BlockStatus, Campaign, CampaignOptions, CampaignReport, ChaosPlan, IoHandle,
    JournalLoad, RetryPolicy, VerificationPlan,
};
use dfv_rtl::{Module, ModuleBuilder};
use dfv_sec::{Binding, Budget, EquivSpec};
use std::path::PathBuf;

const WORKER_COUNTS: [usize; 2] = [1, 4];

fn inc_rtl(offset: u64) -> Module {
    let mut b = ModuleBuilder::new("inc_rtl");
    let x = b.input("x", 8);
    let k = b.lit(8, offset);
    let y = b.add(x, k);
    b.output("y", y);
    b.finish().unwrap()
}

/// A block whose verdict class is drawn from the generator: pass, fail,
/// parse error, lint-blocked, or inconclusive-under-tiny-budget — the
/// journal must round-trip every one of them.
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
            slm_source: "uint8 inc(uint8 x) { int *p = malloc(4); return x + 1; }".into(),
            slm_entry: "inc".into(),
            rtl: inc_rtl(1),
            spec,
        },
        _ => {
            // 12-bit distributivity, a*(b+c) vs a*b + a*c: beyond the tiny
            // budget below, deterministically inconclusive.
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
        retry: RetryPolicy {
            budgets: vec![Budget::unlimited().with_conflicts(50)],
            fallback_transactions: 16,
            fallback_seed: 0xFA11,
        },
        workers: Some(workers),
        ..CampaignOptions::default()
    }
}

/// Everything observable about a run except wall time and provenance:
/// the canonical JSON plus full per-block verdicts (notes included).
/// `from_journal` and durations are deliberately excluded — they are the
/// only things allowed to differ between a clean and a resumed run.
fn fingerprint(report: &CampaignReport) -> String {
    let mut s = report.to_run_report().canonical_json();
    for b in &report.blocks {
        s.push_str(&format!(
            "\n{} {:?} cache={} attempts={} lint={} solver={:?}",
            b.name, b.status, b.from_cache, b.attempts, b.lint_count, b.solver
        ));
    }
    s
}

fn temp_path(tag: &str, seed: u64, n: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dfv-prop-crash-{tag}-{seed:x}-{n}-{}.journal",
        std::process::id()
    ))
}

#[test]
fn kill_at_random_journal_point_resumes_byte_identical() {
    assert!(
        std::env::var("DFV_WORKERS").is_err(),
        "unset DFV_WORKERS to run this test"
    );
    for seed in [3u64, 0xDEAD_BEA7, 0x5EED_0006] {
        let plan = random_plan(seed, 8);

        // Uninterrupted reference run (journal-free): the ground truth the
        // resumed runs must reproduce byte for byte.
        let reference = fingerprint(&Campaign::with_options(options(1)).run(&plan));
        assert_eq!(
            reference,
            fingerprint(&Campaign::with_options(options(4)).run(&plan)),
            "seed {seed}: reference differs across worker counts"
        );

        // A full journaled run must match too (the journal is invisible
        // in the canonical report), and leaves the journal to mutilate.
        let journal = temp_path("kill", seed, 0);
        let _ = std::fs::remove_file(&journal);
        let full = Campaign::with_options(CampaignOptions {
            journal_path: Some(journal.clone()),
            ..options(2)
        })
        .run(&plan);
        assert_eq!(full.journal_load, JournalLoad::Fresh, "seed {seed}");
        assert!(full.journal_error.is_none(), "seed {seed}");
        assert_eq!(fingerprint(&full), reference, "seed {seed}: journaled run");
        let complete = std::fs::read(&journal).unwrap();

        // Kill at random points: any byte prefix of the journal is a state
        // a SIGKILL can leave. Resume from each; the canonical report must
        // be byte-identical to the uninterrupted run at every worker count.
        let mut rng = SplitMix64::new(seed ^ 0xC7A5);
        for k in 0..6u64 {
            let cut = (rng.next_u64() % (complete.len() as u64 + 1)) as usize;
            for workers in WORKER_COUNTS {
                let resumed_path = temp_path("kill", seed, 100 + k * 10 + workers as u64);
                std::fs::write(&resumed_path, &complete[..cut]).unwrap();
                let resumed = Campaign::with_options(CampaignOptions {
                    journal_path: Some(resumed_path.clone()),
                    ..options(workers)
                })
                .run(&plan);
                assert_eq!(
                    fingerprint(&resumed),
                    reference,
                    "seed {seed}, cut {cut}, workers {workers}: resumed run differs"
                );
                // And the verdicts that were journaled before the cut were
                // actually replayed, not recomputed (cut 0 and tiny cuts
                // legitimately replay nothing).
                if cut == complete.len() {
                    assert_eq!(
                        resumed.journal_replayed(),
                        plan.blocks.len(),
                        "seed {seed}: full journal must replay everything"
                    );
                }
                let _ = std::fs::remove_file(&resumed_path);
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn chaos_panic_is_quarantined_and_replays_from_journal() {
    assert!(
        std::env::var("DFV_WORKERS").is_err(),
        "unset DFV_WORKERS to run this test"
    );
    let seed = 0xB00C;
    let plan = random_plan(seed, 6);
    let victim = &plan.blocks[2].name;

    let mut reference: Option<String> = None;
    for workers in WORKER_COUNTS {
        let journal = temp_path("panic", seed, workers as u64);
        let _ = std::fs::remove_file(&journal);

        // Chaos run: the victim block's work item panics; the scheduler
        // quarantines it and every other block completes.
        let chaotic = Campaign::with_options(CampaignOptions {
            journal_path: Some(journal.clone()),
            io: IoHandle::chaos(ChaosPlan::none(seed).panic_on_block(victim)),
            ..options(workers)
        })
        .run(&plan);
        assert_eq!(chaotic.crashed(), 1, "workers {workers}");
        let BlockStatus::Crashed(payload) = &chaotic.blocks[2].status else {
            panic!(
                "workers {workers}: expected Crashed, got {:?}",
                chaotic.blocks[2].status
            );
        };
        assert_eq!(payload, &format!("chaos: injected panic in block {victim}"));
        for (i, b) in chaotic.blocks.iter().enumerate() {
            if i != 2 {
                assert!(
                    !matches!(b.status, BlockStatus::Crashed(_)),
                    "workers {workers}: block {i} must complete"
                );
            }
        }
        let print = fingerprint(&chaotic);
        match &reference {
            None => reference = Some(print),
            Some(r) => assert_eq!(&print, r, "workers {workers}: chaos run not reproducible"),
        }

        // Resume the same journal WITHOUT chaos: the crash verdict is
        // replayed (same-run resume must not silently retry it), and the
        // canonical report is byte-identical to the chaos run.
        let resumed = Campaign::with_options(CampaignOptions {
            journal_path: Some(journal.clone()),
            ..options(workers)
        })
        .run(&plan);
        assert!(
            matches!(resumed.journal_load, JournalLoad::Resumed { .. }),
            "workers {workers}: got {:?}",
            resumed.journal_load
        );
        assert!(resumed.blocks[2].from_journal, "workers {workers}");
        assert_eq!(
            fingerprint(&resumed),
            *reference.as_ref().unwrap(),
            "workers {workers}: resume after crash differs"
        );
        let _ = std::fs::remove_file(&journal);
    }
}
