//! E13 — crash-tolerant campaigns: a journaled verification campaign is
//! killed at a sweep of checkpoint positions and resumed, and at every
//! cut the resumed run's canonical report is byte-identical to the
//! uninterrupted reference while the journal converts already-proved
//! blocks from recomputation into replay.
//!
//! The experiment quantifies what the journal buys: at each cut point it
//! reports how many records survived the "kill" (a byte-truncation of
//! the journal file — exactly the state a SIGKILL can leave), how many
//! blocks the resumed run replayed versus recomputed, and whether the
//! canonical JSON still matched the reference byte for byte. One cut is
//! deliberately torn mid-record to show the checksum dropping the tail
//! instead of trusting it.

use dfv_core::{BlockPair, Campaign, CampaignOptions, VerificationPlan};
use dfv_designs::{alu, fir};
use dfv_obs::{Json, RunReport};
use std::path::PathBuf;

use crate::experiments::e11::distrib_block;
use crate::render_table;

/// The E13 plan: the ALU and FIR reference blocks plus E11's
/// distributivity ramp — six proof obligations of uneven cost, so each journal record
/// represents a materially different amount of rescued work.
pub fn e13_plan() -> VerificationPlan {
    let mut plan = VerificationPlan::new()
        .block(BlockPair {
            name: "alu".into(),
            slm_source: alu::slm_bit_accurate().into(),
            slm_entry: "alu".into(),
            rtl: alu::rtl(8, 8),
            spec: alu::equiv_spec(),
        })
        .block(BlockPair {
            name: "fir".into(),
            slm_source: fir::slm_source().into(),
            slm_entry: "fir".into(),
            rtl: fir::rtl(),
            spec: fir::equiv_spec(),
        });
    for (i, width) in [3, 3, 4, 4].into_iter().enumerate() {
        plan = plan.block(distrib_block(format!("distrib{width}_{i}"), width));
    }
    plan
}

fn options(journal: Option<PathBuf>) -> CampaignOptions {
    CampaignOptions {
        workers: Some(2),
        journal_path: journal,
        ..CampaignOptions::default()
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dfv-e13-{tag}-{}.journal", std::process::id()))
}

/// Byte offset of the end of the `n`-th journal record (the header line
/// counts as record 0's predecessor). `n` past the record count clamps
/// to the full file.
fn record_boundary(journal: &str, n: usize) -> usize {
    let mut seen = 0usize;
    for (i, b) in journal.bytes().enumerate() {
        if b == b'\n' {
            seen += 1;
            // Line 0 is the header; record k ends at newline k+1.
            if seen == n + 1 {
                return i + 1;
            }
        }
    }
    journal.len()
}

struct Cut {
    label: String,
    bytes: usize,
}

/// Runs the kill/resume sweep and reduces it to a [`RunReport`].
///
/// Canonical values: block count, per-cut replayed/recomputed counts,
/// and whether every resumed report matched the reference byte for byte.
/// Wall time for the reference run and the resume sweep lands in
/// `timing`.
pub fn e13_report() -> RunReport {
    let mut rep = RunReport::new("e13_crash_resume");
    let plan = e13_plan();
    let blocks = plan.blocks.len();

    // Uninterrupted journal-free reference: the ground truth.
    let reference = rep
        .phase("reference", || {
            Campaign::with_options(options(None)).run(&plan)
        })
        .to_run_report()
        .canonical_json();

    // One full journaled run to produce the journal we then mutilate.
    let journal_path = temp_journal("full");
    let _ = std::fs::remove_file(&journal_path);
    let full = rep.phase("journaled_run", || {
        Campaign::with_options(options(Some(journal_path.clone()))).run(&plan)
    });
    assert!(
        full.journal_error.is_none(),
        "journal must be writable in E13"
    );
    let journal = std::fs::read_to_string(&journal_path).expect("journal readable");
    let _ = std::fs::remove_file(&journal_path);

    // The kill sweep: record-aligned cuts at none / a third / two thirds /
    // all of the plan, plus one torn mid-record cut the checksum must
    // refuse to trust.
    let torn = record_boundary(&journal, blocks * 2 / 3).saturating_sub(7);
    let cuts = [
        Cut {
            label: "0 records".into(),
            bytes: record_boundary(&journal, 0),
        },
        Cut {
            label: format!("{} records", blocks / 3),
            bytes: record_boundary(&journal, blocks / 3),
        },
        Cut {
            label: format!("{} records", blocks * 2 / 3),
            bytes: record_boundary(&journal, blocks * 2 / 3),
        },
        Cut {
            label: format!("all {blocks} records"),
            bytes: journal.len(),
        },
        Cut {
            label: format!("torn mid-record ({} records intact)", blocks * 2 / 3 - 1),
            bytes: torn,
        },
    ];

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut cut_values = Vec::new();
    rep.phase("resume_sweep", || {
        for (i, cut) in cuts.iter().enumerate() {
            let path = temp_journal(&format!("cut{i}"));
            std::fs::write(&path, &journal.as_bytes()[..cut.bytes]).expect("cut journal written");
            let resumed = Campaign::with_options(options(Some(path.clone()))).run(&plan);
            let _ = std::fs::remove_file(&path);
            let replayed = resumed.journal_replayed();
            let recomputed = blocks - replayed;
            let identical = resumed.to_run_report().canonical_json() == reference;
            all_identical &= identical;
            rows.push(vec![
                cut.label.clone(),
                format!("{}", cut.bytes),
                format!("{replayed}"),
                format!("{recomputed}"),
                if identical { "yes".into() } else { "NO".into() },
            ]);
            cut_values.push(Json::Arr(vec![
                Json::UInt(replayed as u64),
                Json::UInt(recomputed as u64),
            ]));
        }
    });

    rep.set_value("blocks", Json::UInt(blocks as u64));
    rep.set_value("cuts", Json::UInt(cuts.len() as u64));
    rep.set_value("replayed_recomputed_per_cut", Json::Arr(cut_values));
    rep.set_value("reports_identical_after_resume", Json::Bool(all_identical));
    rep.set_value(
        "table",
        Json::Str(render_table(
            &[
                "journal cut at",
                "bytes kept",
                "replayed",
                "recomputed",
                "canonical identical",
            ],
            &rows,
        )),
    );
    rep
}

/// Runs E13 and renders its report.
pub fn e13_crash_resume() -> String {
    let rep = e13_report();
    let mut out = String::from(
        "E13 — crash-tolerant campaigns: kill a journaled run at a sweep of\n\
         checkpoint positions, resume, and diff the canonical report\n\n",
    );
    if let Some(Json::Str(table)) = rep.value("table") {
        out.push_str(table);
    }
    let identical = matches!(
        rep.value("reports_identical_after_resume"),
        Some(Json::Bool(true))
    );
    out.push_str(&format!(
        "\nall resumed reports byte-identical to the uninterrupted run: {identical}\n\
         replayed blocks skip parse, lint, and SAT entirely — the journal\n\
         converts a crash from \"lose the campaign\" into \"lose at most the\n\
         blocks in flight\"; the torn cut shows the checksum dropping a\n\
         half-written record instead of resuming from garbage.\n"
    ));
    out.push_str("\ncanonical JSON (byte-reproducible; wall time lives only in `timing`):\n");
    out.push_str(&rep.canonical_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_resumes_byte_identical_at_every_cut() {
        let rep = e13_report();
        assert_eq!(
            rep.value("reports_identical_after_resume"),
            Some(&Json::Bool(true))
        );
        assert_eq!(rep.value("cuts"), Some(&Json::UInt(5)));
        // The full-journal cut replays everything; the 0-record cut nothing.
        let Some(Json::Arr(per_cut)) = rep.value("replayed_recomputed_per_cut") else {
            panic!("missing per-cut values");
        };
        let blocks = match rep.value("blocks") {
            Some(Json::UInt(n)) => *n,
            other => panic!("missing blocks: {other:?}"),
        };
        assert_eq!(
            per_cut[0],
            Json::Arr(vec![Json::UInt(0), Json::UInt(blocks)])
        );
        assert_eq!(
            per_cut[3],
            Json::Arr(vec![Json::UInt(blocks), Json::UInt(0)])
        );
        assert!(!rep.canonical_json().contains("wall_us"));
    }
}
