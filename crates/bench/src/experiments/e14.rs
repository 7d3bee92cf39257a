//! E14 — verification as a service: the `dfv-serve` daemon under a
//! multi-client workload, measured on two axes the paper's §4.1 economic
//! argument turns on.
//!
//! **Dedup ratio.** N clients submit the *same* block set concurrently.
//! The daemon's shared content-hash verdict store means the fleet pays
//! for each proof once: the first job to reach a block computes it, and
//! every other client's identical block is a cache hit. With the
//! executor pool serialized the split is exact — one client's worth of
//! proofs computed, `(N-1) × blocks` hits — and the experiment asserts
//! it.
//!
//! **Overload accounting.** With the executor pool frozen and small
//! admission limits, a flood of submissions must produce typed,
//! *transient* `ServiceBusy` rejections with exact counter accounting
//! and a queue pinned at its cap — refused work costs the daemon
//! nothing, and the client knows it may retry.
//!
//! **Warm resubmit.** One client submits a plan of real design blocks,
//! then the same plan again on the same connection. The second request
//! carries every block as a connection-scoped ref instead of its content,
//! so its frame is a small fraction of the first, and every block is a
//! store hit. Both frame sizes are deterministic byte counts.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dfv_core::BlockPair;
use dfv_designs::{alu, conv, fir, memsys};
use dfv_obs::{kinds, Json, RunReport};
use dfv_rtl::ModuleBuilder;
use dfv_sec::{Binding, EquivSpec};
use dfv_serve::{
    duplex, Admission, Client, JobSpec, Limits, ServeConfig, Server, SubmitOptions, SubmitOutcome,
};

use crate::render_table;

/// Clients in the dedup phase.
const CLIENTS: usize = 3;

/// A one-cycle `y = x + delta` equivalence block. Every client builds
/// the identical plan, so content hashes collide across jobs by design.
fn add_block(name: &str, delta: u64) -> BlockPair {
    let mut b = ModuleBuilder::new("add_rtl");
    let x = b.input("x", 8);
    let k = b.lit(8, delta);
    let y = b.add(x, k);
    b.output("y", y);
    BlockPair {
        name: name.into(),
        slm_source: format!("uint8 f(uint8 x) {{ return x + {delta}; }}"),
        slm_entry: "f".into(),
        rtl: b.finish().expect("add rtl builds"),
        spec: EquivSpec::new(1)
            .bind("x", 0, Binding::Slm("x".into()))
            .compare("return", "y", 0),
    }
}

fn plan() -> Vec<BlockPair> {
    (1..=4).map(|d| add_block(&format!("add{d}"), d)).collect()
}

fn submit_spec(blocks: Vec<BlockPair>) -> JobSpec {
    JobSpec::Campaign {
        blocks,
        options: SubmitOptions {
            workers: Some(1),
            deadline_ms: None,
            journal: None,
        },
    }
}

/// The warm-resubmit plan: real design blocks, a few KB of netlist each.
fn design_plan() -> Vec<BlockPair> {
    let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x3c);
    vec![
        BlockPair {
            name: "alu".into(),
            slm_source: alu::slm_bit_accurate().into(),
            slm_entry: "alu".into(),
            rtl: alu::rtl(8, 8),
            spec: alu::equiv_spec(),
        },
        BlockPair {
            name: "fir".into(),
            slm_source: fir::slm_source().into(),
            slm_entry: "fir".into(),
            rtl: fir::rtl(),
            spec: fir::equiv_spec(),
        },
        BlockPair {
            name: "memf".into(),
            slm_source: memsys::slm_source(&table),
            slm_entry: "lookup".into(),
            rtl: memsys::rtl(&table),
            spec: memsys::equiv_spec_fast(),
        },
        BlockPair {
            name: "blur".into(),
            slm_source: conv::slm_source().into(),
            slm_entry: "blur".into(),
            rtl: conv::rtl(),
            spec: conv::equiv_spec(),
        },
    ]
}

/// A writer that counts the bytes it passes on.
struct Counted<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn state_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dfv-e14-{tag}-{}", std::process::id()))
}

/// Runs the service workload and reduces it to a [`RunReport`].
///
/// Canonical values: client/block counts, computed-vs-dedup split,
/// overload accepted/rejected tallies, and the daemon's own `serve.*`
/// counters for both phases. Wall time lands only in `timing`.
pub fn e14_report() -> RunReport {
    let mut rep = RunReport::new("e14_serve");
    let blocks = plan().len();

    // Phase 1 — dedup: N concurrent clients, identical plans, one
    // executor so the jobs serialize and the split is exact.
    let mut cfg = ServeConfig::new(state_dir("dedup"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let hits: Vec<u64> = rep.phase("dedup_clients", || {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let ((cr, cw), (sr, sw)) = duplex();
                let conn = server.attach(sr, sw);
                std::thread::spawn(move || {
                    let mut client = Client::new(cr, cw);
                    let outcome = client
                        .submit(&submit_spec(plan()), |_, _| {})
                        .expect("submission survives");
                    drop(client);
                    conn.join();
                    match outcome {
                        SubmitOutcome::Report { report, .. } => report
                            .get("counters")
                            .and_then(|c| c.get("campaign.cache_hits"))
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                        other => panic!("unexpected {other:?}"),
                    }
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let dedup_hits: u64 = hits.iter().sum();
    let computed = (CLIENTS * blocks) as u64 - dedup_hits;
    let dedup_completed = server.counter(kinds::SERVE_COMPLETED);
    server.stop();

    // Phase 2 — overload: freeze the executor pool, shrink the limits,
    // and flood. Every refusal must be typed transient; the queue stays
    // pinned at the cap.
    let mut cfg = ServeConfig::new(state_dir("overload"));
    cfg.executors = 0;
    cfg.limits = Limits {
        total: 4,
        campaigns: 2,
        fault_sweeps: 2,
    };
    let server = Server::start(cfg);
    let (accepted, rejected, queued_at_cap) = rep.phase("overload_flood", || {
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        let mut client = Client::new(cr, cw);
        let (mut acc, mut rej) = (0u64, 0u64);
        for round in 0..8u64 {
            let specs = [
                submit_spec(plan()),
                JobSpec::FaultSweep {
                    seed: round,
                    blocks: vec![],
                    options: SubmitOptions::default(),
                },
            ];
            for spec in &specs {
                match client.submit_nowait(spec).expect("admission answers") {
                    Admission::Accepted(_) => acc += 1,
                    Admission::Rejected { class, .. } => {
                        assert_eq!(
                            class,
                            dfv_serve::RetryClass::Transient,
                            "overload refusals are retryable"
                        );
                        rej += 1;
                    }
                }
            }
        }
        // Read the depth while the client still holds its jobs: once it
        // disconnects, the daemon purges its queued work on purpose.
        let depth = server.queued() as u64;
        drop(client);
        conn.join();
        (acc, rej, depth)
    });
    let serve_rejected = server.counter(kinds::SERVE_REJECTED);
    server.stop();

    // Phase 3 — warm resubmit: the same plan twice on one connection,
    // counting the request bytes of each submission.
    let mut cfg = ServeConfig::new(state_dir("warm"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let warm_blocks = design_plan().len();
    let (full_bytes, ref_bytes, warm_hits) = rep.phase("warm_resubmit", || {
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        let sent = Arc::new(AtomicU64::new(0));
        let mut client = Client::new(
            cr,
            Counted {
                inner: cw,
                bytes: sent.clone(),
            },
        );
        let mut submit = || {
            let before = sent.load(Ordering::Relaxed);
            let outcome = client
                .submit(&submit_spec(design_plan()), |_, _| {})
                .expect("submission survives");
            let SubmitOutcome::Report { report, .. } = outcome else {
                panic!("unexpected {outcome:?}");
            };
            let hits = report
                .get("counters")
                .and_then(|c| c.get("campaign.cache_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (sent.load(Ordering::Relaxed) - before, hits)
        };
        let (full, _) = submit();
        let (refs, hits) = submit();
        drop(client);
        conn.join();
        (full, refs, hits)
    });
    server.stop();

    rep.set_value("clients", Json::UInt(CLIENTS as u64));
    rep.set_value("blocks_per_client", Json::UInt(blocks as u64));
    rep.set_value("proofs_computed", Json::UInt(computed));
    rep.set_value("dedup_hits", Json::UInt(dedup_hits));
    rep.set_value("dedup_jobs_completed", Json::UInt(dedup_completed));
    rep.set_value("overload_accepted", Json::UInt(accepted));
    rep.set_value("overload_rejected", Json::UInt(rejected));
    rep.set_value("overload_queue_at_cap", Json::UInt(queued_at_cap));
    rep.set_value("serve_rejected_counter", Json::UInt(serve_rejected));
    rep.set_value("warm_blocks", Json::UInt(warm_blocks as u64));
    rep.set_value("warm_full_frame_bytes", Json::UInt(full_bytes));
    rep.set_value("warm_ref_frame_bytes", Json::UInt(ref_bytes));
    rep.set_value("warm_hits", Json::UInt(warm_hits));
    rep.set_value(
        "table",
        Json::Str(render_table(
            &[
                "phase",
                "submitted",
                "computed",
                "dedup hits",
                "rejected",
                "request bytes",
            ],
            &[
                vec![
                    format!("dedup ×{CLIENTS} clients"),
                    format!("{}", CLIENTS * blocks),
                    format!("{computed}"),
                    format!("{dedup_hits}"),
                    "0".into(),
                    "-".into(),
                ],
                vec![
                    "overload flood".into(),
                    "16".into(),
                    "0".into(),
                    "0".into(),
                    format!("{rejected}"),
                    "-".into(),
                ],
                vec![
                    "cold submit".into(),
                    format!("{warm_blocks}"),
                    format!("{warm_blocks}"),
                    "0".into(),
                    "0".into(),
                    format!("{full_bytes}"),
                ],
                vec![
                    "warm resubmit (delta)".into(),
                    format!("{warm_blocks}"),
                    "0".into(),
                    format!("{warm_hits}"),
                    "0".into(),
                    format!("{ref_bytes}"),
                ],
            ],
        )),
    );
    rep
}

/// Renders E14 as the experiment runner's report text.
pub fn e14_serve() -> String {
    let rep = e14_report();
    let mut out = String::from(
        "E14 — verification as a service: N clients against the dfv-serve\n\
         daemon, measuring cross-client proof dedup, overload refusal and\n\
         what a warm resubmission sends\n\n",
    );
    if let Some(Json::Str(table)) = rep.value("table") {
        out.push_str(table);
    }
    out.push_str(
        "\nthe shared content-hash store means a fleet submitting overlapping\n\
         block sets pays for each proof once; admission limits turn overload\n\
         into typed transient rejections instead of unbounded queue growth;\n\
         a warm resubmission sends only the slots that changed since the\n\
         connection's last plan, and the daemon resolves the rest itself.\n",
    );
    out.push_str("\ncanonical JSON (byte-reproducible; wall time lives only in `timing`):\n");
    out.push_str(&rep.canonical_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_dedup_is_exact_and_overload_accounting_balances() {
        let rep = e14_report();
        let blocks = match rep.value("blocks_per_client") {
            Some(Json::UInt(n)) => *n,
            other => panic!("missing blocks: {other:?}"),
        };
        // One client's worth computed, everyone else's deduped.
        assert_eq!(rep.value("proofs_computed"), Some(&Json::UInt(blocks)));
        assert_eq!(
            rep.value("dedup_hits"),
            Some(&Json::UInt((CLIENTS as u64 - 1) * blocks))
        );
        assert_eq!(
            rep.value("dedup_jobs_completed"),
            Some(&Json::UInt(CLIENTS as u64))
        );
        // 16 submissions against limits {total 4, 2 per class}: exactly
        // four admitted, the rest refused, the queue pinned at the cap.
        assert_eq!(rep.value("overload_accepted"), Some(&Json::UInt(4)));
        assert_eq!(rep.value("overload_rejected"), Some(&Json::UInt(12)));
        assert_eq!(rep.value("serve_rejected_counter"), Some(&Json::UInt(12)));
        assert_eq!(rep.value("overload_queue_at_cap"), Some(&Json::UInt(4)));
        // The warm resubmission is all store hits over a request frame
        // under a twentieth of the cold one.
        let uint = |k: &str| match rep.value(k) {
            Some(Json::UInt(n)) => *n,
            other => panic!("missing {k}: {other:?}"),
        };
        assert_eq!(uint("warm_hits"), uint("warm_blocks"));
        assert!(
            uint("warm_ref_frame_bytes") * 20 < uint("warm_full_frame_bytes"),
            "ref frame {} B vs full frame {} B",
            uint("warm_ref_frame_bytes"),
            uint("warm_full_frame_bytes")
        );
        assert!(!rep.canonical_json().contains("wall_us"));
    }
}
