//! The daemon side of the two campaign workloads: one `dfv-serve` server
//! with a single executor and single-worker campaigns, one client over an
//! in-process pipe, and the traced replay of the stages a submission
//! passes through.

use std::path::Path;

use dfv_core::BlockPair;
use dfv_obs::Json;
use dfv_sec::{check_equivalence_with, CheckOptions, EquivOutcome};
use dfv_serve::proto::{decode_request, encode_request};
use dfv_serve::{
    duplex, read_frame, write_frame, Client, ConnHandle, JobSpec, PipeReader, PipeWriter, Request,
    ServeConfig, Server, SubmitOptions, SubmitOutcome,
};

use crate::trace::Tracer;

/// A running single-executor daemon and its one connected client.
pub struct Daemon {
    server: Server,
    conn: ConnHandle,
    client: Client<PipeReader, PipeWriter>,
}

/// One block's verdict as the daemon's canonical report states it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Block name.
    pub name: String,
    /// Status tag (`PASS`, `FAIL`, ...).
    pub status: String,
    /// Whether the content-hash store answered it.
    pub from_cache: bool,
}

impl Daemon {
    /// Starts the server (no journal, no cache file: the state directory
    /// stays empty) and connects one client.
    pub fn start(state_dir: &Path) -> Result<Daemon, String> {
        let mut cfg = ServeConfig::new(state_dir);
        cfg.executors = 1;
        cfg.default_workers = Some(1);
        let server = Server::start(cfg);
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        let mut client = Client::new(cr, cw);
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Daemon {
            server,
            conn,
            client,
        })
    }

    /// Submits one campaign and waits for its canonical report.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Vec<Verdict>, String> {
        match self.client.submit(spec, |_, _| {}) {
            Ok(SubmitOutcome::Report { report, .. }) => verdicts(&report),
            Ok(SubmitOutcome::Rejected { reason, .. }) => Err(format!("rejected: {reason}")),
            Err(e) => Err(format!("submit: {e}")),
        }
    }

    /// Closes the connection and stops the server, joining every thread
    /// it started.
    pub fn stop(self) {
        drop(self.client);
        self.conn.join();
        self.server.stop();
    }
}

/// A campaign submission run by one worker.
pub fn campaign(blocks: Vec<BlockPair>) -> JobSpec {
    JobSpec::Campaign {
        blocks,
        options: SubmitOptions {
            workers: Some(1),
            ..SubmitOptions::default()
        },
    }
}

fn verdicts(report: &Json) -> Result<Vec<Verdict>, String> {
    let blocks = report
        .get("values")
        .and_then(|v| v.get("blocks"))
        .and_then(Json::as_arr)
        .ok_or("report has no blocks")?;
    blocks
        .iter()
        .map(|b| {
            Ok(Verdict {
                name: b
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("block without name")?
                    .into(),
                status: b
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or("block without status")?
                    .into(),
                from_cache: matches!(b.get("from_cache"), Some(Json::Bool(true))),
            })
        })
        .collect()
}

/// Replays, under spans, the stages one submission passes through: the
/// client's request encoding, the server's decoding, the content hash of
/// every block, and lint → elaborate → equivalence check of each block in
/// `computed` (those the store did not answer). Netlist write and parse
/// are timed on their own as well; they run inside the encode, decode and
/// hash stages, so they are not part of the returned sum. Returns the
/// summed time of the stages in milliseconds.
pub fn replay(tr: &mut Tracer, spec: &JobSpec, blocks: &[BlockPair], computed: &[usize]) -> f64 {
    let root = tr.open("replay");
    let mut staged = 0.0;

    let s = tr.open("serve.encode");
    let mut frame = Vec::new();
    let req = encode_request(&Request::Submit(spec.clone())).expect("request encodes");
    write_frame(&mut frame, &req).expect("frame writes to memory");
    staged += tr.close(s);
    tr.count("serve.frame_bytes", frame.len() as f64);

    let s = tr.open("serve.decode");
    let msg = read_frame(&mut frame.as_slice()).expect("frame reads back");
    std::hint::black_box(decode_request(&msg).expect("request decodes"));
    staged += tr.close(s);

    let s = tr.open("core.hash");
    for b in blocks {
        std::hint::black_box(b.content_hash());
    }
    staged += tr.close(s);

    let texts: Vec<String> = tr.time("rtl.netlist_write", || {
        blocks
            .iter()
            .map(|b| dfv_rtl::write_module(&b.rtl))
            .collect()
    });
    tr.time("rtl.netlist_parse", || {
        for t in &texts {
            std::hint::black_box(dfv_rtl::parse_module(t).expect("netlist parses back"));
        }
    });

    for &i in computed {
        staged += replay_check(tr, &blocks[i]);
    }
    tr.close(root);
    staged
}

/// Lint, elaboration and the equivalence check of one block, as
/// `dfv_core::verify_block` runs them, each under its own span.
fn replay_check(tr: &mut Tracer, b: &BlockPair) -> f64 {
    let mut staged = 0.0;
    let s = tr.open("slmir.parse");
    let prog = dfv_slmir::parse(&b.slm_source).expect("generated source parses");
    staged += tr.close(s);
    let s = tr.open("slmir.lint");
    std::hint::black_box(dfv_slmir::lint(&prog, Some(&b.slm_entry)));
    staged += tr.close(s);
    let s = tr.open("slmir.elaborate");
    let slm = dfv_slmir::elaborate(&prog, &b.slm_entry).expect("generated source elaborates");
    staged += tr.close(s);
    let s = tr.open("sec.check");
    let report = check_equivalence_with(&slm, &b.rtl, &b.spec, &CheckOptions::default())
        .expect("spec is valid");
    staged += tr.close(s);
    tr.count("sec.cnf_vars", report.cnf_vars as f64);
    tr.count("sec.cnf_clauses", report.cnf_clauses as f64);
    tr.count("sat.conflicts", report.solver_stats.conflicts as f64);
    tr.count("sat.decisions", report.solver_stats.decisions as f64);
    tr.count("sat.propagations", report.solver_stats.propagations as f64);
    if matches!(report.outcome, EquivOutcome::NotEquivalent(_)) {
        tr.count("sec.not_equivalent", 1.0);
    }
    if let Some(sw) = &report.sweep {
        tr.count("sec.sweep.candidates", sw.candidates as f64);
        tr.count("sec.sweep.proved", sw.proved as f64);
        tr.count("sec.sweep.merged_lits", sw.merged_lits as f64);
    }
    staged
}
