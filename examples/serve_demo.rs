//! `dfv-serve` end to end over real sockets: a daemon, clients, graceful
//! drain, and kill-9 restart recovery.
//!
//! Subcommands (all sharing a `<state_dir>` that holds the address file
//! and campaign journals):
//!
//! * `serve <state_dir> [--unix] [--kill-after N]` — start the daemon on
//!   a loopback TCP port (or a Unix-domain socket with `--unix`), write
//!   the address to `<state_dir>/serve.addr`, and serve until a client
//!   sends `Drain` (then finish in-flight work and exit 0).
//!   `--kill-after N` arms the chaos shim: the process hard-aborts the
//!   instant the Nth journal record lands on disk — a deterministic
//!   SIGKILL mid-campaign for the restart-recovery drill.
//! * `submit <state_dir> [--journal NAME] [--edit-resubmit [--revert-out
//!   FILE2] | --edited] [--out FILE]` — submit the demo plan, stream
//!   progress, print the report, and optionally write the canonical JSON
//!   to `FILE`. Exits nonzero if the submission is rejected or the
//!   connection dies (e.g. the daemon was killed). `--edit-resubmit`
//!   submits the plan and then, on the same connection, the plan with one
//!   block changed, which the client sends as a plan delta naming that one
//!   slot; the report is the second one's. `--revert-out FILE2` then
//!   submits the plan once more, the edit reverted, and writes that
//!   report, answered by reference with only the reverted row, to
//!   `FILE2`. `--edited` submits only the edited plan (from a fresh
//!   client, so every block goes in full).
//! * `status <state_dir>` — print the daemon's counters. After two
//!   `submit`s the `campaign.cache_hits` in the second report and the
//!   shared-store dedup are visible here: the fleet pays for each proof
//!   once.
//! * `drain <state_dir>` — ask the daemon to stop admitting, finish
//!   what it accepted, and exit.
//!
//! `scripts/check.sh` drives the full drill: baseline run, `--kill-after`
//! crash mid-campaign, restart, resubmit with the same journal name, and
//! a byte-compare of the canonical reports. It also byte-compares an
//! `--edit-resubmit` report against the one a fresh daemon gives for
//! `submit` followed by `submit --edited`, and its `--revert-out` report
//! against that daemon's next plain `submit`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dfv::core::{BlockPair, ChaosPlan, IoHandle};
use dfv::designs::{alu, fir};
use dfv::obs::Json;
use dfv::rtl::ModuleBuilder;
use dfv::sec::{Binding, EquivSpec};
use dfv::serve::{Client, JobSpec, ServeConfig, Server, SubmitOptions, SubmitOutcome};

/// An equivalent multiplier-commutativity block at `width` bits.
fn mul_block(name: &str, width: u32) -> BlockPair {
    let out = 2 * width;
    let mut rb = ModuleBuilder::new("rtl_mul");
    let a = rb.input("a", width);
    let b = rb.input("b", width);
    let (aw, bw) = (rb.zext(a, out), rb.zext(b, out));
    let y = rb.mul(bw, aw);
    rb.output("y", y);
    BlockPair {
        name: name.into(),
        slm_source: format!(
            "uint<{out}> mul(uint<{width}> a, uint<{width}> b) {{ return (uint<{out}>)a * (uint<{out}>)b; }}"
        ),
        slm_entry: "mul".into(),
        rtl: rb.finish().expect("mul rtl builds"),
        spec: EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .compare("return", "y", 0),
    }
}

/// The demo plan: the ALU and FIR reference blocks plus a multiplier
/// ramp — the same shape every client submits, so resubmissions dedup
/// and journaled resumes replay.
fn demo_blocks() -> Vec<BlockPair> {
    let mut blocks = vec![
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
    ];
    for (i, width) in [4, 4, 5, 5, 6].into_iter().enumerate() {
        blocks.push(mul_block(&format!("mul{width}_{i}"), width));
    }
    blocks
}

/// The demo plan with one block's content changed under its name.
fn edited_blocks() -> Vec<BlockPair> {
    let mut blocks = demo_blocks();
    blocks[3] = mul_block(&blocks[3].name, 7);
    blocks
}

fn addr_file(state_dir: &Path) -> PathBuf {
    state_dir.join("serve.addr")
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_demo serve <state_dir> [--unix] [--kill-after N]\n\
         \x20      serve_demo submit <state_dir> [--journal NAME] [--edit-resubmit [--revert-out FILE] | --edited] [--out FILE]\n\
         \x20      serve_demo status <state_dir>\n\
         \x20      serve_demo drain  <state_dir>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(state_dir)) = (args.first(), args.get(1)) else {
        usage();
    };
    let state_dir = PathBuf::from(state_dir);
    let rest = &args[2..];
    match cmd.as_str() {
        "serve" => cmd_serve(&state_dir, rest),
        "submit" => cmd_submit(&state_dir, rest),
        "status" => with_client(&state_dir, |c| {
            for (name, value) in c.status().expect("status") {
                println!("{name} = {value}");
            }
        }),
        "drain" => with_client(&state_dir, |c| {
            c.drain().expect("drain ack");
            println!("drain acknowledged: the daemon exits once in-flight work finishes");
        }),
        _ => usage(),
    }
}

fn cmd_serve(state_dir: &Path, rest: &[String]) {
    let mut unix = false;
    let mut kill_after = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--unix" => unix = true,
            "--kill-after" => {
                let n = it.next().unwrap_or_else(|| usage());
                kill_after = Some(n.parse::<u64>().expect("N must be a number"));
            }
            _ => usage(),
        }
    }
    std::fs::create_dir_all(state_dir).expect("create state dir");

    let mut cfg = ServeConfig::new(state_dir);
    if let Some(n) = kill_after {
        // The chaos shim hard-aborts the whole process the moment the
        // Nth journal record is durable: a deterministic kill -9 for
        // the restart-recovery drill.
        cfg.io = IoHandle::chaos(ChaosPlan::none(0).kill_after_nth_append(n));
    }
    let server = Arc::new(Server::start(cfg));
    // Connection handles are kept so the daemon can flush every writer
    // (the DrainAck in particular) before the process exits.
    let conns = Arc::new(Mutex::new(Vec::new()));

    if unix {
        #[cfg(unix)]
        {
            let sock = state_dir.join("serve.sock");
            let _ = std::fs::remove_file(&sock);
            let listener = std::os::unix::net::UnixListener::bind(&sock).expect("bind unix socket");
            std::fs::write(addr_file(state_dir), format!("unix:{}", sock.display()))
                .expect("write addr file");
            eprintln!("dfv-serve listening on {}", sock.display());
            let acceptor = server.clone();
            let accepted = conns.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    let r = stream.try_clone().expect("clone unix stream");
                    let conn = acceptor.attach(r, stream);
                    accepted.lock().expect("conn list lock").push(conn);
                }
            });
        }
        #[cfg(not(unix))]
        {
            eprintln!("--unix is only available on Unix platforms");
            std::process::exit(2);
        }
    } else {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        std::fs::write(addr_file(state_dir), format!("tcp:{addr}")).expect("write addr file");
        eprintln!("dfv-serve listening on {addr}");
        let acceptor = server.clone();
        let accepted = conns.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let r = stream.try_clone().expect("clone tcp stream");
                let conn = acceptor.attach(r, stream);
                accepted.lock().expect("conn list lock").push(conn);
            }
        });
    }

    // Blocks until a client's Drain lets the executor pool run dry,
    // then waits for every connection to finish flushing (each client
    // here disconnects once it has its answer) so the final DrainAck is
    // on the wire before the process exits.
    server.wait();
    let drained: Vec<_> = std::mem::take(&mut *conns.lock().expect("conn list lock"));
    for conn in drained {
        conn.join();
    }
    eprintln!("drained; exiting");
}

/// Connects to the daemon named by the state dir's address file and runs
/// `f` against the client, over whichever transport the daemon chose.
fn with_client(state_dir: &Path, f: impl FnOnce(&mut Client<Box<dyn Read>, Box<dyn Write>>)) {
    let addr = std::fs::read_to_string(addr_file(state_dir))
        .expect("read serve.addr (is the daemon running?)");
    let addr = addr.trim();
    let (r, w): (Box<dyn Read>, Box<dyn Write>) = if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let s = std::os::unix::net::UnixStream::connect(path).expect("connect unix socket");
            let r = s.try_clone().expect("clone unix stream");
            (Box::new(r), Box::new(s))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            eprintln!("this daemon listens on a Unix socket; not supported here");
            std::process::exit(2);
        }
    } else {
        let addr = addr.strip_prefix("tcp:").unwrap_or(addr);
        let s = TcpStream::connect(addr).expect("connect daemon");
        let r = s.try_clone().expect("clone tcp stream");
        (Box::new(r), Box::new(s))
    };
    let mut client = Client::new(r, w);
    f(&mut client);
}

fn cmd_submit(state_dir: &Path, rest: &[String]) {
    let mut journal = None;
    let (mut out, mut revert_out) = (None, None);
    let (mut edit_resubmit, mut edited) = (false, false);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--revert-out" => revert_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--edit-resubmit" => edit_resubmit = true,
            "--edited" => edited = true,
            _ => usage(),
        }
    }
    if edit_resubmit && edited || revert_out.is_some() && !edit_resubmit {
        usage();
    }
    let spec = |blocks| JobSpec::Campaign {
        blocks,
        options: SubmitOptions {
            workers: Some(2),
            deadline_ms: None,
            journal: journal.clone(),
        },
    };
    with_client(state_dir, |client| {
        let mut submit = |blocks| match client.submit(&spec(blocks), |block, status| {
            eprintln!("  progress: {block} {status}");
        }) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("submission failed: {e}");
                std::process::exit(1);
            }
        };
        if edit_resubmit {
            // The first report only warms the connection.
            if let rejected @ SubmitOutcome::Rejected { .. } = submit(demo_blocks()) {
                finish_submit(rejected, None);
            }
        }
        let blocks = if edit_resubmit || edited {
            edited_blocks()
        } else {
            demo_blocks()
        };
        finish_submit(submit(blocks), out.as_deref());
        if revert_out.is_some() {
            finish_submit(submit(demo_blocks()), revert_out.as_deref());
        }
    });
}

/// Prints a submission's outcome, writing its canonical report to `out`.
fn finish_submit(outcome: SubmitOutcome, out: Option<&str>) {
    match outcome {
        SubmitOutcome::Report { job, report } => {
            let canonical = report.render();
            let hits = report
                .get("counters")
                .and_then(|c| c.get("campaign.cache_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            println!("job {job} finished; {hits} block(s) served from shared verdicts");
            if let Some(path) = out {
                std::fs::write(path, &canonical).expect("write canonical report");
                println!("canonical report written to {path}");
            } else {
                println!("{canonical}");
            }
        }
        SubmitOutcome::Rejected { reason, class } => {
            eprintln!("rejected ({}): {reason}", class.tag());
            std::process::exit(3);
        }
    }
}
