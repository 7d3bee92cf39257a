//! Append-only checkpoint journal for crash-tolerant campaigns.
//!
//! The verdict cache ([`crate::cache`]) survives a *clean* campaign: it is
//! written once, at the end. A campaign SIGKILL'd at block 900/1000 never
//! reaches that save and restarts cold — exactly the §4.1 economics
//! failure this module closes. The journal is the complementary
//! structure: an append-only, per-record-checksummed, fsynced work-log
//! written by the single-writer merge step *as results complete*, so a
//! re-run with [`crate::CampaignOptions::resume`] replays every journaled
//! verdict and recomputes only the blocks the crash actually lost.
//!
//! On-disk format (version 1, UTF-8, one record per line):
//!
//! ```text
//! dfv-campaign-journal v1
//! entry<TAB>name<TAB>hash<TAB>tag<TAB>attempts<TAB>from_cache<TAB>lints
//!      <TAB>vars<TAB>clauses<TAB>conflicts<TAB>note<TAB>checksum
//! ```
//!
//! (one line per record; wrapped here for width). `hash`, `conflicts` and
//! `checksum` are 16 lower-hex digits; the checksum is FNV-1a over the
//! payload between `entry\t` and the final tab. Records carry everything
//! the canonical report needs — verdict, attempt count, cache provenance,
//! lint-finding count, and summed solver statistics — so a resumed run's
//! canonical JSON is byte-identical to an uninterrupted one.
//!
//! Unlike the cache, the journal persists `inconc` and `crash` records
//! too: resuming *the same run* must reproduce those verdicts byte for
//! byte, not silently retry them. (A fresh run without `resume` still
//! retries them, because it never reads this file.)
//!
//! A kill mid-append leaves a torn final record; its checksum fails and
//! the record is dropped, never trusted. When a load drops records the
//! file is compacted (rewritten from the surviving ones) so damage does
//! not accumulate. All I/O goes through the campaign's
//! [`crate::IoHandle`], so the chaos harness can tear and kill at will.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dfv_bits::fnv64;

use crate::cache::{escape, status_tag, unescape, PersistError};
use crate::chaos::IoHandle;
use crate::{BlockResult, BlockStatus, SolverTotals};

/// First line of every journal file.
const MAGIC: &str = "dfv-campaign-journal v1";

/// What happened when a campaign opened its checkpoint journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum JournalLoad {
    /// No journal configured (non-resumable campaign).
    #[default]
    Disabled,
    /// A new journal was started (no usable prior records).
    Fresh,
    /// Prior records were replayed from an interrupted run.
    Resumed {
        /// Number of verdicts replayed from the journal.
        entries: usize,
        /// Number of torn/corrupt records dropped on load.
        dropped: usize,
    },
}

/// The tag persisted in a journal record — unlike the cache, the journal
/// keeps inconclusive and crashed verdicts too.
fn journal_tag(status: &BlockStatus) -> (&'static str, String) {
    match status {
        BlockStatus::Inconclusive(n) => ("inconc", n.clone()),
        BlockStatus::Crashed(n) => ("crash", n.clone()),
        other => status_tag(other).expect("conclusive statuses all have cache tags"),
    }
}

/// Renders one journal record line (with trailing newline).
fn render_record(name: &str, hash: u64, r: &BlockResult) -> String {
    let (tag, note) = journal_tag(&r.status);
    let payload = format!(
        "{}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}",
        escape(name),
        hash,
        tag,
        r.attempts,
        u8::from(r.from_cache),
        r.lint_count,
        r.solver.cnf_vars,
        r.solver.cnf_clauses,
        r.solver.conflicts,
        escape(&note)
    );
    format!("entry\t{payload}\t{:016x}\n", fnv64(payload.as_bytes()))
}

/// Parses and checksum-verifies one record line; `None` means damaged.
fn parse_record(line: &str) -> Option<(String, u64, BlockResult)> {
    let payload_ck = line.strip_prefix("entry\t")?;
    let (payload, ck_hex) = payload_ck.rsplit_once('\t')?;
    let want = u64::from_str_radix(ck_hex, 16).ok()?;
    if fnv64(payload.as_bytes()) != want {
        return None;
    }
    let fields: Vec<&str> = payload.split('\t').collect();
    if fields.len() != 10 {
        return None;
    }
    let name = unescape(fields[0]).ok()?;
    let hash = u64::from_str_radix(fields[1], 16).ok()?;
    let attempts: u32 = fields[3].parse().ok()?;
    let from_cache = match fields[4] {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let lint_count: usize = fields[5].parse().ok()?;
    let solver = SolverTotals {
        cnf_vars: fields[6].parse().ok()?,
        cnf_clauses: fields[7].parse().ok()?,
        conflicts: u64::from_str_radix(fields[8], 16).ok()?,
    };
    let note = unescape(fields[9]).ok()?;
    let status = crate::cache::status_from_tag(fields[2], note).ok()?;
    let result = BlockResult {
        name: name.clone(),
        status,
        lint_findings: Vec::new(),
        lint_count,
        equiv: None,
        solver,
        duration: Duration::ZERO,
        from_cache,
        from_journal: true,
        attempts,
    };
    Some((name, hash, result))
}

/// The append side of an open journal. Once an append fails the writer
/// degrades to a no-op (the campaign completes without checkpointing;
/// the first error is reported).
///
/// The writer owns the journal's advisory lock ([`crate::lockfile`]) for
/// its whole lifetime — appends from two processes would interleave into
/// silent corruption, so a second opener degrades to journal-off until
/// this writer drops (or its process dies, making the lock stale).
#[derive(Debug)]
pub(crate) struct JournalWriter {
    path: PathBuf,
    io: IoHandle,
    error: Option<PersistError>,
    /// Held, never read — released on drop.
    _lock: Option<crate::lockfile::FileLock>,
}

impl JournalWriter {
    /// Appends one completed-block record, durably. No-op after the first
    /// failure — a journal that can't be written must not abort the run.
    pub(crate) fn append(&mut self, name: &str, hash: u64, r: &BlockResult) {
        if self.error.is_some() {
            return;
        }
        let record = render_record(name, hash, r);
        if let Err(e) = self.io.shim().append(&self.path, record.as_bytes()) {
            self.error = Some(PersistError::io("append", &self.path, &e));
        }
    }

    /// The first append failure, if any.
    pub(crate) fn error(&self) -> Option<&PersistError> {
        self.error.as_ref()
    }
}

/// Opens (or creates) the journal at `path`, replaying any usable records
/// from an interrupted run.
///
/// Returns the append handle, the replayed verdicts keyed by block name
/// (last record wins — a block journaled twice, e.g. re-verified after an
/// inconclusive, replays its newest verdict), and the load summary. Torn
/// or corrupt records are dropped; if any were, the file is compacted so
/// the damage does not survive into the next crash. An unwritable path
/// degrades to a no-op writer with the error recorded, never a panic.
///
/// The journal's advisory lock is taken *before* anything else — the
/// replay read and the compaction rewrite are only trustworthy while no
/// other process is appending. A lock held by a live process degrades to
/// a no-op writer with nothing replayed (journal-off for this run).
pub(crate) fn open(
    path: &Path,
    io: &IoHandle,
) -> (
    JournalWriter,
    HashMap<String, (u64, BlockResult)>,
    JournalLoad,
) {
    let mut writer = JournalWriter {
        path: path.to_path_buf(),
        io: io.clone(),
        error: None,
        _lock: None,
    };
    match crate::lockfile::FileLock::acquire(path, io) {
        Ok(lock) => writer._lock = Some(lock),
        Err(e) => {
            writer.error = Some(e);
            return (writer, HashMap::new(), JournalLoad::Fresh);
        }
    }
    let shim = io.shim();
    let text = match shim.read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            // First run on this path: write the header durably so a later
            // resume can tell "fresh journal" from "not a journal".
            if let Err(e) = shim.write(path, format!("{MAGIC}\n").as_bytes()) {
                writer.error = Some(PersistError::io("write", path, &e));
            }
            return (writer, HashMap::new(), JournalLoad::Fresh);
        }
        Err(e) => {
            writer.error = Some(PersistError::io("read", path, &e));
            return (writer, HashMap::new(), JournalLoad::Fresh);
        }
    };
    let Some(body) = text.strip_prefix(MAGIC).and_then(|r| r.strip_prefix('\n')) else {
        // Not a journal (or a torn header): start it over.
        if let Err(e) = shim.write(path, format!("{MAGIC}\n").as_bytes()) {
            writer.error = Some(PersistError::io("write", path, &e));
        }
        return (writer, HashMap::new(), JournalLoad::Fresh);
    };
    let mut map: HashMap<String, (u64, BlockResult)> = HashMap::new();
    let mut dropped = 0usize;
    for line in body.lines() {
        match parse_record(line) {
            // Last record wins: insert unconditionally.
            Some((name, hash, r)) => {
                map.insert(name, (hash, r));
            }
            None => dropped += 1,
        }
    }
    // A file ending without a newline is itself evidence of a torn append;
    // `lines()` already handed us that fragment and `parse_record` judged
    // it. Compact whenever anything was dropped so the torn bytes are gone.
    // The rewrite goes through a `.tmp` sibling and an atomic rename (like
    // the cache save): an ENOSPC or fault *during* compaction must leave
    // the original file — torn tail and all, still replayable — untouched,
    // never half-truncated. On failure the writer degrades (error recorded,
    // appends no-op) but the already-parsed replay map is still returned.
    if dropped > 0 {
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        let mut fresh = format!("{MAGIC}\n");
        for name in names {
            let (hash, r) = &map[name.as_str()];
            fresh.push_str(&render_record(name, *hash, r));
        }
        let tmp = crate::cache::tmp_path(path);
        let compacted = shim
            .write(&tmp, fresh.as_bytes())
            .map_err(|e| PersistError::io("write", &tmp, &e))
            .and_then(|()| {
                shim.rename(&tmp, path)
                    .map_err(|e| PersistError::io("rename", path, &e))
            })
            .and_then(|()| {
                shim.sync_dir(crate::cache::parent_dir(path))
                    .map_err(|e| PersistError::io("sync_dir", path, &e))
            });
        if let Err(e) = compacted {
            writer.error = Some(e);
        }
    }
    if map.is_empty() && dropped == 0 {
        return (writer, map, JournalLoad::Fresh);
    }
    let entries = map.len();
    (writer, map, JournalLoad::Resumed { entries, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosIo, ChaosPlan, IoShim, RealIo};
    use std::fs;
    use std::sync::Arc;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dfv-journal-{tag}-{}-{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn result(name: &str, status: BlockStatus) -> BlockResult {
        BlockResult {
            lint_count: 2,
            solver: SolverTotals {
                cnf_vars: 120,
                cnf_clauses: 340,
                conflicts: 7,
            },
            attempts: 3,
            ..crate::cache::disk_result(name, status)
        }
    }

    #[test]
    fn append_then_reopen_replays_every_verdict() {
        let path = temp("roundtrip");
        let _ = fs::remove_file(&path);
        let io = IoHandle::real();
        let (mut w, map, load) = open(&path, &io);
        assert!(map.is_empty());
        assert_eq!(load, JournalLoad::Fresh);
        w.append("a", 0x11, &result("a", BlockStatus::Pass));
        w.append(
            "b",
            0x22,
            &result("b", BlockStatus::NotEquivalent("cex".into())),
        );
        w.append(
            "c",
            0x33,
            &result("c", BlockStatus::Inconclusive("budget".into())),
        );
        w.append("d", 0x44, &result("d", BlockStatus::Crashed("boom".into())));
        assert!(w.error().is_none());
        drop(w); // release the journal lock before reopening

        let (_, map, load) = open(&path, &io);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 4,
                dropped: 0
            }
        );
        assert_eq!(map["a"].0, 0x11);
        assert_eq!(map["a"].1.status, BlockStatus::Pass);
        assert_eq!(map["a"].1.attempts, 3);
        assert_eq!(map["a"].1.lint_count, 2);
        assert_eq!(map["a"].1.solver.cnf_clauses, 340);
        assert!(map["a"].1.from_journal);
        assert_eq!(map["b"].1.status, BlockStatus::NotEquivalent("cex".into()));
        assert_eq!(
            map["c"].1.status,
            BlockStatus::Inconclusive("budget".into())
        );
        assert_eq!(map["d"].1.status, BlockStatus::Crashed("boom".into()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_compacted() {
        let path = temp("torn");
        let _ = fs::remove_file(&path);
        let io = IoHandle::real();
        let (mut w, _, _) = open(&path, &io);
        w.append("a", 1, &result("a", BlockStatus::Pass));
        w.append("b", 2, &result("b", BlockStatus::Pass));
        drop(w);

        // Tear the final record the way a kill mid-append would.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();

        let (_, map, load) = open(&path, &io);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 1
            }
        );
        assert!(map.contains_key("a"));

        // The compaction rewrote the file: reopening sees no damage.
        let (_, map, load) = open(&path, &io);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 0
            }
        );
        assert!(map.contains_key("a"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn last_record_wins_for_a_rejournaled_block() {
        let path = temp("dedup");
        let _ = fs::remove_file(&path);
        let io = IoHandle::real();
        let (mut w, _, _) = open(&path, &io);
        w.append(
            "a",
            1,
            &result("a", BlockStatus::Inconclusive("try1".into())),
        );
        w.append("a", 1, &result("a", BlockStatus::Pass));
        drop(w);
        let (_, map, load) = open(&path, &io);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 0
            }
        );
        assert_eq!(map["a"].1.status, BlockStatus::Pass);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_restarted_not_trusted() {
        let path = temp("alien");
        RealIo.write(&path, b"some other file entirely\n").unwrap();
        let io = IoHandle::real();
        let (_, map, load) = open(&path, &io);
        assert!(map.is_empty());
        assert_eq!(load, JournalLoad::Fresh);
        // The file is now a valid fresh journal.
        assert!(fs::read_to_string(&path).unwrap().starts_with(MAGIC));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bitflipped_record_is_dropped_via_chaos_shim() {
        let path = temp("flip");
        let _ = fs::remove_file(&path);
        let real = IoHandle::real();
        let (mut w, _, _) = open(&path, &real);
        for (i, name) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            w.append(name, i as u64, &result(name, BlockStatus::Pass));
        }
        drop(w);
        let io = IoHandle::new(Arc::new(ChaosIo::new(
            ChaosPlan::none(0xF11B).bitflip_nth_read(1),
        )));
        let (_, map, load) = open(&path, &io);
        match load {
            JournalLoad::Resumed { entries, dropped } => {
                assert!(entries >= 4, "at most one record lost to one flip");
                assert!(dropped <= 1);
                assert_eq!(entries + dropped, 5);
            }
            // The flip landed on the magic header: journal restarted.
            JournalLoad::Fresh => assert!(map.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn enospc_during_compaction_degrades_and_preserves_the_file() {
        let path = temp("enospc-compact");
        let _ = fs::remove_file(&path);
        let real = IoHandle::real();
        let (mut w, _, _) = open(&path, &real);
        w.append("a", 1, &result("a", BlockStatus::Pass));
        w.append("b", 2, &result("b", BlockStatus::Pass));
        drop(w);
        // Tear the tail so the next open wants to compact.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();
        let damaged = fs::read_to_string(&path).unwrap();

        // Byte budget: the lock file (~25 bytes) fits; the compaction's
        // tmp write (header + a full record) does not.
        let io = IoHandle::new(Arc::new(ChaosIo::new(
            ChaosPlan::none(0).enospc_after_bytes(64),
        )));
        let (w, map, load) = open(&path, &io);
        // The replay is still served from the damaged file...
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 1
            }
        );
        assert!(map.contains_key("a"));
        // ...the failure is typed, not a panic...
        let err = w.error().unwrap();
        assert_eq!(err.op, "write");
        assert!(err.msg.contains("ENOSPC"), "{err}");
        drop(w);
        // ...and the original file is byte-identical, never truncated.
        assert_eq!(fs::read_to_string(&path).unwrap(), damaged);

        // Once space is back, the next open compacts successfully.
        let (w2, map, load) = open(&path, &real);
        assert!(w2.error().is_none());
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 1
            }
        );
        assert!(map.contains_key("a"));
        drop(w2);
        let (_, _, load) = open(&path, &real);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 0
            }
        );
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(crate::cache::tmp_path(&path));
    }

    #[test]
    fn failed_rename_during_compaction_leaves_the_original_journal() {
        let path = temp("rename-compact");
        let _ = fs::remove_file(&path);
        let real = IoHandle::real();
        let (mut w, _, _) = open(&path, &real);
        w.append("a", 1, &result("a", BlockStatus::Pass));
        w.append("b", 2, &result("b", BlockStatus::Pass));
        drop(w);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();
        let damaged = fs::read_to_string(&path).unwrap();

        let io = IoHandle::new(Arc::new(ChaosIo::new(
            ChaosPlan::none(0).fail_nth_rename(1),
        )));
        let (w, map, load) = open(&path, &io);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 1
            }
        );
        assert!(map.contains_key("a"));
        let err = w.error().unwrap();
        assert_eq!(err.op, "rename");
        drop(w);
        // The fault fired before the rename touched anything: the damaged
        // (but replayable) original is exactly as it was.
        assert_eq!(fs::read_to_string(&path).unwrap(), damaged);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(crate::cache::tmp_path(&path));
    }

    #[test]
    fn locked_journal_degrades_to_journal_off_with_no_replay() {
        let path = temp("locked");
        let _ = fs::remove_file(&path);
        let real = IoHandle::real();
        let (mut w, _, _) = open(&path, &real);
        w.append("a", 1, &result("a", BlockStatus::Pass));

        // A second opener while the first writer is live: typed lock
        // failure, nothing replayed, appends no-op — never interleaved.
        let (w2, map, load) = open(&path, &real);
        assert!(map.is_empty());
        assert_eq!(load, JournalLoad::Fresh);
        let err = w2.error().unwrap();
        assert_eq!(err.op, "lock");
        drop(w2);
        drop(w);

        // With the first writer gone the journal opens normally again.
        let (_, map, load) = open(&path, &real);
        assert_eq!(
            load,
            JournalLoad::Resumed {
                entries: 1,
                dropped: 0
            }
        );
        assert!(map.contains_key("a"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_append_degrades_writer_without_panicking() {
        let path = temp("degrade");
        let _ = fs::remove_file(&path);
        // Durable write #1 is the lock creation, #2 the header (both
        // succeed); #3 is the first record append (fails); the writer
        // must go quiet after that.
        let io = IoHandle::new(Arc::new(ChaosIo::new(ChaosPlan::none(0).fail_nth_write(3))));
        let (mut w, _, load) = open(&path, &io);
        assert_eq!(load, JournalLoad::Fresh);
        w.append("a", 1, &result("a", BlockStatus::Pass));
        assert!(w.error().is_some());
        w.append("b", 2, &result("b", BlockStatus::Pass));
        let err = w.error().unwrap();
        assert_eq!(err.op, "append");
        drop(w);
        // Only the header reached the disk.
        let (_, map, load) = open(&path, &IoHandle::real());
        assert!(map.is_empty());
        assert_eq!(load, JournalLoad::Fresh);
        let _ = fs::remove_file(&path);
    }
}
