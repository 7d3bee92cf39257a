//! Crash-safe on-disk persistence for the campaign's incremental cache.
//!
//! The paper's incremental-SEC payoff only survives a process restart if
//! the per-block verdicts do, so a [`crate::Campaign`] can persist its
//! cache to a plain-text file (version 2, UTF-8, one record per line):
//!
//! ```text
//! dfv-campaign-cache v2
//! entry<TAB><name><TAB><content hash, 16 hex><TAB><status tag><TAB><note><TAB><checksum, 16 hex>
//! ```
//!
//! Each record carries its own FNV-1a checksum over the fields before it,
//! so corruption is contained: a truncated or bit-flipped record is
//! dropped as a miss *for that entry only* and the rest of the file is
//! recovered ([`CacheLoad::Recovered`]) — v1 discarded the whole file on
//! any damage, forfeiting every other verdict. Saves write a sibling
//! `.tmp` file and atomically rename it over the old cache, so a crash
//! mid-save leaves the previous cache intact.
//!
//! All file operations go through the campaign's [`crate::IoHandle`], so
//! the chaos harness ([`crate::chaos`]) can inject torn writes and bit
//! flips and *test* this recovery path. I/O failures surface as typed
//! [`PersistError`]s that the campaign degrades on (cache-off operation),
//! never panics.
//!
//! Only *conclusive* verdicts (`pass`, `lint`, `fail`, `error`) are
//! persisted: an [`crate::BlockStatus::Inconclusive`] block must be retried
//! on the next run (possibly under a bigger budget), not replayed. Lint
//! findings and solver statistics are not persisted; a disk-served
//! [`BlockResult`] carries only the verdict.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::time::Duration;

use dfv_bits::fnv64;

use crate::chaos::IoHandle;
use crate::{BlockResult, BlockStatus, SolverTotals};

/// First line of every cache file.
const MAGIC: &str = "dfv-campaign-cache v2";

/// A typed persistence failure: which operation, on which path, and why.
///
/// Campaign persistence never panics on I/O — every failure becomes one of
/// these and the campaign degrades (cache disabled, journal disabled) while
/// still completing its verification work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// The operation that failed (`"read"`, `"write"`, `"append"`, ...).
    pub op: &'static str,
    /// The file involved, as given.
    pub path: String,
    /// The underlying error text.
    pub msg: String,
}

impl PersistError {
    /// Wraps an `io::Error` from `op` on `path`.
    pub fn io(op: &'static str, path: &Path, err: &io::Error) -> Self {
        PersistError {
            op,
            path: path.display().to_string(),
            msg: err.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path, self.msg)
    }
}

impl Error for PersistError {}

/// What happened when a campaign tried to load its persisted cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CacheLoad {
    /// No persistence configured (in-memory campaign).
    #[default]
    Disabled,
    /// No cache file existed yet (first run on this path).
    Missing,
    /// The cache file was read and every record passed its checksum.
    Loaded {
        /// Number of block verdicts recovered.
        entries: usize,
    },
    /// The file had damaged records (torn tail, bit rot); the intact ones
    /// were recovered and the damaged ones count as misses.
    Recovered {
        /// Number of block verdicts recovered.
        entries: usize,
        /// Number of damaged records dropped.
        dropped: usize,
    },
    /// The file was unreadable or not a cache file at all (bad magic).
    /// The campaign starts cold and rebuilds it on the next save.
    Corrupt {
        /// What exactly was wrong with the file.
        reason: String,
    },
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape sequence \\{other:?}")),
        }
    }
    Ok(out)
}

/// The status tag persisted for a conclusive verdict, if it has one.
pub(crate) fn status_tag(status: &BlockStatus) -> Option<(&'static str, String)> {
    match status {
        BlockStatus::Pass => Some(("pass", String::new())),
        BlockStatus::LintBlocked => Some(("lint", String::new())),
        BlockStatus::NotEquivalent(n) => Some(("fail", n.clone())),
        BlockStatus::Error(n) => Some(("error", n.clone())),
        BlockStatus::Inconclusive(_) | BlockStatus::Crashed(_) => None,
    }
}

/// Parses a persisted status tag back into a [`BlockStatus`].
pub(crate) fn status_from_tag(tag: &str, note: String) -> Result<BlockStatus, String> {
    match tag {
        "pass" => Ok(BlockStatus::Pass),
        "lint" => Ok(BlockStatus::LintBlocked),
        "fail" => Ok(BlockStatus::NotEquivalent(note)),
        "error" => Ok(BlockStatus::Error(note)),
        "inconc" => Ok(BlockStatus::Inconclusive(note)),
        "crash" => Ok(BlockStatus::Crashed(note)),
        tag => Err(format!("unknown status tag {tag:?}")),
    }
}

/// A verdict-only [`BlockResult`] as reconstructed from disk.
pub(crate) fn disk_result(name: &str, status: BlockStatus) -> BlockResult {
    BlockResult {
        name: name.to_string(),
        status,
        lint_findings: Vec::new(),
        lint_count: 0,
        equiv: None,
        solver: SolverTotals::default(),
        duration: Duration::ZERO,
        from_cache: false,
        from_journal: false,
        attempts: 0,
    }
}

/// Renders the conclusive entries of `cache` in the on-disk format.
pub(crate) fn serialize(cache: &HashMap<String, (u64, BlockResult)>) -> String {
    let mut names: Vec<&String> = cache.keys().collect();
    names.sort();
    let mut out = format!("{MAGIC}\n");
    for name in names {
        let (hash, r) = &cache[name.as_str()];
        let Some((tag, note)) = status_tag(&r.status) else {
            continue;
        };
        let payload = format!(
            "{}\t{:016x}\t{}\t{}",
            escape(name),
            hash,
            tag,
            escape(&note)
        );
        out.push_str(&format!(
            "entry\t{payload}\t{:016x}\n",
            fnv64(payload.as_bytes())
        ));
    }
    out
}

/// Parses a cache file's full text.
///
/// Only a missing/mismatched magic line is a hard error — any damaged
/// *record* (truncated line, failed checksum, malformed field) is dropped
/// and counted, and every intact record is recovered.
#[allow(clippy::type_complexity)]
pub(crate) fn deserialize(
    text: &str,
) -> Result<(HashMap<String, (u64, BlockResult)>, usize), String> {
    let body = text
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("bad magic (expected {MAGIC:?})"))?;
    let mut map = HashMap::new();
    let mut dropped = 0usize;
    for line in body.lines() {
        match parse_entry(line) {
            Some((name, hash, status)) => {
                let result = disk_result(&name, status);
                // Two records for one block can only come from damage
                // (serialize writes each name once): trust neither.
                if map.insert(name, (hash, result)).is_some() {
                    dropped += 1;
                }
            }
            None => dropped += 1,
        }
    }
    Ok((map, dropped))
}

/// Parses and checksum-verifies one `entry` line; `None` means damaged.
fn parse_entry(line: &str) -> Option<(String, u64, BlockStatus)> {
    let payload_ck = line.strip_prefix("entry\t")?;
    let (payload, ck_hex) = payload_ck.rsplit_once('\t')?;
    let want = u64::from_str_radix(ck_hex, 16).ok()?;
    if fnv64(payload.as_bytes()) != want {
        return None;
    }
    let fields: Vec<&str> = payload.split('\t').collect();
    if fields.len() != 4 {
        return None;
    }
    let name = unescape(fields[0]).ok()?;
    let hash = u64::from_str_radix(fields[1], 16).ok()?;
    let note = unescape(fields[3]).ok()?;
    let status = status_from_tag(fields[2], note).ok()?;
    Some((name, hash, status))
}

/// Loads the cache at `path` through `io`. Never fails: a missing file
/// starts the campaign cold, a damaged record costs only that record, and
/// an unreadable file costs only re-verification time, never correctness.
pub(crate) fn load(path: &Path, io: &IoHandle) -> (HashMap<String, (u64, BlockResult)>, CacheLoad) {
    let text = match io.shim().read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == ErrorKind::NotFound => return (HashMap::new(), CacheLoad::Missing),
        Err(e) => {
            return (
                HashMap::new(),
                CacheLoad::Corrupt {
                    reason: PersistError::io("read", path, &e).to_string(),
                },
            )
        }
    };
    match deserialize(&text) {
        Ok((map, 0)) => {
            let entries = map.len();
            (map, CacheLoad::Loaded { entries })
        }
        Ok((map, dropped)) => {
            let entries = map.len();
            (map, CacheLoad::Recovered { entries, dropped })
        }
        Err(reason) => (HashMap::new(), CacheLoad::Corrupt { reason }),
    }
}

/// The sibling temp path a save stages through.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    PathBuf::from(tmp_name)
}

/// The parent directory to fsync after a rename into `path`.
pub(crate) fn parent_dir(path: &Path) -> &Path {
    // An empty parent means a relative path in the current directory.
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Atomically persists `cache` to `path` through `io` (write `.tmp`
/// sibling, fsync, rename, fsync the parent directory).
///
/// The final directory fsync matters: `rename` makes the new file visible,
/// but on filesystems that journal data and metadata separately a crash
/// right after the rename can still roll the *directory entry* back to the
/// old (or no) file. Syncing the parent directory makes the rename itself
/// durable. A pre-existing stale `.tmp` (from a crash mid-save) is simply
/// overwritten by the next save.
///
/// The whole sequence runs under the sibling advisory lock
/// ([`crate::lockfile`]): two processes saving the same cache would
/// otherwise race tmp-writes and renames and silently drop each other's
/// verdicts. A lock held by a live process is a typed `"lock"` failure —
/// the campaign degrades to cache-off, exactly like any other persistence
/// error. (Loading needs no lock: saves are atomic renames, so a reader
/// always sees a complete previous file.)
pub(crate) fn save(
    path: &Path,
    cache: &HashMap<String, (u64, BlockResult)>,
    io: &IoHandle,
) -> Result<(), PersistError> {
    let _lock = crate::lockfile::FileLock::acquire(path, io)?;
    let data = serialize(cache);
    let tmp = tmp_path(path);
    let shim = io.shim();
    shim.write(&tmp, data.as_bytes())
        .map_err(|e| PersistError::io("write", &tmp, &e))?;
    shim.rename(&tmp, path)
        .map_err(|e| PersistError::io("rename", path, &e))?;
    shim.sync_dir(parent_dir(path))
        .map_err(|e| PersistError::io("sync_dir", path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosIo, ChaosPlan, IoShim, RealIo};
    use std::fs;
    use std::sync::Arc;

    fn entry(status: BlockStatus) -> (u64, BlockResult) {
        (0xDEAD_BEEF_0123_4567, disk_result("x", status))
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dfv-cache-{tag}-{}-{:?}.cache",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn roundtrip_preserves_verdicts_and_hashes() {
        let mut cache = HashMap::new();
        cache.insert("plain".to_string(), entry(BlockStatus::Pass));
        cache.insert(
            "with\ttab\nand newline".to_string(),
            entry(BlockStatus::NotEquivalent("cex: a=1\tb=2".into())),
        );
        cache.insert("lints".to_string(), entry(BlockStatus::LintBlocked));
        cache.insert(
            "err".to_string(),
            entry(BlockStatus::Error("parse: nope".into())),
        );
        let text = serialize(&cache);
        let (back, dropped) = deserialize(&text).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(back.len(), 4);
        for (name, (hash, r)) in &cache {
            let (h2, r2) = &back[name];
            assert_eq!(h2, hash);
            assert_eq!(r2.status, r.status);
        }
    }

    #[test]
    fn inconclusive_and_crashed_verdicts_are_not_persisted() {
        let mut cache = HashMap::new();
        cache.insert("ok".to_string(), entry(BlockStatus::Pass));
        cache.insert(
            "undecided".to_string(),
            entry(BlockStatus::Inconclusive("budget ran out".into())),
        );
        cache.insert(
            "boom".to_string(),
            entry(BlockStatus::Crashed("worker panic".into())),
        );
        let (back, dropped) = deserialize(&serialize(&cache)).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(back.len(), 1);
        assert!(back.contains_key("ok"));
    }

    #[test]
    fn damaged_record_is_dropped_and_the_rest_recovered() {
        let mut cache = HashMap::new();
        cache.insert("a".to_string(), entry(BlockStatus::Pass));
        cache.insert(
            "b".to_string(),
            entry(BlockStatus::NotEquivalent("cex".into())),
        );
        cache.insert("c".to_string(), entry(BlockStatus::Pass));
        let text = serialize(&cache);

        // Truncating the last record loses only that record.
        let truncated = &text[..text.len() - 10];
        let (back, dropped) = deserialize(truncated).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(back.len(), 2);

        // Flipping a verdict byte trips that record's checksum only.
        let flipped = text.replacen("fail", "pass", 1);
        let (back, dropped) = deserialize(&flipped).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(back.len(), 2);
        assert!(!back.contains_key("b"), "the damaged record is a miss");

        // Garbage and wrong versions are still rejected up front.
        assert!(deserialize("not a cache").unwrap_err().contains("magic"));
        assert!(deserialize("dfv-campaign-cache v99\n")
            .unwrap_err()
            .contains("magic"));
    }

    #[test]
    fn bitflip_via_chaos_shim_recovers_other_entries() {
        let path = temp("flip");
        let mut cache = HashMap::new();
        for name in ["alpha", "beta", "gamma", "delta"] {
            cache.insert(name.to_string(), entry(BlockStatus::Pass));
        }
        let real = IoHandle::real();
        save(&path, &cache, &real).unwrap();

        // Read it back through a shim that flips one bit somewhere in the
        // file. Whatever the bit hits — a name, a hash, a checksum — at
        // most one record may be lost, and often zero (magic-line flips
        // aside, which we exclude by flipping within the entry section).
        let mut recovered_total = 0;
        for seed in 0..16u64 {
            let io = IoHandle::new(Arc::new(ChaosIo::new(
                ChaosPlan::none(seed).bitflip_nth_read(1),
            )));
            let (map, status) = load(&path, &io);
            match status {
                CacheLoad::Loaded { entries } => assert_eq!(entries, 4),
                CacheLoad::Recovered { entries, dropped } => {
                    assert!(entries >= 3, "at most one record lost per flip");
                    assert_eq!(dropped, 1);
                }
                // A flip on the magic line rejects the file wholesale;
                // that is correct (can't trust the format version).
                CacheLoad::Corrupt { .. } => continue,
                other => panic!("unexpected load status {other:?}"),
            }
            recovered_total += map.len();
        }
        assert!(recovered_total > 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_save_leaves_previous_cache_intact() {
        let path = temp("torn");
        let mut cache = HashMap::new();
        cache.insert("a".to_string(), entry(BlockStatus::Pass));
        let real = IoHandle::real();
        save(&path, &cache, &real).unwrap();

        // A torn write of the *temp* file fails the save, but the rename
        // never happens, so the old cache is untouched. (Durable write #1
        // is the advisory lock creation; #2 is the tmp file.)
        cache.insert("b".to_string(), entry(BlockStatus::Pass));
        let io = IoHandle::new(Arc::new(ChaosIo::new(ChaosPlan::none(9).torn_nth_write(2))));
        let err = save(&path, &cache, &io).unwrap_err();
        assert_eq!(err.op, "write");
        let (map, status) = load(&path, &real);
        assert_eq!(status, CacheLoad::Loaded { entries: 1 });
        assert!(map.contains_key("a"));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn failed_rename_or_enospc_during_save_preserves_previous_cache() {
        let path = temp("rename-fail");
        let mut cache = HashMap::new();
        cache.insert("a".to_string(), entry(BlockStatus::Pass));
        let real = IoHandle::real();
        save(&path, &cache, &real).unwrap();
        let before = fs::read_to_string(&path).unwrap();

        // The rename itself fails: typed error, old cache byte-identical.
        cache.insert("b".to_string(), entry(BlockStatus::Pass));
        let io = IoHandle::new(Arc::new(ChaosIo::new(
            ChaosPlan::none(0).fail_nth_rename(1),
        )));
        let err = save(&path, &cache, &io).unwrap_err();
        assert_eq!(err.op, "rename");
        assert_eq!(fs::read_to_string(&path).unwrap(), before);
        let (map, status) = load(&path, &real);
        assert_eq!(status, CacheLoad::Loaded { entries: 1 });
        assert!(map.contains_key("a"));

        // ENOSPC on the tmp write (after the ~25-byte lock file fits in
        // the budget): also typed, also leaves the old cache untouched.
        let io = IoHandle::new(Arc::new(ChaosIo::new(
            ChaosPlan::none(0).enospc_after_bytes(40),
        )));
        let err = save(&path, &cache, &io).unwrap_err();
        assert_eq!(err.op, "write");
        assert!(err.msg.contains("ENOSPC"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), before);

        // With the fault gone the save goes through.
        save(&path, &cache, &real).unwrap();
        let (map, status) = load(&path, &real);
        assert_eq!(status, CacheLoad::Loaded { entries: 2 });
        assert!(map.contains_key("b"));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(tmp_path(&path));
    }

    #[test]
    fn unreadable_file_degrades_to_corrupt_not_panic() {
        let path = temp("unreadable");
        RealIo.write(&path, b"\x00\xffnot a cache at all").unwrap();
        let (map, status) = load(&path, &IoHandle::real());
        assert!(map.is_empty());
        assert!(matches!(status, CacheLoad::Corrupt { .. }));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_cache_roundtrips() {
        let cache = HashMap::new();
        let (back, dropped) = deserialize(&serialize(&cache)).unwrap();
        assert!(back.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn save_survives_a_preexisting_stale_tmp() {
        // A crash between writing `.tmp` and the rename leaves the stale
        // temp file behind; the next save must overwrite it and still
        // produce a loadable cache.
        let path = temp("stale");
        let tmp = tmp_path(&path);
        let _ = fs::remove_file(&path);
        fs::write(&tmp, "!! stale temp left by a crashed save !!").unwrap();

        let mut cache = HashMap::new();
        cache.insert("a".to_string(), entry(BlockStatus::Pass));
        let real = IoHandle::real();
        save(&path, &cache, &real).unwrap();

        // The rename consumed the temp file and the saved cache loads clean.
        assert!(!tmp.exists(), "stale .tmp must be consumed by the rename");
        let (loaded, status) = load(&path, &real);
        assert_eq!(status, CacheLoad::Loaded { entries: 1 });
        assert!(loaded.contains_key("a"));
        let _ = fs::remove_file(&path);
    }
}
