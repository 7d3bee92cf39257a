//! Advisory lock files with stale-lock detection and recovery.
//!
//! The cache (`cache.rs`) and journal ([`crate::Campaign`]
//! checkpointing) are each safe against *crashes* — atomic rename saves,
//! per-record checksums — but not against two live processes writing the
//! same path at once: interleaved appends corrupt the journal silently,
//! and racing cache saves can lose each other's verdicts. A multi-client
//! daemon (`dfv-serve`) makes that scenario real, so both writers now
//! take a sibling advisory lock first:
//!
//! ```text
//! <file>.lock     containing     dfv-lock v1\npid\t<pid>\n
//! ```
//!
//! Acquisition is the POSIX `O_CREAT|O_EXCL` dance through the
//! [`IoShim`](crate::IoShim) (so the chaos harness can fail it): create
//! the lock file exclusively, and on `AlreadyExists` read the holder's
//! pid. A holder that is provably dead (`/proc/<pid>` is absent on
//! Linux) — or a lock file too damaged to name a holder — is *stale*:
//! the lock is removed and acquisition retried, so one crashed process
//! never wedges every later one. A holder that is alive, or whose
//! liveness cannot be determined, keeps the lock: the caller degrades
//! (cache/journal disabled for that run) exactly as it does for any
//! other persistence failure — never panics, never interleaves.

use std::collections::HashSet;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::cache::PersistError;
use crate::chaos::IoHandle;

/// First line of every lock file.
const MAGIC: &str = "dfv-lock v1";

/// Lock paths currently held *by this process*. A lock file naming our
/// own pid proves nothing by itself: it is either a lock genuinely held
/// by another thread of this process, or the leftover of a prior
/// incarnation (the chaos harness simulates kill-and-restart inside one
/// process, where a "killed" writer's release I/O is refused and the
/// file survives; across real restarts, pid recycling can do the same).
/// This registry disambiguates: our pid + present here = held; our pid +
/// absent = stale, steal it.
fn held_by_this_process() -> &'static Mutex<HashSet<PathBuf>> {
    static HELD: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    HELD.get_or_init(|| Mutex::new(HashSet::new()))
}

/// How many times acquisition races the create/steal cycle before giving
/// up. Two processes discovering the same stale lock can both remove and
/// re-create; the loser of the create race retries against the winner's
/// fresh (live) lock and then reports it held.
const MAX_ATTEMPTS: usize = 4;

/// Whether the process `pid` is alive, when the platform can tell.
///
/// `Some(false)` is the only answer that justifies stealing a lock;
/// `None` (no procfs) is treated as "assume alive" — safety over
/// availability.
fn pid_alive(pid: u32) -> Option<bool> {
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        Some(proc_dir.join(pid.to_string()).exists())
    } else {
        None
    }
}

/// The sibling lock path guarding `target`.
pub fn lock_path(target: &Path) -> PathBuf {
    let mut name = target.as_os_str().to_owned();
    name.push(".lock");
    PathBuf::from(name)
}

/// A held advisory lock. Released explicitly with [`FileLock::release`]
/// or best-effort on drop.
#[derive(Debug)]
pub struct FileLock {
    path: PathBuf,
    io: IoHandle,
    released: bool,
    recovered_stale: bool,
}

impl FileLock {
    /// Acquires the advisory lock guarding `target`.
    ///
    /// Returns the held lock, or a typed [`PersistError`] (`op ==
    /// "lock"`) when the lock is held by a live (or indeterminate)
    /// process or the lock file cannot be created. A stale lock left by
    /// a dead process is removed and re-acquired transparently.
    pub fn acquire(target: &Path, io: &IoHandle) -> Result<FileLock, PersistError> {
        let path = lock_path(target);
        let record = format!("{MAGIC}\npid\t{}\n", std::process::id());
        let shim = io.shim();
        let mut last_holder: Option<String> = None;
        for _ in 0..MAX_ATTEMPTS {
            match shim.create_new(&path, record.as_bytes()) {
                Ok(()) => {
                    held_by_this_process().lock().unwrap().insert(path.clone());
                    return Ok(FileLock {
                        path,
                        io: io.clone(),
                        released: false,
                        recovered_stale: last_holder.is_some(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    // Somebody holds it. Dead holder (or unreadable
                    // lock) => stale: remove and retry the create.
                    let holder = match shim.read_to_string(&path) {
                        Ok(text) => parse_holder(&text),
                        // Racing release between our create and read:
                        // just retry the create.
                        Err(e) if e.kind() == ErrorKind::NotFound => {
                            last_holder = Some("released mid-race".into());
                            continue;
                        }
                        Err(_) => None,
                    };
                    match holder {
                        Some(pid) if pid == std::process::id() => {
                            if held_by_this_process().lock().unwrap().contains(&path) {
                                return Err(PersistError {
                                    op: "lock",
                                    path: path.display().to_string(),
                                    msg: format!("held by live process {pid} (this process)"),
                                });
                            }
                            // Our pid but nobody in this process holds it:
                            // a prior incarnation's leftover. Stale.
                            last_holder = Some(format!("prior incarnation of pid {pid}"));
                        }
                        Some(pid) if pid_alive(pid) != Some(false) => {
                            return Err(PersistError {
                                op: "lock",
                                path: path.display().to_string(),
                                msg: format!("held by live process {pid}"),
                            });
                        }
                        Some(pid) => last_holder = Some(format!("dead process {pid}")),
                        None => last_holder = Some("unidentifiable holder".into()),
                    }
                    // Stale: steal it. A remove that fails because the
                    // file is already gone is a racing steal — retry.
                    if let Err(e) = shim.remove(&path) {
                        if e.kind() != ErrorKind::NotFound {
                            return Err(PersistError::io("lock", &path, &e));
                        }
                    }
                }
                Err(e) => return Err(PersistError::io("lock", &path, &e)),
            }
        }
        Err(PersistError {
            op: "lock",
            path: path.display().to_string(),
            msg: format!(
                "still contended after {MAX_ATTEMPTS} attempts (last holder: {})",
                last_holder.as_deref().unwrap_or("unknown")
            ),
        })
    }

    /// Whether this acquisition had to recover a stale lock left by a
    /// dead process (callers surface it as `core.lock.stale_recovered`).
    pub fn recovered_stale(&self) -> bool {
        self.recovered_stale
    }

    /// Releases the lock by removing its file.
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if !self.released {
            self.released = true;
            // Deregister first: even if removing the file fails (chaos,
            // ENOSPC recovery, ...) the leftover is then a *stale* lock
            // this process can steal back, not a deadlock.
            held_by_this_process().lock().unwrap().remove(&self.path);
            let _ = self.io.shim().remove(&self.path);
        }
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Extracts the holder pid from a lock file's text; `None` means the
/// file is damaged enough to be considered stale.
fn parse_holder(text: &str) -> Option<u32> {
    let body = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
    let pid_line = body.lines().next()?;
    pid_line.strip_prefix("pid\t")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosIo, ChaosPlan, IoShim, RealIo};
    use std::fs;
    use std::sync::Arc;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dfv-lock-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn acquire_release_cycle() {
        let target = temp("cycle");
        let io = IoHandle::real();
        let lock = FileLock::acquire(&target, &io).unwrap();
        assert!(!lock.recovered_stale());
        assert!(lock_path(&target).exists());

        // Held by this (live) process: a second acquire degrades.
        let err = FileLock::acquire(&target, &io).unwrap_err();
        assert_eq!(err.op, "lock");
        assert!(err.msg.contains("live process"), "{err}");

        lock.release();
        assert!(!lock_path(&target).exists());
        let again = FileLock::acquire(&target, &io).unwrap();
        drop(again); // drop releases too
        assert!(!lock_path(&target).exists());
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_recovered() {
        if !Path::new("/proc").is_dir() {
            return; // liveness is indeterminate here; recovery is gated off
        }
        let target = temp("stale");
        let io = IoHandle::real();
        // No real process has this pid (kernel pid_max is far smaller).
        RealIo
            .write(&lock_path(&target), b"dfv-lock v1\npid\t999999999\n")
            .unwrap();
        let lock = FileLock::acquire(&target, &io).unwrap();
        assert!(lock.recovered_stale());
        lock.release();
    }

    #[test]
    fn damaged_lock_file_counts_as_stale() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let target = temp("damaged");
        let io = IoHandle::real();
        for garbage in [&b"!! not a lock !!"[..], b"dfv-lock v1\npid\tNaN\n"] {
            RealIo.write(&lock_path(&target), garbage).unwrap();
            let lock = FileLock::acquire(&target, &io).unwrap();
            assert!(lock.recovered_stale());
            lock.release();
        }
    }

    #[test]
    fn unwritable_lock_path_is_a_typed_error() {
        let target = Path::new("/nonexistent-dir/file.cache");
        let err = FileLock::acquire(target, &IoHandle::real()).unwrap_err();
        assert_eq!(err.op, "lock");
    }

    #[test]
    fn chaos_failed_lock_creation_degrades_typed() {
        let target = temp("chaos");
        let _ = fs::remove_file(lock_path(&target));
        let io = IoHandle::new(Arc::new(ChaosIo::new(ChaosPlan::none(0).fail_nth_write(1))));
        let err = FileLock::acquire(&target, &io).unwrap_err();
        assert_eq!(err.op, "lock");
        assert!(err.msg.contains("chaos"), "{err}");
        assert!(!lock_path(&target).exists());
    }

    #[test]
    fn parse_holder_roundtrip() {
        assert_eq!(parse_holder("dfv-lock v1\npid\t42\n"), Some(42));
        assert_eq!(parse_holder("dfv-lock v1\n"), None);
        assert_eq!(parse_holder("other file"), None);
    }
}
