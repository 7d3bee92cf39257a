//! The deterministic chaos harness: fault injection for the verification
//! stack's *own* I/O.
//!
//! PR2's `FaultPlan` injects faults into the design under test; this module
//! mirrors that design one level up and injects faults into the campaign
//! infrastructure itself — the on-disk verdict cache and the crash-recovery
//! journal. Both persistence layers route every file operation through the
//! [`IoShim`] trait, so a test (or a `scripts/check.sh` smoke run) can swap
//! the real filesystem for a [`ChaosIo`] driven by a seeded [`ChaosPlan`]:
//!
//! * **fail-nth-write** — the nth durable write reports failure with
//!   nothing on disk (transient I/O error);
//! * **torn-nth-write** — the nth durable write persists only a seeded
//!   prefix and then reports failure (power loss mid-write);
//! * **bitflip-nth-read** — the nth read returns the file's bytes with one
//!   seeded bit flipped (silent media corruption);
//! * **ENOSPC** — writes fail once a cumulative byte budget is exhausted
//!   (disk full mid-campaign);
//! * **rename-then-crash** — the nth rename lands and then every later
//!   operation fails (process death right after the atomic commit);
//! * **kill-after-append** — the process is aborted outright after the nth
//!   journal append lands (a real SIGKILL for smoke tests — the campaign
//!   must be resumable from whatever reached the disk);
//! * **panic-on-block** — a non-I/O fail point: the named campaign work
//!   item panics, exercising the scheduler's quarantine path.
//!
//! The same idea extends one level further up, to the `dfv-serve`
//! transport: a [`WirePlan`] drives a [`ChaosWire`] byte-stream wrapper
//! that tears frames mid-send, flips payload bits on receive, disconnects
//! the peer mid-request, or stalls the reader — so every protocol
//! degradation path in the daemon is deterministically testable offline.
//!
//! Every fault is a pure function of the plan (and its seed), so a chaos
//! run is exactly reproducible: robustness claims are tested, not asserted.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dfv_bits::SplitMix64;

/// What a [`IoShim::fail_point`] decided for the calling code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Proceed normally (the only answer the real shim ever gives).
    Continue,
    /// Panic at this point — the caller must `panic!` so the scheduler's
    /// quarantine machinery is exercised end to end.
    Panic,
}

/// The file operations the campaign persistence layers are allowed to use.
///
/// The interface is deliberately *durability-shaped* rather than
/// POSIX-shaped: `write` and `append` include the fsync, so a fault
/// injected on them models exactly "did these bytes survive the crash?",
/// and `rename` + `sync_dir` model the atomic-commit step of the cache
/// save. Everything the cache (`cache.rs`) and journal
/// ([`crate::Campaign`] checkpointing) touch on disk goes through one of
/// these six methods — there is no side channel for chaos to miss.
pub trait IoShim: Send + Sync {
    /// Reads the whole file as UTF-8 text (invalid sequences replaced).
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// Creates/truncates `path`, writes `data`, and fsyncs it.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to `path` (creating it if missing) and fsyncs it.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to` (atomic on POSIX filesystems).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Best-effort fsync of a directory (durability of a rename).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Exclusively creates `path` with `data` (and fsyncs it), failing
    /// with [`io::ErrorKind::AlreadyExists`] if the file exists — the
    /// advisory-lock primitive ([`crate::lockfile`]).
    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Non-I/O chaos fail point, consulted by the campaign work loop once
    /// per (point, detail) occurrence. The default — and the real shim —
    /// always says [`FailAction::Continue`].
    fn fail_point(&self, point: &'static str, detail: &str) -> FailAction {
        let _ = (point, detail);
        FailAction::Continue
    }
}

/// The production shim: plain `std::fs`, no faults, ever.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl IoShim for RealIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        Ok(String::from_utf8_lossy(&fs::read(path)?).into_owned())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Platforms that disallow opening directories for sync lose only
        // crash-durability of the rename, never atomicity.
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all()?;
        }
        Ok(())
    }

    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// A seeded, deterministic fault schedule for [`ChaosIo`].
///
/// All ordinals are 1-based and count *operations on the shim*, in call
/// order: `fail_nth_write`/`torn_nth_write` count durable writes (`write`
/// and `append` together), `bitflip_nth_read` counts reads,
/// `crash_after_nth_rename` counts renames, and `kill_after_nth_append`
/// counts appends only (journal records). `None` everywhere — the default —
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the torn-write prefix length and the bit-flip position.
    pub seed: u64,
    /// The nth durable write fails cleanly: nothing reaches the disk.
    pub fail_nth_write: Option<u64>,
    /// The nth durable write persists a seeded prefix, then reports
    /// failure — the on-disk state is the torn record a power loss leaves.
    pub torn_nth_write: Option<u64>,
    /// The nth read returns the data with one seeded bit flipped.
    pub bitflip_nth_read: Option<u64>,
    /// Durable writes fail with an ENOSPC-style error once this many
    /// cumulative bytes have been persisted.
    pub enospc_after_bytes: Option<u64>,
    /// The nth rename fails cleanly — the atomic commit itself is refused
    /// (EXDEV, ENOSPC on metadata, permission flip) and the target file is
    /// left exactly as it was.
    pub fail_nth_rename: Option<u64>,
    /// The nth rename lands, then every later operation fails — the
    /// process "died" immediately after its atomic commit.
    pub crash_after_nth_rename: Option<u64>,
    /// `std::process::abort()` after the nth append lands: a genuine
    /// mid-campaign SIGKILL. Only for smoke-test binaries — an aborted
    /// test process fails the whole suite.
    pub kill_after_nth_append: Option<u64>,
    /// [`IoShim::fail_point`] answers [`FailAction::Panic`] for the
    /// `campaign.block` point whose detail equals this block name.
    pub panic_on_block: Option<String>,
}

impl ChaosPlan {
    /// A plan that injects nothing (the seed only matters once a torn
    /// write or bit flip is armed).
    pub fn none(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Arms a clean failure of the nth durable write (1-based).
    pub fn fail_nth_write(mut self, n: u64) -> Self {
        self.fail_nth_write = Some(n);
        self
    }

    /// Arms a torn nth durable write (1-based).
    pub fn torn_nth_write(mut self, n: u64) -> Self {
        self.torn_nth_write = Some(n);
        self
    }

    /// Arms a single-bit flip on the nth read (1-based).
    pub fn bitflip_nth_read(mut self, n: u64) -> Self {
        self.bitflip_nth_read = Some(n);
        self
    }

    /// Arms disk-full behaviour after `bytes` persisted bytes.
    pub fn enospc_after_bytes(mut self, bytes: u64) -> Self {
        self.enospc_after_bytes = Some(bytes);
        self
    }

    /// Arms a clean failure of the nth rename (1-based).
    pub fn fail_nth_rename(mut self, n: u64) -> Self {
        self.fail_nth_rename = Some(n);
        self
    }

    /// Arms process death right after the nth rename (1-based).
    pub fn crash_after_nth_rename(mut self, n: u64) -> Self {
        self.crash_after_nth_rename = Some(n);
        self
    }

    /// Arms a hard `abort()` after the nth append lands (1-based).
    pub fn kill_after_nth_append(mut self, n: u64) -> Self {
        self.kill_after_nth_append = Some(n);
        self
    }

    /// Arms a panic of the named campaign block's work item.
    pub fn panic_on_block(mut self, block: impl Into<String>) -> Self {
        self.panic_on_block = Some(block.into());
        self
    }
}

/// An [`IoShim`] that forwards to an inner shim while executing a
/// [`ChaosPlan`]. Operation counters are atomic so the shim can be shared
/// (`Arc`) with a running campaign and inspected afterwards.
pub struct ChaosIo {
    inner: Arc<dyn IoShim>,
    plan: ChaosPlan,
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    renames: AtomicU64,
    bytes: AtomicU64,
    dead: AtomicBool,
}

impl ChaosIo {
    /// A chaos shim over the real filesystem.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosIo::with_inner(Arc::new(RealIo), plan)
    }

    /// A chaos shim over an arbitrary inner shim (chaos stacks compose).
    pub fn with_inner(inner: Arc<dyn IoShim>, plan: ChaosPlan) -> Self {
        ChaosIo {
            inner,
            plan,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The plan this shim executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Durable-write operations observed so far (`write` + `append`).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Read operations observed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Whether a `crash_after_nth_rename` fault has "killed" the process
    /// (every subsequent operation fails).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.is_dead() {
            return Err(io::Error::other(
                "chaos: process died after rename; no further I/O",
            ));
        }
        Ok(())
    }

    /// One durable write (`append: false`) or append (`append: true`),
    /// with every write-side fault applied in a fixed order.
    fn durable(&self, path: &Path, data: &[u8], append: bool) -> io::Result<()> {
        self.check_dead()?;
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.fail_nth_write == Some(n) {
            return Err(io::Error::other(format!(
                "chaos: injected failure of durable write #{n}"
            )));
        }
        if let Some(cap) = self.plan.enospc_after_bytes {
            if self.bytes.load(Ordering::Relaxed) + data.len() as u64 > cap {
                return Err(io::Error::other(format!(
                    "chaos: ENOSPC (byte budget {cap} exhausted at write #{n})"
                )));
            }
        }
        if self.plan.torn_nth_write == Some(n) {
            // A seeded prefix lands — never the whole record, never with
            // its trailing newline — then the "process dies".
            let keep = if data.len() <= 1 {
                0
            } else {
                let mut rng = SplitMix64::new(self.plan.seed ^ n.rotate_left(17));
                (rng.next_u64() % (data.len() as u64 - 1)) as usize
            };
            if append {
                self.inner.append(path, &data[..keep])?;
            } else {
                self.inner.write(path, &data[..keep])?;
            }
            self.bytes.fetch_add(keep as u64, Ordering::Relaxed);
            return Err(io::Error::other(format!(
                "chaos: torn write #{n} ({keep} of {} bytes persisted)",
                data.len()
            )));
        }
        if append {
            self.inner.append(path, data)?;
        } else {
            self.inner.write(path, data)?;
        }
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        if append {
            let a = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
            if self.plan.kill_after_nth_append == Some(a) {
                // The record above is already durable: this is the
                // SIGKILL-mid-campaign scenario the journal exists for.
                std::process::abort();
            }
        }
        Ok(())
    }
}

impl IoShim for ChaosIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.check_dead()?;
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        let text = self.inner.read_to_string(path)?;
        if self.plan.bitflip_nth_read == Some(n) && !text.is_empty() {
            let mut bytes = text.into_bytes();
            let mut rng = SplitMix64::new(self.plan.seed ^ n.rotate_left(33));
            let pos = (rng.next_u64() % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << (rng.next_u64() % 8);
            return Ok(String::from_utf8_lossy(&bytes).into_owned());
        }
        Ok(text)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.durable(path, data, false)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.durable(path, data, true)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_dead()?;
        let n = self.renames.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.fail_nth_rename == Some(n) {
            return Err(io::Error::other(format!(
                "chaos: injected failure of rename #{n}"
            )));
        }
        self.inner.rename(from, to)?;
        if self.plan.crash_after_nth_rename == Some(n) {
            self.dead.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.sync_dir(dir)
    }

    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        // Lock-file creation shares the durable-write fault schedule: a
        // fail/ENOSPC ordinal landing here models a lock that cannot be
        // taken, which the caller must degrade on, never panic.
        self.check_dead()?;
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.fail_nth_write == Some(n) {
            return Err(io::Error::other(format!(
                "chaos: injected failure of durable write #{n}"
            )));
        }
        if let Some(cap) = self.plan.enospc_after_bytes {
            if self.bytes.load(Ordering::Relaxed) + data.len() as u64 > cap {
                return Err(io::Error::other(format!(
                    "chaos: ENOSPC (byte budget {cap} exhausted at write #{n})"
                )));
            }
        }
        self.inner.create_new(path, data)?;
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.remove(path)
    }

    fn fail_point(&self, point: &'static str, detail: &str) -> FailAction {
        if point == "campaign.block" && self.plan.panic_on_block.as_deref() == Some(detail) {
            return FailAction::Panic;
        }
        FailAction::Continue
    }
}

impl fmt::Debug for ChaosIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosIo")
            .field("plan", &self.plan)
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .field("dead", &self.is_dead())
            .finish()
    }
}

/// A cloneable handle to the I/O shim a campaign uses for all persistence.
///
/// The default handle is the real filesystem; tests and smoke binaries
/// build one over a [`ChaosIo`]. Wrapping the `Arc<dyn IoShim>` keeps
/// [`crate::CampaignOptions`] `Clone + Debug + Default` without exposing
/// the trait-object plumbing.
#[derive(Clone)]
pub struct IoHandle(Arc<dyn IoShim>);

impl IoHandle {
    /// The production handle: plain `std::fs`.
    pub fn real() -> Self {
        IoHandle(Arc::new(RealIo))
    }

    /// A handle over an arbitrary shim (keep your own `Arc` clone to
    /// inspect a [`ChaosIo`]'s counters afterwards).
    pub fn new(shim: Arc<dyn IoShim>) -> Self {
        IoHandle(shim)
    }

    /// A handle over a fresh [`ChaosIo`] executing `plan`.
    pub fn chaos(plan: ChaosPlan) -> Self {
        IoHandle(Arc::new(ChaosIo::new(plan)))
    }

    /// The underlying shim.
    pub fn shim(&self) -> &dyn IoShim {
        self.0.as_ref()
    }
}

impl Default for IoHandle {
    fn default() -> Self {
        IoHandle::real()
    }
}

/// A seeded, deterministic fault schedule for a byte-stream transport —
/// the wire-level twin of [`ChaosPlan`].
///
/// `dfv-serve` routes every client/server connection through a stream
/// wrapper ([`ChaosWire`]) that executes one of these, so every protocol
/// degradation path — torn frame, bit-flipped payload, mid-request
/// disconnect, stalled peer — is testable offline and byte-reproducibly.
/// Ordinals are 1-based and count *calls on the wrapper*: `Write::write`
/// calls for send faults, `Read::read` calls for receive faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WirePlan {
    /// Seed for the torn-send prefix length and bit-flip position.
    pub seed: u64,
    /// The nth send transmits only a seeded strict prefix of its bytes,
    /// then the connection dies (a frame torn mid-flight).
    pub torn_nth_send: Option<u64>,
    /// The nth receive returns its bytes with one seeded bit flipped
    /// (payload corruption the frame checksum must catch).
    pub bitflip_nth_recv: Option<u64>,
    /// After this many receives, the peer is gone: every later receive
    /// reports end-of-stream (clean mid-request disconnect).
    pub disconnect_after_nth_recv: Option<u64>,
    /// The nth receive times out — the peer is alive but not sending
    /// (slow-loris / stalled reader as seen through a read timeout).
    pub stall_nth_recv: Option<u64>,
}

impl WirePlan {
    /// A plan that injects nothing.
    pub fn none(seed: u64) -> Self {
        WirePlan {
            seed,
            ..WirePlan::default()
        }
    }

    /// Arms a torn nth send (1-based).
    pub fn torn_nth_send(mut self, n: u64) -> Self {
        self.torn_nth_send = Some(n);
        self
    }

    /// Arms a single-bit flip on the nth receive (1-based).
    pub fn bitflip_nth_recv(mut self, n: u64) -> Self {
        self.bitflip_nth_recv = Some(n);
        self
    }

    /// Arms a peer disconnect after the nth receive (1-based).
    pub fn disconnect_after_nth_recv(mut self, n: u64) -> Self {
        self.disconnect_after_nth_recv = Some(n);
        self
    }

    /// Arms a read timeout on the nth receive (1-based).
    pub fn stall_nth_recv(mut self, n: u64) -> Self {
        self.stall_nth_recv = Some(n);
        self
    }
}

/// A byte stream (`Read + Write`) wrapper executing a [`WirePlan`].
///
/// Once a torn send has "killed" the connection, every later operation
/// fails with [`io::ErrorKind::BrokenPipe`] — a dead TCP peer, not a
/// half-working one.
#[derive(Debug)]
pub struct ChaosWire<W> {
    inner: W,
    plan: WirePlan,
    sends: u64,
    recvs: u64,
    dead: bool,
}

impl<W> ChaosWire<W> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: W, plan: WirePlan) -> Self {
        ChaosWire {
            inner,
            plan,
            sends: 0,
            recvs: 0,
            dead: false,
        }
    }

    /// The wrapped stream (for tests inspecting the peer afterwards).
    pub fn into_inner(self) -> W {
        self.inner
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: connection died mid-frame",
            ));
        }
        Ok(())
    }
}

impl<W: io::Read> io::Read for ChaosWire<W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check_dead()?;
        self.recvs += 1;
        let n = self.recvs;
        if let Some(after) = self.plan.disconnect_after_nth_recv {
            if n > after {
                return Ok(0); // clean EOF: the peer hung up
            }
        }
        if self.plan.stall_nth_recv == Some(n) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: peer stalled (read timeout)",
            ));
        }
        let got = self.inner.read(buf)?;
        if self.plan.bitflip_nth_recv == Some(n) && got > 0 {
            let mut rng = SplitMix64::new(self.plan.seed ^ n.rotate_left(21));
            let pos = (rng.next_u64() % got as u64) as usize;
            buf[pos] ^= 1 << (rng.next_u64() % 8);
        }
        Ok(got)
    }
}

impl<W: io::Write> io::Write for ChaosWire<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check_dead()?;
        self.sends += 1;
        let n = self.sends;
        if self.plan.torn_nth_send == Some(n) {
            // A seeded strict prefix reaches the peer, then the
            // connection is gone for good.
            let keep = if buf.len() <= 1 {
                0
            } else {
                let mut rng = SplitMix64::new(self.plan.seed ^ n.rotate_left(13));
                (rng.next_u64() % (buf.len() as u64 - 1)) as usize
            };
            if keep > 0 {
                self.inner.write_all(&buf[..keep])?;
                let _ = self.inner.flush();
            }
            self.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("chaos: torn send #{n} ({keep} of {} bytes sent)", buf.len()),
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check_dead()?;
        self.inner.flush()
    }
}

impl fmt::Debug for IoHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IoHandle(shim)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dfv-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn real_io_roundtrips_and_appends() {
        let p = temp("real");
        let io = RealIo;
        io.write(&p, b"hello\n").unwrap();
        io.append(&p, b"world\n").unwrap();
        assert_eq!(io.read_to_string(&p).unwrap(), "hello\nworld\n");
        assert_eq!(io.fail_point("campaign.block", "x"), FailAction::Continue);
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn fail_nth_write_leaves_nothing() {
        let p = temp("failw");
        let _ = fs::remove_file(&p);
        let io = ChaosIo::new(ChaosPlan::none(1).fail_nth_write(1));
        let err = io.write(&p, b"doomed").unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        assert!(!p.exists(), "a failed write must not create the file");
        // The next write succeeds: the fault is one-shot by ordinal.
        io.write(&p, b"ok").unwrap();
        assert_eq!(io.read_to_string(&p).unwrap(), "ok");
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let p = temp("torn");
        let _ = fs::remove_file(&p);
        let io = ChaosIo::new(ChaosPlan::none(0xBAD).torn_nth_write(1));
        let data = b"0123456789abcdef0123456789abcdef\n";
        let err = io.append(&p, data).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        let on_disk = io.read_to_string(&p).unwrap();
        assert!(on_disk.len() < data.len(), "must be a strict prefix");
        assert!(data.starts_with(on_disk.as_bytes()));
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn torn_write_prefix_is_seeded_and_deterministic() {
        let run = |seed| {
            let p = temp(&format!("torn-seed{seed}"));
            let _ = fs::remove_file(&p);
            let io = ChaosIo::new(ChaosPlan::none(seed).torn_nth_write(1));
            let _ = io.write(&p, b"a long enough record to tear somewhere\n");
            let got = io.read_to_string(&p).unwrap();
            let _ = fs::remove_file(&p);
            got
        };
        assert_eq!(run(7), run(7), "same seed, same tear");
    }

    #[test]
    fn bitflip_on_read_changes_exactly_one_bit() {
        let p = temp("flip");
        let io = ChaosIo::new(ChaosPlan::none(3).bitflip_nth_read(2));
        io.write(&p, b"entry checksum guarded").unwrap();
        let clean = io.read_to_string(&p).unwrap(); // read #1: untouched
        assert_eq!(clean, "entry checksum guarded");
        let flipped = io.read_to_string(&p).unwrap(); // read #2: one bit off
        assert_ne!(flipped, clean);
        let diff: u32 = clean
            .bytes()
            .zip(flipped.bytes())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one flipped bit");
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn enospc_trips_on_the_cumulative_budget() {
        let p = temp("enospc");
        let io = ChaosIo::new(ChaosPlan::none(0).enospc_after_bytes(10));
        io.write(&p, b"12345678").unwrap(); // 8 bytes: fits
        let err = io.append(&p, b"xyz").unwrap_err(); // would be 11: ENOSPC
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(io.read_to_string(&p).unwrap(), "12345678");
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn crash_after_rename_kills_all_later_ops() {
        let a = temp("crash-a");
        let b = temp("crash-b");
        let io = ChaosIo::new(ChaosPlan::none(0).crash_after_nth_rename(1));
        io.write(&a, b"payload").unwrap();
        io.rename(&a, &b).unwrap(); // the rename itself lands...
        assert!(io.is_dead());
        assert!(io.read_to_string(&b).is_err(), "...then the process dies");
        assert!(io.write(&a, b"x").is_err());
        assert!(io.sync_dir(std::env::temp_dir().as_path()).is_err());
        // The rename really did land before death.
        assert_eq!(RealIo.read_to_string(&b).unwrap(), "payload");
        let _ = fs::remove_file(&b);
    }

    #[test]
    fn create_new_is_exclusive_and_remove_clears_it() {
        let p = temp("createnew");
        let _ = fs::remove_file(&p);
        let io = RealIo;
        io.create_new(&p, b"owner 1").unwrap();
        let err = io.create_new(&p, b"owner 2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(io.read_to_string(&p).unwrap(), "owner 1");
        io.remove(&p).unwrap();
        io.create_new(&p, b"owner 2").unwrap();
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn failed_rename_leaves_target_untouched() {
        let a = temp("failren-a");
        let b = temp("failren-b");
        let io = ChaosIo::new(ChaosPlan::none(0).fail_nth_rename(1));
        io.write(&b, b"previous").unwrap();
        io.write(&a, b"next").unwrap();
        let err = io.rename(&a, &b).unwrap_err();
        assert!(err.to_string().contains("rename"), "{err}");
        assert_eq!(io.read_to_string(&b).unwrap(), "previous");
        // The fault is one-shot: the second rename lands.
        io.rename(&a, &b).unwrap();
        assert_eq!(io.read_to_string(&b).unwrap(), "next");
        let _ = fs::remove_file(&b);
    }

    #[test]
    fn enospc_applies_to_create_new_too() {
        let p = temp("enospc-lock");
        let _ = fs::remove_file(&p);
        let io = ChaosIo::new(ChaosPlan::none(0).enospc_after_bytes(4));
        let err = io.create_new(&p, b"a lock record").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert!(!p.exists());
    }

    #[test]
    fn torn_send_transmits_a_strict_prefix_then_kills_the_wire() {
        use std::io::Write as _;
        let mut out = Vec::new();
        let mut wire = ChaosWire::new(&mut out, WirePlan::none(0xABC).torn_nth_send(1));
        let frame = b"a frame long enough to tear somewhere in the middle";
        let err = wire.write(frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Dead for good: later sends and flushes fail too.
        assert_eq!(
            wire.write(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert!(out.len() < frame.len(), "strict prefix");
        assert!(frame.starts_with(&out));
    }

    #[test]
    fn bitflip_recv_flips_exactly_one_bit_on_the_armed_read() {
        use std::io::Read as _;
        let data = b"payload guarded by a frame checksum".to_vec();
        let mut wire = ChaosWire::new(&data[..], WirePlan::none(5).bitflip_nth_recv(1));
        let mut buf = vec![0u8; data.len()];
        let got = wire.read(&mut buf).unwrap();
        assert_eq!(got, data.len());
        let diff: u32 = data
            .iter()
            .zip(&buf)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn disconnect_and_stall_surface_as_eof_and_timeout() {
        use std::io::Read as _;
        let data = b"0123456789".to_vec();
        let mut wire = ChaosWire::new(&data[..], WirePlan::none(0).disconnect_after_nth_recv(1));
        let mut buf = [0u8; 4];
        assert_eq!(wire.read(&mut buf).unwrap(), 4); // recv #1 still works
        assert_eq!(wire.read(&mut buf).unwrap(), 0, "then the peer is gone");

        let mut wire = ChaosWire::new(&data[..], WirePlan::none(0).stall_nth_recv(2));
        assert_eq!(wire.read(&mut buf).unwrap(), 4);
        let err = wire.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn fail_point_fires_only_for_the_named_block() {
        let io = ChaosIo::new(ChaosPlan::none(0).panic_on_block("victim"));
        assert_eq!(io.fail_point("campaign.block", "victim"), FailAction::Panic);
        assert_eq!(
            io.fail_point("campaign.block", "other"),
            FailAction::Continue
        );
        assert_eq!(io.fail_point("other.point", "victim"), FailAction::Continue);
    }
}
