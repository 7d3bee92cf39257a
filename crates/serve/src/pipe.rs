//! An in-process duplex byte stream — the test transport for `dfv-serve`.
//!
//! [`duplex`] returns two connection ends, each a `(reader, writer)` pair,
//! wired so bytes written at one end are read at the other. The halves
//! are plain [`Read`]/[`Write`] values that can be moved to separate
//! threads, which is exactly the shape the server's per-connection
//! reader/writer threads need — and the same shape a split
//! `TcpStream`/`UnixStream` has, so everything proven against pipes holds
//! for real sockets.
//!
//! Close semantics mirror a socket:
//!
//! - dropping a writer half closes its direction: the peer's reader
//!   drains buffered bytes, then sees EOF (`Ok(0)`);
//! - dropping a reader half makes the peer's writes fail with
//!   `BrokenPipe` — a client that went away is an error the writer sees,
//!   not silently swallowed bytes.
//!
//! Chaos composes at the byte layer: wrap either half in a
//! [`dfv_core::ChaosWire`] to tear frames, flip bits, disconnect, or
//! stall — the server cannot tell pipes, sockets, and chaos wrappers
//! apart.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Shared state of one pipe direction.
#[derive(Debug, Default)]
struct Shared {
    buf: VecDeque<u8>,
    /// Writer dropped: reader drains, then EOF.
    write_closed: bool,
    /// Reader dropped: writes fail with `BrokenPipe`.
    read_closed: bool,
}

#[derive(Debug, Default)]
struct Channel {
    state: Mutex<Shared>,
    ready: Condvar,
}

/// The reading half of one pipe direction.
#[derive(Debug)]
pub struct PipeReader(Arc<Channel>);

/// The writing half of one pipe direction.
#[derive(Debug)]
pub struct PipeWriter(Arc<Channel>);

/// Creates one unidirectional byte pipe.
pub fn pipe() -> (PipeReader, PipeWriter) {
    let ch = Arc::new(Channel::default());
    (PipeReader(ch.clone()), PipeWriter(ch))
}

/// Creates a duplex connection: two `(reader, writer)` ends. Bytes
/// written on one end's writer arrive at the other end's reader.
pub fn duplex() -> ((PipeReader, PipeWriter), (PipeReader, PipeWriter)) {
    let (a_read, b_write) = pipe();
    let (b_read, a_write) = pipe();
    ((a_read, a_write), (b_read, b_write))
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.0.state.lock().expect("pipe lock");
        loop {
            if !st.buf.is_empty() {
                let n = buf.len().min(st.buf.len());
                let (front, back) = st.buf.as_slices();
                let k = n.min(front.len());
                buf[..k].copy_from_slice(&front[..k]);
                buf[k..n].copy_from_slice(&back[..n - k]);
                st.buf.drain(..n);
                return Ok(n);
            }
            if st.write_closed {
                return Ok(0); // clean EOF: the peer hung up
            }
            st = self.0.ready.wait(st).expect("pipe lock");
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("pipe lock");
        st.read_closed = true;
        self.0.ready.notify_all();
    }
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().expect("pipe lock");
        if st.read_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pipe: peer reader is gone",
            ));
        }
        st.buf.extend(buf);
        self.0.ready.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("pipe lock");
        st.write_closed = true;
        self.0.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_duplex_in_both_directions() {
        let ((mut ar, mut aw), (mut br, mut bw)) = duplex();
        aw.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        br.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        bw.write_all(b"world").unwrap();
        ar.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn dropping_the_writer_is_a_clean_eof_after_the_buffer_drains() {
        let (mut r, mut w) = pipe();
        w.write_all(b"tail").unwrap();
        drop(w);
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn dropping_the_reader_breaks_the_writer() {
        let (r, mut w) = pipe();
        drop(r);
        let err = w.write_all(b"into the void").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn a_blocked_reader_wakes_when_the_writer_closes() {
        let (mut r, w) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            r.read(&mut buf).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(w); // wake the blocked reader with EOF
        assert_eq!(t.join().unwrap(), 0);
    }
}
