//! Length-prefixed, checksummed JSON frames — the wire unit of `dfv-serve`.
//!
//! Every message between a client and the daemon travels as one frame:
//!
//! ```text
//! +---------+-----------------+---------------------+-----------------+
//! | "DFV1"  | payload length  | FNV-1a(payload) u64 | payload (JSON,  |
//! | 4 bytes | u32, big-endian | big-endian          | UTF-8 text)     |
//! +---------+-----------------+---------------------+-----------------+
//! ```
//!
//! The design is defensive by construction:
//!
//! - the **magic** rejects peers speaking a different protocol (or a
//!   desynchronized stream) before any allocation happens;
//! - the **length** is validated against [`MAX_FRAME`] *before* the
//!   payload buffer is allocated, so a hostile or corrupted length field
//!   cannot balloon server memory;
//! - the **checksum** ([`dfv_bits::fnv64`], the construction the campaign
//!   cache and journal use for their records) catches in-flight
//!   corruption (a single flipped bit anywhere in the payload fails the
//!   frame with a typed error instead of feeding garbage to the JSON
//!   parser); it is an integrity check, not an authenticator;
//! - a clean EOF *between* frames is a distinct, expected condition
//!   ([`FrameError::Closed`]) — a torn frame mid-read is not.
//!
//! Nothing here retries or recovers; the caller decides whether a bad
//! frame kills the connection (it should — after a framing error the
//! stream offset is unknowable).

use std::io::{self, Read, Write};

use dfv_bits::fnv64;
use dfv_obs::{parse_json, Json};

/// Frame magic: protocol name + wire-format version.
pub const MAGIC: [u8; 4] = *b"DFV1";

/// Hard cap on a frame's payload length, checked before allocation.
///
/// 8 MiB comfortably holds the largest plausible campaign submission
/// (hundreds of blocks with inline RTL netlists) while bounding what a
/// corrupted or hostile length field can make the daemon allocate.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (torn frame, broken pipe, timeout).
    Io(io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The first four bytes were not [`MAGIC`] — wrong protocol or a
    /// desynchronized stream.
    BadMagic([u8; 4]),
    /// The declared payload length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload failed its FNV-1a checksum (in-flight corruption).
    Checksum {
        /// Checksum declared in the frame header.
        declared: u64,
        /// Checksum actually computed over the received payload.
        computed: u64,
    },
    /// The payload passed its checksum but is not valid JSON.
    BadJson(String),
}

impl FrameError {
    /// True when the error means the peer is simply gone (clean close or
    /// a dead connection) rather than the frame content being bad.
    pub fn is_disconnect(&self) -> bool {
        match self {
            FrameError::Closed => true,
            FrameError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }

    /// True when the error is a read timeout — the peer is alive but not
    /// sending (a stalled or slow-loris client).
    pub fn is_stall(&self) -> bool {
        matches!(self, FrameError::Io(e)
            if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock))
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload of {n} bytes exceeds cap of {MAX_FRAME}")
            }
            FrameError::Checksum { declared, computed } => write!(
                f,
                "frame checksum mismatch (declared {declared:#018x}, computed {computed:#018x})"
            ),
            FrameError::BadJson(msg) => write!(f, "frame payload is not valid JSON: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes `msg` and writes one complete frame, flushing the stream.
pub fn write_frame<W: Write>(w: &mut W, msg: &Json) -> Result<(), FrameError> {
    write_frame_with(w, |out| msg.render_into(out))
}

/// Writes one complete frame whose JSON payload `render` appends to the
/// text it is handed, flushing the stream.
///
/// The payload is rendered straight into the frame buffer behind a
/// placeholder header, which is filled in once the length is known.
pub fn write_frame_with<W: Write>(
    w: &mut W,
    render: impl FnOnce(&mut String),
) -> Result<(), FrameError> {
    const HEADER: usize = 4 + 4 + 8;
    let mut text = String::with_capacity(256);
    // The magic is ASCII and the placeholder NULs, so the header is text.
    text.extend(MAGIC.map(char::from));
    text.extend(std::iter::repeat_n('\0', HEADER - MAGIC.len()));
    render(&mut text);
    let mut buf = text.into_bytes();
    let len = buf.len() - HEADER;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let sum = fnv64(&buf[HEADER..]);
    buf[4..8].copy_from_slice(&(len as u32).to_be_bytes());
    buf[8..HEADER].copy_from_slice(&sum.to_be_bytes());
    // One buffered write per frame: a frame either reaches the OS whole
    // or the error tells the caller the connection is unusable.
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one complete frame, validating magic, length, and checksum.
///
/// A clean EOF before the first magic byte returns [`FrameError::Closed`];
/// an EOF anywhere inside a frame is a torn frame and surfaces as an
/// [`FrameError::Io`] with `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Json, FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "no next frame" from "frame torn mid-header" by hand:
    // the first byte is allowed to be EOF, the remaining three are not.
    // A signal interrupting the read is retried, as `read_exact` does
    // for the rest of the frame.
    loop {
        match r.read(&mut magic[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut magic[1..])?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_be_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut sum8 = [0u8; 8];
    r.read_exact(&mut sum8)?;
    let declared = u64::from_be_bytes(sum8);
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let computed = fnv64(&payload);
    if computed != declared {
        return Err(FrameError::Checksum { declared, computed });
    }
    let text = String::from_utf8(payload)
        .map_err(|e| FrameError::BadJson(format!("payload is not UTF-8: {e}")))?;
    parse_json(&text).map_err(FrameError::BadJson)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_core::{ChaosWire, WirePlan};

    fn sample() -> Json {
        Json::obj(vec![
            ("type", Json::str("submit")),
            ("blocks", Json::Arr(vec![Json::str("b0")])),
            ("workers", Json::UInt(4)),
        ])
    }

    #[test]
    fn roundtrip_preserves_the_message_byte_for_byte() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        let ping = Json::obj(vec![("type", Json::str("ping"))]);
        write_frame(&mut buf, &ping).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().render(), sample().render());
        assert_eq!(read_frame(&mut r).unwrap().render(), ping.render());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn clean_eof_at_a_boundary_is_closed_not_an_io_error() {
        let empty: &[u8] = &[];
        let err = read_frame(&mut { empty }).unwrap_err();
        assert!(matches!(err, FrameError::Closed));
        assert!(err.is_disconnect());
    }

    #[test]
    fn torn_frame_is_a_typed_io_error_not_a_hang_or_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        // Every strict prefix is a torn frame: either Closed (nothing
        // arrived) or a typed error — never a successful parse.
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r).unwrap_err();
            match (cut, err) {
                (0, FrameError::Closed) => {}
                (_, FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                (c, other) => panic!("cut at {c}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&0u64.to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge(n) if n == u32::MAX as usize));
    }

    #[test]
    fn bad_magic_rejects_a_desynchronized_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        buf[1] ^= 0xFF;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
    }

    #[test]
    fn chaos_bitflip_anywhere_surfaces_as_a_typed_error_never_a_bad_accept() {
        use std::io::Read as _;
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        // The chaos wire flips one seeded bit in the first read; read the
        // whole frame in one call so the flip can land anywhere in it.
        for seed in 0..64u64 {
            let mut wire = ChaosWire::new(&buf[..], WirePlan::none(seed).bitflip_nth_recv(1));
            let mut corrupted = vec![0u8; buf.len()];
            wire.read_exact(&mut corrupted).unwrap();
            assert_ne!(corrupted, buf, "seed {seed} flipped nothing");
            match read_frame(&mut &corrupted[..]) {
                // A flip in the length field can shrink the frame; the
                // checksum over the truncated payload then catches it —
                // any typed error is acceptable, silence is not.
                Err(_) => {}
                Ok(msg) => assert_eq!(
                    msg.render(),
                    sample().render(),
                    "seed {seed}: corrupted frame parsed to a different message"
                ),
            }
        }
    }

    #[test]
    fn chaos_stall_and_disconnect_classify_correctly() {
        use std::io::Read as _;
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();

        let mut wire = ChaosWire::new(&buf[..], WirePlan::none(0).stall_nth_recv(1));
        let err = {
            let mut one = [0u8; 1];
            wire.read(&mut one).unwrap_err()
        };
        let fe = FrameError::Io(err);
        assert!(fe.is_stall());
        assert!(!fe.is_disconnect());

        let mut wire = ChaosWire::new(&buf[..], WirePlan::none(0).disconnect_after_nth_recv(0));
        let err = read_frame(&mut wire).unwrap_err();
        assert!(err.is_disconnect(), "got {err}");
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // corrupt the payload's final byte
        match read_frame(&mut &buf[..]) {
            Err(FrameError::Checksum { declared, computed }) => assert_ne!(declared, computed),
            other => panic!("unexpected {other:?}"),
        }
    }
}
