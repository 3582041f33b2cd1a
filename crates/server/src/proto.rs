//! The lobd wire protocol: framing, opcodes, error codes, payload codecs.
//!
//! Everything here is pure byte manipulation — no sockets — so the same
//! codec drives the TCP transport, the in-process loopback transport, and
//! the robustness tests. See DESIGN.md ("The lobd wire protocol") for the
//! normative spec.
//!
//! # Framing
//!
//! Every frame — request and reply alike — carries a client-chosen `u32`
//! tag after the length, echoed verbatim in the matching reply so a
//! client may keep a window of requests in flight and correlate
//! completions:
//!
//! ```text
//! request  = u32 len (LE) | u32 tag (LE) | u8 opcode | payload   (len = 5 + payload)
//! reply    = u32 len (LE) | u32 tag (LE) | u8 status | payload   (status 0 = OK)
//! ```
//!
//! Execution stays strictly in-order per session (so replies also
//! arrive in send order); the tag is correlation, not reordering.
//! Server-initiated frames (shutdown notices, handshake refusals,
//! unparseable-length errors) carry tag 0.
//!
//! [`begin_frame`]/[`end_frame`] are the only functions that write a
//! frame header ([`encode_frame_into`] is the pair around a ready-made
//! payload) and [`decode_frame`] the only one that parses one; the server's
//! frame loop and the client both go through them.
//!
//! A connection starts with a 5-byte handshake in each direction:
//! `b"PGLO"` then the protocol version byte. The server answers any
//! other version with its own hello plus a tag-0
//! [`ErrorCode::BadVersion`] frame and closes.

use std::io::{self, Read};

/// Protocol magic exchanged at connect time.
pub const MAGIC: &[u8; 4] = b"PGLO";

/// The protocol version: tagged frames (`u32 len | u32 tag | u8 code |
/// payload`) and the self-describing metrics frame as the `stats` reply
/// (see [`crate::stats::encode_metrics`]). Adding a metric extends that
/// frame's entry list and never changes a layout, so it must never
/// require a version bump.
pub const VERSION: u8 = 4;

/// Hard ceiling on a frame's declared length (tag + code + payload). Anything
/// larger is treated as a malformed stream and the connection is dropped —
/// a corrupt or hostile length prefix must not drive allocation.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Per-operation byte ceiling for large-object and Inversion reads/writes.
/// Larger transfers are chunked by the client.
pub const MAX_IO: u32 = 4 * 1024 * 1024;

/// Declares the opcodes once: each `Variant = byte => "name"` row becomes
/// an [`Opcode`] variant, an entry of [`Opcode::ALL`] (in row order) and
/// an arm of [`Opcode::from_u8`] and [`Opcode::name`]. A reused byte
/// fails to compile (E0081), and so does an opcode without an arm in the
/// service's dispatch match, which has no wildcard.
macro_rules! opcodes {
    ($($(#[$doc:meta])* $variant:ident = $byte:literal => $name:literal,)*) => {
        /// Request opcodes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $($(#[$doc])* $variant = $byte,)*
        }

        impl Opcode {
            /// All opcodes in declaration order, for stats table sizing
            /// and iteration.
            pub const ALL: [Opcode; [$(Opcode::$variant),*].len()] = [$(Opcode::$variant),*];

            /// Decode a wire byte.
            pub fn from_u8(b: u8) -> Option<Opcode> {
                match b {
                    $($byte => Some(Opcode::$variant),)*
                    _ => None,
                }
            }

            /// Stable label for stats reporting.
            pub fn name(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $name,)*
                }
            }
        }
    };
}

opcodes! {
    /// Liveness/version probe.
    Ping = 0x01 => "ping",
    /// Begin the session transaction.
    Begin = 0x02 => "begin",
    /// Commit the session transaction → `u64` commit timestamp.
    Commit = 0x03 => "commit",
    /// Abort the session transaction.
    Abort = 0x04 => "abort",
    /// Server statistics snapshot.
    Stats = 0x05 => "stats",
    /// Latest commit timestamp → `u64` (the "as of now" time-travel axis).
    CurrentTs = 0x06 => "current_ts",
    /// Graceful shutdown request (also triggered by process signals).
    Shutdown = 0x07 => "shutdown",

    /// Create a large object from a [`WireSpec`] → `u64` id.
    LoCreate = 0x10 => "lo_create",
    /// Open: `u64 id, u8 mode, u32 user` → `u32 fd`.
    LoOpen = 0x11 => "lo_open",
    /// Time-travel open: `u64 id, u64 ts` → `u32 fd`.
    LoOpenAsOf = 0x12 => "lo_open_as_of",
    /// `u32 fd, u32 len` → bytes at the seek pointer.
    LoRead = 0x13 => "lo_read",
    /// `u32 fd, bytes` → () ; writes at the seek pointer.
    LoWrite = 0x14 => "lo_write",
    /// `u32 fd, u8 whence, i64 offset` → `u64` new position.
    LoSeek = 0x15 => "lo_seek",
    /// `u32 fd` → `u64` seek pointer.
    LoTell = 0x16 => "lo_tell",
    /// `u32 fd` → ().
    LoClose = 0x17 => "lo_close",
    /// `u64 id` → () ; removes the object.
    LoUnlink = 0x18 => "lo_unlink",
    /// `u32 fd` → `u64` logical size.
    LoSize = 0x19 => "lo_size",
    /// `u32 fd, u64 offset, u32 len` → bytes (pointer unchanged).
    LoReadAt = 0x1A => "lo_read_at",
    /// `u32 fd, u64 offset, bytes` → () (pointer unchanged).
    LoWriteAt = 0x1B => "lo_write_at",
    /// Create a temporary object (GC'd at session/query end) → `u64` id.
    LoCreateTemp = 0x1C => "lo_create_temp",
    /// `u64 id` → `u8` (1 if it was temporary) ; promotes to permanent.
    LoKeepTemp = 0x1D => "lo_keep_temp",
    /// Reclaim this session's temporaries → `u32` count.
    GcTemps = 0x1E => "gc_temps",
    /// `WireSpec, str host_path` → `u64 id` (server-side `lo_import`).
    LoImport = 0x1F => "lo_import",
    /// `u64 id, str host_path` → `u64` bytes written (`lo_export`).
    LoExport = 0x20 => "lo_export",

    /// `str path` → `u64` file id.
    InvCreate = 0x30 => "inv_create",
    /// `str path` → `u64` directory id.
    InvMkdir = 0x31 => "inv_mkdir",
    /// `str path, u64 offset, u32 len` → bytes.
    InvRead = 0x32 => "inv_read",
    /// `str path, u64 offset, bytes` → ().
    InvWrite = 0x33 => "inv_write",
    /// `str path` → stat record.
    InvStat = 0x34 => "inv_stat",
    /// `str path` → directory listing.
    InvReaddir = 0x35 => "inv_readdir",
    /// `str from, str to` → ().
    InvRename = 0x36 => "inv_rename",
    /// `str path` → ().
    InvUnlink = 0x37 => "inv_unlink",
}

/// Reply status codes (`0` is OK; error payload is a UTF-8 message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Payload failed to decode for the opcode.
    Malformed = 1,
    /// Opcode byte not recognized.
    UnknownOp = 2,
    /// Operation needs a transaction and the session has none.
    NoTxn = 3,
    /// `begin` while a transaction is already open.
    TxnOpen = 4,
    /// Descriptor not found in this session.
    BadFd = 5,
    /// Object/path does not exist.
    NotFound = 6,
    /// Ownership/permission failure.
    Permission = 7,
    /// Write through a read-only descriptor.
    ReadOnly = 8,
    /// Operation unsupported by the object's implementation.
    Unsupported = 9,
    /// Request exceeds the per-op byte limit.
    TooLarge = 10,
    /// Storage-layer failure.
    Storage = 11,
    /// Inversion path error (exists / not a directory / not empty / ...).
    Path = 12,
    /// Host-file I/O failure.
    Io = 13,
    /// Server is draining for shutdown.
    ShuttingDown = 14,
    /// Handshake version mismatch.
    BadVersion = 15,
    /// Handler panicked (caught; the server keeps serving).
    Internal = 16,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        use ErrorCode::*;
        [
            Malformed,
            UnknownOp,
            NoTxn,
            TxnOpen,
            BadFd,
            NotFound,
            Permission,
            ReadOnly,
            Unsupported,
            TooLarge,
            Storage,
            Path,
            Io,
            ShuttingDown,
            BadVersion,
            Internal,
        ]
        .into_iter()
        .find(|c| *c as u8 == b)
    }
}

/// `lo_seek` whence values.
pub const SEEK_SET: u8 = 0;
/// Relative to the current pointer.
pub const SEEK_CUR: u8 = 1;
/// Relative to end of object.
pub const SEEK_END: u8 = 2;

/// A large-object creation spec as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpec {
    /// Implementation: 0 ufile, 1 pfile, 2 fchunk, 3 vsegment.
    pub kind: u8,
    /// Codec: 0 none, 1 rle, 2 lz77.
    pub codec: u8,
    /// Acting user (owner of the new object).
    pub user: u32,
    /// User bytes per chunk; 0 = server default.
    pub chunk_size: u32,
    /// u-file only: the host path.
    pub path: Option<String>,
}

impl WireSpec {
    /// The workhorse default: f-chunk, no compression.
    pub fn fchunk() -> Self {
        Self { kind: 2, codec: 0, user: 0, chunk_size: 0, path: None }
    }

    /// A v-segment spec with the given codec byte.
    // LINT: allow(R14, the client-side spec of a v-segment object; the wire tests create one)
    pub fn vsegment(codec: u8) -> Self {
        Self { kind: 3, codec, user: 0, chunk_size: 0, path: None }
    }

    /// Encode into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        out.push(self.codec);
        put_u32(out, self.user);
        put_u32(out, self.chunk_size);
        match &self.path {
            Some(p) => {
                out.push(1);
                put_str(out, p);
            }
            None => out.push(0),
        }
    }

    /// Decode from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let kind = r.u8()?;
        let codec = r.u8()?;
        let user = r.u32()?;
        let chunk_size = r.u32()?;
        let path = if r.u8()? != 0 { Some(r.str()?) } else { None };
        Ok(Self { kind, codec, user, chunk_size, path })
    }
}

/// Payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian cursor over a payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the payload was fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read exactly `N` bytes as a fixed array (`take` already
    /// length-checked, so the conversion cannot fail).
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    /// Read an i64.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take_n()?))
    }

    /// Read a length-prefixed byte string (u32 length).
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME as usize {
            return Err(DecodeError("byte string longer than frame bound"));
        }
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string. Validates in place and copies
    /// once — `String::from_utf8(b.to_vec())` would allocate before
    /// knowing the bytes are valid.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map(str::to_owned).map_err(|_| DecodeError("invalid utf-8"))
    }
}

/// Append a u32 (LE).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64 (LE).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an i64 (LE).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary.
    Eof,
    /// I/O failure (including EOF mid-frame).
    Io(io::Error),
    /// Declared length cannot hold tag + code or exceeds [`MAX_FRAME`] —
    /// stream is untrustworthy from here on.
    BadLength(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::BadLength(n) => write!(f, "bad frame length {n} (max {MAX_FRAME})"),
        }
    }
}

/// Bytes of tag + code that every frame's length counts before its
/// payload.
const FRAME_HEADER: usize = 5;

/// Open a frame in `out`: the header with its length and code left
/// blank, after which the caller appends the payload in place and seals
/// it with [`end_frame`] (passing back the offset returned here).
pub fn begin_frame(out: &mut Vec<u8>, tag: u32) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&tag.to_le_bytes());
    out.push(0);
    at
}

/// Seal the frame opened at `at`: everything appended since is its
/// payload.
pub fn end_frame(out: &mut [u8], at: usize, code: u8) {
    let len = out.len() - at - 4;
    debug_assert!((FRAME_HEADER..=MAX_FRAME as usize).contains(&len));
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[at + 8] = code;
}

/// Append one frame to `out`. Callers write `out` to the transport in a
/// single `write_all`, so a frame is one syscall (and one segment on a
/// `TCP_NODELAY` socket) however long its payload.
pub fn encode_frame_into(out: &mut Vec<u8>, tag: u32, code: u8, payload: &[u8]) {
    let at = begin_frame(out, tag);
    out.extend_from_slice(payload);
    end_frame(out, at, code);
}

/// One decoded frame: `(consumed_bytes, tag, code, payload)`, the payload
/// borrowed from the buffer it was decoded in.
pub type DecodedFrame<'a> = (usize, u32, u8, &'a [u8]);

/// Incremental frame decode against a byte buffer.
///
/// Returns `Ok(None)` when `buf` holds only a frame prefix (need more
/// bytes), `Ok(Some(frame))` for one complete frame starting at
/// `buf[0]` (the caller drains `frame.0` bytes), or
/// [`FrameError::BadLength`] for a length prefix outside the trusted
/// range — the stream is unrecoverable from there, and nothing was
/// allocated for it.
pub fn decode_frame(buf: &[u8]) -> Result<Option<DecodedFrame<'_>>, FrameError> {
    let Some(prefix) = buf.first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_le_bytes(*prefix);
    if (len as usize) < FRAME_HEADER || len > MAX_FRAME {
        return Err(FrameError::BadLength(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let tag = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    Ok(Some((total, tag, buf[8], &buf[9..total])))
}

/// Smallest read a blocking transport is asked for: room for a 4 KiB
/// I/O frame, so the common request or reply arrives in one `read`.
const READ_CHUNK: usize = 8 * 1024;

/// Blocking frame read for the client: fill `buf` from `r` until it holds
/// a frame's header, then read the rest of the payload straight into the
/// payload's own buffer. `buf` carries bytes read past the frame's end
/// over to the next call, so it must live as long as the connection.
/// Returns `(tag, code, payload)`.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(u32, u8, Vec<u8>), FrameError> {
    let torn = || FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "torn frame"));
    // `decode_frame` vets the length prefix as soon as it is here.
    while decode_frame(buf)?.is_none() && buf.len() < 4 + FRAME_HEADER {
        let have = buf.len();
        buf.resize(have + READ_CHUNK, 0);
        let got = r.read(&mut buf[have..]);
        buf.truncate(have + got.as_ref().map_or(0, |n| *n));
        match got {
            // Distinguish clean EOF (no bytes of a next frame) from a torn frame.
            Ok(0) if have == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(torn()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let word = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    let (total, tag, code) = (4 + word(0) as usize, word(4), buf[8]);
    let here = total.min(buf.len());
    let mut payload = Vec::with_capacity(total - 4 - FRAME_HEADER);
    payload.extend_from_slice(&buf[4 + FRAME_HEADER..here]);
    buf.drain(..here);
    // The rest of the payload, if any, goes straight into `payload`.
    r.take((total - here) as u64).read_to_end(&mut payload).map_err(FrameError::Io)?;
    if payload.len() < total - 4 - FRAME_HEADER {
        return Err(torn());
    }
    Ok((tag, code, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn frame(tag: u32, code: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(&mut out, tag, code, payload);
        out
    }

    /// Decode everything `buf` holds: the frames, then how decoding ended
    /// (`None` = wants more bytes, `Some(n)` = bad length `n`).
    fn drain_frames(buf: &mut Vec<u8>, out: &mut Vec<(u32, u8, Vec<u8>)>) -> Option<u32> {
        loop {
            match decode_frame(buf) {
                Ok(Some((consumed, tag, code, payload))) => {
                    assert!(consumed <= buf.len(), "consumed {consumed} of {}", buf.len());
                    assert!(payload.len() <= MAX_FRAME as usize);
                    assert_eq!(consumed, 4 + FRAME_HEADER + payload.len());
                    out.push((tag, code, payload.to_vec()));
                    buf.drain(..consumed);
                }
                Ok(None) => return None,
                Err(FrameError::BadLength(n)) => return Some(n),
                Err(e) => panic!("decode_frame never does I/O: {e}"),
            }
        }
    }

    #[test]
    fn frame_roundtrip_at_the_size_limits() {
        for len in [0, 1, MAX_IO as usize, MAX_FRAME as usize - FRAME_HEADER] {
            let payload = vec![0xA5u8; len];
            let wire = frame(0xDEAD_BEEF, Opcode::LoRead as u8, &payload);
            let (consumed, tag, code, back) = decode_frame(&wire).unwrap().unwrap();
            assert_eq!((consumed, tag, code), (wire.len(), 0xDEAD_BEEF, Opcode::LoRead as u8));
            assert_eq!(back, payload, "payload of {len} bytes");
        }
    }

    #[test]
    fn untrusted_lengths_are_rejected_without_allocation() {
        // len 0..=4 cannot hold tag + code; above MAX_FRAME must not
        // drive allocation. Both are rejected from the prefix alone.
        for len in [0, 1, 4, MAX_FRAME + 1, u32::MAX] {
            assert!(
                matches!(decode_frame(&len.to_le_bytes()), Err(FrameError::BadLength(n)) if n == len)
            );
        }
        assert!(decode_frame(&MAX_FRAME.to_le_bytes()).unwrap().is_none());
    }

    #[test]
    fn blocking_reader_tells_eof_from_a_torn_frame() {
        let mut wire = frame(7, 0x13, &[9; 16]);
        wire.extend(frame(8, 0x14, b"xyz"));
        let mut buf = Vec::new();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, &mut buf).unwrap(), (7, 0x13, vec![9; 16]));
        // The second frame arrived in the first read and waits in `buf`.
        assert!(r.is_empty() && !buf.is_empty());
        assert_eq!(read_frame(&mut r, &mut buf).unwrap(), (8, 0x14, b"xyz".to_vec()));
        assert!(matches!(read_frame(&mut r, &mut buf), Err(FrameError::Eof)));

        // Torn inside the body, and inside the length prefix.
        for cut in [2, 7] {
            let mut buf = Vec::new();
            assert!(matches!(read_frame(&mut &wire[..cut], &mut buf), Err(FrameError::Io(_))));
        }
        let mut buf = Vec::new();
        let bad = u32::MAX.to_le_bytes();
        assert!(matches!(read_frame(&mut &bad[..], &mut buf), Err(FrameError::BadLength(_))));
    }

    /// A reader that hands out at most `max` bytes a read, the first
    /// read cut at `first`.
    struct Trickle<'a> {
        wire: &'a [u8],
        max: usize,
        first: Option<usize>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.first.take().unwrap_or(self.max).min(out.len()).min(self.wire.len());
            out[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    /// A reply read a byte at a time, and one whose payload arrives after
    /// its header, reads whole; one torn inside its payload is an error.
    #[test]
    fn blocking_reader_takes_a_payload_in_any_pieces() {
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = frame(3, 0x15, &payload);
        wire.extend(frame(4, 0x16, b"next"));
        let header = 4 + FRAME_HEADER;
        for (max, first) in [(1, None), (usize::MAX, Some(header))] {
            let (mut r, mut buf) = (Trickle { wire: &wire, max, first }, Vec::new());
            assert!(read_frame(&mut r, &mut buf).unwrap() == (3, 0x15, payload.clone()));
            assert_eq!(read_frame(&mut r, &mut buf).unwrap(), (4, 0x16, b"next".to_vec()));
            assert!(matches!(read_frame(&mut r, &mut buf), Err(FrameError::Eof)));
        }
        for cut in [header, header + 1, header + payload.len() - 1] {
            let (mut r, mut buf) =
                (Trickle { wire: &wire[..cut], max: 4096, first: None }, Vec::new());
            let err = read_frame(&mut r, &mut buf);
            assert!(
                matches!(&err, Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof),
                "a payload torn at byte {cut}: {err:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the decoder, never make it claim
        /// more than it was given, never yield a payload above the bound.
        /// The length prefix is drawn small half the time so the bytes
        /// after it are reached.
        #[test]
        fn arbitrary_bytes_never_panic(
            small in prop::bool::ANY,
            len in 0u32..48,
            bytes in prop::collection::vec(prop::num::u8::ANY, 0..96),
        ) {
            let mut buf = if small { len.to_le_bytes().to_vec() } else { Vec::new() };
            buf.extend(bytes);
            drain_frames(&mut buf, &mut Vec::new());
        }

        /// A stream fed one byte at a time decodes to the same frames,
        /// and ends the same way, as the stream fed whole.
        #[test]
        fn byte_by_byte_matches_whole(
            frames in prop::collection::vec(
                (prop::num::u32::ANY, prop::num::u8::ANY,
                 prop::collection::vec(prop::num::u8::ANY, 0..40)),
                0..6,
            ),
            tail in prop::collection::vec(prop::num::u8::ANY, 0..12),
        ) {
            let mut wire = Vec::new();
            for (tag, code, payload) in &frames {
                encode_frame_into(&mut wire, *tag, *code, payload);
            }
            wire.extend(&tail);

            let mut whole = Vec::new();
            let whole_end = drain_frames(&mut wire.clone(), &mut whole);
            prop_assert_eq!(&whole[..frames.len()], &frames[..]);

            let mut dripped = Vec::new();
            let mut dripped_end = None;
            let mut buf = Vec::new();
            for b in &wire {
                buf.push(*b);
                dripped_end = drain_frames(&mut buf, &mut dripped);
                if dripped_end.is_some() {
                    break;
                }
            }
            prop_assert_eq!(dripped, whole);
            prop_assert_eq!(dripped_end, whole_end);
        }
    }

    #[test]
    fn spec_roundtrip() {
        for spec in [
            WireSpec::fchunk(),
            WireSpec::vsegment(2),
            WireSpec { kind: 0, codec: 0, user: 7, chunk_size: 4096, path: Some("/tmp/x".into()) },
        ] {
            let mut out = Vec::new();
            spec.encode(&mut out);
            let mut r = Reader::new(&out);
            let back = WireSpec::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn reader_rejects_truncation_and_trailing() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        let mut r = Reader::new(&out[..out.len() - 1]);
        assert!(r.str().is_err());
        let mut r = Reader::new(&out);
        r.str().unwrap();
        r.finish().unwrap();
        let mut out2 = out.clone();
        out2.push(0);
        let mut r = Reader::new(&out2);
        r.str().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn opcodes_roundtrip_and_are_unique() {
        // The typed client builds every opcode's request somewhere.
        let client = include_str!("client.rs");
        let (mut bytes, mut names) = (HashSet::new(), HashSet::new());
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
            assert!(bytes.insert(op as u8), "duplicate opcode byte {:#x}", op as u8);
            let name = op.name();
            assert!(names.insert(name), "duplicate opcode name {name:?}");
            let snake =
                name.split('_').all(|w| !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase()));
            assert!(snake, "opcode name {name:?} is not snake_case");
            // A whole path, so `Opcode::LoReadAt` does not stand in for `LoRead`.
            let path = format!("Opcode::{op:?}");
            let sent = client.match_indices(&path).any(|(at, _)| {
                !client[at + path.len()..].starts_with(|c: char| c.is_alphanumeric())
            });
            assert!(sent, "client.rs never sends {op:?}");
        }
        assert_eq!(Opcode::from_u8(0xEE), None);
    }
}
