//! Length-prefixed binary framing with a versioned header and CRC32
//! payload check.
//!
//! Every message on a byte-stream transport travels inside one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"EAC1"
//! 4       1     protocol version (PROTO_VERSION)
//! 5       1     message type tag
//! 6       2     flags (reserved, must be zero)
//! 8       4     payload length, little-endian
//! 12      n     payload bytes
//! 12+n    4     CRC32 (IEEE) of the payload, little-endian
//! ```
//!
//! The fixed header makes desynchronization detectable (bad magic), the
//! version byte gates protocol evolution, the explicit length bounds the
//! read, and the trailing CRC rejects corrupted payloads before they are
//! decoded. A frame that fails any check is an error, never a panic: a bad
//! peer must not be able to abort training.

use std::io::Read;

use crate::bytepool;
pub use crate::crc::crc32;

/// Frame magic: "EAC1" (Elastic-Averaging Comms, format 1).
pub const MAGIC: [u8; 4] = *b"EAC1";

/// Current protocol version, negotiated by the `Hello`/`HelloAck`
/// handshake and stamped on every frame. Version 2 added the codec byte
/// to `Hello`, the codec + shard-map fields to `HelloAck`, and wire tags
/// 17–19 (compressed weight/delta messages). Version 3 added the clock
/// timestamps to `Heartbeat`/`HeartbeatAck` and wire tags 20–21
/// (observability push to an `ea-ops` collector). Version 4 dropped the
/// epoch pair from the `ea-ops` trace blob (one process clock).
pub const PROTO_VERSION: u8 = 4;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Hard upper bound on payload size (256 MiB). A length prefix beyond
/// this is treated as a desynchronized or hostile stream rather than an
/// allocation request.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// A malformed or corrupt frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// Length prefix exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Stream ended inside a frame.
    Truncated,
    /// CRC32 mismatch between wire and recomputed value.
    BadCrc { expected: u32, got: u32 },
    /// Frame was well-formed but the payload did not decode.
    BadPayload(String),
    /// Unknown message type tag.
    UnknownType(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadFlags(x) => write!(f, "reserved flag bits set: {x:#06x}"),
            FrameError::TooLarge(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::BadCrc { expected, got } => {
                write!(f, "payload CRC mismatch: wire {expected:#010x}, computed {got:#010x}")
            }
            FrameError::BadPayload(why) => write!(f, "undecodable payload: {why}"),
            FrameError::UnknownType(t) => write!(f, "unknown message type {t}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame (header + payload + CRC) into `out`, which is
/// cleared first so one scratch buffer serves every send.
pub fn encode_frame(msg_type: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len() + 4);
    encode_frame_with(msg_type, out, |out| out.extend_from_slice(payload));
}

/// Encodes one frame in place: the header goes into `out` (cleared first)
/// with a length placeholder, `append_payload` appends the payload bytes
/// directly behind it, then the length is patched and the CRC appended.
/// The frame is one contiguous buffer, ready for a single `write`.
pub(crate) fn encode_frame_with(
    msg_type: u8,
    out: &mut Vec<u8>,
    append_payload: impl FnOnce(&mut Vec<u8>),
) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(PROTO_VERSION);
    out.push(msg_type);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    append_payload(out);
    let len = out.len() - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD);
    out[8..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Validates a fixed 12-byte header, returning `(msg_type, payload_len)`.
/// Shared by the blocking reader below and the reactor's incremental
/// connection state machine, so both paths enforce identical checks.
pub(crate) fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != PROTO_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let flags = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    Ok((header[5], len))
}

/// How far a frame's body buffer may run ahead of the bytes received for
/// it. The length prefix is the peer's claim, so it sizes the buffer only
/// this far in advance: a header followed by silence pins 1 MiB, not
/// [`MAX_PAYLOAD`]. Frames up to this size are one allocation.
pub(crate) const BODY_GROW: usize = 1 << 20;

/// Reads exactly one frame from a byte stream.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection), `Err(Frame(Truncated))` on EOF mid-frame, and the
/// decoded `(msg_type, payload)` otherwise. Payload and CRC trailer land
/// in one pooled buffer, which is returned truncated to the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ReadFrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        Eof::Clean => return Ok(None),
        Eof::Partial => return Err(ReadFrameError::Frame(FrameError::Truncated)),
        Eof::Filled => {}
    }
    let (msg_type, len) = parse_header(&header).map_err(ReadFrameError::Frame)?;
    let target = len + 4;
    let mut body = bytepool::take(target.min(BODY_GROW));
    let mut filled = 0;
    loop {
        match read_exact_or_eof(r, &mut body[filled..])? {
            Eof::Filled => filled = body.len(),
            _ => return Err(ReadFrameError::Frame(FrameError::Truncated)),
        }
        if filled == target {
            break;
        }
        body.resize(target.min(filled + BODY_GROW), 0);
    }
    let expected = u32::from_le_bytes(body[len..].try_into().expect("4-byte trailer"));
    let got = crc32(&body[..len]);
    if expected != got {
        return Err(ReadFrameError::Frame(FrameError::BadCrc { expected, got }));
    }
    body.truncate(len);
    Ok(Some((msg_type, body)))
}

/// Appends `s` as a `u32` length + UTF-8 bytes — what [`Reader::str`]
/// reads back.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian cursor over a payload: the one byte
/// decoder behind wire messages, `ea-ops` blobs and checkpoint files.
/// Every read that would pass the end is a [`FrameError::BadPayload`],
/// never a panic, and a length field can only ever borrow bytes that are
/// already in the buffer, so it cannot force an allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let left = self.buf.len() - self.at;
        if n > left {
            return Err(FrameError::BadPayload(format!(
                "truncated at byte {}: need {n}, {left} left",
                self.at
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u32` length + UTF-8 string ([`put_str`]).
    pub fn str(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|e| FrameError::BadPayload(format!("bad utf-8: {e}")))
    }

    /// Everything not yet read (a message's trailing variable-length
    /// field).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    /// Rejects trailing bytes: a decoder calls this last.
    pub fn done(&self) -> Result<(), FrameError> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            n => Err(FrameError::BadPayload(format!("{n} trailing bytes"))),
        }
    }
}

/// Errors from [`read_frame`]: either the stream itself failed or the
/// bytes on it were not a valid frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// Underlying I/O failure (including timeouts).
    Io(std::io::Error),
    /// The bytes were not a valid frame.
    Frame(FrameError),
}

impl From<std::io::Error> for ReadFrameError {
    fn from(e: std::io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

enum Eof {
    /// Buffer completely filled.
    Filled,
    /// EOF before any byte was read.
    Clean,
    /// EOF after at least one byte.
    Partial,
}

/// `read_exact`, but distinguishing a clean EOF at offset zero (peer
/// closed between frames) from a truncation mid-frame. Zero-byte reads on
/// a still-open socket cannot be told apart from EOF by `Read`, so both
/// map to EOF here — the caller treats them identically.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<Eof> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { Eof::Clean } else { Eof::Partial }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Eof::Filled)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello elastic world".to_vec();
        let mut buf = Vec::new();
        encode_frame(7, &payload, &mut buf);
        let mut cursor = buf.as_slice();
        let (ty, got) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(ty, 7);
        assert_eq!(got, payload);
        assert!(cursor.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let mut buf = Vec::new();
        encode_frame(1, b"abc", &mut buf);
        for cut in 1..HEADER_LEN {
            let mut cursor = &buf[..cut];
            match read_frame(&mut cursor) {
                Err(ReadFrameError::Frame(FrameError::Truncated)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_or_crc_is_error() {
        let mut buf = Vec::new();
        encode_frame(1, &[9u8; 32], &mut buf);
        for cut in HEADER_LEN..buf.len() {
            let mut cursor = &buf[..cut];
            match read_frame(&mut cursor) {
                Err(ReadFrameError::Frame(FrameError::Truncated)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = Vec::new();
        encode_frame(1, &[0u8; 16], &mut buf);
        buf[HEADER_LEN + 3] ^= 0x40; // flip a payload bit
        let mut cursor = buf.as_slice();
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ReadFrameError::Frame(FrameError::BadCrc { .. }))
        ));
    }

    /// Every single-bit flip behind the header of a frame long enough for
    /// the folded checksum path: `(bit index, corrupted frame)`.
    pub(crate) fn bit_flips_of_a_2k_frame() -> impl Iterator<Item = (usize, Vec<u8>)> {
        let payload: Vec<u8> = (0..2048u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut wire = Vec::new();
        encode_frame(9, &payload, &mut wire);
        (HEADER_LEN * 8..wire.len() * 8).map(move |bit| {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            (bit, bad)
        })
    }

    #[test]
    fn every_bit_flip_in_a_2k_frame_fails_crc() {
        for (bit, bad) in bit_flips_of_a_2k_frame() {
            match read_frame(&mut bad.as_slice()) {
                Err(ReadFrameError::Frame(FrameError::BadCrc { .. })) => {}
                other => panic!("bit {bit}: expected BadCrc, got {other:?}"),
            }
        }
    }

    /// Piece sizes for delivering a frame raggedly: tiny, prime, and
    /// just past a power of two, so pieces straddle every boundary.
    pub(crate) const ODD_SIZES: [usize; 5] = [1, 7919, 3, 65_537, 1_048_583];

    /// Hands out `data` in odd-sized pieces and records the largest
    /// buffer the reader ever offered.
    struct Dribble<'a> {
        data: &'a [u8],
        reads: usize,
        largest_buf: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            let n = ODD_SIZES[self.reads % ODD_SIZES.len()].min(buf.len()).min(self.data.len());
            self.reads += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_header_alone_cannot_reserve_the_length_it_claims() {
        let mut wire = Vec::new();
        encode_frame(1, b"", &mut wire);
        wire.truncate(HEADER_LEN);
        wire[8..12].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        let mut peer = Dribble { data: &wire, reads: 0, largest_buf: 0 };
        assert!(matches!(read_frame(&mut peer), Err(ReadFrameError::Frame(FrameError::Truncated))));
        assert!(peer.largest_buf <= BODY_GROW, "offered {} bytes for no data", peer.largest_buf);
    }

    #[test]
    fn a_3_mib_frame_in_odd_sized_reads_still_decodes() {
        let payload: Vec<u8> = (0..3u32 << 20).map(|i| (i ^ (i >> 11)) as u8).collect();
        let mut wire = Vec::new();
        encode_frame(5, &payload, &mut wire);
        let mut peer = Dribble { data: &wire, reads: 0, largest_buf: 0 };
        let (ty, got) = read_frame(&mut peer).unwrap().unwrap();
        assert_eq!(ty, 5);
        assert!(got == payload, "payload differs");
        assert!(peer.largest_buf <= BODY_GROW, "buffer ran {} ahead", peer.largest_buf);
        assert!(read_frame(&mut peer).unwrap().is_none(), "exactly one frame consumed");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        encode_frame(1, b"x", &mut buf);
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadMagic(_)))
        ));
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadVersion(99)))
        ));
        let mut bad_flags = buf;
        bad_flags[6] = 1;
        assert!(matches!(
            read_frame(&mut bad_flags.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadFlags(1)))
        ));
    }

    #[test]
    fn reader_reads_in_order_and_never_passes_the_end() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0x0201u16.to_le_bytes());
        buf.extend_from_slice(&0x0605_0403u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(-5i64).to_le_bytes());
        put_str(&mut buf, "héllo");
        buf.extend_from_slice(&[9, 9]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u32(), Ok(0x0605_0403));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert!(r.done().is_err(), "two bytes are still unread");
        assert!(r.u32().is_err(), "only two bytes left");
        assert_eq!(r.take(2), Ok(&[9u8, 9][..]), "a failed read consumes nothing");
        assert_eq!(r.done(), Ok(()));
        assert!(r.u8().is_err());
        assert_eq!(r.rest(), &[] as &[u8]);
    }

    #[test]
    fn reader_string_length_cannot_outrun_the_buffer() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(Reader::new(&buf).str().is_err());
        let mut bad_utf8 = 2u32.to_le_bytes().to_vec();
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&bad_utf8).str().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        encode_frame(1, b"x", &mut buf);
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ReadFrameError::Frame(FrameError::TooLarge(_)))
        ));
    }
}
