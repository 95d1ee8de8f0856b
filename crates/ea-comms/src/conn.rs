//! Per-connection state machine for the epoll reactor.
//!
//! Each accepted socket owns a [`Conn`]: an incremental frame decoder on
//! the read side and a bounded queue of fully-encoded frames on the write
//! side. Both directions are nonblocking — the reactor calls
//! [`Conn::read_message`] when the socket is readable and [`Conn::flush`]
//! when it is writable, and neither ever parks a thread.
//!
//! One buffer per frame, both ways. Inbound, the fixed 12-byte header
//! lands in an inline array; once validated, one pooled buffer from
//! [`crate::bytepool`] receives payload and CRC trailer straight from
//! `read(2)` — sized to the frame when it is at most
//! [`frame::BODY_GROW`], and otherwise grown no further than that ahead
//! of the bytes received — and `Message::decode_payload` reads out of it
//! before it is recycled. Outbound, the message is serialized in place
//! into one pooled buffer (header, payload, CRC contiguous), which is
//! queued as it is and written with as few `write(2)`s as the socket
//! allows. No payload is copied between a scratch buffer and its frame
//! in either direction.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::bytepool;
use crate::frame::{self, FrameError, HEADER_LEN};
use crate::reactor::DisconnectReason;
use crate::wire::Message;

/// Which part of the current inbound frame is being assembled.
enum Phase {
    /// Filling the 12-byte fixed header.
    Header,
    /// Filling `body` with the `target` bytes (payload + 4-byte CRC
    /// trailer) a validated header announced.
    Body { msg_type: u8, target: usize },
}

/// One multiplexed connection: socket, inbound decoder state, outbound
/// frame queue, and liveness bookkeeping used by the reactor's timer wheel.
pub(crate) struct Conn {
    stream: TcpStream,
    phase: Phase,
    header: [u8; HEADER_LEN],
    /// Bytes filled so far in the current phase's target buffer.
    filled: usize,
    /// Pooled buffer for payload + CRC; taken when the header validates.
    body: Vec<u8>,
    /// Fully-encoded frames awaiting the socket, front partially written.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    head_off: usize,
    /// Total unwritten bytes across the queue (backpressure accounting).
    out_bytes: usize,
    /// Slot-reuse guard: readiness events carry the generation they were
    /// registered with, so events for a closed conn's recycled slot drop.
    pub(crate) gen: u32,
    /// Last time a complete inbound message arrived (idle-timeout basis).
    pub(crate) last_activity: Instant,
    /// Whether the reactor currently has `EPOLLOUT` in this connection's
    /// interest set (tracked here to avoid redundant `EPOLL_CTL_MOD`s).
    pub(crate) armed_write: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, gen: u32) -> Conn {
        Conn {
            stream,
            phase: Phase::Header,
            header: [0u8; HEADER_LEN],
            filled: 0,
            body: Vec::new(),
            outq: VecDeque::new(),
            head_off: 0,
            out_bytes: 0,
            gen,
            last_activity: Instant::now(),
            armed_write: false,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Unwritten outbound bytes currently queued.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.out_bytes
    }

    /// Advances the inbound state machine as far as the socket allows.
    ///
    /// Returns `Ok(Some(msg))` for each completed frame, `Ok(None)` once
    /// the socket would block mid-frame, and `Err` when the connection
    /// must be dropped. A clean EOF at a frame boundary is `PeerClosed`;
    /// EOF mid-frame is a protocol violation (`Truncated`), matching the
    /// blocking reader in [`crate::frame::read_frame`].
    pub(crate) fn read_message(&mut self) -> Result<Option<Message>, DisconnectReason> {
        loop {
            match self.phase {
                Phase::Header => {
                    while self.filled < HEADER_LEN {
                        let at_boundary = self.filled == 0;
                        match self.stream.read(&mut self.header[self.filled..]) {
                            Ok(0) => {
                                return Err(if at_boundary {
                                    DisconnectReason::PeerClosed
                                } else {
                                    DisconnectReason::Frame(FrameError::Truncated)
                                });
                            }
                            Ok(n) => self.filled += n,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(None);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(DisconnectReason::Io(e)),
                        }
                    }
                    let (msg_type, len) =
                        frame::parse_header(&self.header).map_err(DisconnectReason::Frame)?;
                    let target = len + 4;
                    self.body = bytepool::take(target.min(frame::BODY_GROW));
                    self.filled = 0;
                    self.phase = Phase::Body { msg_type, target };
                }
                Phase::Body { msg_type, target } => {
                    while self.filled < target {
                        if self.filled == self.body.len() {
                            self.body.resize(target.min(self.filled + frame::BODY_GROW), 0);
                        }
                        match self.stream.read(&mut self.body[self.filled..]) {
                            Ok(0) => {
                                return Err(DisconnectReason::Frame(FrameError::Truncated));
                            }
                            Ok(n) => self.filled += n,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(None);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(DisconnectReason::Io(e)),
                        }
                    }
                    let len = target - 4;
                    let expected = u32::from_le_bytes(self.body[len..].try_into().unwrap());
                    let got = frame::crc32(&self.body[..len]);
                    if expected != got {
                        return Err(DisconnectReason::Frame(FrameError::BadCrc { expected, got }));
                    }
                    let msg = Message::decode_payload(msg_type, &self.body[..len])
                        .map_err(DisconnectReason::Frame)?;
                    bytepool::recycle(std::mem::take(&mut self.body));
                    self.phase = Phase::Header;
                    self.filled = 0;
                    self.last_activity = Instant::now();
                    crate::trace::counters().on_recv_msg(
                        msg_type,
                        (HEADER_LEN + len + 4) as u64,
                        msg.logical_weight_bytes() as u64,
                    );
                    return Ok(Some(msg));
                }
            }
        }
    }

    /// Encodes `msg` in place into a pooled frame buffer and queues it.
    /// Large payload vectors (weights, deltas) are recycled to the tensor
    /// pool once serialized, mirroring `TcpTransport::send`.
    pub(crate) fn enqueue(&mut self, msg: Message) {
        let mut buf = bytepool::take_empty(HEADER_LEN + msg.payload_len() + 4);
        msg.encode_frame(&mut buf);
        let ty = msg.wire_type();
        let logical = msg.logical_weight_bytes() as u64;
        match msg {
            Message::PullReply { weights, .. }
            | Message::WeightsUpdate { weights, .. }
            | Message::InferReply { output: weights, .. } => ea_tensor::pool::recycle(weights),
            Message::SubmitDelta { delta, .. } => ea_tensor::pool::recycle(delta),
            Message::SubmitDeltaC { blob, .. }
            | Message::PullReplyC { blob, .. }
            | Message::WeightsUpdateC { blob, .. } => bytepool::recycle(blob),
            _ => {}
        }
        crate::trace::counters().on_send_msg(ty, buf.len() as u64, logical);
        self.out_bytes += buf.len();
        self.outq.push_back(buf);
    }

    /// Writes queued frames until done or the socket would block.
    ///
    /// Returns `Ok(true)` when the queue drained completely, `Ok(false)`
    /// when bytes remain (keep `EPOLLOUT` armed).
    pub(crate) fn flush(&mut self) -> Result<bool, DisconnectReason> {
        while let Some(front) = self.outq.front() {
            match self.stream.write(&front[self.head_off..]) {
                Ok(0) => return Err(DisconnectReason::PeerClosed),
                Ok(n) => {
                    self.head_off += n;
                    self.out_bytes -= n;
                    if self.head_off == front.len() {
                        let done = self.outq.pop_front().unwrap();
                        bytepool::recycle(done);
                        self.head_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    return Err(DisconnectReason::PeerClosed);
                }
                Err(e) => return Err(DisconnectReason::Io(e)),
            }
        }
        Ok(true)
    }

    /// Returns every queued buffer to the byte pool (connection teardown).
    pub(crate) fn recycle_queue(&mut self) {
        for buf in self.outq.drain(..) {
            bytepool::recycle(buf);
        }
        self.out_bytes = 0;
        self.head_off = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn assembles_a_frame_split_across_arbitrary_writes() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);

        let msg = Message::Ack { shard: 3, round: 9, pipe: 1, duplicate: false };
        let mut payload = Vec::new();
        msg.encode_payload(&mut payload);
        let mut wire = Vec::new();
        frame::encode_frame(msg.wire_type(), &payload, &mut wire);

        // Dribble the frame one byte at a time; the state machine must
        // report WouldBlock (None) until the last byte lands.
        for (i, b) in wire.iter().enumerate() {
            use std::io::Write;
            client.write_all(&[*b]).unwrap();
            client.flush().unwrap();
            // Give the kernel a moment to make the byte readable.
            let deadline = Instant::now() + std::time::Duration::from_secs(2);
            loop {
                match conn.read_message() {
                    Ok(Some(got)) => {
                        assert_eq!(i, wire.len() - 1, "decoded before the frame completed");
                        assert_eq!(got, msg);
                        return;
                    }
                    Ok(None) => {
                        if i == wire.len() - 1 && Instant::now() < deadline {
                            continue; // last byte may not be visible yet
                        }
                        break;
                    }
                    Err(e) => panic!("unexpected disconnect: {e:?}"),
                }
            }
        }
        panic!("frame never decoded");
    }

    #[test]
    fn clean_eof_at_boundary_is_peer_closed_mid_frame_is_truncated() {
        // Boundary close.
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match conn.read_message() {
                Err(DisconnectReason::PeerClosed) => break,
                Ok(None) if Instant::now() < deadline => continue,
                other => panic!("expected PeerClosed, got {other:?}"),
            }
        }

        // Mid-frame close.
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        {
            use std::io::Write;
            client.write_all(&frame::MAGIC).unwrap(); // 4 of 12 header bytes
        }
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match conn.read_message() {
                Err(DisconnectReason::Frame(FrameError::Truncated)) => break,
                Ok(None) if Instant::now() < deadline => continue,
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    /// Polls `conn` until it yields something other than "would block".
    fn read_until_settled(conn: &mut Conn) -> Result<Message, DisconnectReason> {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match conn.read_message() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => assert!(Instant::now() < deadline, "nothing arrived"),
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn every_bit_flip_in_a_2k_frame_fails_crc() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        for (bit, bad) in frame::tests::bit_flips_of_a_2k_frame() {
            // A fresh decoder over the same socket: each corrupt frame is
            // consumed whole before it is judged, so the stream stays at a
            // frame boundary.
            let mut conn = Conn::new(server.try_clone().unwrap(), 0);
            client.write_all(&bad).unwrap();
            match read_until_settled(&mut conn) {
                Err(DisconnectReason::Frame(FrameError::BadCrc { .. })) => {}
                other => panic!("bit {bit}: expected BadCrc, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_header_alone_cannot_reserve_the_length_it_claims() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        let mut header = Vec::new();
        frame::encode_frame(1, b"", &mut header);
        header.truncate(HEADER_LEN);
        header[8..12].copy_from_slice(&(frame::MAX_PAYLOAD as u32).to_le_bytes());
        client.write_all(&header).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !matches!(conn.phase, Phase::Body { .. }) {
            assert!(matches!(conn.read_message(), Ok(None)), "a stalled frame is not an error");
            assert!(Instant::now() < deadline, "header never arrived");
        }
        assert!(matches!(conn.read_message(), Ok(None)));
        assert!(
            conn.body.capacity() <= frame::BODY_GROW + 4096,
            "holding {} bytes for a peer that sent 12",
            conn.body.capacity()
        );
    }

    #[test]
    fn a_3_mib_frame_in_odd_sized_writes_still_decodes() {
        let msg = Message::OpsPush {
            kind: crate::wire::OPS_KIND_TRACE,
            seq: 3,
            t_tx_us: 4,
            blob: (0..3u32 << 20).map(|i| (i ^ (i >> 11)) as u8).collect(),
        };
        let mut wire = Vec::new();
        msg.encode_frame(&mut wire);
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        let writer = std::thread::spawn(move || {
            let mut rest = wire.as_slice();
            for size in frame::tests::ODD_SIZES.into_iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at(size.min(rest.len()));
                client.write_all(now).unwrap();
                rest = later;
            }
            client
        });
        let got = read_until_settled(&mut conn).expect("frame decodes");
        assert!(got == msg, "message differs");
        let _client = writer.join().unwrap();
        assert!(matches!(conn.read_message(), Ok(None)), "exactly one frame consumed");
    }

    #[test]
    fn flush_tracks_partial_writes_and_drains() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 0);
        for round in 0..3 {
            conn.enqueue(Message::Ack { shard: 0, round, pipe: 0, duplicate: false });
        }
        let queued = conn.queued_bytes();
        assert!(queued > 0);
        assert!(conn.flush().unwrap(), "small frames drain in one flush");
        assert_eq!(conn.queued_bytes(), 0);

        // The peer can reassemble all three frames from the byte stream.
        let mut client = client;
        client.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        for round in 0..3 {
            let (ty, payload) = frame::read_frame(&mut client).unwrap().unwrap();
            let msg = Message::decode_payload(ty, &payload).unwrap();
            assert_eq!(msg, Message::Ack { shard: 0, round, pipe: 0, duplicate: false });
        }
    }
}
