//! In-process loopback transport: crossbeam channels, zero serialization.
//!
//! Messages move between the two ends *by ownership* — a `PullReply`'s
//! weight vector or a `SubmitDelta`'s delta buffer is the same allocation
//! on both sides, so the loopback path keeps the zero-copy discipline of
//! the in-process trainer: delta buffers come from `ea_tensor::pool` on
//! the worker side and are recycled by the shard server after
//! accumulation, with no byte ever copied in between.
//!
//! Semantically the loopback behaves exactly like TCP (ordered, reliable),
//! which makes it the reference behaviour the framed backend and the
//! fault-injection shim are tested against. It is a client-side and
//! unit-test tool: servers accept real sockets on the reactor.

use crate::transport::{CommsError, Transport, TransportStats};
use crate::wire::Message;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// One end of an in-process connection.
pub struct LoopbackTransport {
    tx: Sender<Message>,
    rx: Receiver<Message>,
    stats: TransportStats,
}

/// Creates a connected pair of loopback endpoints.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, a_rx) = channel();
    let (b_tx, b_rx) = channel();
    (
        LoopbackTransport { tx: a_tx, rx: b_rx, stats: TransportStats::default() },
        LoopbackTransport { tx: b_tx, rx: a_rx, stats: TransportStats::default() },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: Message) -> Result<(), CommsError> {
        self.stats.sends += 1;
        self.tx.send(msg).map_err(|_| CommsError::Closed)
    }

    fn recv(&mut self) -> Result<Message, CommsError> {
        let msg = self.rx.recv().map_err(|_| CommsError::Closed)?;
        self.stats.recvs += 1;
        Ok(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, CommsError> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.stats.recvs += 1;
                Ok(msg)
            }
            Err(RecvTimeoutError::Timeout) => Err(CommsError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(CommsError::Closed),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn record_retry(&mut self) {
        self.stats.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_carries_messages_both_ways() {
        let (mut a, mut b) = loopback_pair();
        a.send(Message::PullRequest { shard: 1, version: 2 }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::PullRequest { shard: 1, version: 2 });
        b.send(Message::Ack { shard: 1, round: 2, pipe: 0, duplicate: false }).unwrap();
        assert!(matches!(a.recv().unwrap(), Message::Ack { .. }));
        assert_eq!(a.stats().sends, 1);
        assert_eq!(a.stats().recvs, 1);
        assert_eq!(a.stats().bytes_sent, 0, "loopback serializes nothing");
    }

    #[test]
    fn weights_move_without_copying() {
        let (mut a, mut b) = loopback_pair();
        let weights = vec![1.0f32; 256];
        let ptr = weights.as_ptr();
        a.send(Message::PullReply { shard: 0, version: 0, weights }).unwrap();
        match b.recv().unwrap() {
            Message::PullReply { weights, .. } => assert_eq!(weights.as_ptr(), ptr),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recv_timeout_expires() {
        let (mut a, _b) = loopback_pair();
        assert!(matches!(a.recv_timeout(Duration::from_millis(10)), Err(CommsError::Timeout)));
    }

    #[test]
    fn dropping_one_end_closes_the_other() {
        let (mut a, b) = loopback_pair();
        drop(b);
        assert!(matches!(a.recv(), Err(CommsError::Closed)));
        assert!(matches!(
            a.send(Message::Hello { proto: 1, pipe: 0, codec: ea_optim::Codec::F32 }),
            Err(CommsError::Closed)
        ));
    }
}
