//! The pluggable [`Transport`] abstraction and its error/counter types.
//!
//! A transport is one bidirectional, ordered, message-framed connection
//! between a pipeline worker and the reference-shard server. The trainer
//! and server are written against this trait only, so the loopback backend
//! (channels, zero serialization) and the TCP backend (framed byte stream)
//! are interchangeable via configuration — and the fault-injection wrapper
//! composes over either.

use crate::frame::FrameError;
use crate::wire::Message;
use std::time::Duration;

/// A transport-layer failure. All variants are recoverable errors for the
/// caller to handle; none abort training.
#[derive(Debug)]
pub enum CommsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A receive deadline elapsed.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// The peer sent bytes that do not form a valid frame/message.
    Frame(FrameError),
    /// A well-formed message violated the protocol state machine.
    Protocol(String),
    /// A request was retried to its attempt limit without an answer.
    RetriesExhausted { what: &'static str, attempts: u32 },
    /// Connecting (including backoff retries) failed.
    ConnectFailed { addr: String, attempts: u32, last: String },
}

impl std::fmt::Display for CommsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommsError::Io(e) => write!(f, "transport I/O error: {e}"),
            CommsError::Timeout => write!(f, "receive timed out"),
            CommsError::Closed => write!(f, "peer closed the connection"),
            CommsError::Frame(e) => write!(f, "malformed frame: {e}"),
            CommsError::Protocol(why) => write!(f, "protocol violation: {why}"),
            CommsError::RetriesExhausted { what, attempts } => {
                write!(f, "{what} unanswered after {attempts} attempts")
            }
            CommsError::ConnectFailed { addr, attempts, last } => {
                write!(f, "connecting to {addr} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for CommsError {}

impl From<std::io::Error> for CommsError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => CommsError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => CommsError::Closed,
            _ => CommsError::Io(e),
        }
    }
}

impl From<FrameError> for CommsError {
    fn from(e: FrameError) -> Self {
        CommsError::Frame(e)
    }
}

impl From<crate::frame::ReadFrameError> for CommsError {
    fn from(e: crate::frame::ReadFrameError) -> Self {
        match e {
            crate::frame::ReadFrameError::Io(io) => io.into(),
            crate::frame::ReadFrameError::Frame(f) => CommsError::Frame(f),
        }
    }
}

/// Per-connection traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to `send`.
    pub sends: u64,
    /// Messages returned by `recv`/`recv_timeout`.
    pub recvs: u64,
    /// Request retransmissions recorded via [`Transport::record_retry`].
    pub retries: u64,
    /// Serialized bytes written (0 for the loopback backend).
    pub bytes_sent: u64,
    /// Serialized bytes read (0 for the loopback backend).
    pub bytes_recvd: u64,
}

/// One ordered, bidirectional message connection.
pub trait Transport: Send {
    /// Sends one message. Ordered with respect to previous sends.
    fn send(&mut self, msg: Message) -> Result<(), CommsError>;

    /// Receives the next message, blocking indefinitely.
    fn recv(&mut self) -> Result<Message, CommsError>;

    /// Receives the next message, waiting at most `timeout`
    /// (`Err(Timeout)` if nothing arrived).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, CommsError>;

    /// Counter snapshot for this connection.
    fn stats(&self) -> TransportStats;

    /// Records one request retransmission in the counters.
    fn record_retry(&mut self);
}
