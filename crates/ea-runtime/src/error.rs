//! The runtime's shared error type.
//!
//! Malformed input — a bad peer submitting the wrong-sized delta, a
//! duplicate submission — must surface as `Err`, not a panic: the
//! transport layer rejects bad frames gracefully and a wrong message from
//! one worker cannot abort training for everyone else.

/// A recoverable runtime error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A flat parameter/update buffer has the wrong length.
    LengthMismatch {
        /// What the buffer was for (e.g. `"stage 2 params"`).
        what: String,
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// A pipeline submitted twice in one round (non-idempotent path).
    DuplicateSubmit {
        /// The submitting pipeline.
        pipe: usize,
        /// The round in question.
        round: u64,
    },
    /// A submission referenced a round the shard has not opened yet.
    RoundAhead {
        /// The submitted round.
        round: u64,
        /// The shard's current version.
        version: u64,
    },
    /// A pipeline or shard index was out of range.
    IndexOutOfRange {
        /// What kind of index.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Number of valid entries.
        len: usize,
    },
    /// A submission arrived from a pipeline whose membership lease had
    /// already expired (it was evicted from the quorum).
    LeaseExpired {
        /// The evicted pipeline.
        pipe: usize,
        /// The round it tried to submit for.
        round: u64,
    },
    /// A worker's pipeline failed (panicked stage thread, hung channel,
    /// unrecoverable comms) and reports the failure instead of aborting.
    WorkerFailed {
        /// Human-readable cause.
        what: String,
    },
    /// Evicting a member would leave the quorum empty — averaging cannot
    /// proceed with zero live pipelines.
    QuorumLost {
        /// Live members remaining (before the refused eviction).
        live: usize,
        /// The shard version at which quorum was lost.
        round: u64,
    },
    /// Shutdown was requested while the worker was mid-retry; the round
    /// was abandoned cleanly (no partial submission).
    ShutdownRequested,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::LengthMismatch { what, expected, got } => {
                write!(f, "{what}: expected {expected} elements, got {got}")
            }
            Error::DuplicateSubmit { pipe, round } => {
                write!(f, "pipeline {pipe} submitted twice in round {round}")
            }
            Error::RoundAhead { round, version } => {
                write!(f, "submission for round {round} but shard is at version {version}")
            }
            Error::IndexOutOfRange { what, index, len } => {
                write!(f, "{what} index {index} out of range (len {len})")
            }
            Error::LeaseExpired { pipe, round } => {
                write!(f, "pipeline {pipe}'s lease expired; submission for round {round} refused")
            }
            Error::WorkerFailed { what } => {
                write!(f, "worker pipeline failed: {what}")
            }
            Error::QuorumLost { live, round } => {
                write!(f, "quorum lost at round {round}: {live} live member(s) remain")
            }
            Error::ShutdownRequested => {
                write!(f, "shutdown requested during retry backoff")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_the_fault_variants() {
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::LeaseExpired { pipe: 2, round: 7 },
                "pipeline 2's lease expired; submission for round 7 refused",
            ),
            (
                Error::WorkerFailed { what: "stage 1 panicked".into() },
                "worker pipeline failed: stage 1 panicked",
            ),
            (
                Error::QuorumLost { live: 1, round: 4 },
                "quorum lost at round 4: 1 live member(s) remain",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn display_covers_the_seed_variants() {
        assert_eq!(
            Error::DuplicateSubmit { pipe: 0, round: 1 }.to_string(),
            "pipeline 0 submitted twice in round 1"
        );
    }
}
