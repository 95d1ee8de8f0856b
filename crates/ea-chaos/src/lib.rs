//! # ea-chaos — deterministic simulation testing for the elastic protocol
//!
//! Runs the full sharded elastic-averaging topology — K [`ea_runtime::ShardServerCore`]s
//! times N worker state machines with mixed codecs — as actors on a
//! single-threaded discrete-event scheduler with virtual time. The
//! production protocol code is exercised unmodified: servers run the same
//! `on_message`/`on_disconnect`/`reap_tick`/`flush` the reactor drives
//! (parked pulls and subscription pushes included), one read-only
//! subscriber per server listens for round boundaries, workers drive real
//! [`ea_runtime::ErrorFeedback`] and the real wire codecs, and every
//! wall-clock read inside the stack
//! goes through [`ea_comms::clock`], which the harness overrides with a
//! simulated clock.
//!
//! One `u64` seed determines everything: the fault plan (crashes,
//! restarts, partitions), every per-link drop/delay/duplicate/corrupt
//! decision, and the synthetic weight/delta values. Same seed, same event
//! log and same final shard weights, bit for bit — which is what makes a
//! failing seed a *repro*, not an anecdote.
//!
//! Invariant oracles run on every simulated event (see [`oracle`]):
//! per-shard version monotonicity, bitwise quorum-renormalization
//! arithmetic, no mixed-version weight reads, idempotent delta submission,
//! error-feedback conservation, resource bounds on parked pulls and
//! subscriptions, and post-quiesce liveness. A failing run
//! dumps the seed, the shrunk fault plan, and the event log; [`shrink`]
//! minimizes the plan first so the repro is as small as the bug allows.
//!
//! ```no_run
//! let report = ea_chaos::run_seed(42);
//! assert!(report.ok, "{:?}", report.violations);
//! ```

pub mod actors;
pub mod faults;
pub mod net;
pub mod oracle;
pub mod sched;
pub mod shrink;
pub mod sim;

pub use faults::{FaultEvent, FaultKind, FaultPlan, RestartMode};
pub use net::{NetConfig, NetStats};
pub use oracle::Oracle;
pub use sched::{SimClock, SimTime, SplitMix64};
pub use shrink::shrink_plan;
pub use sim::{run_seed, run_sim, SimConfig, SimReport};

use ea_comms::Message;
use ea_runtime::ConnKey;

/// A simulated endpoint. Servers, workers and subscribers live in
/// separate index spaces; `Addr` is the key for links, partitions, and
/// event routing. `Subscriber(k)` is the read-only replica of server `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    Server(usize),
    Worker(usize),
    Subscriber(usize),
}

impl Addr {
    /// A collision-free integer: seeds per-link RNG streams and names the
    /// peer in the server core's connection keys.
    pub fn index(self) -> usize {
        match self {
            Addr::Server(k) => k,
            Addr::Worker(w) => 0x1000 + w,
            Addr::Subscriber(k) => 0x2000 + k,
        }
    }

    /// The server core's name for the connection this peer opened as its
    /// `gen`-th.
    pub fn conn_key(self, gen: u64) -> ConnKey {
        ConnKey { space: self.index() as u32, id: gen }
    }

    /// The peer behind a connection key made by [`Addr::conn_key`].
    pub fn of_conn(conn: ConnKey) -> Addr {
        match conn.space as usize {
            k @ 0..=0xFFF => Addr::Server(k),
            w @ 0x1000..=0x1FFF => Addr::Worker(w - 0x1000),
            s => Addr::Subscriber(s - 0x2000),
        }
    }
}

/// Worker-side timer kinds. Timers carry the incarnation that armed them
/// so a restart orphans the old chain instead of double-firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WTimer {
    /// Re-send whatever the current phase is still waiting on.
    Retransmit,
    /// Periodic lease renewal + round advertisement to every server.
    Heartbeat,
    /// End of reconnect backoff: go back to Connect.
    Reconnect,
}

/// Server-side timer kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum STimer {
    /// Run the lease reaper (the simulated analogue of the reaper thread).
    Reap,
    /// Capture a checkpoint to the simulated disk.
    Checkpoint,
}

/// Everything that can happen in the simulation, in one queue.
#[derive(Clone, Debug)]
pub enum Event {
    /// A protocol message arriving at `to`. `gen` is the sender
    /// connection's generation: stale-generation traffic is discarded by
    /// the receiver exactly like bytes from a closed socket.
    Deliver {
        from: Addr,
        to: Addr,
        gen: u64,
        msg: Message,
    },
    /// Reliable socket-teardown notification for connection `gen`
    /// between `to` and `peer`.
    ConnClosed {
        to: Addr,
        peer: Addr,
        gen: u64,
    },
    WorkerTimer {
        worker: usize,
        inc: u64,
        kind: WTimer,
    },
    ServerTimer {
        server: usize,
        inc: u64,
        kind: STimer,
    },
    /// `gen` is the subscriber's connection generation when the timer was
    /// armed: a reconnect backoff that was overtaken fires into nothing.
    SubscriberTimer {
        sub: usize,
        gen: u64,
        kind: WTimer,
    },
    CrashServer {
        server: usize,
    },
    RestartServer {
        server: usize,
        mode: RestartMode,
    },
    CrashWorker {
        worker: usize,
    },
    RestartWorker {
        worker: usize,
    },
    StartPartition {
        a: Addr,
        b: Addr,
        duration_ns: u64,
        symmetric: bool,
    },
}
