//! Lease-based liveness tracking for the reference-shard server.
//!
//! Every pipeline holds a *lease* renewed by any message it sends
//! (heartbeats exist for workers with nothing else to say). The server
//! core's reap tick calls [`Membership::reap`]; a pipeline whose lease
//! has lapsed is reported exactly once so the caller can evict it from
//! the shard quorums. A message from a dead pipeline
//! revives it ([`Membership::join`]), which the caller turns into a
//! shard-level readmission at the next round boundary.
//!
//! Timestamps come from [`ea_comms::clock`], so under the ea-chaos
//! simulation leases expire on virtual time. Single-owner: the table is
//! part of [`ShardServerCore`](crate::ShardServerCore)'s state and takes
//! no lock of its own.

use ea_comms::clock;
use std::time::Duration;

struct Member {
    /// Clock reading (see [`clock::now`]) at the last renewing message.
    last_beat: Duration,
    live: bool,
}

/// Liveness of the N pipelines, under one lease duration.
pub struct Membership {
    lease: Duration,
    state: Vec<Member>,
}

impl Membership {
    /// All `n` pipelines start live, with fresh leases.
    pub fn new(n: usize, lease: Duration) -> Self {
        let now = clock::now();
        Membership { lease, state: (0..n).map(|_| Member { last_beat: now, live: true }).collect() }
    }

    /// Marks `pipe` live with a fresh lease (any received message counts;
    /// out-of-range pipes are ignored). Returns `true` when the pipe was
    /// dead — i.e. this message is a *rejoin* the caller must mirror
    /// into the shards.
    pub fn join(&mut self, pipe: usize) -> bool {
        match self.state.get_mut(pipe) {
            Some(m) => {
                let was_dead = !m.live;
                m.live = true;
                m.last_beat = clock::now();
                was_dead
            }
            None => false,
        }
    }

    /// Expires lapsed leases as of `now` (a [`clock::now`] reading);
    /// returns the pipes that died in this pass (each reported once —
    /// already-dead members are skipped).
    pub fn reap(&mut self, now: Duration) -> Vec<usize> {
        let mut dead = Vec::new();
        for (i, m) in self.state.iter_mut().enumerate() {
            if m.live && now.saturating_sub(m.last_beat) > self.lease {
                m.live = false;
                dead.push(i);
            }
        }
        dead
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.state.iter().filter(|m| m.live).count()
    }

    /// Bitmask of live member ids (members ≥ 64 omitted from the mask).
    pub fn mask(&self) -> u64 {
        self.state.iter().take(64).enumerate().fold(0u64, |mask, (i, m)| {
            if m.live {
                mask | (1 << i)
            } else {
                mask
            }
        })
    }

    /// Whether `pipe` is currently live.
    pub fn is_live(&self, pipe: usize) -> bool {
        self.state.get(pipe).is_some_and(|m| m.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_membership_is_fully_live() {
        let m = Membership::new(3, Duration::from_millis(50));
        assert_eq!(m.live_count(), 3);
        assert_eq!(m.mask(), 0b111);
        assert!(m.is_live(2));
        assert!(!m.is_live(3), "out of range is not live");
    }

    #[test]
    fn lapsed_lease_is_reaped_once() {
        let mut m = Membership::new(2, Duration::from_millis(10));
        let later = clock::now() + Duration::from_millis(50);
        assert_eq!(m.reap(later), vec![0, 1]);
        assert_eq!(m.live_count(), 0);
        // A second reap reports nothing new.
        assert_eq!(m.reap(later + Duration::from_millis(50)), Vec::<usize>::new());
    }

    #[test]
    fn a_renewed_lease_keeps_a_member_alive() {
        let mut m = Membership::new(2, Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!m.join(0), "live → live is not a rejoin");
        std::thread::sleep(Duration::from_millis(25));
        // 0 beat 25ms ago (inside the lease); 1 last beat 45ms ago.
        assert_eq!(m.reap(clock::now()), vec![1]);
        assert!(m.is_live(0));
        assert_eq!(m.mask(), 0b01);
    }

    #[test]
    fn join_revives_and_reports_the_transition() {
        let mut m = Membership::new(2, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(m.reap(clock::now()), vec![0, 1]);
        assert!(m.join(1), "dead → live is a rejoin");
        assert!(!m.join(1), "live → live is not");
        assert_eq!(m.live_count(), 1);
        assert_eq!(m.mask(), 0b10);
    }
}
