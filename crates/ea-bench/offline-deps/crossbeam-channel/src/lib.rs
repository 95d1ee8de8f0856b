//! Offline stand-in for `crossbeam-channel` 0.5: multi-producer
//! multi-consumer FIFO channels (`bounded`, `unbounded`) and a blocking
//! `Select` over receivers, with the published API for what
//! `ea-runtime`'s stage workers use. A mutex-and-condvar queue, not the
//! published lock-free one.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The message could not be sent because every receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// The channel is empty and every sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Wakes one thread blocked in [`Select::select`].
#[derive(Default)]
struct Waker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    fn wake(&self) {
        *self.woken.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut woken = self.woken.lock().unwrap_or_else(PoisonError::into_inner);
        while !*woken {
            woken = self.cv.wait(woken).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Selecting threads to wake when a message arrives or the last
    /// sender leaves.
    watchers: Vec<Arc<Waker>>,
}

impl<T> Inner<T> {
    /// A receive would not block: a message is queued or none can come.
    fn ready(&self) -> bool {
        !self.queue.is_empty() || self.senders == 0
    }

    fn wake_watchers(&self) {
        for w in &self.watchers {
            w.wake();
        }
    }
}

struct Chan<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            watchers: Vec::new(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

/// A channel that holds at most `cap` messages; `send` blocks when full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "the stand-in has no zero-capacity rendezvous channel");
    channel(Some(cap))
}

/// A channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// The sending half.
pub struct Sender<T>(Arc<Chan<T>>);

impl<T> Sender<T> {
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut inner = self.0.lock();
        loop {
            if inner.receivers == 0 {
                return Err(SendError(msg));
            }
            if inner.cap.is_none_or(|cap| inner.queue.len() < cap) {
                break;
            }
            inner = self.0.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.queue.push_back(msg);
        inner.wake_watchers();
        drop(inner);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.wake_watchers();
            drop(inner);
            self.0.not_empty.notify_all();
        }
    }
}

/// The receiving half.
pub struct Receiver<T>(Arc<Chan<T>>);

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.0.lock();
        loop {
            if let Some(msg) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.0.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            drop(inner);
            self.0.not_full.notify_all();
        }
    }
}

/// What [`Select`] needs from a receiver of any message type.
trait Watch {
    fn ready(&self) -> bool;
    /// Registers `waker` and reports readiness under the same lock, so a
    /// message sent after this call always wakes it.
    fn watch(&self, waker: &Arc<Waker>) -> bool;
    fn unwatch(&self, waker: &Arc<Waker>);
}

impl<T> Watch for Receiver<T> {
    fn ready(&self) -> bool {
        self.0.lock().ready()
    }

    fn watch(&self, waker: &Arc<Waker>) -> bool {
        let mut inner = self.0.lock();
        inner.watchers.push(Arc::clone(waker));
        inner.ready()
    }

    fn unwatch(&self, waker: &Arc<Waker>) {
        self.0.lock().watchers.retain(|w| !Arc::ptr_eq(w, waker));
    }
}

/// Blocks until one of several receive operations can proceed.
#[derive(Default)]
pub struct Select<'a> {
    handles: Vec<&'a dyn Watch>,
}

impl<'a> Select<'a> {
    pub fn new() -> Self {
        Select { handles: Vec::new() }
    }

    /// Adds a receive operation and returns its index.
    pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
        self.handles.push(r);
        self.handles.len() - 1
    }

    /// Blocks until an operation is ready. With several ready, the choice
    /// rotates so that none is starved (the published crate picks one at
    /// random).
    pub fn select(&mut self) -> SelectedOperation {
        assert!(!self.handles.is_empty(), "no operations have been added to `Select`");
        let n = self.handles.len();
        let start = next_start() % n;
        let first_ready =
            |handles: &[&dyn Watch]| (0..n).map(|i| (start + i) % n).find(|&i| handles[i].ready());
        loop {
            if let Some(index) = first_ready(&self.handles) {
                return SelectedOperation { index };
            }
            // After the `unwatch` calls below no channel holds the waker, so
            // no wake-up from an earlier round can arrive after this reset.
            let waker = THREAD_WAKER.with(Arc::clone);
            *waker.woken.lock().unwrap_or_else(PoisonError::into_inner) = false;
            let mut ready = false;
            for h in &self.handles {
                ready |= h.watch(&waker);
            }
            if !ready {
                waker.wait();
            }
            for h in &self.handles {
                h.unwatch(&waker);
            }
        }
    }
}

thread_local!(static THREAD_WAKER: Arc<Waker> = Arc::new(Waker::default()));

/// A per-thread counter: where `select` starts looking for a ready
/// operation.
fn next_start() -> usize {
    use std::cell::Cell;
    thread_local!(static START: Cell<usize> = const { Cell::new(0) });
    START.with(|s| {
        s.set(s.get().wrapping_add(1));
        s.get()
    })
}

/// The operation [`Select::select`] chose; complete it with `recv` on the
/// receiver at `index`.
pub struct SelectedOperation {
    index: usize,
}

impl SelectedOperation {
    pub fn index(&self) -> usize {
        self.index
    }

    /// Completes the receive. With one consumer per receiver, as in
    /// `ea-runtime`, this never blocks; with several it may wait for the
    /// next message.
    pub fn recv<T>(self, r: &Receiver<T>) -> Result<T, RecvError> {
        r.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn select_wakes_on_a_later_send_and_on_disconnect() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<&str>();
        let (both_tx, both_rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                if seen.len() == 2 {
                    both_tx.send(()).unwrap();
                }
                let mut sel = Select::new();
                let ia = sel.recv(&rx_a);
                let ib = sel.recv(&rx_b);
                let op = sel.select();
                if op.index() == ia {
                    match op.recv(&rx_a) {
                        Ok(v) => seen.push(v.to_string()),
                        Err(_) => return seen,
                    }
                } else {
                    assert_eq!(op.index(), ib);
                    seen.push(op.recv(&rx_b).unwrap().to_string());
                }
            }
        });
        tx_b.send("x").unwrap();
        tx_a.send(7).unwrap();
        both_rx.recv().unwrap();
        drop(tx_a);
        let mut seen = t.join().unwrap();
        seen.sort();
        assert_eq!(seen, ["7", "x"]);
        drop(tx_b);
    }
}
