//! Epoll-backed [`Reactor`] implementation (Linux x86_64/aarch64).
//!
//! Topology: `N` event-loop threads, each owning one [`crate::sys::Epoll`]
//! instance, a slab of connections, and a wake pipe. Thread 0 additionally
//! owns the nonblocking listener and deals new connections round-robin.
//! Cross-thread traffic (new connections, handler sends addressed to a
//! connection another thread owns, handler closes) goes through a small
//! mutex-guarded inbox plus a wake-pipe write; the hot path — readable
//! socket → frame decode → handler → reply flush — runs entirely on one
//! thread with no shared locks.
//!
//! Level-triggered epoll keeps the state machine simple: a partially
//! drained socket simply fires again on the next wait. The interest set
//! is `IN|RDHUP` normally and `IN|OUT|RDHUP` only while a connection has
//! unsent bytes (tracked via `Conn::armed_write` to skip redundant
//! `EPOLL_CTL_MOD` calls).

use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ea_trace::{Category, StaticName};

use super::{
    recycle_message, resolve_threads, ConnId, DisconnectReason, Outbox, ReactorConfig,
    ReactorHandler, GEN_MASK,
};
use crate::conn::Conn;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::Message;

/// Epoll data tag for the wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Epoll data tag for the listener (thread 0 only).
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Max decoded messages per readiness event before yielding to other
/// connections (level-triggered epoll re-reports the remainder).
const READ_BURST: usize = 64;
/// Timer-wheel slot count; a full revolution spans `WHEEL_SLOTS` granules.
const WHEEL_SLOTS: usize = 16;

static EPOLL_WAIT_SPAN: StaticName = StaticName::new("epoll_wait");
static DECODE_SPAN: StaticName = StaticName::new("frame_decode");
static DISPATCH_SPAN: StaticName = StaticName::new("reactor_dispatch");
static FLUSH_SPAN: StaticName = StaticName::new("reactor_flush");

/// Cross-thread mailbox: drained by the owning event loop after a wake.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    sends: Vec<(ConnId, Message)>,
    closes: Vec<(ConnId, String)>,
}

struct ThreadShared {
    inbox: Mutex<Inbox>,
    wake_tx: UnixStream,
    /// Set by the owning worker while draining: every locally-owned
    /// connection has flushed its outbound queue and the inbox is empty.
    drained: AtomicBool,
}

struct Shared {
    handler: Arc<dyn ReactorHandler>,
    idle_timeout: Option<Duration>,
    max_outbound_bytes: usize,
    handler_poll: Duration,
    stop: AtomicBool,
    /// Graceful-shutdown phase: refuse new connections, flush what is
    /// queued, report per-thread drain status.
    draining: AtomicBool,
    threads: Vec<ThreadShared>,
    /// Round-robin cursor for dealing accepted connections to threads.
    rr: AtomicUsize,
    live_conns: AtomicUsize,
}

impl Shared {
    fn wake(&self, thread: usize) {
        // A full (nonblocking) pipe means a wake is already pending —
        // that is exactly the state we want, so the error is ignored.
        let _ = (&self.threads[thread].wake_tx).write(&[1]);
    }

    fn wake_all(&self) {
        for t in 0..self.threads.len() {
            self.wake(t);
        }
    }

    /// Routes an outbox produced *outside* any event-loop thread (the
    /// graceful-shutdown path): everything goes through the owning
    /// thread's inbox, followed by a wake.
    fn route_external(&self, outbox: &mut Outbox) {
        let n = self.threads.len();
        for (to, msg) in outbox.sends.drain(..) {
            let t = to.thread();
            if t < n {
                self.threads[t].inbox.lock().expect("reactor inbox poisoned").sends.push((to, msg));
            } else {
                recycle_message(msg);
            }
        }
        for (to, why) in outbox.closes.drain(..) {
            let t = to.thread();
            if t < n {
                self.threads[t]
                    .inbox
                    .lock()
                    .expect("reactor inbox poisoned")
                    .closes
                    .push((to, why));
            }
        }
        self.wake_all();
    }
}

/// Cloneable handle that cuts short every event-loop thread's
/// `epoll_wait` sleep, so deferred work completed outside the reactor
/// (e.g. an inference engine finishing a batch on its own thread) is
/// picked up by [`ReactorHandler::poll`] immediately instead of at the
/// next `handler_poll` tick. Safe to call from any thread, at any rate:
/// redundant wakes coalesce in the wake pipe.
#[derive(Clone)]
pub struct ReactorWaker {
    shared: Arc<Shared>,
}

impl ReactorWaker {
    /// Wakes every event-loop thread.
    pub fn wake(&self) {
        self.shared.wake_all();
    }
}

/// Multi-threaded epoll event-loop server. See [`super`] for semantics.
pub struct Reactor {
    shared: Arc<Shared>,
    joins: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Reactor {
    /// Takes ownership of `listener` and serves it until [`shutdown`]
    /// (or drop). Accepted connections speak the `frame` + `wire`
    /// protocol; decoded messages go to `handler`.
    ///
    /// [`shutdown`]: Reactor::shutdown
    pub fn spawn(
        listener: TcpListener,
        handler: Arc<dyn ReactorHandler>,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let n_threads = resolve_threads(cfg.threads);

        let mut thread_shared = Vec::with_capacity(n_threads);
        let mut wake_rxs = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            thread_shared.push(ThreadShared {
                inbox: Mutex::new(Inbox::default()),
                wake_tx: tx,
                drained: AtomicBool::new(false),
            });
            wake_rxs.push(rx);
        }

        let shared = Arc::new(Shared {
            handler,
            idle_timeout: cfg.idle_timeout,
            max_outbound_bytes: cfg.max_outbound_bytes,
            handler_poll: cfg.handler_poll,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            threads: thread_shared,
            rr: AtomicUsize::new(0),
            live_conns: AtomicUsize::new(0),
        });

        let mut joins = Vec::with_capacity(n_threads);
        let mut listener = Some(listener);
        for (idx, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let listener = if idx == 0 { listener.take() } else { None };
            let join = std::thread::Builder::new()
                .name(format!("ea-reactor-{idx}"))
                .spawn(move || Worker::new(idx, shared, listener, wake_rx).run())?;
            joins.push(join);
        }
        Ok(Reactor { shared, joins, local_addr })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently-open connections across all event-loop threads.
    pub fn live_connections(&self) -> usize {
        self.shared.live_conns.load(Ordering::Relaxed)
    }

    /// A handle that wakes the event loops from any thread. See
    /// [`ReactorWaker`].
    pub fn waker(&self) -> ReactorWaker {
        ReactorWaker { shared: Arc::clone(&self.shared) }
    }

    /// Stops the event loops, closing every connection with
    /// [`DisconnectReason::Shutdown`] (after a best-effort final flush),
    /// and joins the threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful shutdown: gives the handler one [`on_shutdown`] callback
    /// to complete or reject its deferred work, stops accepting new
    /// connections, waits (up to `timeout`) until every connection's
    /// queued write buffer has drained to the socket, then closes
    /// everything with [`DisconnectReason::Shutdown`].
    ///
    /// [`on_shutdown`]: ReactorHandler::on_shutdown
    pub fn shutdown_graceful(mut self, timeout: Duration) {
        let mut outbox = Outbox::default();
        self.shared.handler.on_shutdown(&mut outbox);
        self.shared.route_external(&mut outbox);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.shared.threads.iter().all(|t| t.drained.load(Ordering::SeqCst)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for t in 0..self.shared.threads.len() {
            self.shared.wake(t);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Coarse idle-timeout wheel: connections are checked roughly once per
/// `granule` past their deadline, not exactly at it — idle reaping does
/// not need precision, and the wheel costs O(1) per insert/advance
/// regardless of connection count.
struct TimerWheel {
    timeout: Option<Duration>,
    granule: Duration,
    slots: Vec<Vec<usize>>,
    cursor: usize,
    next_tick: Option<Instant>,
}

impl TimerWheel {
    fn new(timeout: Option<Duration>) -> TimerWheel {
        let granule = timeout
            .map(|t| (t / 8).max(Duration::from_millis(10)))
            .unwrap_or(Duration::from_secs(3600));
        TimerWheel {
            timeout,
            granule,
            slots: vec![Vec::new(); WHEEL_SLOTS],
            cursor: 0,
            next_tick: timeout.map(|_| Instant::now() + granule),
        }
    }

    /// Schedules a liveness check for `slot` roughly `granules` granules
    /// from now.
    fn insert_at(&mut self, slot: usize, granules: usize) {
        if self.timeout.is_none() {
            return;
        }
        let g = granules.clamp(1, WHEEL_SLOTS - 1);
        let idx = (self.cursor + g) % WHEEL_SLOTS;
        self.slots[idx].push(slot);
    }

    /// Schedules the first check for a fresh connection: one granule past
    /// the timeout.
    fn insert(&mut self, slot: usize) {
        self.insert_at(slot, 9);
    }

    /// How long `epoll_wait` may sleep before the next tick is due.
    fn sleep_hint(&self, now: Instant) -> Option<Duration> {
        self.next_tick.map(|t| t.saturating_duration_since(now))
    }

    /// Advances the cursor past every due tick, draining fired slots into
    /// `due`. Entries may be stale (connection already closed) — the
    /// caller re-validates against the slab.
    fn advance(&mut self, now: Instant, due: &mut Vec<usize>) {
        while let Some(tick) = self.next_tick {
            if now < tick {
                break;
            }
            due.append(&mut self.slots[self.cursor]);
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.next_tick = Some(tick + self.granule);
        }
    }
}

struct Worker {
    idx: usize,
    shared: Arc<Shared>,
    ep: Epoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation counters; survive slot reuse so stale epoll
    /// events and stale `ConnId`s are detected.
    gens: Vec<u32>,
    wheel: TimerWheel,
    /// Reusable handler outbox.
    outbox: Outbox,
    /// Reusable timer-wheel drain buffer.
    due: Vec<usize>,
}

impl Worker {
    fn new(
        idx: usize,
        shared: Arc<Shared>,
        listener: Option<TcpListener>,
        wake_rx: UnixStream,
    ) -> Worker {
        let ep = Epoll::new().expect("epoll_create1 failed");
        ep.add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN).expect("epoll_ctl(wake pipe) failed");
        if let Some(l) = &listener {
            ep.add(l.as_raw_fd(), EPOLLIN, LISTEN_TOKEN).expect("epoll_ctl(listener) failed");
        }
        let wheel = TimerWheel::new(shared.idle_timeout);
        Worker {
            idx,
            shared,
            ep,
            listener,
            wake_rx,
            slab: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            wheel,
            outbox: Outbox::default(),
            due: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 512];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout_ms = self.epoll_timeout();
            let n = {
                let _span = ea_trace::span_arg(&EPOLL_WAIT_SPAN, Category::Comm, self.idx as u64);
                self.ep.wait(&mut events, timeout_ms).unwrap_or_default()
            };
            for event in &events[..n] {
                let (ev, data) = (event.events, event.data);
                match data {
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    LISTEN_TOKEN => self.accept_ready(),
                    _ => self.conn_event(data, ev),
                }
            }
            self.drain_inbox();
            self.poll_handler();
            self.reap_idle();
            if self.shared.draining.load(Ordering::SeqCst) {
                self.update_drained();
            }
        }
        self.teardown();
    }

    /// Draining phase: close the listener (refusing new connections) and
    /// report whether everything this thread owns has flushed. The flag
    /// may regress if a late inbox send re-queues bytes; the shutdown
    /// driver samples it until all threads agree or its deadline passes.
    fn update_drained(&mut self) {
        if let Some(l) = self.listener.take() {
            let _ = self.ep.delete(l.as_raw_fd());
        }
        let inbox_empty = {
            let g = self.shared.threads[self.idx].inbox.lock().expect("reactor inbox poisoned");
            g.conns.is_empty() && g.sends.is_empty() && g.closes.is_empty()
        };
        let flushed = self.slab.iter().flatten().all(|c| c.queued_bytes() == 0);
        self.shared.threads[self.idx].drained.store(inbox_empty && flushed, Ordering::SeqCst);
    }

    /// Sleep budget for the next `epoll_wait`: bounded by the handler's
    /// deferred-work cadence and the next timer-wheel tick. Wakes and
    /// readiness events cut it short, so the default is coarse.
    fn epoll_timeout(&self) -> i32 {
        let mut budget = Duration::from_millis(100);
        if self.shared.handler.has_deferred() {
            budget = budget.min(self.shared.handler_poll);
        }
        if let Some(hint) = self.wheel.sleep_hint(Instant::now()) {
            budget = budget.min(hint);
        }
        (budget.as_millis() as i32).max(1)
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let listener = self.listener.as_ref().expect("LISTEN_TOKEN on thread without listener");
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let n = self.shared.threads.len();
                    let target = self.shared.rr.fetch_add(1, Ordering::Relaxed) % n;
                    if target == self.idx {
                        self.register_conn(stream);
                    } else {
                        self.shared.threads[target]
                            .inbox
                            .lock()
                            .expect("reactor inbox poisoned")
                            .conns
                            .push(stream);
                        self.shared.wake(target);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE burst):
                // stop the batch; level-triggered epoll retries later.
                Err(_) => break,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.gens.push(0);
            self.slab.len() - 1
        });
        self.gens[slot] = self.gens[slot].wrapping_add(1) & GEN_MASK;
        let gen = self.gens[slot];
        let id = ConnId::new(self.idx, gen, slot);
        if self.ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, id.0).is_err() {
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(Conn::new(stream, gen));
        self.wheel.insert(slot);
        self.shared.live_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up the live connection a readiness event or `ConnId` refers
    /// to, rejecting stale generations (slot reused since).
    fn live_slot(&self, id: ConnId) -> Option<usize> {
        let slot = id.slot();
        match self.slab.get(slot) {
            Some(Some(conn)) if conn.gen == id.gen() => Some(slot),
            _ => None,
        }
    }

    fn conn_event(&mut self, data: u64, events: u32) {
        let id = ConnId(data);
        let Some(slot) = self.live_slot(id) else {
            return; // stale event for a closed connection's slot
        };

        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            let mut burst = 0;
            loop {
                let read = {
                    let _span = ea_trace::span(&DECODE_SPAN, Category::Comm);
                    self.slab[slot].as_mut().unwrap().read_message()
                };
                match read {
                    Ok(Some(msg)) => {
                        self.dispatch(id, msg);
                        if self.live_slot(id).is_none() {
                            return; // handler closed it
                        }
                        burst += 1;
                        if burst >= READ_BURST {
                            break; // yield; epoll re-reports the rest
                        }
                    }
                    Ok(None) => break,
                    Err(reason) => {
                        self.drop_conn(slot, reason);
                        return;
                    }
                }
            }
        }

        if events & EPOLLOUT != 0 {
            let _span = ea_trace::span(&FLUSH_SPAN, Category::Comm);
            match self.slab[slot].as_mut().unwrap().flush() {
                Ok(drained) => {
                    if drained {
                        self.rearm(slot, id, false);
                    }
                }
                Err(reason) => self.drop_conn(slot, reason),
            }
        }
    }

    /// Sets or clears `EPOLLOUT` in a connection's interest set, skipping
    /// the syscall when already in the desired state.
    fn rearm(&mut self, slot: usize, id: ConnId, want_write: bool) {
        let conn = self.slab[slot].as_mut().unwrap();
        if conn.armed_write == want_write {
            return;
        }
        let interest =
            if want_write { EPOLLIN | EPOLLOUT | EPOLLRDHUP } else { EPOLLIN | EPOLLRDHUP };
        if self.ep.modify(conn.stream().as_raw_fd(), interest, id.0).is_ok() {
            self.slab[slot].as_mut().unwrap().armed_write = want_write;
        }
    }

    fn dispatch(&mut self, id: ConnId, msg: Message) {
        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let _span = ea_trace::span_arg(&DISPATCH_SPAN, Category::Comm, msg.wire_type() as u64);
            let handler = Arc::clone(&self.shared.handler);
            handler.on_message(id, msg, &mut outbox);
        }
        self.route_outbox(&mut outbox);
        self.outbox = outbox;
    }

    /// Applies an outbox: local sends are encoded and flushed here;
    /// remote ones are forwarded to the owning thread's inbox.
    fn route_outbox(&mut self, outbox: &mut Outbox) {
        if outbox.is_empty() {
            return;
        }
        let n = self.shared.threads.len();
        let mut woke = vec![false; n];
        for (to, msg) in outbox.sends.drain(..) {
            let t = to.thread();
            if t == self.idx {
                self.local_send(to, msg);
            } else if t < n {
                self.shared.threads[t]
                    .inbox
                    .lock()
                    .expect("reactor inbox poisoned")
                    .sends
                    .push((to, msg));
                woke[t] = true;
            } else {
                recycle_message(msg);
            }
        }
        for (to, why) in outbox.closes.drain(..) {
            let t = to.thread();
            if t == self.idx {
                if let Some(slot) = self.live_slot(to) {
                    self.drop_conn(slot, DisconnectReason::HandlerClosed(why));
                }
            } else if t < n {
                self.shared.threads[t]
                    .inbox
                    .lock()
                    .expect("reactor inbox poisoned")
                    .closes
                    .push((to, why));
                woke[t] = true;
            }
        }
        for (t, woke) in woke.into_iter().enumerate() {
            if woke {
                self.shared.wake(t);
            }
        }
    }

    /// Encodes and queues one message on a locally-owned connection, with
    /// an eager flush and backpressure bookkeeping.
    fn local_send(&mut self, to: ConnId, msg: Message) {
        let Some(slot) = self.live_slot(to) else {
            recycle_message(msg);
            return;
        };
        let conn = self.slab[slot].as_mut().unwrap();
        conn.enqueue(msg);
        let flushed = {
            let _span = ea_trace::span(&FLUSH_SPAN, Category::Comm);
            conn.flush()
        };
        match flushed {
            Ok(true) => self.rearm(slot, to, false),
            Ok(false) => {
                let queued = self.slab[slot].as_ref().unwrap().queued_bytes();
                if queued > self.shared.max_outbound_bytes {
                    self.drop_conn(slot, DisconnectReason::SlowConsumer { queued_bytes: queued });
                } else {
                    self.rearm(slot, to, true);
                }
            }
            Err(reason) => self.drop_conn(slot, reason),
        }
    }

    fn drain_inbox(&mut self) {
        let inbox = {
            let mut guard =
                self.shared.threads[self.idx].inbox.lock().expect("reactor inbox poisoned");
            std::mem::take(&mut *guard)
        };
        for stream in inbox.conns {
            self.register_conn(stream);
        }
        for (to, msg) in inbox.sends {
            self.local_send(to, msg);
        }
        for (to, why) in inbox.closes {
            if let Some(slot) = self.live_slot(to) {
                self.drop_conn(slot, DisconnectReason::HandlerClosed(why));
            }
        }
    }

    fn poll_handler(&mut self) {
        if !self.shared.handler.has_deferred() {
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let handler = Arc::clone(&self.shared.handler);
            handler.poll(&mut outbox);
        }
        self.route_outbox(&mut outbox);
        self.outbox = outbox;
    }

    fn reap_idle(&mut self) {
        let Some(timeout) = self.shared.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let mut due = std::mem::take(&mut self.due);
        self.wheel.advance(now, &mut due);
        for slot in due.drain(..) {
            let Some(conn) = self.slab.get(slot).and_then(Option::as_ref) else {
                continue; // closed since scheduling; slot may be reused later
            };
            let idle = now.saturating_duration_since(conn.last_activity);
            if idle >= timeout {
                self.drop_conn(slot, DisconnectReason::IdleTimeout);
            } else {
                // Re-check one granule past the remaining allowance.
                let remaining = timeout - idle;
                let granules =
                    (remaining.as_micros() / self.wheel.granule.as_micros().max(1)) as usize + 1;
                self.wheel.insert_at(slot, granules);
            }
        }
        self.due = due;
    }

    fn drop_conn(&mut self, slot: usize, reason: DisconnectReason) {
        let mut conn = match self.slab[slot].take() {
            Some(c) => c,
            None => return,
        };
        self.free.push(slot);
        let _ = self.ep.delete(conn.stream().as_raw_fd());
        conn.recycle_queue();
        self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        let id = ConnId::new(self.idx, conn.gen, slot);
        self.shared.handler.on_disconnect(id, &reason);
    }

    /// Shutdown: best-effort flush of queued replies, then close every
    /// connection with [`DisconnectReason::Shutdown`].
    fn teardown(&mut self) {
        for slot in 0..self.slab.len() {
            if let Some(conn) = self.slab[slot].as_mut() {
                let _ = conn.flush();
            }
            if self.slab[slot].is_some() {
                self.drop_conn(slot, DisconnectReason::Shutdown);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpConfig, TcpTransport};
    use crate::transport::Transport;
    use std::sync::atomic::AtomicU64;

    /// Echo-style handler: acks submits, answers pings, records drops.
    struct EchoHandler {
        disconnects: Mutex<Vec<String>>,
        messages: AtomicU64,
    }

    impl EchoHandler {
        fn new() -> EchoHandler {
            EchoHandler { disconnects: Mutex::new(Vec::new()), messages: AtomicU64::new(0) }
        }
    }

    impl ReactorHandler for EchoHandler {
        fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
            self.messages.fetch_add(1, Ordering::Relaxed);
            match msg {
                Message::SubmitDelta { shard, round, pipe, .. } => {
                    out.send(conn, Message::Ack { shard, round, pipe, duplicate: false });
                }
                Message::Hello { proto, .. } => {
                    out.send(
                        conn,
                        Message::HelloAck {
                            proto,
                            n_shards: 1,
                            n_pipelines: 1,
                            codec: ea_optim::Codec::F32,
                            shard_base: 0,
                            shard_count: 1,
                        },
                    );
                }
                _ => out.close(conn, "unexpected message".to_string()),
            }
        }

        fn on_disconnect(&self, _conn: ConnId, reason: &DisconnectReason) {
            self.disconnects.lock().unwrap().push(reason.to_string());
        }
    }

    fn connect(addr: SocketAddr) -> TcpTransport {
        TcpTransport::connect(addr, TcpConfig::default()).expect("connect")
    }

    #[test]
    fn round_trips_messages_from_many_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler::new());
        let reactor = Reactor::spawn(
            listener,
            handler.clone(),
            ReactorConfig { threads: 2, ..ReactorConfig::default() },
        )
        .unwrap();
        let addr = reactor.local_addr();

        let joins: Vec<_> = (0..8u32)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut t = connect(addr);
                    for round in 0..5u64 {
                        let delta = vec![w as f32; 16];
                        t.send(Message::SubmitDelta { shard: 0, round, pipe: w, delta }).unwrap();
                        let reply = t.recv().unwrap();
                        assert_eq!(
                            reply,
                            Message::Ack { shard: 0, round, pipe: w, duplicate: false },
                            "worker {w} round {round}"
                        );
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(handler.messages.load(Ordering::Relaxed), 8 * 5);
        reactor.shutdown();
    }

    #[test]
    fn garbage_bytes_disconnect_with_protocol_violation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler::new());
        let reactor = Reactor::spawn(listener, handler.clone(), ReactorConfig::default()).unwrap();
        let mut raw = TcpStream::connect(reactor.local_addr()).unwrap();
        raw.write_all(b"definitely not a frame header!").unwrap();
        // The reactor should drop us; read() observing EOF proves it.
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        let n = raw.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected server-side close");
        // Disconnect reason recorded as a protocol violation.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let drops = handler.disconnects.lock().unwrap().clone();
            if !drops.is_empty() {
                assert!(drops[0].contains("protocol violation"), "got: {drops:?}");
                break;
            }
            assert!(Instant::now() < deadline, "no disconnect recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        reactor.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler::new());
        let reactor = Reactor::spawn(
            listener,
            handler.clone(),
            ReactorConfig {
                idle_timeout: Some(Duration::from_millis(80)),
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let raw = TcpStream::connect(reactor.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = raw;
        let mut buf = [0u8; 1];
        // Never send anything: the wheel must evict us. Full revolution
        // at 10ms granule is 160ms; allow generous slack.
        let t0 = Instant::now();
        let n = raw.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected idle eviction close");
        assert!(t0.elapsed() < Duration::from_secs(8), "eviction took too long");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let drops = handler.disconnects.lock().unwrap().clone();
            if !drops.is_empty() {
                assert!(drops.iter().any(|d| d.contains("idle timeout")), "got: {drops:?}");
                break;
            }
            assert!(Instant::now() < deadline, "no disconnect recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        reactor.shutdown();
    }

    #[test]
    fn slow_consumer_is_evicted() {
        // Handler that answers one Hello with a ~64 MiB flood of
        // PullReplys — far past both the 1 MiB outbound bound and any
        // kernel socket buffer — at a client that never reads.
        struct FloodHandler {
            disconnects: Mutex<Vec<String>>,
        }
        impl ReactorHandler for FloodHandler {
            fn on_message(&self, conn: ConnId, msg: Message, out: &mut Outbox) {
                if matches!(msg, Message::Hello { .. }) {
                    for version in 0..64u64 {
                        out.send(
                            conn,
                            Message::PullReply { shard: 0, version, weights: vec![0.5; 256 << 10] },
                        );
                    }
                }
            }
            fn on_disconnect(&self, _conn: ConnId, reason: &DisconnectReason) {
                self.disconnects.lock().unwrap().push(reason.to_string());
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(FloodHandler { disconnects: Mutex::new(Vec::new()) });
        let reactor = Reactor::spawn(
            listener,
            handler.clone(),
            ReactorConfig { max_outbound_bytes: 1 << 20, ..ReactorConfig::default() },
        )
        .unwrap();
        let mut t = connect(reactor.local_addr());
        t.send(Message::Hello {
            proto: crate::frame::PROTO_VERSION as u16,
            pipe: 0,
            codec: ea_optim::Codec::F32,
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let drops = handler.disconnects.lock().unwrap().clone();
            if !drops.is_empty() {
                assert!(drops.iter().any(|d| d.contains("slow consumer")), "got: {drops:?}");
                break;
            }
            assert!(Instant::now() < deadline, "no slow-consumer eviction recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reactor.live_connections(), 0);
        reactor.shutdown();
    }

    #[test]
    fn idle_reaper_reschedules_after_activity() {
        // With timeout = 150ms the wheel's first liveness check for a
        // fresh connection lands ~170ms after accept. Activity at
        // ~100ms means that check finds the connection only ~70ms idle,
        // exercising the reschedule branch (`insert_at`); the *second*
        // check must then evict it — so eviction cannot land before
        // last-activity + timeout (~250ms after connect).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler::new());
        let reactor = Reactor::spawn(
            listener,
            handler.clone(),
            ReactorConfig {
                idle_timeout: Some(Duration::from_millis(150)),
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let t0 = Instant::now();
        let mut t = connect(reactor.local_addr());
        std::thread::sleep(Duration::from_millis(100));
        t.send(Message::Hello {
            proto: crate::frame::PROTO_VERSION as u16,
            pipe: 0,
            codec: ea_optim::Codec::F32,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::HelloAck { .. }));
        let deadline = Instant::now() + Duration::from_secs(10);
        let reaped_at = loop {
            let drops = handler.disconnects.lock().unwrap().clone();
            if !drops.is_empty() {
                assert!(drops.iter().any(|d| d.contains("idle timeout")), "got: {drops:?}");
                break t0.elapsed();
            }
            assert!(Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(5));
        };
        // A buggy no-reschedule reaper would evict at the first check
        // (~170ms); the reschedule pushes it past activity + timeout.
        assert!(
            reaped_at >= Duration::from_millis(230),
            "reaped too early ({reaped_at:?}): first-wheel-check eviction ignored activity"
        );
        reactor.shutdown();
    }

    #[test]
    fn shutdown_closes_live_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler::new());
        let reactor = Reactor::spawn(listener, handler.clone(), ReactorConfig::default()).unwrap();
        let mut t = connect(reactor.local_addr());
        t.send(Message::Hello {
            proto: crate::frame::PROTO_VERSION as u16,
            pipe: 0,
            codec: ea_optim::Codec::F32,
        })
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::HelloAck { .. }));
        assert_eq!(reactor.live_connections(), 1);
        reactor.shutdown();
        let drops = handler.disconnects.lock().unwrap().clone();
        assert!(drops.iter().any(|d| d.contains("shutdown")), "got: {drops:?}");
    }
}
