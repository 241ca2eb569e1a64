//! The server: an event-driven reactor core with a worker pool for CPU
//! work.
//!
//! One **event thread** owns the `TcpListener` (nonblocking) and an epoll
//! [`reactor::Poller`]. Sockets never hold threads: the event loop
//! accepts, reads, and writes with nonblocking syscalls, and each
//! connection is a small state machine (`Conn`) holding its read buffer,
//! pipeline of in-flight requests, and pending output bytes. Complete
//! requests parsed by [`crate::http::parse_request`] are handed to the
//! **worker pool** over a bounded job queue; workers run the router (CPU
//! work only — no socket IO), encode the response bytes, and post a
//! completion back through a wake pipe. The loop stitches completions into
//! each connection's pipeline **in request order**, so pipelined clients
//! always see responses in the order they asked.
//!
//! Backpressure and protection:
//! - a connection cap (`queue_depth`) sheds new connections with a
//!   structured `503` at the door, and the job queue holds at most
//!   `queue_depth` parsed requests (`503` past it);
//! - a per-connection pipeline cap (`max_pipeline`) pauses *reading* from
//!   over-eager pipeliners instead of buffering unboundedly (counted in
//!   `certa_serve_conn_pipeline_overflows_total`);
//! - optional per-tenant token buckets ([`reactor::TenantBuckets`]) answer
//!   `429` on `/v1/*` before any CPU work is queued;
//! - idle connections past `read_timeout` are reaped (counted in
//!   `certa_serve_conn_timeouts_total`);
//! - a peer that half-closes mid-request gets `400 truncated_request`.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] flips the stop flag and writes a byte to the
//! wake pipe. In-flight connections drain, bounded by a deadline; workers
//! join, and the listener is closed before `shutdown` returns, so the port
//! is immediately rebindable.
//!
//! [`reactor::Poller`]: crate::reactor::Poller
//! [`reactor::TenantBuckets`]: crate::reactor::TenantBuckets

use crate::http::{parse_request, HttpError, ParseOutcome, Request};
use crate::ops::{Route, ServerMetrics};
use crate::reactor::{Event, Interest, Poller, TenantBuckets};
use crate::router;
use crate::state::{Registry, ServeConfig};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
// The queues need a Condvar; the parking_lot shim only provides locks, so
// they use std's pair (std Condvar only works with std Mutex).
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the workers share.
pub struct AppState {
    /// The model registry.
    pub registry: Registry,
    /// Ops counters.
    pub metrics: ServerMetrics,
}

impl AppState {
    /// Fresh state for a configuration.
    pub fn new(config: ServeConfig) -> Arc<AppState> {
        Arc::new(AppState {
            registry: Registry::new(config),
            metrics: ServerMetrics::default(),
        })
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        self.registry.config()
    }
}

/// Bounded MPMC job queue.
///
/// `push` fails fast when full (the 503 path); `pop` blocks until an item
/// arrives or the queue is closed *and* drained — workers finish the
/// backlog before exiting, which is what makes shutdown graceful rather
/// than abortive.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue, or hand the item back if the queue is full/closed.
    fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue; `None` means closed and fully drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] detaches the threads (the process exit
/// reaps them); tests and the load harness always shut down explicitly.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    main_thread: Option<JoinHandle<()>>,
    /// Write end of the event loop's wake pipe.
    wake: UnixStream,
}

impl Server {
    /// Bind and start serving. `addr` is a `host:port` string; port `0`
    /// picks a free port (the actual address is [`Server::addr`]).
    pub fn bind(config: ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = AppState::new(config);
        Server::start(listener, local, state)
    }

    /// Start on an already-bound listener with pre-built state (lets the
    /// load harness pre-resolve registry entries before opening the door).
    pub fn start(
        listener: TcpListener,
        addr: SocketAddr,
        state: Arc<AppState>,
    ) -> io::Result<Server> {
        let stop = Arc::new(AtomicBool::new(false));
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(EventShared {
            jobs: BoundedQueue::new(state.config().queue_depth),
            completions: Mutex::new(Vec::new()),
            wake: Mutex::new(wake_tx.try_clone()?),
        });
        let pool_size = certa_core::worker_count(state.config().http_workers);
        let workers: Vec<JoinHandle<()>> = (0..pool_size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("certa-serve-worker-{i}"))
                    .spawn(move || event_worker_loop(&shared, &state))
            })
            .collect::<io::Result<_>>()?;

        let loop_state = Arc::clone(&state);
        let loop_stop = Arc::clone(&stop);
        let main_thread = std::thread::Builder::new()
            .name("certa-serve-event".to_string())
            .spawn(move || {
                event_main(listener, loop_state, &loop_stop, wake_rx, &shared, workers)
            })?;

        Ok(Server {
            addr,
            state,
            stop,
            main_thread: Some(main_thread),
            wake: wake_tx,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (registry + metrics) — the load harness reads counters
    /// through this.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One byte on the wake pipe unblocks the poller. A full pipe
        // already guarantees a pending wakeup.
        let _ = self.wake.write(&[1u8]);
        if let Some(t) = self.main_thread.take() {
            let _ = t.join();
        }
    }
}

/// Token for the listening socket. Connection tokens are
/// `(generation << 32) | slot` with the generation capped well below this.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the worker → event-loop wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// How long the drain phase waits for in-flight connections on shutdown.
const DRAIN_GRACE_MS: u64 = 5_000;

/// CPU work for the pool: one parsed request bound to its connection and
/// its position in that connection's pipeline.
struct Job {
    token: u64,
    seq: u64,
    req: Box<Request>,
}

/// A finished response: pre-encoded wire bytes ready to splice into the
/// connection's pipeline slot `seq`.
struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    keep: bool,
}

/// What the workers and the event loop share.
struct EventShared {
    jobs: BoundedQueue<Job>,
    completions: Mutex<Vec<Completion>>,
    wake: Mutex<UnixStream>,
}

impl EventShared {
    /// Post a completion and nudge the poller.
    fn complete(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(c);
        let mut wake = self.wake.lock().unwrap_or_else(|e| e.into_inner());
        // A WouldBlock here means the pipe already holds unread wakeups, so
        // the poller is waking regardless — dropping the byte is correct.
        let _ = wake.write(&[1u8]);
    }
}

/// One response slot in a connection's pipeline, in request order.
enum Pending {
    /// Dispatched to the worker pool; waiting for completion `seq`.
    Waiting(u64),
    /// Encoded bytes ready to write once every earlier slot has flushed.
    Ready { bytes: Vec<u8>, keep: bool },
}

/// Why a connection is being torn down (feeds the `certa_serve_conn_*`
/// counters; `Orderly` is the clean path and counts nothing).
enum Fate {
    Orderly,
    Reset,
    TimedOut,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet parsed.
    buf: Vec<u8>,
    /// Encoded response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// In-order pipeline of dispatched/ready responses.
    pending: VecDeque<Pending>,
    next_seq: u64,
    last_active_ms: u64,
    /// Stop parsing + writing after the current output drains, then close.
    close_after_drain: bool,
    /// Reading paused by the pipeline cap.
    paused: bool,
    /// Pipeline overflow already counted for this connection.
    overflowed: bool,
    /// Peer half-closed (read saw EOF).
    peer_closed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, now_ms: u64) -> Conn {
        Conn {
            stream,
            token,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            last_active_ms: now_ms,
            close_after_drain: false,
            paused: false,
            overflowed: false,
            peer_closed: false,
            interest: Interest::READ,
        }
    }

    /// No queued responses and no unwritten bytes.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.out_pos >= self.out.len()
    }
}

/// The reactor: owns the poller, the listener, and every connection.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    state: Arc<AppState>,
    shared: Arc<EventShared>,
    wake_rx: UnixStream,
    buckets: TenantBuckets,
    /// Connection slab; `free` recycles vacated slots.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    epoch: Instant,
}

impl EventLoop {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(&mut self, stop: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline_ms = 0u64;
        loop {
            if self.poller.wait(&mut events, 100).is_err() {
                // The poller itself failed; nothing can make progress.
                return;
            }
            let now_ms = self.now_ms();
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => {
                        if !draining {
                            self.accept_ready(now_ms);
                        }
                    }
                    WAKE_TOKEN => self.drain_wake(),
                    _ => self.conn_event(ev, now_ms),
                }
            }
            self.deliver_completions(now_ms);
            self.sweep_idle(now_ms);
            if !draining && stop.load(Ordering::SeqCst) {
                draining = true;
                drain_deadline_ms = now_ms.saturating_add(DRAIN_GRACE_MS);
                // Stop accepting; established connections get the grace
                // window to flush their pipelines.
                let _ = self.poller.delete(self.listener.as_raw_fd());
            }
            if draining {
                let force = now_ms >= drain_deadline_ms;
                for slot in 0..self.conns.len() {
                    let done = match self.conns.get(slot).and_then(Option::as_ref) {
                        Some(c) => force || (c.drained() && c.buf.is_empty()),
                        None => false,
                    };
                    if done {
                        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
                            self.finish(slot, conn, Some(Fate::Orderly));
                        }
                    }
                }
                if self.live == 0 {
                    return;
                }
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: pipe drained
            }
        }
    }

    fn accept_ready(&mut self, now_ms: u64) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            self.state.metrics.connections_accepted.inc();
            if self.live >= self.state.config().queue_depth {
                // Shed load at the door with a structured 503. The
                // accepted socket is blocking (accept does not inherit
                // nonblocking), so bound the courtesy write.
                self.state.metrics.overload_rejections.inc();
                let err = HttpError::closing(
                    503,
                    "overloaded",
                    format!(
                        "connection limit reached ({}); retry with backoff",
                        self.state.config().queue_depth
                    ),
                );
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                let _ = err.to_response().write_to(&mut stream, false);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                self.state.metrics.conn_resets.inc();
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len().saturating_sub(1)
            });
            // Generation disambiguates a recycled slot from stale
            // completions addressed to its previous occupant; capping it
            // keeps connection tokens clear of the reserved ones.
            self.next_gen = self.next_gen.wrapping_add(1) & 0x7FFF_FFFF;
            let token = (self.next_gen << 32) | (slot as u64 & 0xFFFF_FFFF);
            let conn = Conn::new(stream, token, now_ms);
            if self
                .poller
                .add(conn.stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.state.metrics.conn_resets.inc();
                self.free.push(slot);
                continue;
            }
            if let Some(s) = self.conns.get_mut(slot) {
                *s = Some(conn);
                self.live = self.live.saturating_add(1);
            }
        }
    }

    fn conn_event(&mut self, ev: Event, now_ms: u64) {
        let slot = (ev.token & 0xFFFF_FFFF) as usize;
        let mut conn = match self.conns.get_mut(slot).and_then(Option::take) {
            Some(c) if c.token == ev.token => c,
            Some(c) => {
                // Stale event for a recycled slot; put the occupant back.
                if let Some(s) = self.conns.get_mut(slot) {
                    *s = Some(c);
                }
                return;
            }
            None => return,
        };
        let mut fate = None;
        if ev.failed {
            fate = Some(Fate::Reset);
        }
        if fate.is_none() && ev.readable {
            fate = self.fill_read_buf(&mut conn, now_ms);
        }
        if fate.is_none() {
            fate = self.progress(&mut conn, now_ms);
        }
        self.finish(slot, conn, fate);
    }

    /// Slurp readable bytes into the connection's parse buffer.
    fn fill_read_buf(&mut self, conn: &mut Conn, now_ms: u64) -> Option<Fate> {
        if conn.paused || conn.close_after_drain || conn.peer_closed {
            // Interest management keeps EPOLLIN off in these states; this
            // guard covers events already in flight when the state flipped.
            return None;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    return None;
                }
                Ok(n) => {
                    conn.last_active_ms = now_ms;
                    if let Some(read) = chunk.get(..n) {
                        conn.buf.extend_from_slice(read);
                    }
                    if n < chunk.len() {
                        // Likely drained; level-triggered epoll refires if
                        // more arrived meanwhile.
                        return None;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some(Fate::Reset),
            }
        }
    }

    /// Drive the state machine: parse buffered requests, splice ready
    /// responses into the output buffer, write what the socket accepts,
    /// and decide whether the connection is finished.
    fn progress(&mut self, conn: &mut Conn, now_ms: u64) -> Option<Fate> {
        loop {
            self.parse_phase(conn, now_ms);
            self.flush_ready(conn);
            if let Some(fate) = self.write_out(conn) {
                return Some(fate);
            }
            // The pipeline cap paused reading; if flushing made room and
            // bytes are already buffered, resume parsing immediately.
            let resume = conn.paused
                && !conn.close_after_drain
                && conn.pending.len() < self.state.config().max_pipeline
                && !conn.buf.is_empty();
            if resume {
                conn.paused = false;
                continue;
            }
            break;
        }
        if conn.drained() {
            if conn.close_after_drain {
                return Some(Fate::Orderly);
            }
            if conn.peer_closed && conn.buf.is_empty() {
                return Some(Fate::Orderly);
            }
        }
        None
    }

    /// Parse as many complete requests out of `conn.buf` as the pipeline
    /// cap allows, dispatching each to the worker pool.
    fn parse_phase(&mut self, conn: &mut Conn, now_ms: u64) {
        while !conn.close_after_drain && !conn.paused && !conn.buf.is_empty() {
            if conn.pending.len() >= self.state.config().max_pipeline {
                conn.paused = true;
                if !conn.overflowed {
                    conn.overflowed = true;
                    self.state.metrics.conn_pipeline_overflows.inc();
                }
                return;
            }
            match parse_request(&conn.buf, self.state.config().max_body_bytes) {
                ParseOutcome::NeedMore => break,
                ParseOutcome::Request { request, consumed } => {
                    let consumed = consumed.min(conn.buf.len());
                    conn.buf.drain(..consumed);
                    conn.last_active_ms = now_ms;
                    self.dispatch(conn, request, now_ms);
                }
                ParseOutcome::Error { error, consumed } => {
                    let consumed = consumed.min(conn.buf.len());
                    conn.buf.drain(..consumed);
                    conn.last_active_ms = now_ms;
                    let keep = error.keep_alive;
                    let resp = error.to_response();
                    self.state
                        .metrics
                        .observe(Route::Other, resp.status, Duration::ZERO);
                    conn.pending.push_back(Pending::Ready {
                        bytes: resp.encode(keep),
                        keep,
                    });
                    if !keep {
                        conn.buf.clear();
                        return;
                    }
                }
            }
        }
        // Peer half-closed mid-request: the leftover bytes can never
        // complete, so answer the truncation before closing our side.
        if conn.peer_closed && !conn.buf.is_empty() && !conn.close_after_drain && !conn.paused {
            conn.buf.clear();
            let err = HttpError::closing(400, "truncated_request", "connection closed mid-request");
            let resp = err.to_response();
            self.state
                .metrics
                .observe(Route::Other, resp.status, Duration::ZERO);
            conn.pending.push_back(Pending::Ready {
                bytes: resp.encode(false),
                keep: false,
            });
        }
    }

    /// Admission-check one parsed request and hand it to the worker pool
    /// (or answer inline when admission fails).
    fn dispatch(&mut self, conn: &mut Conn, req: Box<Request>, now_ms: u64) {
        let keep_wish = req.keep_alive;
        if self.buckets.enabled() && req.path.starts_with("/v1/") {
            let tenant = req.header("x-tenant").unwrap_or("default");
            if !self.buckets.try_admit(tenant, now_ms) {
                self.state.metrics.rate_limited.inc();
                let err = HttpError {
                    status: 429,
                    code: "rate_limited",
                    message: format!("tenant `{tenant}` over rate limit; retry with backoff"),
                    keep_alive: true,
                };
                let resp = err.to_response();
                self.state
                    .metrics
                    .observe(Route::Other, resp.status, Duration::ZERO);
                conn.pending.push_back(Pending::Ready {
                    bytes: resp.encode(keep_wish),
                    keep: keep_wish,
                });
                return;
            }
        }
        let seq = conn.next_seq;
        conn.next_seq = conn.next_seq.wrapping_add(1);
        match self.shared.jobs.push(Job {
            token: conn.token,
            seq,
            req,
        }) {
            Ok(()) => conn.pending.push_back(Pending::Waiting(seq)),
            Err(_job) => {
                // Job queue full: same structured 503 as the door.
                self.state.metrics.overload_rejections.inc();
                let err = HttpError::closing(
                    503,
                    "overloaded",
                    format!(
                        "request queue full ({} deep); retry with backoff",
                        self.state.config().queue_depth
                    ),
                );
                let resp = err.to_response();
                self.state
                    .metrics
                    .observe(Route::Other, resp.status, Duration::ZERO);
                conn.pending.push_back(Pending::Ready {
                    bytes: resp.encode(false),
                    keep: false,
                });
            }
        }
    }

    /// Move the leading run of `Ready` responses into the output buffer
    /// (responses must leave in request order, so a `Waiting` head blocks
    /// everything behind it).
    fn flush_ready(&mut self, conn: &mut Conn) {
        while matches!(conn.pending.front(), Some(Pending::Ready { .. })) {
            if let Some(Pending::Ready { bytes, keep }) = conn.pending.pop_front() {
                conn.out.extend_from_slice(&bytes);
                if !keep {
                    conn.close_after_drain = true;
                    conn.pending.clear();
                    conn.buf.clear();
                    return;
                }
            }
        }
    }

    /// Write as much pending output as the socket accepts.
    fn write_out(&mut self, conn: &mut Conn) -> Option<Fate> {
        loop {
            let rest = match conn.out.get(conn.out_pos..) {
                Some(r) if !r.is_empty() => r,
                _ => break,
            };
            match conn.stream.write(rest) {
                Ok(0) => return Some(Fate::Reset),
                Ok(n) => conn.out_pos = conn.out_pos.saturating_add(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some(Fate::Reset),
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        None
    }

    /// Splice worker completions into their connections and re-drive them.
    fn deliver_completions(&mut self, now_ms: u64) {
        let done: Vec<Completion> = {
            let mut lock = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *lock)
        };
        for c in done {
            let slot = (c.token & 0xFFFF_FFFF) as usize;
            let mut conn = match self.conns.get_mut(slot).and_then(Option::take) {
                Some(x) if x.token == c.token => x,
                Some(x) => {
                    // Completion for a connection that already went away.
                    if let Some(s) = self.conns.get_mut(slot) {
                        *s = Some(x);
                    }
                    continue;
                }
                None => continue,
            };
            let slot_match = conn
                .pending
                .iter_mut()
                .find(|p| matches!(p, Pending::Waiting(s) if *s == c.seq));
            if let Some(p) = slot_match {
                *p = Pending::Ready {
                    bytes: c.bytes,
                    keep: c.keep,
                };
            }
            conn.last_active_ms = now_ms;
            let fate = self.progress(&mut conn, now_ms);
            self.finish(slot, conn, fate);
        }
    }

    /// Reap connections idle past the read timeout (nothing in flight,
    /// nothing to write, no bytes seen recently).
    fn sweep_idle(&mut self, now_ms: u64) {
        let timeout_ms = self.state.config().read_timeout.as_millis() as u64;
        if timeout_ms == 0 {
            return;
        }
        for slot in 0..self.conns.len() {
            let idle = match self.conns.get(slot).and_then(Option::as_ref) {
                Some(c) => c.drained() && now_ms.saturating_sub(c.last_active_ms) > timeout_ms,
                None => false,
            };
            if idle {
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
                    self.finish(slot, conn, Some(Fate::TimedOut));
                }
            }
        }
    }

    /// Re-register interest (if it changed) and put the connection back —
    /// or tear it down, counting abnormal fates.
    fn finish(&mut self, slot: usize, mut conn: Conn, fate: Option<Fate>) {
        match fate {
            None => {
                let want = Interest {
                    // A paused/half-closed/draining connection must drop
                    // read interest or level-triggered epoll busy-loops.
                    readable: !conn.paused && !conn.peer_closed && !conn.close_after_drain,
                    writable: conn.out_pos < conn.out.len(),
                };
                if want != conn.interest
                    && self
                        .poller
                        .modify(conn.stream.as_raw_fd(), conn.token, want)
                        .is_ok()
                {
                    conn.interest = want;
                }
                if let Some(s) = self.conns.get_mut(slot) {
                    *s = Some(conn);
                }
            }
            Some(fate) => {
                match fate {
                    Fate::Orderly => {}
                    Fate::Reset => self.state.metrics.conn_resets.inc(),
                    Fate::TimedOut => self.state.metrics.conn_timeouts.inc(),
                }
                // Closing the fd would deregister implicitly; explicit
                // delete keeps teardown order obvious (failure = already
                // gone).
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                self.free.push(slot);
                self.live = self.live.saturating_sub(1);
                // `conn` drops here, closing the socket.
            }
        }
    }
}

/// The event thread: run the reactor, then drain the worker pool.
fn event_main(
    listener: TcpListener,
    state: Arc<AppState>,
    stop: &AtomicBool,
    wake_rx: UnixStream,
    shared: &Arc<EventShared>,
    workers: Vec<JoinHandle<()>>,
) {
    let teardown = |workers: Vec<JoinHandle<()>>| {
        shared.jobs.close();
        for w in workers {
            let _ = w.join();
        }
    };
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return teardown(workers),
    };
    if poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .is_err()
        || poller
            .add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
    {
        return teardown(workers);
    }
    let (tenant_rps, tenant_burst) = {
        let cfg = state.config();
        (cfg.tenant_rps, cfg.tenant_burst)
    };
    let buckets = TenantBuckets::new(tenant_rps, tenant_burst);
    let mut el = EventLoop {
        poller,
        listener,
        state,
        shared: Arc::clone(shared),
        wake_rx,
        buckets,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_gen: 0,
        epoch: Instant::now(),
    };
    el.run(stop);
    // Drop the listener (and poller) before joining workers so the port is
    // free the moment `shutdown()` returns.
    drop(el);
    teardown(workers);
}

/// A pool worker: CPU only — route, observe, encode; never touches a
/// socket.
fn event_worker_loop(shared: &EventShared, state: &AppState) {
    while let Some(job) = shared.jobs.pop() {
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            router::handle(&state.registry, &state.metrics, &job.req)
        }));
        let (route, resp) = match result {
            Ok(pair) => pair,
            Err(_) => {
                state.metrics.worker_panics.inc();
                (
                    Route::Other,
                    HttpError::closing(500, "internal_error", "handler panicked").to_response(),
                )
            }
        };
        state.metrics.observe(route, resp.status, t0.elapsed());
        let keep = job.req.keep_alive && resp.keep_alive;
        let bytes = resp.encode(keep);
        shared.complete(Completion {
            token: job.token,
            seq: job.seq,
            bytes,
            keep,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    fn small_config() -> ServeConfig {
        ServeConfig {
            tau: 8,
            http_workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let status: u16 = buf.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_healthz_and_shuts_down_gracefully() {
        let server = Server::bind(small_config(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        server.shutdown();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = Server::bind(small_config(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for _ in 0..3 {
            write!(s, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut head = [0u8; 17];
            s.read_exact(&mut head).unwrap();
            assert_eq!(&head, b"HTTP/1.1 200 OK\r\n");
            // Drain the rest of this response (headers + body) by length.
            let mut rest = Vec::new();
            let mut byte = [0u8; 1];
            let body_len: usize = loop {
                s.read_exact(&mut byte).unwrap();
                rest.push(byte[0]);
                if rest.ends_with(b"\r\n\r\n") {
                    let headers = String::from_utf8_lossy(&rest);
                    let len_line = headers
                        .lines()
                        .find(|l| l.starts_with("content-length:"))
                        .unwrap()
                        .to_string();
                    break len_line["content-length:".len()..].trim().parse().unwrap();
                }
            };
            let mut body = vec![0u8; body_len];
            s.read_exact(&mut body).unwrap();
        }
        drop(s);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let server = Server::bind(small_config(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Three requests in a single write; the last one closes.
        write!(
            s,
            "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert_eq!(buf.matches("HTTP/1.1 200 OK").count(), 3, "{buf}");
        assert_eq!(buf.matches("\"status\":\"ok\"").count(), 3, "{buf}");
        server.shutdown();
    }

    #[test]
    fn overload_gets_structured_503() {
        let server = Server::bind(
            ServeConfig {
                queue_depth: 1,
                read_timeout: Duration::from_secs(30),
                ..small_config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.addr();
        // An idle connection holds the only slot. The event loop accepts
        // connections in arrival order, so it is admitted before the next.
        let pin = TcpStream::connect(addr).unwrap();
        // This one must be turned away at the door.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 503 "), "{buf}");
        assert!(buf.contains("\"code\":\"overloaded\""), "{buf}");
        assert!(server.state().metrics.overload_rejections.get() >= 1);
        drop(pin);
        server.shutdown();
    }

    #[test]
    fn idle_connections_do_not_pin_the_worker_pool() {
        // One worker and a reap timeout longer than the deadline below: a
        // core that parked a worker on each idle socket would answer the
        // fresh request only after the idle ones timed out, one by one.
        let server = Server::bind(
            ServeConfig {
                http_workers: 1,
                read_timeout: Duration::from_secs(3),
                ..small_config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.addr();
        let idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let t0 = Instant::now();
        let (status, body) = get(addr, "/healthz");
        let waited = t0.elapsed();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(
            waited < Duration::from_secs(2),
            "fresh request waited {waited:?} behind idle connections"
        );
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn half_close_mid_body_gets_400_truncated_request() {
        let server = Server::bind(small_config(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Three of ten promised body bytes, then the write side closes.
        write!(
            s,
            "POST /v1/score HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"
        )
        .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400 "), "{buf}");
        assert!(buf.contains("\"code\":\"truncated_request\""), "{buf}");
        assert!(buf.contains("connection: close\r\n"), "{buf}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400_not_a_dropped_connection() {
        let server = Server::bind(small_config(), "127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "THIS IS NOT HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400 "), "{buf}");
        assert!(buf.contains("\"error\""), "{buf}");
        server.shutdown();
    }

    #[test]
    fn idle_connections_time_out_and_are_counted() {
        let server = Server::bind(
            ServeConfig {
                read_timeout: Duration::from_millis(200),
                ..small_config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Send nothing; the reactor should reap us and close the socket.
        let mut buf = Vec::new();
        let n = s.read_to_end(&mut buf).unwrap();
        assert_eq!(n, 0, "idle connection should be closed with no bytes");
        assert!(server.state().metrics.conn_timeouts.get() >= 1);
        server.shutdown();
    }

    #[test]
    fn tenant_rate_limit_answers_429_per_tenant() {
        let server = Server::bind(
            ServeConfig {
                tenant_rps: 1,
                tenant_burst: 1,
                ..small_config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.addr();
        // Same tenant twice, pipelined: burst of 1 admits the first,
        // rejects the second.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            s,
            "GET /v1/models HTTP/1.1\r\nx-tenant: acme\r\n\r\nGET /v1/models HTTP/1.1\r\nx-tenant: acme\r\nconnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("HTTP/1.1 200 OK"), "{buf}");
        assert!(buf.contains("HTTP/1.1 429 "), "{buf}");
        assert!(buf.contains("\"code\":\"rate_limited\""), "{buf}");
        // A different tenant has its own bucket.
        let mut s2 = TcpStream::connect(addr).unwrap();
        s2.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            s2,
            "GET /v1/models HTTP/1.1\r\nx-tenant: globex\r\nconnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf2 = String::new();
        s2.read_to_string(&mut buf2).unwrap();
        assert!(buf2.starts_with("HTTP/1.1 200 OK"), "{buf2}");
        // Non-/v1/ routes are never rate limited.
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(server.state().metrics.rate_limited.get() >= 1);
        server.shutdown();
    }
}
