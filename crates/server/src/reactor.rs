//! Event-driven reactor front end: a nonblocking epoll/poll loop
//! serving the same wire protocol as [`crate::wire`] without a thread
//! per connection.
//!
//! The threaded front end costs two OS threads per connection, so
//! concurrency is bounded by thread count rather than solver
//! throughput; ten thousand mostly idle clients would burn gigabytes of
//! stacks doing nothing. The reactor inverts the shape: **N event-loop
//! threads** (default 1) own all sockets via a [`polling::Poller`]
//! (epoll on Linux, `poll(2)` fallback), and each connection is a small
//! state machine — a read buffer feeding the incremental
//! [`crate::proto::Decoder`], and a write buffer flushed on writable
//! readiness. An idle connection costs one registered fd and a few
//! hundred bytes; *all* per-tenant quota, registry, and drain semantics
//! come from the shared `session::SessionCore`, so the two
//! front ends cannot diverge on protocol behaviour (property-tested:
//! report frames are byte-identical across front ends and worker
//! counts).
//!
//! # Completion wakeups
//!
//! Job completions are delivered by the worker thread through the
//! session hook: the encoded report frame is pushed into the owning
//! loop's inbox and the loop is woken through the poller's
//! eventfd/pipe notifier — no per-connection or per-job thread
//! anywhere. Cancelled jobs deliver no frame (the wire contract:
//! **a cancelled job never streams a report**).
//!
//! # Backpressure
//!
//! Two mechanisms replace the threaded front end's "block the
//! connection thread":
//!
//! - a full worker queue **parks** the (already admitted) submit inside
//!   the loop and retries as completions free capacity — the client
//!   sees `submitted` and a `queued` status, never a stalled loop;
//! - a peer that stops reading while reports pile up grows its write
//!   buffer until [`ReactorConfig::max_write_buffer`], at which point
//!   the connection is dropped (a slow consumer must not hold frame
//!   memory hostage).
//!
//! # Shutdown
//!
//! [`ReactorServer::shutdown`] mirrors the threaded drain: submits are
//! rejected with the typed `Draining` error while in-flight jobs run to
//! terminal states, every pending report frame is flushed (bounded by a
//! five-second deadline against stuck peers), and only then do the
//! loops, connections, and worker pool tear down.

use crate::proto::{
    self, Decoder, ErrorCode, FrontendKind, ProtoError, Request, Response, WireStats,
};
use crate::session::{
    DeliverFn, ParkedSubmit, ProblemSubmission, SessionCore, SubmitDisposition, WireConfig,
};
use crate::{faultinject, lock_unpoisoned};
use polling::{BackendKind, Event, Poller};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Sizing and policy knobs of a [`ReactorServer`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Session policy shared with the threaded front end (worker pool,
    /// quotas, connection cap).
    pub wire: WireConfig,
    /// Event-loop threads. Loop 0 owns the listener; accepted
    /// connections are distributed round-robin across all loops.
    pub loops: usize,
    /// Per-connection cap on buffered unsent bytes; a peer that lets
    /// its write buffer exceed this (by not reading) is disconnected.
    pub max_write_buffer: usize,
    /// Force the portable `poll(2)` backend instead of epoll (testing
    /// and debugging).
    pub poll_backend: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            wire: WireConfig::default(),
            loops: 1,
            max_write_buffer: 8 << 20,
            poll_backend: false,
        }
    }
}

/// Poller key of loop 0's listener; connection keys are
/// `slab index + FIRST_CONN_KEY`.
const KEY_LISTENER: usize = 0;
const FIRST_CONN_KEY: usize = 1;

/// How long a draining loop keeps retrying flushes to peers that have
/// stopped reading before force-closing them.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// A finished job routed back to its loop: the encoded terminal frame
/// — a report, or a typed `JobFailed` for failed/deadline-exceeded
/// jobs (`None` for cancelled ones) — addressed to a connection slot.
struct Completion {
    conn: usize,
    generation: u64,
    frame: Option<Vec<u8>>,
}

#[derive(Default)]
struct Inbox {
    /// Connections accepted by loop 0 and assigned to this loop.
    new_conns: Vec<TcpStream>,
    /// Completions delivered by worker threads.
    completions: Vec<Completion>,
    /// Set once by shutdown after the session has drained.
    exit: bool,
}

/// The cross-thread surface of one event loop: its poller (for
/// notification) and its inbox.
struct LoopShared {
    poller: Poller,
    inbox: Mutex<Inbox>,
    /// Jobs admitted on this loop whose completion has not yet been
    /// pushed into the inbox; the exit check waits for zero so no
    /// report frame can be lost in the worker→loop handoff.
    pending_jobs: AtomicUsize,
}

/// Increments a loop's pending-job count for exactly as long as the
/// matching deliver callback is outstanding — decremented (with a
/// wakeup) whether the callback fires or is dropped unfired, so the
/// drain accounting can never leak.
struct PendingGuard(Arc<LoopShared>);

impl PendingGuard {
    fn new(shared: Arc<LoopShared>) -> PendingGuard {
        shared.pending_jobs.fetch_add(1, Ordering::AcqRel);
        PendingGuard(shared)
    }
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.0.pending_jobs.fetch_sub(1, Ordering::AcqRel);
        let _ = self.0.poller.notify();
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: a frame addressed to a
    /// recycled index is discarded unless the generation matches.
    generation: u64,
    decoder: Decoder,
    /// Encoded-but-unsent bytes (`out[out_pos..]` is pending).
    out: Vec<u8>,
    out_pos: usize,
    /// (read, write) interest currently registered with the poller.
    registered: (bool, bool),
    /// Peer closed its write side; serve queued output, accept no new
    /// requests, close once outstanding jobs finish.
    read_eof: bool,
    /// Fatal protocol desync: flush queued output, then close.
    closing: bool,
    /// Jobs admitted on this connection and not yet completion-routed.
    jobs_outstanding: usize,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The reactor front end; see the module docs.
pub struct ReactorServer {
    core: Arc<SessionCore>,
    local_addr: SocketAddr,
    loops: Vec<(Arc<LoopShared>, thread::JoinHandle<()>)>,
    down: bool,
}

impl ReactorServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// event loops; the backing worker pool boots immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.loops` is zero.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ReactorConfig,
    ) -> std::io::Result<ReactorServer> {
        assert!(config.loops > 0, "need at least one event loop");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = SessionCore::new(config.wire, FrontendKind::Reactor);
        let backend = if config.poll_backend {
            BackendKind::Poll
        } else {
            BackendKind::Epoll
        };
        let shareds: Vec<Arc<LoopShared>> = (0..config.loops)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    poller: Poller::with_backend(backend)?,
                    inbox: Mutex::new(Inbox::default()),
                    pending_jobs: AtomicUsize::new(0),
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let mut loops = Vec::with_capacity(config.loops);
        // Loop 0 takes ownership of the listener itself — registering a
        // clone's fd would leave the poll backend watching a raw fd
        // number that gets recycled once the original drops.
        let mut listener = Some(listener);
        for (i, shared) in shareds.iter().enumerate() {
            let event_loop = EventLoop {
                core: Arc::clone(&core),
                shared: Arc::clone(shared),
                peers: shareds.clone(),
                listener: if i == 0 {
                    let listener = listener.take().expect("loop 0 takes the listener");
                    shared
                        .poller
                        .add(listener.as_raw_fd(), Event::readable(KEY_LISTENER))?;
                    Some(listener)
                } else {
                    None
                },
                slab: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
                parked: Vec::new(),
                rr: 0,
                max_wbuf: config.max_write_buffer,
                exiting: false,
                exit_deadline: None,
            };
            let handle = thread::Builder::new()
                .name(format!("msropm-reactor-{i}"))
                .spawn(move || event_loop.run())
                .expect("spawn reactor loop");
            loops.push((Arc::clone(shared), handle));
        }
        Ok(ReactorServer {
            core,
            local_addr,
            loops,
            down: false,
        })
    }

    /// The bound address (reports the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current server-wide counters (the `stats` verb's payload).
    pub fn stats(&self) -> WireStats {
        self.core.wire_stats()
    }

    /// Report frames actually handed to a connection's write buffer.
    pub fn reports_streamed(&self) -> u64 {
        self.core.reports_streamed()
    }

    /// Graceful drain; see the module docs.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.core.begin_drain();
        // All jobs terminal ⇒ every completion hook has run; each loop's
        // pending counter lets the loop itself wait out the tiny window
        // between a hook releasing the quota slot and pushing its frame.
        self.core.await_drained();
        for (shared, _) in &self.loops {
            lock_unpoisoned(&shared.inbox).exit = true;
            let _ = shared.poller.notify();
        }
        for (_, handle) in self.loops.drain(..) {
            let _ = handle.join();
        }
        // The JobServer drains and joins its workers when the last
        // Arc<SessionCore> drops.
    }
}

impl Drop for ReactorServer {
    /// Dropping the front end performs the same graceful drain as
    /// [`ReactorServer::shutdown`].
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One event loop's full state; `run` is the thread body.
struct EventLoop {
    core: Arc<SessionCore>,
    shared: Arc<LoopShared>,
    /// Every loop of the reactor, in index order (round-robin targets;
    /// only loop 0, the listener owner, actually assigns).
    peers: Vec<Arc<LoopShared>>,
    listener: Option<TcpListener>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    parked: Vec<ParkedSubmit>,
    rr: usize,
    max_wbuf: usize,
    exiting: bool,
    exit_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if !self.parked.is_empty() {
                // A parked submit can also become enqueueable when a
                // worker *picks up* a job (which signals nothing), so
                // poll on a short tick rather than relying purely on
                // completion wakeups.
                Some(Duration::from_millis(10))
            } else if self.exiting {
                Some(Duration::from_millis(20))
            } else {
                None
            };
            if self.shared.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable; drop every
                // connection rather than spin.
                break;
            }
            self.handle_inbox();
            for &ev in &events {
                if ev.key == KEY_LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_event(ev);
                }
            }
            self.retry_parked();
            if self.exiting && self.ready_to_exit() {
                break;
            }
        }
        self.teardown();
    }

    /// Drains the cross-thread inbox: adopt assigned connections,
    /// route completions, observe the exit flag.
    fn handle_inbox(&mut self) {
        let (new_conns, completions, exit) = {
            let mut inbox = lock_unpoisoned(&self.shared.inbox);
            (
                std::mem::take(&mut inbox.new_conns),
                std::mem::take(&mut inbox.completions),
                inbox.exit,
            )
        };
        if exit && !self.exiting {
            self.exiting = true;
            self.exit_deadline = Some(Instant::now() + DRAIN_FLUSH_DEADLINE);
            // Stop accepting: unregister and drop the listener.
            if let Some(listener) = self.listener.take() {
                let _ = self.shared.poller.delete(listener.as_raw_fd());
            }
        }
        for stream in new_conns {
            if self.exiting {
                // Adopted after the drain finished: nothing left to
                // serve them with.
                self.core.connection_closed();
                continue;
            }
            self.register(stream);
        }
        for completion in completions {
            self.route_completion(completion);
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.core.at_connection_cap() {
                        // Over the cap: one typed error frame
                        // (best-effort, the stream is still blocking),
                        // then close.
                        let frame = proto::encode_response(&Response::Error {
                            code: ErrorCode::Busy,
                            message: "connection cap reached".into(),
                        });
                        let mut out = Vec::new();
                        let _ = proto::write_frame(&mut out, &frame);
                        let _ = (&stream).write_all(&out);
                        continue;
                    }
                    self.core.connection_opened();
                    let _ = stream.set_nodelay(true);
                    // Round-robin across loops; local assignment skips
                    // the inbox.
                    let target = self.rr % self.peers.len();
                    self.rr = self.rr.wrapping_add(1);
                    if Arc::ptr_eq(&self.peers[target], &self.shared) {
                        self.register(stream);
                    } else {
                        let peer = &self.peers[target];
                        lock_unpoisoned(&peer.inbox).new_conns.push(stream);
                        let _ = peer.poller.notify();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Installs an accepted connection into the slab and poller.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.core.connection_closed();
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.next_gen += 1;
        let key = idx + FIRST_CONN_KEY;
        if self
            .shared
            .poller
            .add(stream.as_raw_fd(), Event::readable(key))
            .is_err()
        {
            self.free.push(idx);
            self.core.connection_closed();
            return;
        }
        self.slab[idx] = Some(Conn {
            stream,
            generation: self.next_gen,
            decoder: Decoder::new(),
            out: Vec::new(),
            out_pos: 0,
            registered: (true, false),
            read_eof: false,
            closing: false,
            jobs_outstanding: 0,
        });
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slab.get_mut(idx).and_then(Option::as_mut)
    }

    /// Fully closes a connection: poller deregistration, slot recycle,
    /// live-connection accounting. Late completions for it are dropped
    /// by the generation check.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.core.connection_closed();
        }
    }

    /// Dispatches one readiness event for a connection slot.
    fn conn_event(&mut self, ev: Event) {
        let idx = ev.key - FIRST_CONN_KEY;
        let Some(conn) = self.conn_mut(idx) else {
            // Stale event for a slot closed earlier in this batch.
            return;
        };
        if conn.registered == (false, false) {
            // Error/hang-up conditions bypass the interest mask
            // (level-triggered), so an event for a connection with no
            // registered interest can only mean the peer reset a
            // half-closed socket. There is nothing to read or flush —
            // close it, or this event would re-fire every wait and spin
            // the loop until the outstanding job finished (its late
            // completion is discarded by the generation check).
            self.close(idx);
            return;
        }
        if ev.writable {
            self.flush(idx);
        }
        let readable = ev.readable
            && self
                .conn_mut(idx)
                .is_some_and(|conn| !conn.read_eof && !conn.closing);
        if readable {
            self.conn_read(idx);
        }
        self.maybe_close(idx);
        self.update_interest(idx);
    }

    /// Reads until the socket would block, feeding the frame decoder.
    fn conn_read(&mut self, idx: usize) {
        let mut buf = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    // Peer closed its write side. Mirror the threaded
                    // front end: keep the connection alive to stream
                    // reports of its outstanding jobs, then close.
                    conn.read_eof = true;
                    return;
                }
                Ok(n) => {
                    conn.decoder.push(&buf[..n]);
                    if !self.drain_frames(idx) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Pulls every complete frame out of the decoder; `false` once the
    /// connection should stop being read (closed or desynced).
    fn drain_frames(&mut self, idx: usize) -> bool {
        loop {
            let step = {
                let Some(conn) = self.conn_mut(idx) else {
                    return false;
                };
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => Ok(payload),
                    Ok(None) => return true,
                    Err(e) => {
                        // Framing desync (oversized header): typed
                        // error, flush, close — same as the threaded
                        // front end dropping the connection.
                        conn.closing = true;
                        Err(e)
                    }
                }
            };
            match step {
                Ok(payload) => {
                    self.process_frame(idx, &payload);
                    if self.conn_mut(idx).is_none() {
                        return false;
                    }
                }
                Err(e) => {
                    self.queue_response(
                        idx,
                        &Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                    );
                    return false;
                }
            }
        }
    }

    /// Decodes and dispatches one request frame.
    fn process_frame(&mut self, idx: usize, payload: &[u8]) {
        match proto::decode_request(payload) {
            Ok(Request::Submit {
                tenant,
                graph,
                job,
                deadline_ms,
            }) => self.submit(idx, tenant, graph, job, deadline_ms),
            Ok(Request::SubmitProblem {
                tenant,
                spec,
                config,
                replicas,
                seed,
                deadline_ms,
            }) => self.submit_problem(
                idx,
                ProblemSubmission {
                    tenant,
                    spec,
                    config,
                    replicas,
                    seed,
                    deadline_ms,
                },
            ),
            Ok(req) => {
                let resp = self
                    .core
                    .handle_control(&req)
                    .expect("non-submit requests are control verbs");
                self.queue_response(idx, &resp);
            }
            Err(ProtoError::BadTag(t)) => self.queue_response(
                idx,
                &Response::Error {
                    code: ErrorCode::UnsupportedVerb,
                    message: format!("unknown frame type 0x{t:02X}"),
                },
            ),
            Err(e) => self.queue_response(
                idx,
                &Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                },
            ),
        }
    }

    /// Nonblocking submit: admitted jobs deliver their report through
    /// this loop's inbox; a full worker queue parks the job here.
    fn submit(
        &mut self,
        idx: usize,
        tenant: String,
        graph: msropm_graph::Graph,
        job: msropm_core::BatchJob,
        deadline_ms: u64,
    ) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let generation = conn.generation;
        let guard = PendingGuard::new(Arc::clone(&self.shared));
        let shared = Arc::clone(&self.shared);
        let deliver: DeliverFn = Box::new(move |_core, _job_id, frame| {
            lock_unpoisoned(&shared.inbox).completions.push(Completion {
                conn: idx,
                generation,
                frame,
            });
            // The guard's drop decrements the pending count and wakes
            // the loop *after* the completion is visible in the inbox.
            drop(guard);
        });
        let disposition = self
            .core
            .submit_nonblocking(tenant, graph, job, deadline_ms, deliver);
        self.finish_submit(idx, disposition);
    }

    /// Nonblocking problem submit: the spec is compiled at admission
    /// (an unsupported spec answers with a request-scoped error) and
    /// its report decoded at completion; queue handling is identical to
    /// a plain [`Self::submit`].
    fn submit_problem(&mut self, idx: usize, sub: ProblemSubmission) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let generation = conn.generation;
        let guard = PendingGuard::new(Arc::clone(&self.shared));
        let shared = Arc::clone(&self.shared);
        let deliver: DeliverFn = Box::new(move |_core, _job_id, frame| {
            lock_unpoisoned(&shared.inbox).completions.push(Completion {
                conn: idx,
                generation,
                frame,
            });
            drop(guard);
        });
        let disposition = self.core.submit_problem_nonblocking(sub, deliver);
        self.finish_submit(idx, disposition);
    }

    /// Applies a submit disposition: count an accepted job against the
    /// connection, park a queue-full admission for retry, and queue the
    /// reply frame either way.
    fn finish_submit(&mut self, idx: usize, disposition: SubmitDisposition) {
        match disposition {
            SubmitDisposition::Reply(resp) => {
                if matches!(resp, Response::Submitted { .. }) {
                    if let Some(conn) = self.conn_mut(idx) {
                        conn.jobs_outstanding += 1;
                    }
                }
                self.queue_response(idx, &resp);
            }
            SubmitDisposition::Parked(parked, resp) => {
                self.parked.push(parked);
                if let Some(conn) = self.conn_mut(idx) {
                    conn.jobs_outstanding += 1;
                }
                self.queue_response(idx, &resp);
            }
        }
    }

    /// Retries parked submits; keeps whatever is still blocked on a
    /// full queue.
    fn retry_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            if let Some(still) = self.core.retry_parked(p) {
                self.parked.push(still);
            }
        }
    }

    /// Routes one completed job back to its connection.
    fn route_completion(&mut self, completion: Completion) {
        let Some(conn) = self.conn_mut(completion.conn) else {
            return;
        };
        if conn.generation != completion.generation {
            // The slot was recycled; the original peer is gone and the
            // frame is dropped, matching the threaded front end's
            // silent drain to a dead writer.
            return;
        }
        conn.jobs_outstanding = conn.jobs_outstanding.saturating_sub(1);
        if let Some(frame) = completion.frame {
            let is_report = proto::is_report_frame(&frame);
            if self.queue_bytes(completion.conn, &frame) && is_report {
                self.core.note_report_streamed();
            }
        }
        self.maybe_close(completion.conn);
        self.update_interest(completion.conn);
    }

    /// Encodes and queues a response frame.
    fn queue_response(&mut self, idx: usize, resp: &Response) {
        let frame = proto::encode_response(resp);
        self.queue_bytes(idx, &frame);
        self.update_interest(idx);
    }

    /// Frames `payload` into the connection's write buffer and flushes
    /// opportunistically. Returns `false` when the connection is gone
    /// (dead peer or slow-consumer overflow).
    fn queue_bytes(&mut self, idx: usize, payload: &[u8]) -> bool {
        {
            let Some(conn) = self.conn_mut(idx) else {
                return false;
            };
            if proto::write_frame(&mut conn.out, payload).is_err() {
                // Only possible for an oversized payload we built
                // ourselves; drop the connection rather than desync it.
                self.close(idx);
                return false;
            }
        }
        self.flush(idx);
        let Some(conn) = self.conn_mut(idx) else {
            return false;
        };
        if conn.pending_out() > self.max_wbuf {
            // Slow consumer: the peer stopped reading while frames
            // piled up. Drop it instead of holding the memory.
            self.close(idx);
            return false;
        }
        true
    }

    /// Writes pending output until empty or the socket would block.
    /// Each write attempt passes through the fault-injection socket
    /// points (a single relaxed load each when disarmed): armed
    /// short-writes cap the attempt at a few bytes, and a fired sever
    /// countdown shuts the connection down mid-stream instead.
    fn flush(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            if faultinject::should_sever_write() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.close(idx);
                return;
            }
            let cap = faultinject::short_write_cap(conn.out.len() - conn.out_pos);
            match (&conn.stream).write(&conn.out[conn.out_pos..conn.out_pos + cap]) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 << 10 {
            // Reclaim the flushed prefix of a large buffer.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Closes a connection that has finished its useful life: a desync
    /// flushes-then-closes; a half-closed peer closes once its
    /// outstanding jobs have reported and flushed.
    fn maybe_close(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let drained = conn.pending_out() == 0;
        if (conn.closing && drained) || (conn.read_eof && drained && conn.jobs_outstanding == 0) {
            self.close(idx);
        }
    }

    /// Syncs the poller registration with what the state machine
    /// currently needs (read unless EOF/desync, write while output is
    /// pending).
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let want = (!conn.read_eof && !conn.closing, conn.pending_out() > 0);
        if want == conn.registered {
            return;
        }
        let key = idx + FIRST_CONN_KEY;
        let interest = Event {
            key,
            readable: want.0,
            writable: want.1,
        };
        let fd = conn.stream.as_raw_fd();
        if self.shared.poller.modify(fd, interest).is_ok() {
            if let Some(conn) = self.conn_mut(idx) {
                conn.registered = want;
            }
        } else {
            self.close(idx);
        }
    }

    /// True once a draining loop has nothing left to deliver: no parked
    /// submits, no in-flight completion handoffs, an empty inbox, and
    /// every write buffer flushed — or the flush deadline has passed.
    fn ready_to_exit(&self) -> bool {
        if self
            .exit_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return true;
        }
        if !self.parked.is_empty() {
            return false;
        }
        if self.shared.pending_jobs.load(Ordering::Acquire) != 0 {
            return false;
        }
        {
            let inbox = lock_unpoisoned(&self.shared.inbox);
            if !inbox.new_conns.is_empty() || !inbox.completions.is_empty() {
                return false;
            }
        }
        self.slab
            .iter()
            .flatten()
            .all(|conn| conn.pending_out() == 0)
    }

    /// Final teardown: close every connection and release the slab.
    fn teardown(&mut self) {
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request, read_frame, write_frame, WireReport};
    use crate::{JobState, ServerConfig};
    use msropm_core::{BatchJob, MsropmConfig};
    use msropm_graph::{generators, Graph};
    use std::io::{BufReader, Write};

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    fn small_job(replicas: usize, seed: u64) -> BatchJob {
        BatchJob::uniform(fast_config(), replicas, seed)
    }

    fn reactor(config: ReactorConfig) -> ReactorServer {
        ReactorServer::bind("127.0.0.1:0", config).expect("bind ephemeral port")
    }

    /// Minimal blocking test client speaking raw frames; out-of-order
    /// report frames are stashed, never dropped.
    struct RawClient {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
        stash: Vec<WireReport>,
    }

    impl RawClient {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            RawClient {
                stream,
                reader,
                stash: Vec::new(),
            }
        }

        fn send(&mut self, req: &Request) {
            let payload = encode_request(req);
            write_frame(&mut self.stream, &payload).expect("write frame");
            self.stream.flush().expect("flush");
        }

        fn recv(&mut self) -> Response {
            let payload = read_frame(&mut self.reader).expect("read frame");
            decode_response(&payload).expect("decode response")
        }

        /// Reads until a non-report frame arrives, stashing reports.
        fn recv_reply(&mut self) -> Response {
            loop {
                match self.recv() {
                    Response::Report(r) => self.stash.push(r),
                    other => return other,
                }
            }
        }

        fn submit(&mut self, tenant: &str, graph: &Graph, job: BatchJob) -> u64 {
            self.send(&Request::Submit {
                tenant: tenant.into(),
                graph: graph.clone(),
                job,
                deadline_ms: 0,
            });
            match self.recv_reply() {
                Response::Submitted { job_id } => job_id,
                other => panic!("expected Submitted, got {other:?}"),
            }
        }

        fn wait_report(&mut self, job_id: u64) -> WireReport {
            loop {
                if let Some(pos) = self.stash.iter().position(|r| r.job_id == job_id) {
                    return self.stash.remove(pos);
                }
                match self.recv() {
                    Response::Report(r) => self.stash.push(r),
                    other => panic!("expected report for {job_id}, got {other:?}"),
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }

    #[test]
    fn submit_streams_a_report_on_both_backends() {
        for poll_backend in [false, true] {
            let server = reactor(ReactorConfig {
                poll_backend,
                ..ReactorConfig::default()
            });
            let g = generators::kings_graph(4, 4);
            let mut c = RawClient::connect(server.local_addr());
            let job_id = c.submit("t", &g, small_job(4, 7));
            let report = c.wait_report(job_id);
            assert_eq!(report.graph_hash, msropm_graph::graph_hash(&g));
            assert_eq!(report.ranked.len(), 4);
            for lane in &report.ranked {
                assert_eq!(proto::verify_lane(&g, lane), Some(lane.conflicts));
            }
            let stats = server.stats();
            assert_eq!(stats.frontend, FrontendKind::Reactor);
            assert_eq!(stats.connections, 1);
            server.shutdown();
        }
    }

    #[test]
    fn full_worker_queue_parks_submits_instead_of_stalling() {
        // Queue capacity 1 with a single worker: a burst of 6 jobs can
        // only fit by parking, yet every submit must be admitted
        // immediately and every report must eventually stream.
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers: 1,
                    queue_capacity: 1,
                    cache_capacity: 4,
                    ..ServerConfig::default()
                },
                max_inflight_jobs: 16,
                max_queued_lanes: 1024,
                max_connections: 8,
            },
            ..ReactorConfig::default()
        });
        let g = generators::kings_graph(4, 4);
        let mut c = RawClient::connect(server.local_addr());
        let ids: Vec<u64> = (0..6).map(|i| c.submit("t", &g, small_job(2, i))).collect();
        // A parked job answers status (it is admitted and registered).
        for &id in &ids {
            c.send(&Request::Status {
                tenant: "t".into(),
                job_id: id,
            });
            match c.recv_reply() {
                Response::StatusReply { job_id, .. } => assert_eq!(job_id, id),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        for &id in &ids {
            let report = c.wait_report(id);
            assert_eq!(report.job_id, id);
        }
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_connections_cost_no_threads() {
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                max_connections: 256,
                ..WireConfig::default()
            },
            ..ReactorConfig::default()
        });
        let mut active = RawClient::connect(server.local_addr());
        let baseline = thread_count();
        let idle: Vec<TcpStream> = (0..128)
            .map(|_| TcpStream::connect(server.local_addr()).expect("idle connect"))
            .collect();
        // Wait until the reactor has registered them all.
        let g = generators::kings_graph(4, 4);
        let mut connections = 0;
        for _ in 0..200 {
            active.send(&Request::Stats);
            match active.recv_reply() {
                Response::StatsReply(s) => connections = s.connections,
                other => panic!("unexpected frame {other:?}"),
            }
            if connections >= 129 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            connections >= 129,
            "server must track all idle connections, saw {connections}"
        );
        // Idle connections must not have spawned threads (the threaded
        // front end would have added two per connection).
        let with_idle = thread_count();
        assert!(
            with_idle <= baseline + 2,
            "idle connections spawned threads: {baseline} -> {with_idle}"
        );
        // Traffic still flows with the idle fleet attached.
        let id = active.submit("t", &g, small_job(2, 1));
        let report = active.wait_report(id);
        assert_eq!(report.job_id, id);
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn multiple_loops_serve_connections_round_robin() {
        let server = reactor(ReactorConfig {
            loops: 3,
            ..ReactorConfig::default()
        });
        let g = generators::kings_graph(4, 4);
        // More connections than loops: every loop ends up owning some,
        // and each serves submits + reports independently.
        let mut clients: Vec<RawClient> = (0..7)
            .map(|_| RawClient::connect(server.local_addr()))
            .collect();
        let ids: Vec<u64> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| c.submit(&format!("t{i}"), &g, small_job(2, i as u64)))
            .collect();
        for (c, id) in clients.iter_mut().zip(ids) {
            let report = c.wait_report(id);
            assert_eq!(report.job_id, id);
        }
        server.shutdown();
    }

    #[test]
    fn tiny_writes_and_batched_frames_both_decode() {
        let server = reactor(ReactorConfig::default());
        let g = generators::kings_graph(4, 4);
        let mut c = RawClient::connect(server.local_addr());

        // One submit frame dribbled a byte at a time across many writes.
        let payload = encode_request(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 5),
            deadline_ms: 0,
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        for byte in framed {
            c.stream.write_all(&[byte]).expect("write byte");
            c.stream.flush().expect("flush byte");
        }
        let id = match c.recv() {
            Response::Submitted { job_id } => job_id,
            other => panic!("expected Submitted, got {other:?}"),
        };
        let report = c.wait_report(id);
        assert_eq!(report.job_id, id);

        // Two requests batched into one write: both answered.
        let mut batch = Vec::new();
        write_frame(&mut batch, &encode_request(&Request::Stats)).unwrap();
        write_frame(
            &mut batch,
            &encode_request(&Request::Status {
                tenant: "t".into(),
                job_id: id,
            }),
        )
        .unwrap();
        c.stream.write_all(&batch).expect("write batch");
        c.stream.flush().expect("flush batch");
        let mut saw_stats = false;
        let mut saw_status = false;
        while !(saw_stats && saw_status) {
            match c.recv() {
                Response::StatsReply(_) => saw_stats = true,
                Response::StatusReply { job_id, state } => {
                    assert_eq!(job_id, id);
                    assert_eq!(state, JobState::Done);
                    saw_status = true;
                }
                Response::Report(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_desync_closes() {
        let server = reactor(ReactorConfig::default());
        let mut c = RawClient::connect(server.local_addr());
        // Well-framed unknown verb: typed error, connection survives.
        write_frame(&mut c.stream, &[0x55, 1, 2, 3]).unwrap();
        c.stream.flush().unwrap();
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVerb),
            other => panic!("expected UnsupportedVerb, got {other:?}"),
        }
        c.send(&Request::Stats);
        match c.recv() {
            Response::StatsReply(_) => {}
            other => panic!("expected StatsReply, got {other:?}"),
        }
        // An oversized length prefix desyncs the stream: one Malformed
        // error frame, then the server closes the connection.
        c.stream
            .write_all(&(proto::MAX_FRAME_LEN + 1).to_le_bytes())
            .unwrap();
        c.stream.flush().unwrap();
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let eof = read_frame(&mut c.reader);
        assert!(eof.is_err(), "desynced connection must be closed");
        server.shutdown();
    }

    #[test]
    fn draining_rejects_submits_but_streams_inflight_reports() {
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers: 1,
                    queue_capacity: 8,
                    cache_capacity: 4,
                    ..ServerConfig::default()
                },
                ..WireConfig::default()
            },
            ..ReactorConfig::default()
        });
        // Long enough (~seconds on one worker) that the drain window is
        // wide open for the late submit below.
        let g = generators::kings_graph(10, 10);
        let mut c = RawClient::connect(server.local_addr());
        let job_id = c.submit("t", &g, small_job(32, 3));
        let drainer = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(100));
        c.send(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 99),
            deadline_ms: 0,
        });
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
            other => panic!("expected Draining rejection, got {other:?}"),
        }
        let report = c.wait_report(job_id);
        assert_eq!(report.job_id, job_id);
        drainer.join().expect("drain completes");
    }

    #[test]
    fn cancelled_jobs_never_stream_and_free_quota() {
        let server = reactor(ReactorConfig {
            wire: WireConfig {
                server: ServerConfig {
                    workers: 1,
                    queue_capacity: 8,
                    cache_capacity: 4,
                    ..ServerConfig::default()
                },
                max_inflight_jobs: 2,
                max_queued_lanes: 64,
                max_connections: 8,
            },
            ..ReactorConfig::default()
        });
        let g = generators::kings_graph(6, 6);
        let mut c = RawClient::connect(server.local_addr());
        let a = c.submit("t", &g, small_job(16, 1));
        let b = c.submit("t", &g, small_job(4, 2));
        // A third submit exceeds max_inflight_jobs = 2.
        c.send(&Request::Submit {
            tenant: "t".into(),
            graph: g.clone(),
            job: small_job(2, 3),
            deadline_ms: 0,
        });
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaInFlight),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        c.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        match c.recv_reply() {
            Response::CancelReply { job_id, .. } => assert_eq!(job_id, b),
            other => panic!("expected CancelReply, got {other:?}"),
        }
        let report = c.wait_report(a);
        assert_eq!(report.job_id, a);
        // B settles cancelled and its quota slot frees.
        let mut state = JobState::Queued;
        for _ in 0..200 {
            c.send(&Request::Status {
                tenant: "t".into(),
                job_id: b,
            });
            match c.recv() {
                Response::StatusReply { state: s, .. } => state = s,
                Response::Report(r) => panic!("cancelled job streamed a report: {r:?}"),
                other => panic!("unexpected frame {other:?}"),
            }
            if state == JobState::Cancelled {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(state, JobState::Cancelled);
        let c2 = c.submit("t", &g, small_job(2, 4));
        let report = c.wait_report(c2);
        assert_eq!(report.job_id, c2);
        server.shutdown();
    }
}
