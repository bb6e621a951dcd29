//! The TCP server: a listener + worker thread pool in front of the
//! service actor.
//!
//! Thread layout (all inside one `crossbeam::thread::scope`, itself
//! inside a single owning `std::thread`):
//!
//! ```text
//!             accept loop (non-blocking poll)  ── also the admission
//!                  │ TcpStream                    tick every poll
//!                  ▼
//!            ConnQueue (Mutex + Condvar, bounded)
//!        ┌────────┼────────┐
//!        ▼        ▼        ▼
//!     worker 0 worker 1 … worker N-1      ── frame I/O, decode,
//!        │        │        │                 validation, encode, and
//!        └───────►┴◄───────┘                 the command itself
//!           Mutex<ServiceActor>           ── owns DurableArrangementService,
//!                                            strictly sequential rounds
//! ```
//!
//! A worker runs each decoded command on its own thread under the
//! actor's lock and writes the reply straight back. It blocks only when
//! the reply is deferred — a parked `CLAIM`, a buffered future-round
//! `PROPOSE`, or a `FEEDBACK_OK` waiting for the commit watermark — and
//! then waits on its connection's reply channel, which the grant path
//! or the commit syncer's ack flush feeds.
//!
//! Each worker serves one connection at a time for that connection's
//! whole life; connections beyond the pool wait in the queue (and
//! beyond the queue, are refused at accept). Reads are polled with a
//! short timeout so every worker notices shutdown, enforces the idle
//! and mid-frame read deadlines, and still blocks cheaply when quiet.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fasea_store::{parse_raw_frame, write_raw_frame, FrameParse};

use crate::actor::{CloseReport, Command, ServiceActor};
use crate::backend::BackendService;
use crate::metrics::Metrics;
use crate::proto::{
    decode_request, encode_response, ErrorCode, Request, Response, CLIENT_MAGIC, PROTOCOL_VERSION,
};

/// Tunables for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Claim queue depth before `Overloaded` is returned.
    pub max_inflight: usize,
    /// Accepted-but-unserved connections held before refusing more.
    pub conn_backlog: usize,
    /// Deadline for completing a frame once its first byte arrives.
    pub read_timeout: Duration,
    /// Close a connection after this long with no complete frame.
    pub idle_timeout: Duration,
    /// How long a worker waits for a deferred reply (covers the
    /// parked-claim wait).
    pub claim_wait_timeout: Duration,
    /// Poll granularity for non-blocking accept, the admission tick
    /// and timed reads.
    pub poll_interval: Duration,
    /// Period of the operational log line (`None` disables it).
    pub stats_interval: Option<Duration>,
    /// Request a service snapshot every this many completed rounds
    /// (`None` disables periodic snapshots; the close-time snapshot
    /// always happens). The snapshot runs on the background
    /// snapshotter and does not stall the round loop.
    pub snapshot_every_rounds: Option<u64>,
    /// Event lifecycle schedule: capacity re-plans the actor applies
    /// (and durably logs) before granting the matching round. Empty by
    /// default. Clients driving a local verification replica must use
    /// the same schedule to stay byte-identical.
    pub churn: fasea_core::ChurnSchedule,
    /// Maximum concurrently granted rounds (grant-ahead admission).
    /// 1 (the default) is strictly sequential; higher depths overlap
    /// future rounds' network turnaround with the head round while
    /// keeping the WAL bit-equal to depth 1 — see the actor docs.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_inflight: 64,
            conn_backlog: 128,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            claim_wait_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            stats_interval: Some(Duration::from_secs(10)),
            snapshot_every_rounds: None,
            churn: fasea_core::ChurnSchedule::none(),
            pipeline_depth: 1,
        }
    }
}

/// What [`ServerHandle::join`] returns after a full drain.
pub struct ServeReport {
    /// The actor's close report (rounds, final snapshot, close error).
    pub close: CloseReport,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::initiate_shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    thread: std::thread::JoinHandle<ServeReport>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Raises the shutdown flag: the listener stops accepting, parked
    /// claims are refused, in-flight rounds drain, the WAL is synced
    /// and snapshotted. Idempotent; also raised by the `SHUTDOWN` verb.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested (by this handle, the
    /// `SHUTDOWN` verb, or a fatal store error).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server has fully drained and closed the
    /// service.
    ///
    /// # Panics
    /// If a server thread panicked.
    pub fn join(self) -> ServeReport {
        self.thread.join().expect("server thread panicked")
    }
}

/// Bounded handoff queue between the accept loop and the workers.
struct ConnQueue {
    inner: Mutex<ConnQueueState>,
    cv: Condvar,
    capacity: usize,
}

struct ConnQueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(ConnQueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a connection; `false` means full or closed (caller
    /// drops the stream, i.e. refuses the connection).
    fn push(&self, stream: TcpStream) -> bool {
        let mut st = self.inner.lock().unwrap();
        if st.closed || st.conns.len() >= self.capacity {
            return false;
        }
        st.conns.push_back(stream);
        self.cv.notify_one();
        true
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(stream) = st.conns.pop_front() {
                return Some(stream);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn close(&self) {
        let mut st = self.inner.lock().unwrap();
        st.closed = true;
        st.conns.clear();
        self.cv.notify_all();
    }
}

/// The FASEA network server.
pub struct Server;

impl Server {
    /// Binds `addr`, takes ownership of `svc`, and spawns the serving
    /// threads. Returns once the listener is bound — rounds served so
    /// far and the final state are reported by [`ServerHandle::join`].
    ///
    /// # Errors
    /// Any socket-level failure binding the listener.
    pub fn spawn<A: ToSocketAddrs>(
        svc: impl Into<BackendService>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let svc = svc.into();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("fasea-serve".into())
                .spawn(move || run_server(listener, svc, config, metrics, shutdown))?
        };
        Ok(ServerHandle {
            local_addr,
            shutdown,
            metrics,
            thread,
        })
    }
}

fn run_server(
    listener: TcpListener,
    svc: BackendService,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
) -> ServeReport {
    let actor = Mutex::new(ServiceActor::new(
        svc,
        Arc::clone(&metrics),
        Arc::clone(&shutdown),
        config.max_inflight,
        config.pipeline_depth,
        config.snapshot_every_rounds,
        config.churn.clone(),
    ));
    let queue = ConnQueue::new(config.conn_backlog);
    let conn_ids = AtomicU64::new(1);

    crossbeam::thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            let actor = &actor;
            let queue = &queue;
            let conn_ids = &conn_ids;
            let config = &config;
            let metrics = &metrics;
            let shutdown = &shutdown;
            s.spawn(move |_| {
                while let Some(stream) = queue.pop() {
                    let conn = conn_ids.fetch_add(1, Ordering::Relaxed);
                    serve_connection(stream, conn, actor, config, metrics, shutdown);
                    lock(actor).disconnect(conn);
                    metrics.connections_closed.incr();
                }
            });
        }

        // Accept loop, on the scope's own closure thread.
        let mut last_stats = Instant::now();
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    metrics.connections_opened.incr();
                    if !queue.push(stream) {
                        // Dropping the stream closes it: backlog full.
                        metrics.connections_closed.incr();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.poll_interval);
                }
                Err(_) => std::thread::sleep(config.poll_interval),
            }
            lock(&actor).tick();
            if let Some(interval) = config.stats_interval {
                if last_stats.elapsed() >= interval {
                    eprintln!("[fasea-serve] {}", metrics.log_line());
                    last_stats = Instant::now();
                }
            }
        }
        queue.close();
        // Draining from here: refuse every parked claim (a claim
        // arriving later is refused on the spot).
        lock(&actor).tick();
    })
    .expect("server scope panicked");
    let actor = actor.into_inner().expect("service actor poisoned");
    ServeReport {
        close: actor.close(),
    }
}

fn lock(actor: &Mutex<ServiceActor>) -> std::sync::MutexGuard<'_, ServiceActor> {
    actor.lock().expect("service actor poisoned")
}

/// Per-session state tracked by the worker.
struct Session {
    conn: u64,
    /// Whether this session currently owns the in-flight round (set by
    /// `CLAIMED`, cleared by `FEEDBACK_OK` / `RELEASE_OK`).
    owns_round: bool,
    /// Deferred replies for this session arrive here; the sender half
    /// rides each command that may defer.
    reply_tx: Sender<Response>,
    reply_rx: Receiver<Response>,
}

enum After {
    Continue,
    Close,
}

fn serve_connection(
    mut stream: TcpStream,
    conn: u64,
    actor: &Mutex<ServiceActor>,
    config: &ServerConfig,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) {
    if stream.set_read_timeout(Some(config.poll_interval)).is_err()
        || stream.set_write_timeout(Some(config.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut session = Session {
        conn,
        owns_round: false,
        reply_tx,
        reply_rx,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut tmp = [0u8; 8192];
    let mut last_frame = Instant::now();
    let mut frame_started: Option<Instant> = None;

    loop {
        // Drain complete frames already buffered.
        let decode_started = Instant::now();
        match parse_raw_frame(&buf) {
            FrameParse::Frame { payload, consumed } => {
                metrics.decode_us.observe(decode_started.elapsed());
                let after = handle_payload(
                    &payload,
                    &mut stream,
                    &mut session,
                    actor,
                    config,
                    metrics,
                    shutdown,
                );
                buf.drain(..consumed);
                last_frame = Instant::now();
                frame_started = if buf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                match after {
                    After::Continue => continue,
                    After::Close => return,
                }
            }
            FrameParse::Bad { why } => {
                metrics.decode_errors.incr();
                metrics.protocol_errors.incr();
                // The byte stream is desynchronised — answer once,
                // typed, then hang up.
                let _ = send_response(
                    &mut stream,
                    0,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        detail: why.to_string(),
                    },
                );
                return;
            }
            FrameParse::NeedMore => {}
        }

        if shutdown.load(Ordering::SeqCst) && !session.owns_round && buf.is_empty() {
            return;
        }

        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                buf.extend_from_slice(&tmp[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(started) = frame_started {
                    if started.elapsed() >= config.read_timeout {
                        metrics.decode_errors.incr();
                        metrics.protocol_errors.incr();
                        let _ = send_response(
                            &mut stream,
                            0,
                            &Response::Error {
                                code: ErrorCode::BadFrame,
                                detail: "frame read timed out".into(),
                            },
                        );
                        return;
                    }
                }
                if last_frame.elapsed() >= config.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn handle_payload(
    payload: &[u8],
    stream: &mut TcpStream,
    session: &mut Session,
    actor: &Mutex<ServiceActor>,
    config: &ServerConfig,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) -> After {
    let (request_id, request) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(why) => {
            // The frame passed its checksum, so the stream is still
            // synchronised: answer typed and keep the session.
            metrics.decode_errors.incr();
            metrics.protocol_errors.incr();
            return match send_response(
                stream,
                0,
                &Response::Error {
                    code: ErrorCode::BadFrame,
                    detail: why.to_string(),
                },
            ) {
                Ok(()) => After::Continue,
                Err(_) => After::Close,
            };
        }
    };
    metrics.requests.incr();

    // HELLO is validated here; everything else is the actor's business.
    if let Request::Hello { magic, version } = request {
        if magic != CLIENT_MAGIC || version != PROTOCOL_VERSION {
            metrics.protocol_errors.incr();
            let resp = Response::Error {
                code: ErrorCode::BadHello,
                detail: format!(
                    "magic={magic:#010x} version={version} (want {CLIENT_MAGIC:#010x} v{PROTOCOL_VERSION})"
                ),
            };
            return match send_response(stream, request_id, &resp) {
                Ok(()) => After::Continue,
                Err(_) => After::Close,
            };
        }
    }
    if shutdown.load(Ordering::SeqCst) && matches!(request, Request::Claim) {
        metrics.protocol_errors.incr();
        let resp = Response::Error {
            code: ErrorCode::ShuttingDown,
            detail: "server is draining".into(),
        };
        return match send_response(stream, request_id, &resp) {
            Ok(()) => After::Continue,
            Err(_) => After::Close,
        };
    }

    let conn = session.conn;
    let reply = || session.reply_tx.clone();
    let command = match request {
        Request::Hello { .. } => Command::Hello,
        Request::Claim => Command::Claim {
            conn,
            enqueued: Instant::now(),
            reply: reply(),
        },
        Request::Propose {
            user_capacity,
            num_events,
            dim,
            contexts,
        } => Command::Propose {
            conn,
            user_capacity,
            num_events,
            dim,
            contexts,
            reply: reply(),
        },
        Request::Feedback { accepts } => Command::Feedback {
            conn,
            accepts,
            reply: reply(),
        },
        Request::Release => Command::Release { conn },
        Request::Stats => Command::Stats,
        Request::Shutdown => Command::Shutdown,
    };
    let immediate = lock(actor).handle(command);
    let response = match immediate {
        Some(resp) => resp,
        None => match session.reply_rx.recv_timeout(config.claim_wait_timeout) {
            Ok(resp) => resp,
            Err(_) => {
                // The claim outlived its patience budget. Closing
                // disconnects the session, which reclaims anything
                // granted to us after we stopped waiting.
                let _ = send_response(
                    stream,
                    request_id,
                    &Response::Error {
                        code: ErrorCode::Internal,
                        detail: "request timed out inside the server".into(),
                    },
                );
                return After::Close;
            }
        },
    };
    match &response {
        Response::Claimed { .. } => session.owns_round = true,
        Response::FeedbackOk { .. } | Response::ReleaseOk => session.owns_round = false,
        _ => {}
    }
    match send_response(stream, request_id, &response) {
        Ok(()) => After::Continue,
        Err(_) => After::Close,
    }
}

/// Encodes `response` and writes it as one frame in one write.
fn send_response<W: Write>(stream: &mut W, request_id: u64, response: &Response) -> io::Result<()> {
    let payload = encode_response(request_id, response);
    write_raw_frame(stream, &payload)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::decode_response;
    use fasea_store::CountingWriter;

    #[test]
    fn a_reply_reaches_the_socket_in_one_write() {
        let responses = [
            Response::Proposed {
                t: 4,
                arrangement: (0..40).collect(),
            },
            Response::FeedbackOk { t: 4, reward: 3 },
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: "claim queue full".into(),
            },
        ];
        for (id, response) in responses.iter().enumerate() {
            let mut sink = CountingWriter::new(Vec::new());
            send_response(&mut sink, id as u64, response).unwrap();
            assert_eq!(sink.calls(), 1, "{response:?}");
            let FrameParse::Frame { payload, consumed } = parse_raw_frame(sink.get_ref()) else {
                panic!("reply is not one whole frame");
            };
            assert_eq!(consumed, sink.get_ref().len());
            assert_eq!(
                decode_response(&payload).unwrap(),
                (id as u64, response.clone())
            );
        }
    }
}
