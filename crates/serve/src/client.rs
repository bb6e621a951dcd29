//! A blocking FASEA protocol client with automatic reconnection.
//!
//! [`ServeClient`] speaks the framed wire protocol over one TCP
//! connection and re-handshakes transparently after transport failures
//! (the server survives client churn — an owned round is simply
//! re-granted to the next claimant — so reconnect-and-retry is safe for
//! `CLAIM`/`STATS`, and the loadgen drives its retry loop for the
//! rest).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fasea_store::{parse_raw_frame, write_raw_frame, FrameParse};

use crate::proto::{
    decode_response, encode_request, ErrorCode, Request, Response, WireStats, CLIENT_MAGIC,
    PROTOCOL_VERSION,
};

/// What [`ServeClient`] calls can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, or clean EOF).
    Io(io::Error),
    /// The server answered with a typed `ERROR`.
    Protocol {
        /// The wire error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        detail: String,
    },
    /// A frame arrived but its payload would not decode.
    Malformed(&'static str),
    /// The server answered with a verb this call cannot accept.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol { code, detail } => write!(f, "server error {code}: {detail}"),
            ClientError::Malformed(why) => write!(f, "malformed response: {why}"),
            ClientError::Unexpected(verb) => write!(f, "unexpected response verb {verb}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// `true` when reconnecting and retrying can help (transport-level
    /// failures only; typed protocol errors are the caller's problem).
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_))
    }

    /// The typed code, if this is a protocol error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Protocol { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// The `HELLO_OK` handshake summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Service fingerprint (instance + policy).
    pub fingerprint: u64,
    /// Events in the served instance.
    pub num_events: u32,
    /// Context dimension.
    pub dim: u32,
    /// Rounds completed when the session opened.
    pub rounds_completed: u64,
    /// Whether a recovered proposal awaited feedback at handshake.
    pub has_pending: bool,
}

/// The result of a `CLAIM`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimedRound {
    /// The round index now owned by this session.
    pub t: u64,
    /// An already-logged proposal to answer directly (skip `PROPOSE`).
    pub pending: Option<Vec<u32>>,
}

/// Tunables for [`ServeClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-call read deadline. Must comfortably exceed the server's
    /// claim queue wait.
    pub read_timeout: Duration,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Reconnect attempts before giving up.
    pub reconnect_attempts: u32,
    /// Backoff between reconnect attempts (doubles each try).
    pub reconnect_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(5),
            reconnect_attempts: 10,
            reconnect_backoff: Duration::from_millis(100),
        }
    }
}

/// A blocking protocol client over one TCP connection.
pub struct ServeClient {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    next_request_id: u64,
    info: Option<ServerInfo>,
}

impl ServeClient {
    /// Connects and handshakes. `addr` is kept for reconnects.
    ///
    /// # Errors
    /// Transport failures after the reconnect budget, or a typed
    /// handshake rejection.
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> Result<Self, ClientError> {
        let mut client = ServeClient {
            addr: addr.into(),
            config,
            stream: None,
            buf: Vec::new(),
            next_request_id: 1,
            info: None,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The handshake summary from the most recent (re)connect.
    pub fn info(&self) -> Option<ServerInfo> {
        self.info
    }

    /// Drops the current connection (the next call reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    /// (Re)establishes the connection and re-handshakes, with
    /// exponential backoff across `reconnect_attempts` tries.
    ///
    /// # Errors
    /// The final attempt's failure.
    pub fn reconnect(&mut self) -> Result<ServerInfo, ClientError> {
        self.disconnect();
        let mut backoff = self.config.reconnect_backoff;
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.config.reconnect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
            }
            match self.try_connect() {
                Ok(info) => return Ok(info),
                Err(e) if e.is_transport() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Unexpected("no connect attempt ran")))
    }

    fn try_connect(&mut self) -> Result<ServerInfo, ClientError> {
        let mut resolved = self.addr.to_socket_addrs()?;
        let target = resolved
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address did not resolve"))?;
        let stream = TcpStream::connect_timeout(&target, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.read_timeout))?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        self.buf.clear();
        match self.rpc(Request::Hello {
            magic: CLIENT_MAGIC,
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk {
                fingerprint,
                num_events,
                dim,
                rounds_completed,
                has_pending,
            } => {
                let info = ServerInfo {
                    fingerprint,
                    num_events,
                    dim,
                    rounds_completed,
                    has_pending,
                };
                self.info = Some(info);
                Ok(info)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Sends one request and waits for the matching response. A typed
    /// `ERROR` becomes [`ClientError::Protocol`]; transport failures
    /// drop the connection so the next call can reconnect.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn rpc(&mut self, request: Request) -> Result<Response, ClientError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let payload = encode_request(request_id, &request);
        let result = self.rpc_inner(request_id, &payload);
        if matches!(
            result,
            Err(ClientError::Io(_)) | Err(ClientError::Malformed(_))
        ) {
            self.disconnect();
        }
        match result? {
            Response::Error { code, detail } => Err(ClientError::Protocol { code, detail }),
            resp => Ok(resp),
        }
    }

    fn rpc_inner(&mut self, request_id: u64, payload: &[u8]) -> Result<Response, ClientError> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        send_frame(stream, payload)?;
        let mut tmp = [0u8; 8192];
        loop {
            match parse_raw_frame(&self.buf) {
                FrameParse::Frame { payload, consumed } => {
                    self.buf.drain(..consumed);
                    let (id, response) =
                        decode_response(&payload).map_err(ClientError::Malformed)?;
                    if id != request_id {
                        // A stale reply (e.g. from before a timeout on a
                        // previous call) — skip it and keep reading.
                        continue;
                    }
                    return Ok(response);
                }
                FrameParse::Bad { why } => return Err(ClientError::Malformed(why)),
                FrameParse::NeedMore => {}
            }
            let n = stream.read(&mut tmp)?;
            if n == 0 {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }

    /// `CLAIM`: acquire the next round.
    ///
    /// # Errors
    /// Typed protocol errors (`Overloaded`, `ShuttingDown`, …) or
    /// transport failures.
    pub fn claim(&mut self) -> Result<ClaimedRound, ClientError> {
        match self.rpc(Request::Claim)? {
            Response::Claimed { t, pending } => Ok(ClaimedRound { t, pending }),
            other => Err(unexpected(other)),
        }
    }

    /// `PROPOSE`: submit this round's arrival and receive the
    /// arrangement.
    ///
    /// # Errors
    /// Typed protocol errors or transport failures.
    pub fn propose(
        &mut self,
        user_capacity: u32,
        num_events: u32,
        dim: u32,
        contexts: Vec<f64>,
    ) -> Result<(u64, Vec<u32>), ClientError> {
        match self.rpc(Request::Propose {
            user_capacity,
            num_events,
            dim,
            contexts,
        })? {
            Response::Proposed { t, arrangement } => Ok((t, arrangement)),
            other => Err(unexpected(other)),
        }
    }

    /// `FEEDBACK`: answer the pending proposal; returns `(t, reward)`.
    ///
    /// # Errors
    /// Typed protocol errors or transport failures.
    pub fn feedback(&mut self, accepts: &[bool]) -> Result<(u64, u32), ClientError> {
        match self.rpc(Request::Feedback {
            accepts: accepts.to_vec(),
        })? {
            Response::FeedbackOk { t, reward } => Ok((t, reward)),
            other => Err(unexpected(other)),
        }
    }

    /// `RELEASE`: give up an owned round without proposing.
    ///
    /// # Errors
    /// Typed protocol errors or transport failures.
    pub fn release(&mut self) -> Result<(), ClientError> {
        match self.rpc(Request::Release)? {
            Response::ReleaseOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `STATS`: fetch the server's health + metrics snapshot.
    ///
    /// # Errors
    /// Typed protocol errors or transport failures.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.rpc(Request::Stats)? {
            Response::StatsOk(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// `SHUTDOWN`: ask the server to drain and stop.
    ///
    /// # Errors
    /// Typed protocol errors or transport failures.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.rpc(Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Unexpected(response.verb_name())
}

/// Writes one request frame in one write.
fn send_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_raw_frame(w, payload)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::decode_request;
    use fasea_store::CountingWriter;

    #[test]
    fn a_request_reaches_the_socket_in_one_write() {
        // A paper-size PROPOSE: 500 events × 20 dimensions, ~80 KB.
        let request = Request::Propose {
            user_capacity: 3,
            num_events: 500,
            dim: 20,
            contexts: (0..500 * 20).map(|i| i as f64 * 0.5).collect(),
        };
        for (id, request) in [request, Request::Claim].iter().enumerate() {
            let payload = encode_request(id as u64, request);
            let mut sink = CountingWriter::new(Vec::new());
            send_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.calls(), 1);
            let FrameParse::Frame { payload, consumed } = parse_raw_frame(sink.get_ref()) else {
                panic!("request is not one whole frame");
            };
            assert_eq!(consumed, sink.get_ref().len());
            assert_eq!(
                decode_request(&payload).unwrap(),
                (id as u64, request.clone())
            );
        }
    }
}
