//! # fasea-serve
//!
//! A concurrent TCP serving layer over the durable FASEA arrangement
//! service.
//!
//! The FASEA protocol (paper Definition 3) is inherently sequential —
//! one round in flight, propose then feedback, irrevocably — but a
//! production arrangement platform still needs concurrent network
//! access: many organiser/attendee frontends, one shared policy state.
//! This crate resolves that tension with a **claim-based** wire
//! protocol in front of a **single-writer actor**:
//!
//! * [`server::Server`] binds a listener and spawns a worker pool; each
//!   worker handles connection I/O, framing, decode/validation, the
//!   command itself, and encode for one connection at a time;
//! * the [`actor::ServiceActor`] state machine exclusively owns the
//!   [`fasea_sim::DurableArrangementService`] and executes rounds
//!   strictly sequentially: it sits behind one `Mutex`, and each worker
//!   runs the command it decoded on its own thread (there is no actor
//!   thread); round ownership moves between sessions via
//!   `CLAIM`/`RELEASE`, with a bounded wait queue as the backpressure
//!   point (typed `Overloaded` on overflow);
//! * frames reuse the WAL's on-disk convention — `len | crc | payload`,
//!   CRC-32-checked — via `fasea_store`'s raw-frame helpers, so a
//!   corrupted byte stream is detected exactly like a torn log record
//!   ([`proto`]);
//! * contexts and feedback travel as exact IEEE-754/boolean bytes, so a
//!   workload driven over the wire with common random numbers produces
//!   **byte-identical** accept/regret accounting to the same workload
//!   run in-process;
//! * [`metrics::Metrics`] counts requests/errors and buckets
//!   propose/feedback/decode/queue-wait latencies, exposed over the
//!   `STATS` verb and a periodic log line;
//! * [`client::ServeClient`] is the matching blocking client with
//!   reconnect + backoff.
//!
//! Graceful shutdown (the `SHUTDOWN` verb or
//! [`server::ServerHandle::initiate_shutdown`]) refuses new claims,
//! drains in-flight rounds, then fsyncs the WAL and writes a final
//! snapshot. A SIGKILL instead of a drain loses nothing: the next
//! `open` replays the WAL, and a pending proposal is re-granted to the
//! first claimant of the new process.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod actor;
pub mod backend;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use actor::{service_error_code, CloseReport, Command, ServiceActor};
pub use backend::BackendService;
pub use client::{ClaimedRound, ClientConfig, ClientError, ServeClient, ServerInfo};
pub use metrics::{Counter, Histogram, Metrics};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request, Response,
    WireHistogram, WireStats, CLIENT_MAGIC, PROTOCOL_VERSION,
};
pub use server::{ServeReport, Server, ServerConfig, ServerHandle};
