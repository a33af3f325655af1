//! `bso-client`: a pipelined client for the `bso-wire/v2`
//! shared-object service, with an op-recording mode whose output feeds
//! the Wing–Gong linearizability checker in `bso-sim`, and an
//! event-driven [`Swarm`] for driving thousands of connections from
//! one thread.
//!
//! A [`Connection`] (built via [`Connection::builder`]) talks to one
//! `bso-server`, negotiating the wire version with a `Hello` handshake
//! up front. Requests are written into a buffered stream without
//! flushing, so a burst of [`Connection::send`]s becomes one TCP write
//! when [`Connection::flush`] (or the first [`Connection::recv`])
//! happens — the wire-level pipelining the server's batched event
//! loops are built for. Responses may come back out of order; they are
//! correlated by `req_id` and stashed until asked for, so `send A,
//! send B, wait B, wait A` works.
//!
//! # Recording histories
//!
//! Attach a process-wide [`HistoryRecorder`] (one shared clock across
//! every connection) and each successful operation is logged as a
//! [`RecordedOp`] whose interval covers the server-side linearization
//! point: the invocation tick is taken before the request bytes leave,
//! the response tick after the response arrives, and the server
//! applies the operation strictly in between. The recorded real-time
//! precedence is therefore sound for [`bso_sim::check_history`] — two
//! ops it orders really were non-overlapping.
//!
//! ```no_run
//! use std::sync::Arc;
//! use bso_client::{Connection, HistoryRecorder};
//! use bso_objects::{Layout, ObjectId, ObjectInit, Op, Value};
//!
//! let mut layout = Layout::new();
//! let reg = layout.push(ObjectInit::Register(Value::Nil));
//! let rec = Arc::new(HistoryRecorder::new());
//! let mut conn = Connection::builder()
//!     .recorder(Arc::clone(&rec))
//!     .connect("127.0.0.1:4860")
//!     .unwrap();
//! conn.apply(0, Op::write(reg, Value::Int(7))).unwrap();
//! conn.apply(0, Op::read(reg)).unwrap();
//! drop(conn);
//! bso_sim::check_history(&layout, &rec.take_log()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resilient;
mod session;
pub mod swarm;

pub use resilient::{ResilientBuilder, ResilientClient, RetryPolicy};
pub use swarm::{Swarm, SwarmBuilder, SwarmReport};

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bso_objects::{Op, Value};
use bso_server::wire::{self, WireError};
use bso_server::{ErrorCode, Request, Response, TraceContext};
use bso_sim::RecordedOp;
use bso_telemetry::trace::{TraceArg, TraceWorker};
use bso_telemetry::Histogram;

/// Process-wide trace-id allocator: ids must be unique across every
/// traced connection and swarm lane in the process, or merged traces
/// would cross-match spans from unrelated requests.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// The request for one apply: a `TracedApply` carrying a fresh trace
/// id when `trace` is enabled, whose stamp `(trace_id, start)`
/// [`apply_span`] later closes, and a plain `Apply` otherwise.
pub(crate) fn apply_request(
    trace: &TraceWorker,
    req_id: u64,
    pid: usize,
    op: Op,
) -> (Request, Option<(u64, u64)>) {
    let pid = pid as u32;
    if !trace.is_enabled() {
        return (Request::Apply { pid, op }, None);
    }
    let trace_id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    let ctx = TraceContext {
        trace_id,
        span_id: req_id,
    };
    (
        Request::TracedApply { ctx, pid, op },
        Some((trace_id, trace.now_ns())),
    )
}

/// Records the `client.apply` span of a traced apply that
/// [`apply_request`] stamped, tagged with one more `tag` argument.
pub(crate) fn apply_span(
    trace: &TraceWorker,
    (trace_id, t0): (u64, u64),
    tag: (&'static str, u64),
) {
    let dur = trace.now_ns().saturating_sub(t0);
    trace.event_at(
        t0,
        Some(dur),
        "client.apply",
        [
            ("trace_id", TraceArg::U64(trace_id)),
            (tag.0, TraceArg::U64(tag.1)),
        ],
    );
}

/// The payload `shape` accepts from `resp`. A typed `Err` becomes
/// [`ClientError::Server`]; any other shape is a
/// [`ClientError::Protocol`] naming `what` it answered.
pub(crate) fn response_as<T>(
    resp: Response,
    what: &str,
    shape: impl FnOnce(Response) -> Result<T, Response>,
) -> Result<T, ClientError> {
    shape(resp).map_err(|other| match other {
        Response::Err { code, message } => ClientError::Server { code, message },
        other => ClientError::Protocol(format!("unexpected response to {what}: {other:?}")),
    })
}

/// Response shapes for [`response_as`], shared by both clients' typed
/// calls.
mod shape {
    use bso_objects::Value;
    use bso_server::Response;

    pub(crate) fn value(r: Response) -> Result<Value, Response> {
        match r {
            Response::Ok(v) => Ok(v),
            r => Err(r),
        }
    }

    pub(crate) fn ack(r: Response) -> Result<(), Response> {
        value(r).map(drop)
    }

    pub(crate) fn session(r: Response) -> Result<u32, Response> {
        match r {
            Response::Session(s) => Ok(s),
            r => Err(r),
        }
    }

    pub(crate) fn winner(r: Response) -> Result<usize, Response> {
        match r {
            Response::Ok(Value::Pid(winner)) => Ok(winner),
            r => Err(r),
        }
    }

    pub(crate) fn snapshot(r: Response) -> Result<String, Response> {
        match r {
            Response::Introspect(json) => Ok(json),
            r => Err(r),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (including EOF while a reply was owed).
    Io(std::io::Error),
    /// The server sent bytes that do not decode as `bso-wire/v2`.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered a request we never sent, or with a response
    /// shape the request cannot produce.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The shared wire-level [`ErrorCode`] behind this error, when the
    /// server sent one — the error-code enum is the *same type* the
    /// server encodes, so client and server vocabulary cannot drift.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether this is a refusal that can be retried *on the same
    /// connection* (`Busy` backpressure, a shed `Expired` deadline) —
    /// the request was not applied and a re-send is safe as-is.
    pub fn is_busy(&self) -> bool {
        self.code().is_some_and(ErrorCode::retry_in_place)
    }

    /// Whether this is retryable at all — in place *or* after a
    /// reconnect-and-resume (`ShuttingDown`, `Overloaded`), *or* after
    /// a routing-table refresh (`WrongShard`). The [`ResilientClient`]
    /// consumes the finer split directly.
    pub fn is_retryable(&self) -> bool {
        self.code().is_some_and(ErrorCode::is_retryable)
    }

    /// When this is a typed `WrongShard` refusal, the routing-table
    /// epoch the refusing server held — the signal that the caller's
    /// table is stale and the op must be re-routed after a refresh.
    /// The op was *not* applied, so redirecting it is duplicate-safe.
    pub fn wrong_shard_epoch(&self) -> Option<u64> {
        match self {
            ClientError::Server {
                code: ErrorCode::WrongShard,
                message,
            } => wire::wrong_shard_epoch(message).or(Some(0)),
            _ => None,
        }
    }
}

/// A shared invocation/response clock plus the log it stamps.
///
/// One recorder must be shared (via `Arc`) by every connection whose
/// operations should be checked as a single concurrent history — the
/// clock is what makes intervals from different connections
/// comparable. Mirrors `bso_sim::RecordingMemory`: failed operations
/// are not recorded (a refused op has no effect to linearize).
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: AtomicU64,
    log: Mutex<Vec<RecordedOp>>,
}

impl HistoryRecorder {
    /// A fresh recorder with the clock at zero.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder::default()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Logs a successful op invoked at tick `invoked_at`, stamping its
    /// response now.
    fn complete(&self, pid: usize, op: Op, resp: Value, invoked_at: u64) {
        let responded_at = self.tick();
        self.log.lock().unwrap().push(RecordedOp {
            pid,
            op,
            resp,
            invoked_at,
            responded_at,
        });
    }

    /// Drains the log so far, sorted by response time (the order
    /// [`bso_sim::check_history`] expects).
    pub fn take_log(&self) -> Vec<RecordedOp> {
        let mut log = std::mem::take(&mut *self.log.lock().unwrap());
        log.sort_by_key(|r| r.responded_at);
        log
    }

    /// Operations recorded so far.
    pub fn len(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What we remember about an in-flight request.
struct Pending {
    pid: usize,
    op: Option<Op>,
    invoked_at: u64,
    sent: Instant,
    /// `(trace_id, start on the trace clock)` for a traced apply.
    trace: Option<(u64, u64)>,
}

/// A pipelined connection to one `bso-server`.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    out: Vec<u8>,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    stashed: HashMap<u64, Response>,
    recorder: Option<std::sync::Arc<HistoryRecorder>>,
    latency: Option<Histogram>,
    trace: TraceWorker,
}

/// Fluent configuration for a [`Connection`], mirroring the server's
/// builder idiom: construct with [`Connection::builder`], chain knobs,
/// finish with [`ClientBuilder::connect`].
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    no_handshake: bool,
    recorder: Option<std::sync::Arc<HistoryRecorder>>,
    latency: Option<Histogram>,
    trace: TraceWorker,
}

impl ClientBuilder {
    /// Whether to negotiate the wire version with a `Hello` round trip
    /// at connect time (default `true`). Skipping it saves one RTT
    /// against servers already known to speak [`wire::VERSION`].
    #[must_use]
    pub fn handshake(mut self, yes: bool) -> ClientBuilder {
        self.no_handshake = !yes;
        self
    }

    /// Attaches a (shared) history recorder; every successful `Apply`
    /// is logged with interval timestamps.
    #[must_use]
    pub fn recorder(mut self, rec: std::sync::Arc<HistoryRecorder>) -> ClientBuilder {
        self.recorder = Some(rec);
        self
    }

    /// Attaches a latency histogram; every completed request records
    /// its client-observed round-trip in nanoseconds.
    #[must_use]
    pub fn latency_histogram(mut self, hist: Histogram) -> ClientBuilder {
        self.latency = Some(hist);
        self
    }

    /// Attaches a trace track. Every apply is then sent as a
    /// `TracedApply` carrying a fresh `trace_id`, and its client-side
    /// round trip is recorded as a `client.apply` span — the server
    /// records a matching `server.apply` span with the same id, so the
    /// two exports can be joined by
    /// [`bso_telemetry::trace::merge_traces`]. A disabled worker (the
    /// default) keeps the plain `Apply` encoding and costs nothing.
    #[must_use]
    pub fn trace(mut self, worker: TraceWorker) -> ClientBuilder {
        self.trace = worker;
        self
    }

    /// Connects (and, unless disabled, completes the `Hello`
    /// handshake).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for socket errors, [`ClientError::Server`]
    /// with [`ErrorCode::Version`] when the server refuses our wire
    /// version, [`ClientError::Protocol`] on a nonsensical handshake
    /// reply.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        let addrs = session::resolve(addr)?;
        let stream = session::connect(&addrs, None, !self.no_handshake, None)?;
        let write_half = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            out: Vec::new(),
            next_id: 0,
            pending: HashMap::new(),
            stashed: HashMap::new(),
            recorder: self.recorder,
            latency: self.latency,
            trace: self.trace,
        })
    }
}

impl Connection {
    /// Starts configuring a connection. See [`ClientBuilder`] for the
    /// knobs and their defaults.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Queues one operation without flushing and returns its `req_id`.
    /// Call [`Connection::flush`] (or any receive) to put it on the
    /// wire; interleave several sends first to pipeline.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] if an operand value breaks the encoding
    /// limits (nothing is queued in that case).
    pub fn send(&mut self, pid: usize, op: Op) -> Result<u64, ClientError> {
        let req_id = self.next_id;
        self.next_id += 1;
        let (req, trace) = apply_request(&self.trace, req_id, pid, op.clone());
        wire::encode_request(req_id, &req, &mut self.out)?;
        let invoked_at = self.recorder.as_deref().map(HistoryRecorder::tick);
        self.pending.insert(
            req_id,
            Pending {
                pid,
                op: Some(op),
                invoked_at: invoked_at.unwrap_or(0),
                sent: Instant::now(),
                trace,
            },
        );
        Ok(req_id)
    }

    fn send_control(&mut self, req: &Request) -> Result<u64, ClientError> {
        let req_id = self.next_id;
        self.next_id += 1;
        wire::encode_request(req_id, req, &mut self.out)?;
        self.pending.insert(
            req_id,
            Pending {
                pid: 0,
                op: None,
                invoked_at: 0,
                sent: Instant::now(),
                trace: None,
            },
        );
        Ok(req_id)
    }

    /// Writes and flushes everything queued so far.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        wire::write_frames(&mut self.writer, &mut self.out)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives one response (flushing queued requests first), in
    /// whatever order the server finished them.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on disconnect, [`ClientError::Wire`] on a
    /// malformed response, [`ClientError::Protocol`] on an unknown
    /// `req_id`.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        self.flush()?;
        let mut buf = Vec::new();
        if !wire::read_frame(&mut self.reader, &mut buf)? {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let (req_id, resp) = wire::decode_response_current(&buf)?;
        let Some(pending) = self.pending.remove(&req_id) else {
            return Err(ClientError::Protocol(format!(
                "response for unknown req_id {req_id}"
            )));
        };
        if let Some(h) = &self.latency {
            h.record(u64::try_from(pending.sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some(stamp) = pending.trace {
            apply_span(&self.trace, stamp, ("req_id", req_id));
        }
        if let (Some(rec), Some(op), Response::Ok(v)) = (&self.recorder, pending.op, &resp) {
            rec.complete(pending.pid, op, v.clone(), pending.invoked_at);
        }
        Ok((req_id, resp))
    }

    /// Receives until `req_id`'s response arrives, stashing any other
    /// completions for their own `wait` calls.
    ///
    /// # Errors
    ///
    /// Same as [`Connection::recv`].
    pub fn wait(&mut self, req_id: u64) -> Result<Response, ClientError> {
        if let Some(r) = self.stashed.remove(&req_id) {
            return Ok(r);
        }
        loop {
            let (id, resp) = self.recv()?;
            if id == req_id {
                return Ok(resp);
            }
            self.stashed.insert(id, resp);
        }
    }

    /// One full round trip: send, flush, wait, unwrap.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for typed server errors (use
    /// [`ClientError::is_busy`] to spot retryable backpressure) plus
    /// everything [`Connection::recv`] can fail with.
    pub fn apply(&mut self, pid: usize, op: Op) -> Result<Value, ClientError> {
        let id = self.send(pid, op)?;
        response_as(self.wait(id)?, "an apply", shape::value)
    }

    /// Opens a leader-election session over a fresh
    /// `compare&swap-(k)`; the session hosts `k − 1` participants.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn open_election(&mut self, k: u32) -> Result<u32, ClientError> {
        let req = Request::OpenElection { k };
        self.call(&req, "an open-election", shape::session)
    }

    /// Runs participant `pid` of `session` to its decision and returns
    /// the elected leader.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn elect(&mut self, session: u32, pid: u32) -> Result<usize, ClientError> {
        self.call(&Request::Elect { session, pid }, "an elect", shape::winner)
    }

    /// Scrapes the server's live `bso-introspect/v1` snapshot: config
    /// identity, lifetime stats, and per-shard queue depths, timing
    /// quantiles, and flight-recorder contents as a JSON string (parse
    /// with [`bso_telemetry::json::parse`]).
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`]; v1 servers answer with a
    /// typed [`ErrorCode::Version`] error.
    pub fn introspect(&mut self) -> Result<String, ClientError> {
        self.call(&Request::Introspect, "an introspect", shape::snapshot)
    }

    /// Round-trips a no-op, confirming the connection is live and all
    /// queued requests are flushed.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping, "a ping", shape::ack)
    }

    /// Requests sent but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    // Cluster plane (`bso-routing/v1`, DESIGN.md §3.15): routing-table
    // management and the migration transfer ops. Driven by the
    // `bso-cluster` coordinator, not by ordinary clients.

    /// Fetches the server's installed routing table as
    /// `(epoch, bso-routing/v1 document)`. Epoch 0 with an empty
    /// document means no table was ever installed (the server serves
    /// every object id).
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn fetch_routing(&mut self) -> Result<(u64, String), ClientError> {
        self.call(&Request::FetchRouting, "a fetch-routing", |r| match r {
            Response::Routing { epoch, table } => Ok((epoch, table)),
            r => Err(r),
        })
    }

    /// Installs a routing table: `epoch` must exceed the server's
    /// installed epoch, `ranges` are the object-id ranges *this* server
    /// now owns, `table` is the full `bso-routing/v1` document served
    /// back to [`Connection::fetch_routing`] callers.
    ///
    /// # Errors
    ///
    /// A typed `BadRequest` when `epoch` is not newer than the
    /// installed table, plus the classes of [`Connection::apply`].
    pub fn update_routing(
        &mut self,
        epoch: u64,
        ranges: Vec<(u64, u64)>,
        table: String,
    ) -> Result<(), ClientError> {
        let req = Request::UpdateRouting {
            epoch,
            ranges,
            table,
        };
        self.call(&req, "an update-routing", shape::ack)
    }

    /// Detaches `ranges` from the server's owned set under a new
    /// `epoch`: the migration barrier. When this call returns, every
    /// apply on a detached range has either completed (its effect is
    /// visible to a subsequent [`Connection::export_object`]) or was
    /// refused with a typed `WrongShard`.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::update_routing`].
    pub fn detach_ranges(
        &mut self,
        epoch: u64,
        ranges: Vec<(u64, u64)>,
    ) -> Result<(), ClientError> {
        let req = Request::DetachRanges { epoch, ranges };
        self.call(&req, "a detach-ranges", shape::ack)
    }

    /// Exports object `obj`'s full serialized state for migration.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn export_object(&mut self, obj: u32) -> Result<Value, ClientError> {
        let req = Request::ExportObject { obj };
        self.call(&req, "an export-object", shape::value)
    }

    /// Installs exported `state` as object `obj`, overwriting the
    /// resident copy.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn install_object(&mut self, obj: u32, state: Value) -> Result<(), ClientError> {
        let req = Request::InstallObject { obj, state };
        self.call(&req, "an install-object", shape::ack)
    }

    /// Exports election session `session` as a `[k, cas-state]` pair.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn export_session(&mut self, session: u32) -> Result<Value, ClientError> {
        let req = Request::ExportSession { session };
        self.call(&req, "an export-session", shape::value)
    }

    /// Reconstructs election session `session` (domain `k`) from an
    /// exported cas-state, overwriting any resident session.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn install_session(
        &mut self,
        session: u32,
        k: u32,
        state: Value,
    ) -> Result<(), ClientError> {
        let req = Request::InstallSession { session, k, state };
        self.call(&req, "an install-session", |r| shape::session(r).map(drop))
    }

    /// One control round trip: send `req`, wait, and unwrap the reply's
    /// `shape`.
    fn call<T>(
        &mut self,
        req: &Request,
        what: &str,
        shape: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        let id = self.send_control(req)?;
        response_as(self.wait(id)?, what, shape)
    }
}
