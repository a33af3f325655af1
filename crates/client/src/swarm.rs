//! An event-driven client swarm: thousands of pipelined connections
//! driven from one thread by a readiness loop, for load generation and
//! saturation testing.
//!
//! A [`Connection`](crate::Connection) is the right tool for a handful
//! of sockets; at 10 000 connections the two-threads-per-connection
//! model (or even one blocking thread each) stops scaling. [`Swarm`]
//! instead keeps every socket nonblocking, multiplexed over the same
//! `epoll(7)`/`poll(2)` shim the server's event loops use
//! ([`bso_server::poll`]), and issues operations from a workload
//! closure.
//!
//! Two pacing modes:
//!
//! * **Closed loop** (default): each connection keeps
//!   [`SwarmBuilder::pipeline`] requests in flight and replaces each
//!   response with a fresh request immediately. Measures peak
//!   sustainable throughput; round trips are timed from the moment the
//!   request is queued.
//! * **Open loop** ([`SwarmBuilder::rate`]): arrivals are scheduled on
//!   a fixed clock at the offered rate, round-robin across
//!   connections, regardless of how fast responses come back. Round
//!   trips are timed from the *scheduled* arrival, so server-side
//!   queueing delay is charged to the latency distribution instead of
//!   silently stretching the arrival gaps (the coordinated-omission
//!   correction).
//!
//! In [`SwarmBuilder::resilient`] mode every lane is one session of the
//! engine [`ResilientClient`](crate::ResilientClient) runs on, with
//! [`RetryPolicy::default`] and one decision table (DESIGN.md §3.14):
//! an in-place refusal backs off and re-sends on the same connection; a
//! broken, cut or corrupted connection — or one owed a reply that reads
//! nothing for the policy's `read_timeout` — backs off, reconnects,
//! resumes and re-sends every in-flight frame; whatever the table
//! surfaces is counted in [`SwarmReport::ops_busy`] /
//! [`SwarmReport::ops_err`]. The swarm carries out a backoff by
//! sleeping its thread.
//!
//! ```no_run
//! use bso_client::Swarm;
//! use bso_objects::{Layout, ObjectInit, Op, Value};
//!
//! let mut layout = Layout::new();
//! let reg = layout.push(ObjectInit::Register(Value::Nil));
//! let report = Swarm::builder()
//!     .connections(1000)
//!     .pipeline(8)
//!     .run("127.0.0.1:4860", |conn, seq| {
//!         (seq < 1_000_000).then(|| (conn, Op::write(reg, Value::Int(conn as i64))))
//!     })
//!     .unwrap();
//! println!("{} ops ok", report.ops_ok);
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bso_objects::Op;
use bso_server::poll::{self, Event, Interest, PollBackend, Poller};
use bso_server::wire::{self, ErrorCode, Response};
use bso_telemetry::trace::TraceWorker;

use crate::session::{self, Backoff, Next, Session};
use crate::{apply_request, apply_span, ClientError, RetryPolicy};

/// Fluent configuration for a [`Swarm`] run.
#[derive(Clone, Debug)]
pub struct SwarmBuilder {
    connections: usize,
    pipeline: usize,
    backend: PollBackend,
    rate: Option<f64>,
    trace: TraceWorker,
    resilient: bool,
    session_base: Option<u64>,
    retry_seed: u64,
}

impl Default for SwarmBuilder {
    fn default() -> SwarmBuilder {
        SwarmBuilder {
            connections: 1,
            pipeline: 1,
            backend: PollBackend::Auto,
            rate: None,
            trace: TraceWorker::disabled(),
            resilient: false,
            session_base: None,
            retry_seed: 0x5EED,
        }
    }
}

impl SwarmBuilder {
    /// Number of concurrent connections (default 1).
    #[must_use]
    pub fn connections(mut self, n: usize) -> SwarmBuilder {
        self.connections = n.max(1);
        self
    }

    /// Requests kept in flight per connection in closed-loop mode
    /// (default 1). Ignored when a [`SwarmBuilder::rate`] is set —
    /// open-loop arrivals are paced by the clock, not by completions.
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> SwarmBuilder {
        self.pipeline = depth.max(1);
        self
    }

    /// Readiness backend for the swarm's own poller (default
    /// [`PollBackend::Auto`]).
    #[must_use]
    pub fn backend(mut self, backend: PollBackend) -> SwarmBuilder {
        self.backend = backend;
        self
    }

    /// Switches to open-loop pacing at `ops_per_sec` total offered
    /// load across all connections. `None` (the default) is closed
    /// loop.
    #[must_use]
    pub fn rate(mut self, ops_per_sec: Option<f64>) -> SwarmBuilder {
        self.rate = ops_per_sec.filter(|r| *r > 0.0);
        self
    }

    /// Attaches a trace track shared by every lane. Each issued apply
    /// is then sent as a `TracedApply` with a fresh `trace_id` and its
    /// round trip recorded as a `client.apply` span, matchable against
    /// the server's `server.apply` spans by
    /// [`bso_telemetry::trace::merge_traces`]. The disabled default
    /// keeps the plain `Apply` encoding and costs nothing.
    #[must_use]
    pub fn trace(mut self, worker: TraceWorker) -> SwarmBuilder {
        self.trace = worker;
        self
    }

    /// Fault-tolerant mode (default `false`). Every lane binds a
    /// session token on connect, keeps the encoded bytes of each
    /// in-flight request, and follows the decision table in the
    /// [module docs](self): broken sockets, EOFs, cut handshakes,
    /// corrupt response bytes and silent connections are a cue to
    /// reconnect, `Resume`, and re-send — the server's reply cache
    /// turns the re-sends into replays, so effects stay exactly-once
    /// (see DESIGN.md §3.14). Without it those conditions abort the
    /// run, which is what a clean-room benchmark wants.
    #[must_use]
    pub fn resilient(mut self, yes: bool) -> SwarmBuilder {
        self.resilient = yes;
        self
    }

    /// First session token for resilient lanes: lane `i` binds
    /// `base + i`. Defaults to a process-wide allocator; chaos
    /// harnesses pass a seed-derived base so a run is replayable.
    #[must_use]
    pub fn session_base(mut self, base: u64) -> SwarmBuilder {
        self.session_base = Some(base);
        self
    }

    /// Seed for the backoff jitter in resilient mode (default
    /// `0x5EED`).
    #[must_use]
    pub fn retry_seed(mut self, seed: u64) -> SwarmBuilder {
        self.retry_seed = seed;
        self
    }

    /// Connects the swarm and drives `workload` to exhaustion.
    ///
    /// `workload(conn, seq)` is called once per operation to issue —
    /// `conn` is the connection index it will ride, `seq` the global
    /// 0-based issue counter — and returns the `(pid, op)` to apply,
    /// or `None` to stop issuing (in-flight operations still drain).
    ///
    /// # Errors
    ///
    /// Connect/handshake failures abort the run, and so do socket-level
    /// I/O errors outside resilient mode; per-operation server errors
    /// do not (they are tallied in [`SwarmReport::ops_busy`] /
    /// [`SwarmReport::ops_err`]). In resilient mode the decision table
    /// handles connection failures instead, and the run fails when a
    /// lane's reconnect dials keep failing until every op it owed has
    /// spent its attempts.
    pub fn run(
        self,
        addr: impl ToSocketAddrs,
        workload: impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<SwarmReport, ClientError> {
        Swarm::new(self, session::resolve(addr)?)?.drive(workload)
    }
}

/// What a [`Swarm`] run observed. Round trips are recorded for
/// successful operations only, so `rtt_ns.len() == ops_ok` always
/// holds — a latency distribution is only meaningful over the
/// operations that actually completed.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    /// Operations answered `Ok`.
    pub ops_ok: u64,
    /// Operations answered with retryable [`ErrorCode::Busy`]
    /// backpressure.
    pub ops_busy: u64,
    /// Operations answered with any other typed error, and in resilient
    /// mode operations whose connection failed them for good.
    pub ops_err: u64,
    /// One round trip per `Ok` operation, in nanoseconds. Closed loop
    /// times from request queueing; open loop from the scheduled
    /// arrival. An operation that survived a reconnect keeps its
    /// original start stamp — the recovery time is real latency.
    pub rtt_ns: Vec<u64>,
    /// Wall-clock span from the first issue to the last response.
    pub elapsed: Duration,
    /// Successful lane reconnects in [`SwarmBuilder::resilient`] mode
    /// (always zero otherwise — a broken socket aborts instead).
    pub reconnects: u64,
}

impl SwarmReport {
    /// Total operations answered, of any outcome.
    pub fn ops_total(&self) -> u64 {
        self.ops_ok + self.ops_busy + self.ops_err
    }

    /// Achieved `Ok` throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops_ok as f64 / secs
        } else {
            0.0
        }
    }
}

/// One operation in flight on a lane.
struct InflightOp {
    /// The instant latency is measured from.
    started: Instant,
    /// `(trace_id, start on the trace clock)` for a traced apply.
    trace: Option<(u64, u64)>,
}

/// Per-connection state inside the readiness loop.
struct Lane {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: HashMap<u64, InflightOp>,
    write_armed: bool,
    /// On the swarm's `touched` list (freshly queued bytes to pump).
    dirty: bool,
    /// The lane's `req_id`s; in resilient mode also the retained
    /// frames and attempt counts its `Resume` and re-sends come from.
    session: Session,
    /// Resilient mode: when the lane last read a byte or last became
    /// owed a reply — its read deadline counts from here.
    heard: Instant,
}

impl Lane {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// The multiplexer itself; normally used through
/// [`SwarmBuilder::run`], which see.
pub struct Swarm {
    cfg: SwarmBuilder,
    poller: Poller,
    lanes: Vec<Lane>,
    report: SwarmReport,
    /// Next connection to receive an open-loop arrival.
    rr: usize,
    /// Global issue counter handed to the workload.
    seq: u64,
    /// Set once the workload returns `None`.
    done_issuing: bool,
    /// Lanes with freshly queued bytes, pumped once per loop turn —
    /// an O(touched) flush instead of an O(connections) scan.
    touched: Vec<usize>,
    /// The server's addresses, kept for resilient-mode reconnects.
    addrs: Vec<SocketAddr>,
    /// The retry policy and jitter source of resilient lanes.
    backoff: Backoff,
}

impl Swarm {
    /// Starts configuring a swarm.
    pub fn builder() -> SwarmBuilder {
        SwarmBuilder::default()
    }

    fn new(cfg: SwarmBuilder, addrs: Vec<SocketAddr>) -> Result<Swarm, ClientError> {
        let mut poller = Poller::new(cfg.backend).map_err(ClientError::Io)?;
        let backoff = Backoff::new(RetryPolicy::default(), cfg.retry_seed);
        let (session_base, read_timeout) = match (cfg.resilient, cfg.session_base) {
            (false, _) => (0, None),
            (true, base) => (
                base.unwrap_or_else(|| session::alloc_tokens(cfg.connections as u64)),
                backoff.policy.read_timeout,
            ),
        };
        let mut lanes = Vec::with_capacity(cfg.connections);
        for conn in 0..cfg.connections {
            let session = Session::new(session_base + conn as u64);
            let resume = cfg.resilient.then_some(&session);
            let stream = session::connect(&addrs, read_timeout, true, resume)?;
            poll::set_nonblocking(&stream)?;
            poller.register(poll::raw_fd(&stream), conn as u64, Interest::READ)?;
            lanes.push(Lane {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                inflight: HashMap::new(),
                write_armed: false,
                dirty: false,
                session,
                heard: Instant::now(),
            });
        }
        Ok(Swarm {
            cfg,
            poller,
            lanes,
            report: SwarmReport::default(),
            rr: 0,
            seq: 0,
            done_issuing: false,
            touched: Vec::new(),
            addrs,
            backoff,
        })
    }

    /// Queues one workload operation on lane `conn`, stamping its
    /// latency origin at `started`. Returns `false` once the workload
    /// is exhausted.
    fn issue(
        &mut self,
        conn: usize,
        started: Instant,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<bool, ClientError> {
        if self.done_issuing {
            return Ok(false);
        }
        let Some((pid, op)) = workload(conn, self.seq) else {
            self.done_issuing = true;
            return Ok(false);
        };
        self.seq += 1;
        let lane = &mut self.lanes[conn];
        let req_id = lane.session.next_id();
        let (req, trace) = apply_request(&self.cfg.trace, req_id, pid, op);
        let mark = lane.wbuf.len();
        wire::encode_request(req_id, &req, &mut lane.wbuf)?;
        if self.cfg.resilient {
            if lane.inflight.is_empty() {
                lane.heard = Instant::now();
            }
            lane.session.retain(req_id, lane.wbuf[mark..].to_vec());
        }
        lane.inflight.insert(req_id, InflightOp { started, trace });
        if !lane.dirty {
            lane.dirty = true;
            self.touched.push(conn);
        }
        Ok(true)
    }

    /// Flushes lane `conn`'s write buffer as far as the socket allows,
    /// arming or disarming write interest to match what is left.
    fn pump_write(&mut self, conn: usize) -> Result<(), ClientError> {
        let lane = &mut self.lanes[conn];
        while lane.wants_write() {
            match lane.stream.write(&lane.wbuf[lane.wpos..]) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    )))
                }
                Ok(n) => lane.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        if !lane.wants_write() {
            lane.wbuf.clear();
            lane.wpos = 0;
        }
        let want = lane.wants_write();
        if want != lane.write_armed {
            lane.write_armed = want;
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            self.poller
                .reregister(poll::raw_fd(&lane.stream), conn as u64, interest)?;
        }
        Ok(())
    }

    /// Reads everything the socket has, consumes complete response
    /// frames, and (in closed loop) refills the pipeline. Returns the
    /// backoff before a reconnect when a response's outcome calls for
    /// one.
    fn pump_read(
        &mut self,
        conn: usize,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<Option<Duration>, ClientError> {
        let closed_loop = self.cfg.rate.is_none();
        let resilient = self.cfg.resilient;
        loop {
            let lane = &mut self.lanes[conn];
            let old = lane.rbuf.len();
            lane.rbuf.resize(old + 64 * 1024, 0);
            let got = match lane.stream.read(&mut lane.rbuf[old..]) {
                Ok(0) => {
                    lane.rbuf.truncate(old);
                    if lane.inflight.is_empty() && !resilient {
                        // Graceful close with nothing owed: fine.
                        return Ok(None);
                    }
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "connection {conn} closed with {} in flight",
                            lane.inflight.len()
                        ),
                    )));
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    lane.rbuf.truncate(old);
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    lane.rbuf.truncate(old);
                    continue;
                }
                Err(e) => return Err(ClientError::Io(e)),
            };
            lane.rbuf.truncate(old + got);
            if resilient {
                lane.heard = Instant::now();
            }

            let mut at = 0;
            let mut refill = 0;
            let mut requeued = false;
            loop {
                let lane = &mut self.lanes[conn];
                let Some(range) = wire::split_frame(&lane.rbuf, at)? else {
                    break;
                };
                at = range.end;
                let (req_id, resp) = wire::decode_response_current(&lane.rbuf[range])?;
                let Some(flight) = lane.inflight.remove(&req_id) else {
                    return Err(ClientError::Protocol(format!(
                        "response to unknown req_id {req_id} on connection {conn}"
                    )));
                };
                if resilient {
                    match lane.session.settle(req_id, Ok(&resp), &mut self.backoff) {
                        Next::Done => {}
                        Next::RetryInPlace(wait) => {
                            std::thread::sleep(wait);
                            lane.wbuf.extend_from_slice(lane.session.frame(req_id));
                            lane.inflight.insert(req_id, flight);
                            requeued = true;
                            continue;
                        }
                        Next::Reconnect(wait) => {
                            lane.inflight.insert(req_id, flight);
                            return Ok(Some(wait));
                        }
                    }
                }
                if let Some(stamp) = flight.trace {
                    apply_span(&self.cfg.trace, stamp, ("conn", conn as u64));
                }
                match resp {
                    Response::Ok(_) => {
                        self.report.ops_ok += 1;
                        self.report.rtt_ns.push(
                            u64::try_from(flight.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    Response::Err {
                        code: ErrorCode::Busy,
                        ..
                    } => self.report.ops_busy += 1,
                    Response::Err { .. } => self.report.ops_err += 1,
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "non-value response to a swarm apply: {other:?}"
                        )))
                    }
                }
                if closed_loop {
                    refill += 1;
                }
            }
            let lane = &mut self.lanes[conn];
            lane.rbuf.drain(..at);
            if requeued && !lane.dirty {
                lane.dirty = true;
                self.touched.push(conn);
            }
            for _ in 0..refill {
                if !self.issue(conn, Instant::now(), workload)? {
                    break;
                }
            }
        }
    }

    /// Carries out the decision table for `err`, a failure of lane
    /// `conn`'s connection. Outside resilient mode it ends the run.
    /// Otherwise it is a failed attempt of every op in flight on the
    /// lane: the lane reconnects for the ops that retry. A lane left
    /// with nothing to deliver only drops its socket; the next op
    /// issued on it fails its write and reconnects then.
    fn recover(
        &mut self,
        conn: usize,
        err: ClientError,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        if !self.cfg.resilient {
            return Err(err);
        }
        match self.charge(conn, &err) {
            Some(wait) => self.reconnect(conn, wait, workload),
            None => {
                self.drop_socket(conn);
                self.top_up(conn, workload)
            }
        }
    }

    /// Settles `err` as one failed attempt of every op in flight on
    /// lane `conn`. Ops the session gives up on are counted in
    /// `ops_err`. Returns the longest backoff the rest asked for, or
    /// `None` when nothing is left in flight.
    fn charge(&mut self, conn: usize, err: &ClientError) -> Option<Duration> {
        let lane = &mut self.lanes[conn];
        let mut wait = None;
        for id in lane.session.in_flight() {
            match lane.session.settle(id, Err(err), &mut self.backoff) {
                Next::Done => {
                    lane.inflight.remove(&id);
                    self.report.ops_err += 1;
                }
                Next::RetryInPlace(w) | Next::Reconnect(w) => wait = wait.max(Some(w)),
            }
        }
        wait
    }

    /// Unregisters and shuts down lane `conn`'s socket, discarding
    /// buffered bytes (the session keeps every in-flight frame).
    fn drop_socket(&mut self, conn: usize) {
        let lane = &mut self.lanes[conn];
        self.poller.deregister(poll::raw_fd(&lane.stream)).ok();
        lane.stream.shutdown(Shutdown::Both).ok();
        lane.rbuf.clear();
        lane.wbuf.clear();
        lane.wpos = 0;
        lane.write_armed = false;
    }

    /// Rebuilds lane `conn`'s connection after `wait`: a fresh socket
    /// greeted with `Hello` and `Resume` (acking everything below the
    /// oldest in-flight op), then a verbatim re-send of every in-flight
    /// frame in id order — completed ones come back as replays from the
    /// server's reply cache. A failed dial is one more failed attempt
    /// of every op in flight; when none is left, the run fails with the
    /// dial's error.
    fn reconnect(
        &mut self,
        conn: usize,
        mut wait: Duration,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        self.drop_socket(conn);
        let stream = loop {
            std::thread::sleep(wait);
            let read_timeout = self.backoff.policy.read_timeout;
            let session = Some(&self.lanes[conn].session);
            match session::connect(&self.addrs, read_timeout, true, session) {
                Ok(stream) => break stream,
                Err(e) => match self.charge(conn, &e) {
                    Some(next) => wait = next,
                    None => return Err(e),
                },
            }
        };
        poll::set_nonblocking(&stream)?;
        self.poller
            .register(poll::raw_fd(&stream), conn as u64, Interest::READ)?;
        let lane = &mut self.lanes[conn];
        lane.stream = stream;
        lane.heard = Instant::now();
        for frame in lane.session.frames() {
            lane.wbuf.extend_from_slice(frame);
        }
        if !lane.dirty {
            lane.dirty = true;
            self.touched.push(conn);
        }
        self.report.reconnects += 1;
        self.top_up(conn, workload)
    }

    /// Closed loop: refills lane `conn` to its pipeline depth. Ops a
    /// dead socket or a give-up took never ran their refill, which
    /// would shrink the pipeline for good.
    fn top_up(
        &mut self,
        conn: usize,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        if self.cfg.rate.is_none() {
            while self.lanes[conn].inflight.len() < self.cfg.pipeline {
                if !self.issue(conn, Instant::now(), workload)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Resilient mode: recovers every lane that has owed a reply for
    /// the policy's `read_timeout` without reading a byte — a stalled
    /// peer, or a corrupted length prefix announcing a frame whose
    /// bytes will never come.
    fn enforce_read_deadline(
        &mut self,
        workload: &mut impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<(), ClientError> {
        let Some(limit) = self.backoff.policy.read_timeout else {
            return Ok(());
        };
        let now = Instant::now();
        for conn in 0..self.lanes.len() {
            let lane = &self.lanes[conn];
            if lane.inflight.is_empty() || now.duration_since(lane.heard) < limit {
                continue;
            }
            let err = ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "connection {conn} read nothing for {limit:?} with {} in flight",
                    lane.inflight.len()
                ),
            ));
            self.recover(conn, err, workload)?;
        }
        Ok(())
    }

    /// The event loop: prime, then pace arrivals and pump sockets
    /// until the workload is exhausted and every response is in.
    fn drive(
        mut self,
        mut workload: impl FnMut(usize, u64) -> Option<(usize, Op)>,
    ) -> Result<SwarmReport, ClientError> {
        let start = Instant::now();
        // Open-loop arrival clock: seconds per op across the swarm.
        let gap = self.cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r));
        let mut next_arrival = start;

        if gap.is_none() {
            // Closed loop: prime every lane to its pipeline depth.
            'prime: for conn in 0..self.lanes.len() {
                for _ in 0..self.cfg.pipeline {
                    if !self.issue(conn, Instant::now(), &mut workload)? {
                        break 'prime;
                    }
                }
            }
        }

        let mut events: Vec<Event> = Vec::new();
        loop {
            // Open loop: issue every arrival whose scheduled time has
            // passed, charging latency from the schedule, not `now`.
            if let Some(gap) = gap {
                while !self.done_issuing && Instant::now() >= next_arrival {
                    let conn = self.rr;
                    self.rr = (self.rr + 1) % self.lanes.len();
                    if !self.issue(conn, next_arrival, &mut workload)? {
                        break;
                    }
                    next_arrival += gap;
                }
            }
            while let Some(conn) = self.touched.pop() {
                self.lanes[conn].dirty = false;
                if self.lanes[conn].wants_write() && !self.lanes[conn].write_armed {
                    if let Err(e) = self.pump_write(conn) {
                        self.recover(conn, e, &mut workload)?;
                    }
                }
            }

            let inflight: usize = self.lanes.iter().map(|l| l.inflight.len()).sum();
            if self.done_issuing && inflight == 0 {
                break;
            }

            let timeout = match gap {
                Some(_) if !self.done_issuing => {
                    let now = Instant::now();
                    Some(
                        next_arrival
                            .saturating_duration_since(now)
                            .max(Duration::ZERO),
                    )
                }
                _ => Some(Duration::from_millis(50)),
            };
            self.poller.wait(&mut events, timeout)?;
            let ready = std::mem::take(&mut events);
            for ev in &ready {
                let conn = ev.token as usize;
                if conn >= self.lanes.len() {
                    continue;
                }
                if ev.readable || ev.error {
                    match self.pump_read(conn, &mut workload) {
                        Ok(None) => {}
                        Ok(Some(wait)) => self.reconnect(conn, wait, &mut workload)?,
                        Err(e) => self.recover(conn, e, &mut workload)?,
                    }
                }
                if ev.writable {
                    if let Err(e) = self.pump_write(conn) {
                        self.recover(conn, e, &mut workload)?;
                    }
                }
            }
            events = ready;
            if self.cfg.resilient {
                self.enforce_read_deadline(&mut workload)?;
            }
        }

        self.report.elapsed = start.elapsed();
        debug_assert_eq!(self.report.rtt_ns.len() as u64, self.report.ops_ok);
        Ok(self.report)
    }
}
