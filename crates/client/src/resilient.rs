//! A fault-tolerant, exactly-once client: [`ResilientClient`].
//!
//! The pipelined [`Connection`](crate::Connection) treats a broken
//! socket as fatal — correct for benchmarking, useless under chaos.
//! This module wraps one *logical* client around however many TCP
//! connections it takes: every operation carries a per-session
//! `req_id`, the client binds a session token with
//! [`Request::Resume`] on every (re)connect, and a retry after a
//! broken socket re-sends the *same* `req_id` so the server can answer
//! from its bounded reply cache instead of applying twice. The result
//! is exactly-once *visible* semantics: an operation's effect happens
//! at most once no matter how many times the wire eats the reply.
//!
//! The session protocol itself — `req_id` pinning, `Hello` + `Resume`
//! on connect, the retry decision and the backoff — lives in one
//! private engine that resilient [`Swarm`](crate::Swarm) lanes share,
//! so both clients follow one decision table (DESIGN.md §3.14):
//!
//! * [`ErrorCode::retry_in_place`](bso_server::ErrorCode::retry_in_place)
//!   (`Busy`, `Expired`) — back off and re-send on the same
//!   connection; the server refused without applying.
//! * [`ErrorCode::retry_after_reconnect`](bso_server::ErrorCode::retry_after_reconnect)
//!   (`ShuttingDown`, `Overloaded`), transport errors (`Io`, `Wire`,
//!   an EOF, a handshake cut short) and no byte read for
//!   [`RetryPolicy::read_timeout`] while a reply is owed — drop the
//!   socket, back off, reconnect, resume, re-send.
//! * Everything else (`WrongShard`, `BadToken`, `BadRequest`, …), or
//!   [`RetryPolicy::max_attempts`] spent — surfaces to the caller. A
//!   `WrongShard` op was refused *before* applying because the
//!   routing table places its object on another server; this client
//!   has no table, and a routing-aware caller (the `bso-cluster`
//!   client, which keeps one `ResilientClient` per member) re-routes
//!   it to the owner's session — duplicate-safe because `WrongShard`
//!   guarantees non-application. The other refusals are terminal: the
//!   outcome is either knowable-and-bad or unknowable, and a blind
//!   retry could duplicate an effect.
//!
//! Backoff is capped exponential with deterministic
//! [`SplitMix64`](bso_objects::rng::SplitMix64)-seeded jitter, so a
//! chaos run's retry schedule is as replayable as its fault schedule.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use bso_objects::{Op, Value};
use bso_server::wire;
use bso_server::{Request, Response};

use crate::session::{self, Backoff, Next, Session};
use crate::{response_as, shape, ClientError, HistoryRecorder};

/// How hard a [`ResilientClient`] — or a resilient
/// [`Swarm`](crate::Swarm) lane, which takes the default — fights for
/// each operation.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). When they
    /// run out, the last refusal surfaces as [`ClientError`].
    pub max_attempts: u32,
    /// Backoff before attempt `n` is `base_backoff * 2^(n-1)`, capped
    /// at [`RetryPolicy::max_backoff`], jittered into the upper half.
    pub base_backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub max_backoff: Duration,
    /// How long a connection owed a reply may stay silent. A stalled
    /// server (or a chaos proxy sitting on a reply, or a corrupted
    /// length prefix announcing bytes that never come) turns into a
    /// timeout, which is treated like a broken connection: reconnect,
    /// resume, re-send. `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            read_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Fluent configuration for a [`ResilientClient`].
#[derive(Clone, Debug, Default)]
pub struct ResilientBuilder {
    token: Option<u64>,
    seed: Option<u64>,
    policy: RetryPolicy,
    recorder: Option<Arc<HistoryRecorder>>,
}

impl ResilientBuilder {
    /// The session token to bind on every connect (default: allocated
    /// from a process-wide counter). Chaos harnesses pass explicit
    /// seed-derived tokens so a whole run is replayable.
    #[must_use]
    pub fn token(mut self, token: u64) -> ResilientBuilder {
        self.token = Some(token);
        self
    }

    /// Seed for the backoff jitter (default: the session token, so a
    /// fixed token fixes the whole retry schedule).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ResilientBuilder {
        self.seed = Some(seed);
        self
    }

    /// The retry policy (attempts, backoff, read timeout).
    #[must_use]
    pub fn policy(mut self, policy: RetryPolicy) -> ResilientBuilder {
        self.policy = policy;
        self
    }

    /// Attaches a (shared) history recorder; every operation that
    /// ultimately succeeds is logged with interval timestamps. The
    /// interval spans first send to final receive, which safely covers
    /// the server-side linearization point even when the effect
    /// happened on an attempt whose reply the wire ate.
    #[must_use]
    pub fn recorder(mut self, rec: Arc<HistoryRecorder>) -> ResilientBuilder {
        self.recorder = Some(rec);
        self
    }

    /// Resolves `addr` and builds the client. No socket is opened yet;
    /// the first operation connects (and reconnects happen the same
    /// way), so a server that is briefly down at build time costs
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when `addr` resolves to nothing.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<ResilientClient, ClientError> {
        let addrs = session::resolve(addr)?;
        let token = self.token.unwrap_or_else(|| session::alloc_tokens(1));
        Ok(ResilientClient {
            addrs,
            session: Session::new(token),
            backoff: Backoff::new(self.policy, self.seed.unwrap_or(token)),
            recorder: self.recorder,
            stream: None,
            connects: 0,
            retries: 0,
        })
    }
}

/// One logical session that survives any number of broken sockets.
/// See the [module docs](self) for the retry contract.
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    /// `req_id`s (monotonic across reconnects — the server's reply
    /// cache is keyed by them), the op in flight and `last_acked`.
    session: Session,
    backoff: Backoff,
    recorder: Option<Arc<HistoryRecorder>>,
    stream: Option<TcpStream>,
    connects: u64,
    retries: u64,
}

impl ResilientClient {
    /// Starts configuring a resilient client.
    pub fn builder() -> ResilientBuilder {
        ResilientBuilder::default()
    }

    /// The session token this client binds on every connect.
    pub fn token(&self) -> u64 {
        self.session.token
    }

    /// Reconnects performed so far (the first connect not counted).
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Operation attempts beyond the first, across all causes
    /// (backpressure, shed deadlines, broken sockets).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Applies `op` as process `pid`, retrying per the policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when attempts run out or the refusal is
    /// terminal; [`ClientError::Io`] when the wire stays broken.
    pub fn apply(&mut self, pid: usize, op: Op) -> Result<Value, ClientError> {
        let req = Request::Apply {
            pid: pid as u32,
            op: op.clone(),
        };
        self.apply_recorded(pid, op, &req)
    }

    /// Applies `op` with a per-attempt freshness budget: the server
    /// sheds the attempt with a typed `Expired` if the budget runs out
    /// before the apply. Shed attempts are retried in place (each
    /// retry gets a fresh budget) until the policy gives up.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`]; a persistently
    /// overloaded server surfaces as [`ErrorCode::Expired`](bso_server::ErrorCode::Expired).
    pub fn apply_within(
        &mut self,
        pid: usize,
        op: Op,
        budget: Duration,
    ) -> Result<Value, ClientError> {
        let req = Request::DeadlineApply {
            budget_us: u32::try_from(budget.as_micros()).unwrap_or(u32::MAX),
            pid: pid as u32,
            op: op.clone(),
        };
        self.apply_recorded(pid, op, &req)
    }

    /// Opens a leader-election session over a fresh
    /// `compare&swap-(k)`. Safe under retries: a replayed open returns
    /// the originally minted session id instead of leaking a second
    /// election.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn open_election(&mut self, k: u32) -> Result<u32, ClientError> {
        let resp = self.call(&Request::OpenElection { k })?;
        response_as(resp, "an open-election", shape::session)
    }

    /// Runs participant `pid` of `session` to its decision and returns
    /// the elected leader.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn elect(&mut self, session: u32, pid: u32) -> Result<usize, ClientError> {
        let resp = self.call(&Request::Elect { session, pid })?;
        response_as(resp, "an elect", shape::winner)
    }

    /// Round-trips a no-op, reconnecting if needed.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let resp = self.call(&Request::Ping)?;
        response_as(resp, "a ping", shape::ack)
    }

    /// Scrapes the server's `bso-introspect/v1` snapshot.
    ///
    /// # Errors
    ///
    /// Same classes as [`ResilientClient::apply`].
    pub fn introspect(&mut self) -> Result<String, ClientError> {
        let resp = self.call(&Request::Introspect)?;
        response_as(resp, "an introspect", shape::snapshot)
    }

    /// Runs `req`, an apply of `op` by `pid`, to its value, logging it
    /// when a recorder is attached. The logged interval spans first
    /// send to final receive, so it covers the server-side
    /// linearization point whichever attempt applied the op.
    fn apply_recorded(&mut self, pid: usize, op: Op, req: &Request) -> Result<Value, ClientError> {
        let invoked_at = self.recorder.as_deref().map(HistoryRecorder::tick);
        let v = response_as(self.call(req)?, "an apply", shape::value)?;
        if let Some(rec) = &self.recorder {
            rec.complete(pid, op, v.clone(), invoked_at.unwrap_or(0));
        }
        Ok(v)
    }

    /// One operation, end to end: allocate a `req_id`, then attempt
    /// until the session settles it. The `req_id` is *fixed across
    /// every retry* — that is what lets the server distinguish "same op
    /// again, replay it" from new work.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.session.next_id();
        let mut frame = Vec::new();
        wire::encode_request(id, req, &mut frame)?;
        self.session.retain(id, frame);
        loop {
            let outcome = self.attempt(id);
            let wait = match self.session.settle(id, outcome.as_ref(), &mut self.backoff) {
                Next::Done => {
                    // A socket that failed an op may still owe its reply.
                    if outcome.is_err() {
                        self.stream = None;
                    }
                    return outcome;
                }
                Next::RetryInPlace(wait) => wait,
                Next::Reconnect(wait) => {
                    self.stream = None;
                    wait
                }
            };
            self.retries += 1;
            std::thread::sleep(wait);
        }
    }

    /// One attempt: connect (`Hello`, `Resume`) if there is no socket,
    /// write op `id`'s frame, read the matching response.
    fn attempt(&mut self, id: u64) -> Result<Response, ClientError> {
        if self.stream.is_none() {
            let read_timeout = self.backoff.policy.read_timeout;
            let stream = session::connect(&self.addrs, read_timeout, true, Some(&self.session))?;
            self.stream = Some(stream);
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(self.session.frame(id))?;
        let mut buf = Vec::new();
        if !wire::read_frame(stream, &mut buf)? {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-operation",
            )));
        }
        let (got, resp) = wire::decode_response_current(&buf)?;
        if got != id {
            return Err(ClientError::Protocol(format!(
                "response for req_id {got}, expected {id}"
            )));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_deterministic() {
        // The default policy doubles from 1 ms and stops at 100 ms.
        let full_ms = [1, 2, 4, 8, 16, 32, 64, 100, 100, 100];
        // Two backoffs from the same seed walk the same jitter sequence.
        let mut a = Backoff::new(RetryPolicy::default(), 7);
        let mut b = Backoff::new(RetryPolicy::default(), 7);
        for (attempt, full) in (1..).zip(full_ms.map(Duration::from_millis)) {
            let ja = a.delay(attempt);
            assert_eq!(ja, b.delay(attempt));
            assert!(ja <= full, "attempt {attempt} exceeded its ceiling");
            assert!(ja * 2 >= full, "jitter left the upper half");
        }
    }

    #[test]
    fn backoff_never_wraps() {
        // 2^20 s is ~2^50 ns: from attempt 15 on the exponential passes
        // u64::MAX nanoseconds and must saturate, not wrap to a short
        // wait.
        let policy = RetryPolicy {
            base_backoff: Duration::from_secs(1 << 20),
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        };
        let mut backoff = Backoff::new(policy, 7);
        for attempt in [15, 33, 64, 65, u32::MAX] {
            assert!(backoff.delay(attempt) >= Duration::from_nanos(u64::MAX / 2));
        }
    }
}
