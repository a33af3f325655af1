//! The client half of the session protocol (DESIGN.md §3.14), written
//! once. Two drivers carry out what this module decides:
//! [`ResilientClient`] (one op in flight on a blocking socket) and
//! resilient [`Swarm`] lanes (pipelined, on the poller). They move
//! bytes and sleep; they never classify an error, compute a backoff or
//! speak `Hello`/`Resume` themselves.
//!
//! * [`connect`] is the one connect-time exchange: TCP connect,
//!   `TCP_NODELAY`, `Hello`, and `Resume` when there is a session.
//!   [`ClientBuilder::connect`] and a non-resilient `Swarm` use it too.
//! * A [`Session`] allocates `req_id`s from 1, keeps each in-flight
//!   op's frame and attempt count, and derives `last_acked` from them.
//! * [`Session::settle`] turns one attempt's outcome into the next step
//!   by one decision table:
//!
//! | attempt outcome | next step |
//! |---|---|
//! | any non-error response | done; the id is acked |
//! | `retry_in_place` (`Busy`, `Expired`) | back off, re-send the same frame on the same connection |
//! | `retry_after_reconnect` (`ShuttingDown`, `Overloaded`); `Io`/`Wire`, EOF at any point (the handshake included), no byte read for `read_timeout` while owed a reply | drop the socket, back off, reconnect + `Hello` + `Resume`, re-send every in-flight frame in id order |
//! | anything else, or `max_attempts` spent | surface it |
//!
//! * [`Backoff`] times every wait: capped exponential with
//!   [`SplitMix64`]-seeded jitter, so a chaos run's retry schedule is
//!   as replayable as its fault schedule.
//!
//! [`ResilientClient`]: crate::ResilientClient
//! [`Swarm`]: crate::Swarm
//! [`ClientBuilder::connect`]: crate::ClientBuilder::connect

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bso_objects::rng::SplitMix64;
use bso_server::wire;
use bso_server::{Request, Response};

use crate::{response_as, ClientError, RetryPolicy};

/// Process-wide fallback token allocator for resilient clients and
/// swarms that are not given tokens. Tokens must be unique per server
/// session table, and every resilient client in this process may talk
/// to the same server. Starts above zero so a default token is never
/// confused with "unset" in logs.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Allocates `n` consecutive fresh session tokens, returning the first.
pub(crate) fn alloc_tokens(n: u64) -> u64 {
    NEXT_TOKEN.fetch_add(n, Ordering::Relaxed)
}

/// `req_id`s of the connect-time exchange. They lie outside every
/// session's operation ids (the server's reply cache never sees control
/// opcodes) and are consumed before the socket carries anything else,
/// so every connect reuses them.
const HELLO_REQ_ID: u64 = u64::MAX;
const RESUME_REQ_ID: u64 = u64::MAX - 1;

/// Resolves `addr`, refusing one that names no socket address.
pub(crate) fn resolve(addr: impl ToSocketAddrs) -> Result<Vec<SocketAddr>, ClientError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to no socket addresses",
        )));
    }
    Ok(addrs)
}

/// Opens a blocking connection to the first of `addrs` that accepts,
/// disables Nagle's algorithm (pipelined small frames serialize on the
/// RTT otherwise), applies `read_timeout`, then greets the server:
/// `Hello` unless `hello` is false, and `Resume { token, last_acked }`
/// when there is a `session`.
///
/// A server that closes the socket mid-exchange fails as
/// [`ClientError::Io`], so the decision table reconnects; a refused
/// version is a [`ClientError::Server`] with `ErrorCode::Version`.
pub(crate) fn connect(
    addrs: &[SocketAddr],
    read_timeout: Option<Duration>,
    hello: bool,
    session: Option<&Session>,
) -> Result<TcpStream, ClientError> {
    let mut stream = TcpStream::connect(addrs)?;
    stream.set_nodelay(true)?;
    if read_timeout.is_some() {
        stream.set_read_timeout(read_timeout)?;
    }
    if hello {
        let req = Request::Hello {
            version: wire::VERSION,
        };
        exchange(&mut stream, HELLO_REQ_ID, &req, "a hello", |r| match r {
            Response::Hello { version } if version == wire::VERSION => Ok(()),
            r => Err(r),
        })?;
    }
    if let Some(s) = session {
        let req = Request::Resume {
            token: s.token,
            last_acked: s.last_acked(),
        };
        exchange(&mut stream, RESUME_REQ_ID, &req, "a resume", |r| match r {
            Response::Resumed { token, .. } if token == s.token => Ok(()),
            r => Err(r),
        })?;
    }
    Ok(stream)
}

/// One blocking round trip on a fresh socket, before it carries
/// anything else. The reply must be what `accept` accepts: another
/// version or another session token is a [`ClientError::Protocol`].
fn exchange(
    stream: &mut TcpStream,
    req_id: u64,
    req: &Request,
    what: &str,
    accept: impl FnOnce(Response) -> Result<(), Response>,
) -> Result<(), ClientError> {
    let mut buf = Vec::new();
    wire::encode_request(req_id, req, &mut buf)?;
    stream.write_all(&buf)?;
    buf.clear();
    if !wire::read_frame(stream, &mut buf)? {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection during the handshake",
        )));
    }
    let (id, resp) = wire::decode_response_current(&buf)?;
    if id != req_id {
        return Err(ClientError::Protocol(format!(
            "handshake response for req_id {id}, expected {req_id}"
        )));
    }
    response_as(resp, what, accept)
}

/// What a driver does after one attempt of an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// The outcome stands: hand it over (or count it). The op is no
    /// longer in flight.
    Done,
    /// Wait, then re-send the op's frame on the same connection.
    RetryInPlace(Duration),
    /// Drop the socket, wait, reconnect, and re-send every in-flight
    /// frame in id order.
    Reconnect(Duration),
}

/// An op in flight: the frame a retry re-sends verbatim, so the server
/// sees the same `req_id`, and the attempts it has had.
struct Retained {
    frame: Vec<u8>,
    attempts: u32,
}

/// The client state of one resumable session.
pub(crate) struct Session {
    /// The token `Resume` binds.
    pub(crate) token: u64,
    /// The next `req_id`. Ids count from 1: `Resume { last_acked }`
    /// prunes ids `<= last_acked`, so id 0 could not be told from
    /// "nothing acked yet".
    next_id: u64,
    inflight: BTreeMap<u64, Retained>,
}

impl Session {
    pub(crate) fn new(token: u64) -> Session {
        Session {
            token,
            next_id: 1,
            inflight: BTreeMap::new(),
        }
    }

    /// Allocates the next `req_id`.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Puts op `id` in flight with its encoded `frame`.
    pub(crate) fn retain(&mut self, id: u64, frame: Vec<u8>) {
        self.inflight.insert(id, Retained { frame, attempts: 0 });
    }

    /// The frame of in-flight op `id`.
    pub(crate) fn frame(&self, id: u64) -> &[u8] {
        &self.inflight[&id].frame
    }

    /// Every in-flight frame in id order: what a new connection
    /// re-sends.
    pub(crate) fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.inflight.values().map(|r| r.frame.as_slice())
    }

    /// The in-flight ids, oldest first.
    pub(crate) fn in_flight(&self) -> Vec<u64> {
        self.inflight.keys().copied().collect()
    }

    /// The highest id the client has consumed: every id below the
    /// oldest one in flight, else every id allocated so far. `Resume`
    /// reports it so the server can prune its reply cache.
    pub(crate) fn last_acked(&self) -> u64 {
        self.inflight
            .keys()
            .next()
            .map_or(self.next_id - 1, |oldest| oldest - 1)
    }

    /// Charges op `id` one attempt that ended in `outcome` and decides
    /// the next step by the decision table in the [module docs](self).
    /// [`Next::Done`] forgets the op.
    pub(crate) fn settle(
        &mut self,
        id: u64,
        outcome: Result<&Response, &ClientError>,
        backoff: &mut Backoff,
    ) -> Next {
        let op = self.inflight.get_mut(&id).expect("settled op is in flight");
        op.attempts += 1;
        let attempts = op.attempts;
        let next = if attempts >= backoff.policy.max_attempts {
            Next::Done
        } else {
            match outcome {
                Ok(Response::Err { code, .. }) | Err(ClientError::Server { code, .. })
                    if code.retry_in_place() =>
                {
                    Next::RetryInPlace(backoff.delay(attempts))
                }
                Ok(Response::Err { code, .. }) | Err(ClientError::Server { code, .. })
                    if code.retry_after_reconnect() =>
                {
                    Next::Reconnect(backoff.delay(attempts))
                }
                // Broken sockets, EOFs, read timeouts and corrupt bytes
                // poison the connection, not the session.
                Err(ClientError::Io(_) | ClientError::Wire(_)) => {
                    Next::Reconnect(backoff.delay(attempts))
                }
                _ => Next::Done,
            }
        };
        if next == Next::Done {
            self.inflight.remove(&id);
        }
        next
    }
}

/// Capped exponential backoff with seeded jitter, and the
/// [`RetryPolicy`] it serves.
pub(crate) struct Backoff {
    pub(crate) policy: RetryPolicy,
    rng: SplitMix64,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            rng: SplitMix64::new(seed),
        }
    }

    /// The wait after an op's `attempt`-th failed attempt:
    /// `base_backoff * 2^(attempt-1)` capped at `max_backoff`, jittered
    /// into the upper half so synchronized clients desynchronize
    /// deterministically.
    pub(crate) fn delay(&mut self, attempt: u32) -> Duration {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let cap = nanos(self.policy.max_backoff);
        let full = nanos(self.policy.base_backoff)
            .saturating_mul(1 << attempt.saturating_sub(1).min(63))
            .min(cap)
            .max(1);
        Duration::from_nanos(full / 2 + self.rng.below(full / 2 + 1))
    }
}
