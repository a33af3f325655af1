//! Per-loop shard state and the bounded cross-loop queue.
//!
//! Objects are partitioned across event loops by id (`ObjectId(i)`
//! lives on loop `i mod nshards`), and each loop owns its
//! [`ShardState`] outright — there is no locking around an object,
//! ever. A request arriving on the loop that owns its object is
//! applied inline (the fast path); a request for another loop's object
//! crosses exactly one bounded [`XQueue`]. Routing never blocks: a
//! full queue is answered with a typed [`ErrorCode::Busy`] response
//! instead of stalling the event loop — backpressure is the client's
//! problem to retry, not the server's to absorb.
//!
//! Because one loop owns each object outright, operations on it are
//! trivially linearizable: the linearization point is the loop's
//! sequential [`ObjectState::apply`]. Cross-object operations don't
//! exist in the wire protocol, so no loop ever waits on another.
//!
//! Election sessions (see [`crate::wire::Request::OpenElection`]) are
//! sharded the same way by session id. Each session instantiates the
//! Burns–Cruz–Loui [`CasOnlyElection`] from `bso-protocols` over a
//! private `compare&swap-(k)` object, and an `Elect` request drives
//! that participant's *actual protocol state machine* — one
//! [`Protocol::next_action`]/[`Protocol::on_response`] step at a time —
//! to its decision, so the service and the simulator run the very same
//! election code.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bso_objects::spec::ObjectState;
use bso_objects::{Layout, Op, Value};
use bso_protocols::CasOnlyElection;
use bso_sim::{Action, Protocol};

use crate::introspect::elapsed_ns;
use crate::wire::{ErrorCode, Response};

/// One event loop's slice of the object space plus its election
/// sessions. Strictly single-owner: only the owning loop ever touches
/// it, so every method takes `&mut self` and the interior is lock-free.
pub(crate) struct ShardState {
    /// `objects[id]` is `Some` only for ids this shard owns; the rest
    /// of the id space stays `None` so misrouted ids fail loudly
    /// instead of silently aliasing.
    objects: Vec<Option<ObjectState>>,
    sessions: HashMap<u32, ElectionSession>,
}

/// A live election session: the protocol instance plus its private
/// register.
struct ElectionSession {
    proto: CasOnlyElection,
    cas: ObjectState,
}

impl ShardState {
    /// Materializes shard `shard` of `nshards` over `layout`.
    pub(crate) fn new(layout: &Layout, shard: usize, nshards: usize) -> ShardState {
        let objects = layout
            .objects()
            .iter()
            .enumerate()
            .map(|(id, init)| (id % nshards == shard).then(|| ObjectState::from_init(init)))
            .collect();
        ShardState {
            objects,
            sessions: HashMap::new(),
        }
    }

    /// Applies one operation to an owned object, returning the
    /// response and the measured apply time in nanoseconds (for the
    /// caller's probe and trace spans). This call is the
    /// linearization point of the operation.
    pub(crate) fn apply(&mut self, pid: usize, op: &Op) -> (Response, u64) {
        let t = std::time::Instant::now();
        let resp = match self.objects.get_mut(op.obj.0).and_then(Option::as_mut) {
            Some(state) => match state.apply(pid, &op.kind) {
                Ok(v) => Response::Ok(v),
                Err(e) => Response::Err {
                    code: ErrorCode::Object,
                    message: e.to_string(),
                },
            },
            None => Response::Err {
                code: ErrorCode::BadRequest,
                message: format!("no object with id {}", op.obj),
            },
        };
        (resp, elapsed_ns(t))
    }

    /// Creates an election session under an id already allocated by
    /// the router (`session % nshards` must equal this shard's index).
    pub(crate) fn open_election(&mut self, session: u32, k: usize) -> Response {
        match open_session(k) {
            Ok(s) => {
                self.sessions.insert(session, s);
                Response::Session(session)
            }
            Err(message) => Response::Err {
                code: ErrorCode::BadRequest,
                message,
            },
        }
    }

    /// Runs one participant of a session to its decision, returning
    /// the response and the measured time in nanoseconds.
    pub(crate) fn elect(&mut self, session: u32, pid: usize) -> (Response, u64) {
        let t = std::time::Instant::now();
        let resp = match self.sessions.get_mut(&session) {
            None => Response::Err {
                code: ErrorCode::UnknownSession,
                message: format!("no election session {session}"),
            },
            Some(s) => match run_participant(s, pid) {
                Ok(v) => Response::Ok(v),
                Err(message) => Response::Err {
                    code: ErrorCode::BadRequest,
                    message,
                },
            },
        };
        (resp, elapsed_ns(t))
    }

    // Cluster-plane transfer surface (live shard migration; see
    // DESIGN.md §3.15). Exports leave the source state in place — the
    // routing table, not deletion, is what stops a drained range from
    // serving — and installs overwrite whatever stale copy the target
    // materialized from the shared layout.

    /// Serializes an owned object's full state for migration.
    pub(crate) fn export_object(&mut self, obj: usize) -> Response {
        match self.objects.get(obj).and_then(Option::as_ref) {
            Some(state) => Response::Ok(state.export()),
            None => Response::Err {
                code: ErrorCode::BadRequest,
                message: format!("no object with id {obj} to export"),
            },
        }
    }

    /// Installs a migrated object's state under `obj`, overwriting any
    /// resident copy (the stale layout-initialized one, typically).
    pub(crate) fn install_object(&mut self, obj: usize, state: &Value) -> Response {
        match ObjectState::import(state) {
            Ok(imported) => {
                if obj >= self.objects.len() {
                    self.objects.resize_with(obj + 1, || None);
                }
                self.objects[obj] = Some(imported);
                Response::Ok(Value::Nil)
            }
            Err(message) => Response::Err {
                code: ErrorCode::BadRequest,
                message: format!("cannot install object {obj}: {message}"),
            },
        }
    }

    /// Serializes an election session as `[k, cas-state]` — enough to
    /// reconstruct the session (and its history so far) elsewhere.
    pub(crate) fn export_session(&mut self, session: u32) -> Response {
        match self.sessions.get(&session) {
            Some(s) => {
                // Burns–Cruz–Loui at the ceiling: n = k − 1.
                let k = s.proto.processes() + 1;
                Response::Ok(Value::Seq(vec![Value::Int(k as i64), s.cas.export()]))
            }
            None => Response::Err {
                code: ErrorCode::UnknownSession,
                message: format!("no election session {session} to export"),
            },
        }
    }

    /// Reconstructs an election session from an exported `state` (the
    /// cas-state half of [`ShardState::export_session`]'s pair),
    /// overwriting any resident session under the same id.
    pub(crate) fn install_session(&mut self, session: u32, k: usize, state: &Value) -> Response {
        let mut s = match open_session(k) {
            Ok(s) => s,
            Err(message) => {
                return Response::Err {
                    code: ErrorCode::BadRequest,
                    message,
                }
            }
        };
        match ObjectState::import(state) {
            Ok(cas) => {
                s.cas = cas;
                self.sessions.insert(session, s);
                Response::Session(session)
            }
            Err(message) => Response::Err {
                code: ErrorCode::BadRequest,
                message: format!("cannot install session {session}: {message}"),
            },
        }
    }
}

/// Builds a session: a `CasOnlyElection` at the Burns–Cruz–Loui
/// ceiling (`n = k − 1`) over a fresh private register.
fn open_session(k: usize) -> Result<ElectionSession, String> {
    if !(2..=255).contains(&k) {
        return Err(format!("election domain k must be in 2..=255, got {k}"));
    }
    let proto = CasOnlyElection::new(k - 1, k)?;
    let layout = proto.layout();
    let cas = ObjectState::from_init(&layout.objects()[0]);
    Ok(ElectionSession { proto, cas })
}

/// Drives participant `pid`'s state machine to its decision against
/// the session's register. `CasOnlyElection` is wait-free (one shared
/// operation then a decision), so this loop is bounded.
fn run_participant(s: &mut ElectionSession, pid: usize) -> Result<Value, String> {
    if pid >= s.proto.processes() {
        return Err(format!(
            "participant {pid} out of range (session hosts {})",
            s.proto.processes()
        ));
    }
    let mut state = s.proto.init(pid, &Value::Pid(pid));
    loop {
        match s.proto.next_action(&state) {
            Action::Invoke(op) => {
                let resp = s.cas.apply(pid, &op.kind).map_err(|e| e.to_string())?;
                s.proto.on_response(&mut state, resp);
            }
            Action::Decide(v) => return Ok(v),
        }
    }
}

/// Why a message could not be enqueued on an [`XQueue`].
pub(crate) enum RouteError {
    /// The queue is at capacity.
    Busy,
    /// The owning loop has exited.
    Closed,
}

/// The **bounded** cross-loop work queue in front of each event loop.
///
/// [`XQueue::try_push`] is the only way in; it either enqueues or
/// reports why not ([`RouteError::Busy`] / [`RouteError::Closed`]).
/// The owning loop drains with [`XQueue::drain_into`], which
/// takes everything queued in one lock acquisition — pushers never
/// hold the lock across anything slower than a `VecDeque::push_back`.
pub(crate) struct XQueue<T> {
    q: Mutex<VecDeque<T>>,
    capacity: usize,
    closed: AtomicBool,
}

impl<T> XQueue<T> {
    /// A queue of at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> XQueue<T> {
        XQueue {
            q: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
        }
    }

    /// Enqueues without blocking, or says why not. The caller turns
    /// [`RouteError::Busy`] into a typed wire response — the request
    /// was *not* enqueued.
    pub(crate) fn try_push(&self, item: T) -> Result<(), RouteError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(RouteError::Closed);
        }
        let mut q = self.q.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(RouteError::Busy);
        }
        q.push_back(item);
        Ok(())
    }

    /// Moves everything queued into `out` (appending), in FIFO order.
    pub(crate) fn drain_into(&self, out: &mut Vec<T>) {
        let mut q = self.q.lock().unwrap();
        out.extend(q.drain(..));
    }

    /// Marks the queue closed: subsequent pushes fail with
    /// [`RouteError::Closed`]. Already-queued items stay drainable.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether nothing is queued right now.
    pub(crate) fn is_empty(&self) -> bool {
        self.q.lock().unwrap().is_empty()
    }

    /// How many entries are queued right now (an instantaneous depth
    /// reading for `Introspect` scrapes and the `queue_depth` gauge).
    pub(crate) fn len(&self) -> usize {
        self.q.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso_objects::{ObjectId, ObjectInit};

    fn small_layout() -> Layout {
        let mut l = Layout::new();
        l.push(ObjectInit::CasK { k: 4 });
        l.push(ObjectInit::Register(Value::Nil));
        l.push(ObjectInit::FetchAdd(0));
        l
    }

    #[test]
    fn apply_owns_only_its_slice_of_the_id_space() {
        let layout = small_layout();
        // Shard 1 of 2 owns object 1 only.
        let mut s = ShardState::new(&layout, 1, 2);
        let (resp, _) = s.apply(0, &Op::write(ObjectId(1), Value::Int(5)));
        assert_eq!(resp, Response::Ok(Value::Nil));
        let (resp, _) = s.apply(0, &Op::read(ObjectId(1)));
        assert_eq!(resp, Response::Ok(Value::Int(5)));
        // A misrouted id (object 0 belongs to shard 0) is a
        // BadRequest, not an aliased apply.
        let (resp, _) = s.apply(0, &Op::read(ObjectId(0)));
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // Object-level refusals are typed separately.
        let (resp, _) = s.apply(0, &Op::new(ObjectId(1), bso_objects::OpKind::Dequeue));
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrorCode::Object,
                ..
            }
        ));
    }

    #[test]
    fn election_session_elects_exactly_one_winner() {
        let mut s = ShardState::new(&Layout::new(), 0, 1);
        assert_eq!(s.open_election(7, 5), Response::Session(7));
        let mut winners = Vec::new();
        for pid in 0..4 {
            match s.elect(7, pid).0 {
                Response::Ok(v) => winners.push(v.as_pid().unwrap()),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Consistency: everyone elected the same leader; validity: the
        // leader is a participant.
        assert!(winners.windows(2).all(|w| w[0] == w[1]));
        assert!(winners[0] < 4);
        // Unknown session, out-of-range pid, and a bad domain are
        // typed errors.
        assert!(matches!(
            s.elect(8, 0).0,
            Response::Err {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        assert!(matches!(
            s.elect(7, 99).0,
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            s.open_election(9, 1),
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn migration_transfer_round_trips_objects_and_sessions() {
        let layout = small_layout();
        let mut src = ShardState::new(&layout, 0, 1);
        let mut dst = ShardState::new(&layout, 0, 1);
        src.apply(0, &Op::write(ObjectId(1), Value::Int(41)));
        let exported = match src.export_object(1) {
            Response::Ok(v) => v,
            other => panic!("export refused: {other:?}"),
        };
        assert_eq!(dst.install_object(1, &exported), Response::Ok(Value::Nil));
        let (resp, _) = dst.apply(0, &Op::read(ObjectId(1)));
        assert_eq!(resp, Response::Ok(Value::Int(41)));
        // The source copy stays in place: the routing table, not
        // deletion, is what retires a migrated range.
        let (resp, _) = src.apply(0, &Op::read(ObjectId(1)));
        assert_eq!(resp, Response::Ok(Value::Int(41)));

        // A half-run election migrates with its history: pid 0 decides
        // at the source, pid 1 at the target elects the same winner.
        assert_eq!(src.open_election(3, 5), Response::Session(3));
        let w0 = match src.elect(3, 0).0 {
            Response::Ok(v) => v.as_pid().unwrap(),
            other => panic!("elect refused: {other:?}"),
        };
        let pair = match src.export_session(3) {
            Response::Ok(Value::Seq(p)) => p,
            other => panic!("session export refused: {other:?}"),
        };
        assert_eq!(pair[0], Value::Int(5), "exported pair leads with k");
        assert_eq!(dst.install_session(3, 5, &pair[1]), Response::Session(3));
        let w1 = match dst.elect(3, 1).0 {
            Response::Ok(v) => v.as_pid().unwrap(),
            other => panic!("elect refused: {other:?}"),
        };
        assert_eq!(w0, w1, "migrated session keeps its decided winner");

        // Typed refusals: unknown ids and malformed state.
        assert!(matches!(
            src.export_object(99),
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            src.export_session(9),
            Response::Err {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        assert!(matches!(
            dst.install_object(1, &Value::Int(7)),
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            dst.install_session(4, 1, &pair[1]),
            Response::Err {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn full_queue_reports_busy_without_blocking() {
        let q: XQueue<u64> = XQueue::new(2);
        assert!(q.try_push(0).is_ok());
        assert!(q.try_push(1).is_ok());
        assert!(matches!(q.try_push(2), Err(RouteError::Busy)));
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![0, 1], "FIFO, rejected push not enqueued");
        assert!(q.is_empty());
        assert!(q.try_push(3).is_ok(), "drained queue accepts again");
    }

    #[test]
    fn closed_queue_reports_closed_but_stays_drainable() {
        let q: XQueue<u64> = XQueue::new(4);
        assert!(q.try_push(0).is_ok());
        q.close();
        assert!(matches!(q.try_push(1), Err(RouteError::Closed)));
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![0], "pre-close item survives for draining");
    }
}
