//! The `bso-routing/v1` cluster routing table and its server-side
//! enforcement point.
//!
//! A cluster of `bso-server` instances partitions the object-id space
//! by *inclusive ranges*: the routing table maps each range to the
//! address of the one server currently serving it, stamped with an
//! **epoch** that only moves forward. Clients cache the table and send
//! each op straight to its owner; a server refuses ops for ranges it
//! does not own with a typed [`ErrorCode::WrongShard`] carrying its
//! epoch, which tells the client exactly whether its cache is stale
//! (refresh via [`Request::FetchRouting`], then re-route).
//!
//! ## The migration barrier
//!
//! `RouteControl` is the correctness heart of live migration. Every
//! apply on the serving path runs under a `RouteControl::guard` —
//! a shared (read) lock held across *both* the ownership check and the
//! object apply — while [`Request::DetachRanges`] takes the exclusive
//! (write) lock. That makes detach a true barrier: when the detach
//! request is answered, every apply on a detached range has either
//! fully completed (its effect is visible to the subsequent
//! [`Request::ExportObject`]) or will be refused with `WrongShard`.
//! There is no window in which an apply lands on state that was
//! already exported — the invariant the cluster's exactly-once ledger
//! tests pin down.
//!
//! A server that was never handed a table (`epoch` 0, routing
//! disabled) serves every object with no per-op locking: the
//! single-server deployments of previous revisions are unaffected.
//! The first [`Request::UpdateRouting`] must therefore arrive before
//! client traffic (the cluster bootstrap installs tables at launch,
//! before the member addresses are published).
//!
//! [`ErrorCode::WrongShard`]: crate::wire::ErrorCode::WrongShard
//! [`Request::FetchRouting`]: crate::wire::Request::FetchRouting
//! [`Request::DetachRanges`]: crate::wire::Request::DetachRanges
//! [`Request::ExportObject`]: crate::wire::Request::ExportObject
//! [`Request::UpdateRouting`]: crate::wire::Request::UpdateRouting

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use bso_telemetry::json::{self, Json};

/// The schema name of this routing-table revision.
pub const SCHEMA: &str = "bso-routing/v1";

/// One routing-table entry: an inclusive object-id range and the
/// address of the server serving it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteEntry {
    /// First object id of the range.
    pub lo: u64,
    /// Last object id of the range (inclusive).
    pub hi: u64,
    /// The serving server's address, as clients should dial it.
    pub addr: String,
}

/// An epoch-stamped `bso-routing/v1` table: the cluster's full
/// object-placement map, as distributed to servers and clients.
///
/// Epochs are the staleness order: any two views of the cluster are
/// comparable by epoch, and every placement change (a migration's
/// table flip) bumps it. Servers enforce monotonicity on install.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RoutingTable {
    /// The table's epoch; higher supersedes lower.
    pub epoch: u64,
    /// The placement map. Ranges must not overlap; lookup takes the
    /// first match.
    pub entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// The address serving `obj`, or `None` if no range covers it.
    pub fn owner_of(&self, obj: u64) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.lo <= obj && obj <= e.hi)
            .map(|e| e.addr.as_str())
    }

    /// Every range the table assigns to `addr`.
    pub fn ranges_of(&self, addr: &str) -> Vec<(u64, u64)> {
        self.entries
            .iter()
            .filter(|e| e.addr == addr)
            .map(|e| (e.lo, e.hi))
            .collect()
    }

    /// Serializes the table to its canonical JSON form.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("epoch", Json::U64(self.epoch)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("lo", Json::U64(e.lo)),
                                ("hi", Json::U64(e.hi)),
                                ("addr", Json::str(&e.addr)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a table from its [`RoutingTable::to_json`] form.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field (bad
    /// JSON, wrong schema, missing keys).
    pub fn parse(src: &str) -> Result<RoutingTable, String> {
        let doc = json::parse(src).map_err(|e| format!("routing table: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("routing table schema {other:?} (want {SCHEMA:?})")),
        }
        let epoch = doc
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or("routing table: missing epoch")?;
        let items = doc
            .get("entries")
            .and_then(Json::items)
            .ok_or("routing table: missing entries")?;
        let mut entries = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field = |key: &str| {
                item.get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("routing entry {i}: missing {key}"))
            };
            let lo = field("lo")?;
            let hi = field("hi")?;
            let addr = item
                .get("addr")
                .and_then(Json::as_str)
                .ok_or(format!("routing entry {i}: missing addr"))?;
            if lo > hi {
                return Err(format!("routing entry {i}: empty range {lo}..={hi}"));
            }
            entries.push(RouteEntry {
                lo,
                hi,
                addr: addr.to_string(),
            });
        }
        Ok(RoutingTable { epoch, entries })
    }
}

/// What one server knows about its own placement.
pub(crate) struct RouteState {
    /// The installed epoch (0 until a table arrives).
    epoch: u64,
    /// Inclusive ranges this server currently serves.
    owned: Vec<(u64, u64)>,
    /// The full serialized table, redistributed verbatim on
    /// [`FetchRouting`](crate::wire::Request::FetchRouting).
    table: String,
    /// Lifetime count of detach operations (migration drains).
    detaches: u64,
}

/// The server's routing enforcement point: placement state behind a
/// readers-writer lock whose read side is held across each apply (see
/// the module docs for why that lock *is* the migration barrier).
pub(crate) struct RouteControl {
    /// Fast path: false until the first table install, after which
    /// every apply takes the read lock. Flipped under the write lock.
    enabled: AtomicBool,
    inner: RwLock<RouteState>,
}

/// The ownership view an apply holds for its whole duration.
pub(crate) enum RouteGuard<'a> {
    /// Routing never enabled: this server serves everything.
    Open,
    /// Routing enabled: ownership pinned until the guard drops.
    Held(RwLockReadGuard<'a, RouteState>),
}

impl RouteGuard<'_> {
    /// Whether this server may apply to `obj` right now; `Err` carries
    /// the epoch to stamp into the `WrongShard` refusal.
    pub(crate) fn check(&self, obj: u64) -> Result<(), u64> {
        match self {
            RouteGuard::Open => Ok(()),
            RouteGuard::Held(state) => {
                if state.owned.iter().any(|&(lo, hi)| lo <= obj && obj <= hi) {
                    Ok(())
                } else {
                    Err(state.epoch)
                }
            }
        }
    }
}

impl RouteControl {
    pub(crate) fn new() -> RouteControl {
        RouteControl {
            enabled: AtomicBool::new(false),
            inner: RwLock::new(RouteState {
                epoch: 0,
                owned: Vec::new(),
                table: String::new(),
                detaches: 0,
            }),
        }
    }

    /// Pins the current ownership view; hold the guard across the
    /// apply it covers.
    pub(crate) fn guard(&self) -> RouteGuard<'_> {
        if !self.enabled.load(Ordering::Acquire) {
            RouteGuard::Open
        } else {
            RouteGuard::Held(self.inner.read().expect("routing lock poisoned"))
        }
    }

    /// Installs a routing view (epoch, owned ranges, serialized
    /// table); enables enforcement. `Err` carries the installed epoch
    /// when `epoch` would move it backwards.
    pub(crate) fn update(
        &self,
        epoch: u64,
        owned: Vec<(u64, u64)>,
        table: String,
    ) -> Result<(), u64> {
        let mut state = self.inner.write().expect("routing lock poisoned");
        if epoch < state.epoch {
            return Err(state.epoch);
        }
        state.epoch = epoch;
        state.owned = owned;
        state.table = table;
        self.enabled.store(true, Ordering::Release);
        Ok(())
    }

    /// The migration drain barrier: stops serving `ranges` at `epoch`.
    /// When this returns, no apply on the detached ranges is running
    /// or will run (until a later [`RouteControl::update`] hands them
    /// back). `Err` carries the installed epoch when `epoch` would
    /// move it backwards.
    pub(crate) fn detach(&self, epoch: u64, ranges: &[(u64, u64)]) -> Result<(), u64> {
        let mut state = self.inner.write().expect("routing lock poisoned");
        if epoch < state.epoch {
            return Err(state.epoch);
        }
        if !self.enabled.load(Ordering::Acquire) {
            // A detach on a server that never saw a table: it owned
            // everything, and now everything but `ranges`.
            state.owned = vec![(0, u64::MAX)];
        }
        state.owned = subtract(&state.owned, ranges);
        state.epoch = epoch;
        state.detaches += 1;
        self.enabled.store(true, Ordering::Release);
        Ok(())
    }

    /// The installed epoch and serialized table, for redistribution.
    pub(crate) fn snapshot(&self) -> (u64, String) {
        let state = self.inner.read().expect("routing lock poisoned");
        (state.epoch, state.table.clone())
    }

    /// The routing section of the `bso-introspect/v1` document.
    pub(crate) fn introspect(&self) -> Json {
        let state = self.inner.read().expect("routing lock poisoned");
        Json::obj([
            ("enabled", Json::Bool(self.enabled.load(Ordering::Acquire))),
            ("epoch", Json::U64(state.epoch)),
            ("detaches", Json::U64(state.detaches)),
            (
                "owned",
                Json::Arr(
                    state
                        .owned
                        .iter()
                        .map(|&(lo, hi)| Json::Arr(vec![Json::U64(lo), Json::U64(hi)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Removes every id covered by `cut` from `owned` (all ranges
/// inclusive), preserving order of the surviving pieces.
fn subtract(owned: &[(u64, u64)], cut: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut result: Vec<(u64, u64)> = owned.to_vec();
    for &(clo, chi) in cut {
        let mut next = Vec::with_capacity(result.len() + 1);
        for (lo, hi) in result {
            if chi < lo || hi < clo {
                next.push((lo, hi));
                continue;
            }
            if lo < clo {
                next.push((lo, clo - 1));
            }
            if chi < hi {
                next.push((chi + 1, hi));
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RoutingTable {
        RoutingTable {
            epoch: 7,
            entries: vec![
                RouteEntry {
                    lo: 0,
                    hi: 9,
                    addr: "127.0.0.1:4001".into(),
                },
                RouteEntry {
                    lo: 10,
                    hi: u64::MAX,
                    addr: "127.0.0.1:4002".into(),
                },
            ],
        }
    }

    #[test]
    fn table_json_round_trips() {
        let t = table();
        let back = RoutingTable::parse(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.owner_of(0), Some("127.0.0.1:4001"));
        assert_eq!(back.owner_of(9), Some("127.0.0.1:4001"));
        assert_eq!(back.owner_of(10), Some("127.0.0.1:4002"));
        assert_eq!(back.owner_of(u64::MAX), Some("127.0.0.1:4002"));
        assert_eq!(back.ranges_of("127.0.0.1:4001"), vec![(0, 9)]);
        let empty = RoutingTable::default();
        assert_eq!(empty.owner_of(3), None);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(RoutingTable::parse("").is_err());
        assert!(RoutingTable::parse("{\"schema\":\"bso-introspect/v1\"}").is_err());
        assert!(RoutingTable::parse("{\"schema\":\"bso-routing/v1\"}").is_err());
        // An empty range is a construction bug, not a placement.
        let bad = "{\"schema\":\"bso-routing/v1\",\"epoch\":1,\
                   \"entries\":[{\"lo\":5,\"hi\":4,\"addr\":\"x\"}]}";
        assert!(RoutingTable::parse(bad).is_err());
    }

    #[test]
    fn disabled_control_serves_everything() {
        let rc = RouteControl::new();
        assert!(matches!(rc.guard(), RouteGuard::Open));
        assert_eq!(rc.guard().check(u64::MAX), Ok(()));
        assert_eq!(rc.snapshot(), (0, String::new()));
    }

    #[test]
    fn update_enables_enforcement_and_epochs_only_advance() {
        let rc = RouteControl::new();
        rc.update(3, vec![(0, 9)], "t3".into()).unwrap();
        assert_eq!(rc.guard().check(9), Ok(()));
        assert_eq!(rc.guard().check(10), Err(3), "refusal carries the epoch");
        assert_eq!(rc.snapshot(), (3, "t3".into()));
        // Stale installs are refused, naming the installed epoch.
        assert_eq!(rc.update(2, vec![(0, u64::MAX)], "t2".into()), Err(3));
        assert_eq!(rc.guard().check(10), Err(3));
        // Same-epoch reinstall is allowed (idempotent redistribution).
        rc.update(3, vec![(0, 9)], "t3".into()).unwrap();
    }

    #[test]
    fn detach_carves_out_ranges() {
        let rc = RouteControl::new();
        rc.update(1, vec![(0, 99)], "t".into()).unwrap();
        rc.detach(2, &[(10, 19)]).unwrap();
        assert_eq!(rc.guard().check(9), Ok(()));
        assert_eq!(rc.guard().check(10), Err(2));
        assert_eq!(rc.guard().check(19), Err(2));
        assert_eq!(rc.guard().check(20), Ok(()));
        assert_eq!(rc.detach(1, &[(0, 0)]), Err(2), "stale detach refused");
        // A detach on a never-configured server leaves it owning the
        // complement.
        let fresh = RouteControl::new();
        fresh.detach(1, &[(5, 5)]).unwrap();
        assert_eq!(fresh.guard().check(5), Err(1));
        assert_eq!(fresh.guard().check(4), Ok(()));
        assert_eq!(fresh.guard().check(6), Ok(()));
    }

    #[test]
    fn range_subtraction_covers_the_edge_shapes() {
        // Disjoint, overlap-left, overlap-right, split, swallow.
        assert_eq!(subtract(&[(10, 20)], &[(0, 5)]), vec![(10, 20)]);
        assert_eq!(subtract(&[(10, 20)], &[(5, 12)]), vec![(13, 20)]);
        assert_eq!(subtract(&[(10, 20)], &[(18, 30)]), vec![(10, 17)]);
        assert_eq!(subtract(&[(10, 20)], &[(12, 15)]), vec![(10, 11), (16, 20)]);
        assert_eq!(subtract(&[(10, 20)], &[(10, 20)]), vec![]);
        assert_eq!(subtract(&[(0, u64::MAX)], &[(0, 0)]), vec![(1, u64::MAX)]);
        assert_eq!(
            subtract(&[(0, u64::MAX)], &[(u64::MAX, u64::MAX)]),
            vec![(0, u64::MAX - 1)]
        );
        assert_eq!(
            subtract(&[(0, 4), (10, 14)], &[(3, 11)]),
            vec![(0, 2), (12, 14)]
        );
    }
}
