//! `bso-cluster`: multi-server sharding for the `bso-wire/v2`
//! shared-object service.
//!
//! A cluster is a set of independent `bso-server` instances, each
//! bound over the *same* [`Layout`], plus a `bso-routing/v1`
//! [`RoutingTable`] that assigns each inclusive object-id range to
//! exactly one member. The table — not the layout — decides which copy
//! of an object is live: every member holds a (possibly stale)
//! materialization of the full layout, and the server-side
//! [`RouteControl`](bso_server::routing) enforcement refuses ops
//! outside a member's owned ranges with a typed `WrongShard` carrying
//! the table epoch.
//!
//! Two pieces live here:
//!
//! * [`Cluster`] — the coordination harness: launches members,
//!   installs and redistributes epoch-stamped tables, drives **live
//!   shard migration** (detach-barrier → state transfer → table flip)
//!   and member evacuation/kill. Production deployments would run this
//!   logic in an operator; tests and benches run it in-process.
//! * [`ClusterClient`] — the routing-aware client: caches the table,
//!   routes each op to its owner over a per-member
//!   [`ResilientClient`] session, refreshes-and-redirects on
//!   `WrongShard`, fails over to surviving members when an owner dies,
//!   and runs **replicated election sessions** (primary + backup
//!   member). After each decision at the primary the client copies the
//!   decided state to the backup (a best-effort seal), and electing
//!   fails over to the backup when the primary is gone. A lost seal
//!   leaves the backup pristine: if the primary then dies, the next
//!   participant can win at the backup, a second winner for one
//!   session. ROADMAP item 2 owns the model of this protocol and its
//!   fix.
//!
//! ## Exactly-once across migration
//!
//! The migration protocol keeps the single-server exactly-once
//! contract (DESIGN.md §3.14) intact:
//!
//! 1. [`Cluster::migrate`] first sends `DetachRanges` to the source.
//!    The server answers only once every apply on the detached ranges
//!    has completed or is refused — the routing read-lock held across
//!    each apply makes the detach a barrier.
//! 2. Object state is exported *after* the barrier, so it contains
//!    every completed apply, and installed on the target before any
//!    client is told about the move.
//! 3. The table flips to a higher epoch and is broadcast. Clients with
//!    stale tables get `WrongShard` (a guaranteed **not-applied**
//!    refusal), refresh, and redirect; retried ops whose effect landed
//!    *before* the barrier are still answered from the source's reply
//!    cache, because servers admit sessions before checking routing.
//!
//! The one unknowable: an op whose effect landed at a member that then
//! crashed *before the client consumed the reply and before any
//! migration*. That is the ordinary single-server crash case — no
//! routing table can recover an outcome that only the dead server
//! knew. The harness's [`Cluster::evacuate`]-then-[`Cluster::kill`]
//! discipline exists exactly so planned member loss never creates it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bso_client::resilient::RetryPolicy;
use bso_client::{ClientError, Connection, HistoryRecorder, ResilientClient};
use bso_objects::spec::ObjectState;
use bso_objects::{Layout, ObjectInit, Op, Value};
use bso_server::{ErrorCode, RouteEntry, RoutingTable, Server, ServerHandle, ServerStats};

/// Session-id base for cluster-replicated elections. Server-minted
/// session ids count up from zero; cluster-chosen ids start far above
/// so the two allocators never collide on the same member.
static NEXT_SESSION: AtomicU32 = AtomicU32::new(1 << 20);

/// One cluster member: a live server handle (until killed) plus the
/// two addresses it is known by.
struct Member {
    /// `Some` while the member is alive.
    handle: Option<ServerHandle>,
    /// The direct address the coordinator dials for admin traffic.
    addr: SocketAddr,
    /// The address published in the routing table for clients — the
    /// direct address by default, a chaos proxy when tests interpose
    /// one via [`Cluster::advertise`].
    advertised: String,
}

/// An in-process cluster of `bso-server` members under one
/// epoch-stamped routing table. See the [module docs](self).
pub struct Cluster {
    members: Vec<Member>,
    /// Current table epoch; bumped by every placement or address
    /// change before it is broadcast.
    epoch: u64,
    /// `(lo, hi, member)` ownership triples covering the whole id
    /// space (the last launch chunk extends to `u64::MAX`).
    assignments: Vec<(u64, u64, usize)>,
    /// Objects materialized by the shared layout (migratable state).
    nobjects: usize,
}

impl Cluster {
    /// Launches `n` members over `layout`, assigns contiguous
    /// object-id chunks (the last chunk extends to `u64::MAX` so every
    /// id has an owner), and installs the epoch-1 table on every
    /// member before returning — no client can race the bootstrap.
    ///
    /// # Errors
    ///
    /// Bind failures as [`ClientError::Io`]; table-install failures in
    /// the classes of [`Connection::apply`].
    pub fn launch(n: usize, layout: &Layout) -> Result<Cluster, ClientError> {
        assert!(n >= 1, "a cluster needs at least one member");
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let handle = Server::builder()
                .shards(2)
                .bind("127.0.0.1:0", layout)
                .map_err(ClientError::Io)?;
            let addr = handle.local_addr();
            members.push(Member {
                handle: Some(handle),
                addr,
                advertised: addr.to_string(),
            });
        }
        let nobjects = layout.objects().len().max(1);
        let chunk = nobjects.div_ceil(n) as u64;
        let mut assignments = Vec::with_capacity(n);
        for (i, _) in members.iter().enumerate() {
            let lo = i as u64 * chunk;
            let hi = if i == n - 1 {
                u64::MAX
            } else {
                (i as u64 + 1) * chunk - 1
            };
            if lo <= hi {
                assignments.push((lo, hi, i));
            }
        }
        let mut cluster = Cluster {
            members,
            epoch: 0,
            assignments,
            nobjects,
        };
        cluster.epoch = 1;
        cluster.broadcast()?;
        Ok(cluster)
    }

    /// Number of members (live and killed).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (never true after
    /// [`Cluster::launch`]; present for `len` symmetry).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member `idx`'s direct (admin) address.
    pub fn addr(&self, idx: usize) -> SocketAddr {
        self.members[idx].addr
    }

    /// Member `idx`'s published client address.
    pub fn advertised(&self, idx: usize) -> &str {
        &self.members[idx].advertised
    }

    /// Whether member `idx` is still serving.
    pub fn live(&self, idx: usize) -> bool {
        self.members[idx].handle.is_some()
    }

    /// The current table epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current routing table, as clients should see it.
    pub fn table(&self) -> RoutingTable {
        RoutingTable {
            epoch: self.epoch,
            entries: self
                .assignments
                .iter()
                .map(|&(lo, hi, m)| RouteEntry {
                    lo,
                    hi,
                    addr: self.members[m].advertised.clone(),
                })
                .collect(),
        }
    }

    /// Publishes `addr` as member `idx`'s client-facing address (a
    /// chaos proxy in front of it, typically) and rebroadcasts the
    /// table under a bumped epoch.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`].
    pub fn advertise(&mut self, idx: usize, addr: impl Into<String>) -> Result<(), ClientError> {
        self.members[idx].advertised = addr.into();
        self.epoch += 1;
        self.broadcast()
    }

    /// A fresh admin connection to member `idx`'s direct address.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures per [`Connection::builder`].
    pub fn admin(&self, idx: usize) -> Result<Connection, ClientError> {
        Connection::builder().connect(self.members[idx].addr)
    }

    /// Live-migrates `ranges` from member `from` to member `to`:
    /// detach barrier on the source, object-state transfer, table flip
    /// at a bumped epoch, broadcast. Traffic may keep flowing
    /// throughout — ops racing the barrier either complete before it
    /// (their effects travel with the export) or bounce `WrongShard`
    /// and redirect.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`]. On error the table is
    /// not flipped; the detached ranges stay dark on the source until
    /// a retry or a manual re-install.
    pub fn migrate(
        &mut self,
        from: usize,
        to: usize,
        ranges: &[(u64, u64)],
    ) -> Result<(), ClientError> {
        assert!(from != to, "migration source and target must differ");
        let next = self.epoch + 1;
        // 1. Barrier: when this returns, no apply on `ranges` is
        //    running or will run at the source.
        let mut src = self.admin(from)?;
        src.detach_ranges(next, ranges.to_vec())?;
        // 2. Transfer every materialized object the ranges cover. The
        //    export is post-barrier, so it sees every completed apply.
        let mut dst = self.admin(to)?;
        for &(lo, hi) in ranges {
            let hi = hi.min(self.nobjects as u64 - 1);
            for obj in lo..=hi {
                let state = src.export_object(obj as u32)?;
                dst.install_object(obj as u32, state)?;
            }
        }
        // 3. Flip and broadcast.
        carve(&mut self.assignments, ranges, to);
        self.epoch = next;
        self.broadcast()
    }

    /// Migrates everything member `idx` owns to the other live
    /// members, round-robin per range. Afterwards `idx` owns nothing —
    /// the precondition for a planned [`Cluster::kill`].
    ///
    /// # Errors
    ///
    /// Same classes as [`Cluster::migrate`].
    pub fn evacuate(&mut self, idx: usize) -> Result<(), ClientError> {
        let targets: Vec<usize> = (0..self.members.len())
            .filter(|&m| m != idx && self.live(m))
            .collect();
        assert!(!targets.is_empty(), "no live member to evacuate to");
        let owned: Vec<(u64, u64)> = self
            .assignments
            .iter()
            .filter(|&&(_, _, m)| m == idx)
            .map(|&(lo, hi, _)| (lo, hi))
            .collect();
        for (i, range) in owned.into_iter().enumerate() {
            self.migrate(idx, targets[i % targets.len()], &[range])?;
        }
        Ok(())
    }

    /// Shuts member `idx` down and returns its lifetime stats. The
    /// routing table is *not* changed: callers evacuate first (planned
    /// loss) or leave the stale entries for clients to discover
    /// (simulated unplanned loss).
    ///
    /// # Panics
    ///
    /// If the member was already killed.
    pub fn kill(&mut self, idx: usize) -> ServerStats {
        self.members[idx]
            .handle
            .take()
            .expect("member already killed")
            .shutdown()
    }

    /// Shuts every surviving member down.
    pub fn shutdown(mut self) -> Vec<ServerStats> {
        let mut stats = Vec::new();
        for m in &mut self.members {
            if let Some(h) = m.handle.take() {
                stats.push(h.shutdown());
            }
        }
        stats
    }

    /// Ranges member `idx` currently owns.
    pub fn owned_ranges(&self, idx: usize) -> Vec<(u64, u64)> {
        self.assignments
            .iter()
            .filter(|&&(_, _, m)| m == idx)
            .map(|&(lo, hi, _)| (lo, hi))
            .collect()
    }

    /// Installs the current table on every live member under the
    /// current epoch.
    fn broadcast(&mut self) -> Result<(), ClientError> {
        let doc = self.table().to_json();
        for idx in 0..self.members.len() {
            if !self.live(idx) {
                continue;
            }
            let owned = self.owned_ranges(idx);
            self.admin(idx)?
                .update_routing(self.epoch, owned, doc.clone())?;
        }
        Ok(())
    }
}

/// Reassigns every id of `cut` to `new_owner`, splitting overlapping
/// assignment ranges as needed. Ranges are inclusive.
fn carve(assignments: &mut Vec<(u64, u64, usize)>, cut: &[(u64, u64)], new_owner: usize) {
    for &(clo, chi) in cut {
        let mut next = Vec::with_capacity(assignments.len() + 2);
        for &(lo, hi, m) in assignments.iter() {
            if chi < lo || hi < clo {
                next.push((lo, hi, m));
                continue;
            }
            if lo < clo {
                next.push((lo, clo - 1, m));
            }
            next.push((lo.max(clo), hi.min(chi), new_owner));
            if chi < hi {
                next.push((chi + 1, hi, m));
            }
        }
        *assignments = next;
    }
    // Merge adjacent same-owner pieces so tables stay small.
    assignments.sort_by_key(|&(lo, _, _)| lo);
    let mut merged: Vec<(u64, u64, usize)> = Vec::with_capacity(assignments.len());
    for &(lo, hi, m) in assignments.iter() {
        match merged.last_mut() {
            Some(&mut (_, ref mut phi, pm)) if pm == m && *phi != u64::MAX && *phi + 1 == lo => {
                *phi = hi;
            }
            _ => merged.push((lo, hi, m)),
        }
    }
    *assignments = merged;
}

/// One replicated election session's placement, pinned at open time so
/// later table changes cannot remap it.
struct ElectionHome {
    primary: String,
    backup: String,
    k: u32,
}

/// A routing-aware, fault-tolerant cluster client. See the
/// [module docs](self) for the redirect and failover contract.
pub struct ClusterClient {
    table: RoutingTable,
    /// Addresses always worth asking for a fresh table (typically the
    /// members' direct addresses), tried before the table's own.
    seeds: Vec<String>,
    clients: HashMap<String, ResilientClient>,
    recorder: Option<Arc<HistoryRecorder>>,
    policy: RetryPolicy,
    elections: HashMap<u32, ElectionHome>,
    refreshes: u64,
    redirects: u64,
    failovers: u64,
}

impl ClusterClient {
    /// Connects by fetching the routing table from the first `seeds`
    /// member that answers.
    ///
    /// # Errors
    ///
    /// The last member's failure when none answers.
    pub fn connect(seeds: &[String]) -> Result<ClusterClient, ClientError> {
        let mut client = ClusterClient {
            table: RoutingTable::default(),
            seeds: seeds.to_vec(),
            clients: HashMap::new(),
            recorder: None,
            policy: RetryPolicy::default(),
            elections: HashMap::new(),
            refreshes: 0,
            redirects: 0,
            failovers: 0,
        };
        client.refresh()?;
        Ok(client)
    }

    /// Attaches a (shared) history recorder; every per-member session
    /// created *after* this call logs its successful ops. Call it
    /// before the first operation.
    #[must_use]
    pub fn with_recorder(mut self, rec: Arc<HistoryRecorder>) -> ClusterClient {
        self.recorder = Some(rec);
        self
    }

    /// Overrides the per-member retry policy (sessions created after
    /// this call).
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> ClusterClient {
        self.policy = policy;
        self
    }

    /// The table epoch this client is routing by.
    pub fn epoch(&self) -> u64 {
        self.table.epoch
    }

    /// Table refreshes performed (bootstrap included).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Ops re-routed after a `WrongShard` refusal.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Ops re-routed after their owner died (plus election failovers
    /// to the backup member).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Transport reconnects across all per-member sessions.
    pub fn reconnects(&self) -> u64 {
        self.clients.values().map(|c| c.reconnects()).sum()
    }

    /// Re-fetches the routing table, keeping the highest epoch any
    /// reachable member serves. Seeds are asked first, then the
    /// current table's addresses.
    ///
    /// # Errors
    ///
    /// The last failure when no member answers at all.
    pub fn refresh(&mut self) -> Result<(), ClientError> {
        let mut candidates: Vec<String> = self.seeds.clone();
        for e in &self.table.entries {
            if !candidates.contains(&e.addr) {
                candidates.push(e.addr.clone());
            }
        }
        let mut last_err: Option<ClientError> = None;
        let mut best: Option<RoutingTable> = None;
        for addr in &candidates {
            let fetched = Connection::builder()
                .connect(addr.as_str())
                .and_then(|mut c| c.fetch_routing());
            match fetched {
                Ok((_, doc)) => match RoutingTable::parse(&doc) {
                    Ok(t) if best.as_ref().is_none_or(|b| t.epoch > b.epoch) => best = Some(t),
                    Ok(_) => {}
                    Err(msg) => last_err = Some(ClientError::Protocol(msg)),
                },
                Err(e) => last_err = Some(e),
            }
        }
        match best {
            Some(t) => {
                if t.epoch > self.table.epoch {
                    self.table = t;
                }
                self.refreshes += 1;
                Ok(())
            }
            None => Err(last_err.unwrap_or(ClientError::Protocol(
                "no cluster member answered a routing fetch".into(),
            ))),
        }
    }

    /// Applies `op` as process `pid` at the owner the table names,
    /// redirecting after `WrongShard` refusals (guaranteed
    /// not-applied) and failing over when the owner is unreachable and
    /// a refreshed table names a different one.
    ///
    /// # Errors
    ///
    /// Terminal server refusals as [`ClientError::Server`]; owner
    /// unreachable with no new placement as [`ClientError::Io`].
    pub fn apply(&mut self, pid: usize, op: Op) -> Result<Value, ClientError> {
        let obj = op.obj.0 as u64;
        let mut hops = 0;
        loop {
            let addr = self.owner_of(obj)?;
            // A connect failure counts as the owner being unreachable,
            // same as a mid-op loss — both reach the failover arm.
            let out = match self.client_for(&addr) {
                Ok(c) => c.apply(pid, op.clone()),
                Err(e) => Err(e),
            };
            match out {
                Ok(v) => return Ok(v),
                Err(e) if e.wrong_shard_epoch().is_some() && hops < 32 => {
                    // Not applied, by contract — refresh and re-route.
                    // During a migration's transfer window no member
                    // serves the flipped table yet; if the refresh
                    // brought nothing newer, wait out the window
                    // instead of burning hops.
                    self.redirects += 1;
                    let before = self.table.epoch;
                    self.refresh()?;
                    if self.table.epoch <= before {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    hops += 1;
                }
                Err(ClientError::Io(io)) if hops < 8 => {
                    // The owner is unreachable. If a refreshed table
                    // moves the object, the detach barrier guarantees
                    // the old owner can no longer have applied it —
                    // re-issuing at the new owner is safe. If the
                    // placement is unchanged, the outcome is unknown
                    // and the error surfaces.
                    self.refresh()?;
                    let now = self.owner_of(obj)?;
                    if now == addr {
                        return Err(ClientError::Io(io));
                    }
                    self.failovers += 1;
                    hops += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Opens a **replicated** election session over a fresh
    /// `compare&swap-(k)`: the same session id and pristine state are
    /// installed on a primary and a backup member (chosen by session
    /// id over the members the table names now, pinned for the
    /// session's lifetime). Returns the session id.
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`]; both replicas must
    /// install for the open to succeed.
    pub fn open_election(&mut self, k: u32) -> Result<u32, ClientError> {
        let members = self.member_addrs();
        if members.len() < 2 {
            return Err(ClientError::Protocol(
                "replicated elections need at least two live members".into(),
            ));
        }
        let sid = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        let primary = members[sid as usize % members.len()].clone();
        let backup = members[(sid as usize + 1) % members.len()].clone();
        let fresh = ObjectState::from_init(&ObjectInit::CasK { k: k as usize }).export();
        Connection::builder()
            .connect(primary.as_str())?
            .install_session(sid, k, fresh.clone())?;
        Connection::builder()
            .connect(backup.as_str())?
            .install_session(sid, k, fresh)?;
        self.elections
            .insert(sid, ElectionHome { primary, backup, k });
        Ok(sid)
    }

    /// Runs participant `pid` of replicated session `session` to its
    /// decision. After every primary-side decision the client tries to
    /// seal the decided state onto the backup; when the seal lands and
    /// the primary then dies, electing against the backup returns the
    /// *same* winner. The seal is best effort, so agreement across a
    /// primary loss is not guaranteed (see the module docs).
    ///
    /// # Errors
    ///
    /// Same classes as [`Connection::apply`]; unknown session ids are
    /// a [`ClientError::Protocol`] (only sessions opened by this
    /// client can be replicated-elected).
    pub fn elect(&mut self, session: u32, pid: u32) -> Result<usize, ClientError> {
        let (primary, backup, k) = {
            let home = self.elections.get(&session).ok_or_else(|| {
                ClientError::Protocol(format!("election session {session} was not opened here"))
            })?;
            (home.primary.clone(), home.backup.clone(), home.k)
        };
        let at_primary = match self.client_for(&primary) {
            Ok(c) => c.elect(session, pid),
            Err(e) => Err(e),
        };
        match at_primary {
            Ok(winner) => {
                // Seal: copy the decided state so the backup agrees
                // from now on. Best effort: a failed seal leaves the
                // backup pristine, and if the primary then dies the
                // next participant can win there, a second winner
                // (ROADMAP item 2 owns the model and the fix).
                let _ = self.seal(&primary, &backup, session, k);
                Ok(winner)
            }
            Err(e) if failover_worthy(&e) => {
                self.failovers += 1;
                self.client_for(&backup)?.elect(session, pid)
            }
            Err(e) => Err(e),
        }
    }

    /// The `(primary, backup)` placement pinned for a replicated
    /// election session opened by this client.
    pub fn election_home(&self, session: u32) -> Option<(&str, &str)> {
        self.elections
            .get(&session)
            .map(|h| (h.primary.as_str(), h.backup.as_str()))
    }

    /// Copies `session`'s state from `from` to `to`.
    fn seal(&mut self, from: &str, to: &str, session: u32, k: u32) -> Result<(), ClientError> {
        let pair = Connection::builder()
            .connect(from)?
            .export_session(session)?;
        let state = match pair {
            Value::Seq(items) if items.len() == 2 => items[1].clone(),
            other => {
                return Err(ClientError::Protocol(format!(
                    "malformed session export: {other}"
                )))
            }
        };
        Connection::builder()
            .connect(to)?
            .install_session(session, k, state)
    }

    /// The distinct member addresses the current table names, in
    /// table order.
    fn member_addrs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.table.entries {
            if !out.contains(&e.addr) {
                out.push(e.addr.clone());
            }
        }
        out
    }

    fn owner_of(&self, obj: u64) -> Result<String, ClientError> {
        self.table
            .owner_of(obj)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol(format!("no routing entry covers object {obj}")))
    }

    fn client_for(&mut self, addr: &str) -> Result<&mut ResilientClient, ClientError> {
        if !self.clients.contains_key(addr) {
            let mut b = ResilientClient::builder().policy(self.policy.clone());
            if let Some(rec) = &self.recorder {
                b = b.recorder(Arc::clone(rec));
            }
            self.clients.insert(addr.to_string(), b.connect(addr)?);
        }
        Ok(self.clients.get_mut(addr).expect("inserted above"))
    }
}

/// Whether an election attempt at the primary should fail over to the
/// backup: transport-level losses and a primary that no longer knows
/// the session (it was restarted or the session never installed).
fn failover_worthy(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) | ClientError::Wire(_) => true,
        ClientError::Server { code, .. } => *code == ErrorCode::UnknownSession,
        ClientError::Protocol(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_splits_and_merges_assignments() {
        let mut a = vec![(0, 9, 0), (10, u64::MAX, 1)];
        carve(&mut a, &[(4, 12)], 2);
        assert_eq!(a, vec![(0, 3, 0), (4, 12, 2), (13, u64::MAX, 1)]);
        // Handing the carved piece back to member 0 merges with its
        // remaining prefix.
        carve(&mut a, &[(4, 12)], 0);
        assert_eq!(a, vec![(0, 12, 0), (13, u64::MAX, 1)]);
        // Whole-range takeover.
        carve(&mut a, &[(0, u64::MAX)], 1);
        assert_eq!(a, vec![(0, u64::MAX, 1)]);
    }

    #[test]
    fn failover_classification_matches_the_contract() {
        assert!(failover_worthy(&ClientError::Io(std::io::Error::other(
            "gone"
        ))));
        assert!(failover_worthy(&ClientError::Server {
            code: ErrorCode::UnknownSession,
            message: String::new(),
        }));
        assert!(!failover_worthy(&ClientError::Server {
            code: ErrorCode::BadRequest,
            message: String::new(),
        }));
        assert!(!failover_worthy(&ClientError::Protocol(String::new())));
    }
}
