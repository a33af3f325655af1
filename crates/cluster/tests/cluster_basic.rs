//! Cluster fundamentals without chaos: routed traffic lands on the
//! right members, a live migration redirects stale clients through
//! typed `WrongShard` refusals with exact ledgers, and a replicated
//! election survives the planned loss of its primary member.

use std::time::Duration;

use bso_client::{Connection, RetryPolicy};
use bso_cluster::{Cluster, ClusterClient};
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Value};
use bso_server::RoutingTable;

fn counters(n: usize) -> Layout {
    let mut l = Layout::new();
    for _ in 0..n {
        l.push(ObjectInit::FetchAdd(0));
    }
    l
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(20),
        read_timeout: Some(Duration::from_secs(2)),
    }
}

/// Every member serves a routing table; owners match the launch
/// assignment; the table document round-trips through the parser.
#[test]
fn launch_installs_a_consistent_table_everywhere() {
    let cluster = Cluster::launch(3, &counters(9)).unwrap();
    assert_eq!(cluster.epoch(), 1);
    for idx in 0..3 {
        let (epoch, doc) = cluster.admin(idx).unwrap().fetch_routing().unwrap();
        assert_eq!(epoch, 1, "member {idx} serves the launch epoch");
        let table = RoutingTable::parse(&doc).unwrap();
        assert_eq!(table.epoch, 1);
        // 9 objects over 3 members: contiguous thirds, last one
        // stretched to cover the whole id space.
        assert_eq!(table.owner_of(0), Some(cluster.advertised(0)));
        assert_eq!(table.owner_of(4), Some(cluster.advertised(1)));
        assert_eq!(table.owner_of(8), Some(cluster.advertised(2)));
        assert_eq!(table.owner_of(u64::MAX), Some(cluster.advertised(2)));
    }
    cluster.shutdown();
}

/// Traffic keeps flowing across a live migration: the stale client is
/// bounced with `WrongShard`, refreshes, redirects, and every
/// increment lands exactly once. Routing epochs only move forward at
/// every member, through the migration and a later evacuate + kill.
#[test]
fn live_migration_redirects_stale_clients_with_exact_ledgers() {
    const OBJECTS: usize = 6;
    const ROUNDS: i64 = 10;
    let mut cluster = Cluster::launch(3, &counters(OBJECTS)).unwrap();
    let seeds: Vec<String> = (0..3).map(|i| cluster.addr(i).to_string()).collect();
    // After every table change each live member serves the current
    // epoch, and no member's epoch ever goes backward.
    let mut seen = [0u64; 3];
    let mut check_epochs = |cluster: &Cluster, step: &str| {
        for idx in (0..3).filter(|&i| cluster.live(i)) {
            let (epoch, _) = cluster.admin(idx).unwrap().fetch_routing().unwrap();
            assert!(epoch >= seen[idx], "member {idx} went back after {step}");
            assert_eq!(epoch, cluster.epoch(), "member {idx} after {step}");
            seen[idx] = epoch;
        }
    };
    check_epochs(&cluster, "launch");
    let mut client = ClusterClient::connect(&seeds)
        .unwrap()
        .with_policy(fast_policy());
    assert_eq!(client.epoch(), 1);

    // First half of the traffic against the launch placement.
    for round in 0..ROUNDS / 2 {
        for obj in 0..OBJECTS {
            let v = client
                .apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                .unwrap();
            assert_eq!(v, Value::Int(round), "prestate of object {obj}");
        }
    }

    // Move member 0's whole slice to member 1 while the client's table
    // still says epoch 1.
    let ranges = cluster.owned_ranges(0);
    assert!(!ranges.is_empty());
    cluster.migrate(0, 1, &ranges).unwrap();
    assert_eq!(cluster.epoch(), 2);
    check_epochs(&cluster, "migration");

    // Second half: the first op against a moved object must bounce off
    // member 0, refresh, and land on member 1 — invisible up here
    // except for the redirect counter.
    for round in ROUNDS / 2..ROUNDS {
        for obj in 0..OBJECTS {
            let v = client
                .apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                .unwrap();
            assert_eq!(v, Value::Int(round), "prestate of object {obj}");
        }
    }
    assert!(client.redirects() >= 1, "the stale table had to redirect");
    assert_eq!(client.epoch(), 2, "refresh adopted the flipped table");

    // Exact ledgers, read through the (fresh) table: migration moved
    // state, lost nothing, duplicated nothing.
    for obj in 0..OBJECTS {
        let v = client
            .apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(0)))
            .unwrap();
        assert_eq!(v, Value::Int(ROUNDS), "final ledger of object {obj}");
    }

    // Planned loss of member 2: evacuate its slice, then kill it.
    cluster.evacuate(2).unwrap();
    cluster.kill(2);
    check_epochs(&cluster, "evacuate + kill");

    // The source really refused post-migration traffic (typed, counted)
    // and its exported copy stayed in place (retired, not deleted).
    let stats = cluster.kill(0);
    assert!(stats.wrong_shard >= 1, "member 0 counted its refusals");
    cluster.shutdown();
}

/// The detach barrier makes migration safe even when nobody ever told
/// the source's clients: a direct (table-oblivious) connection gets a
/// typed refusal carrying the epoch, not a wrong answer.
#[test]
fn detached_ranges_refuse_with_the_installed_epoch() {
    // 6 counters over 2 members: member 0 owns objects 0–2.
    let mut cluster = Cluster::launch(2, &counters(6)).unwrap();
    let mut direct = Connection::builder().connect(cluster.addr(0)).unwrap();
    direct
        .apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(1)))
        .unwrap();

    cluster.migrate(0, 1, &[(0, 1)]).unwrap();
    let err = direct
        .apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(1)))
        .unwrap_err();
    assert_eq!(err.wrong_shard_epoch(), Some(2), "refusal names the epoch");
    // Objects the member still owns keep serving on the same
    // connection.
    direct
        .apply(0, Op::new(ObjectId(2), OpKind::FetchAdd(1)))
        .unwrap();
    cluster.shutdown();
}

/// A replicated election outlives its primary: the winner decided
/// before the crash is the winner after it, served by the backup.
#[test]
fn replicated_election_survives_primary_loss() {
    let mut cluster = Cluster::launch(3, &counters(3)).unwrap();
    let seeds: Vec<String> = (0..3).map(|i| cluster.addr(i).to_string()).collect();
    let mut client = ClusterClient::connect(&seeds)
        .unwrap()
        .with_policy(fast_policy());

    let session = client.open_election(4).unwrap();
    let (primary, backup) = client.election_home(session).unwrap();
    assert_ne!(primary, backup, "replicas live on distinct members");
    let primary = primary.to_string();
    let victim = (0..3)
        .find(|&i| cluster.advertised(i) == primary)
        .expect("primary is a cluster member");

    // Decide the election at the primary; the decision is sealed onto
    // the backup.
    let winner = client.elect(session, 0).unwrap();
    assert_eq!(winner, 0, "sole participant so far wins its election");

    // Planned loss of the primary: evacuate its shards, then kill it.
    cluster.evacuate(victim).unwrap();
    assert!(cluster.owned_ranges(victim).is_empty());
    cluster.kill(victim);

    // Late participants still reach a decision — the same one —
    // through the backup replica.
    assert_eq!(client.elect(session, 1).unwrap(), winner);
    assert_eq!(client.elect(session, 2).unwrap(), winner);
    assert!(client.failovers() >= 1, "the backup had to take over");
    cluster.shutdown();
}
