//! Connection-churn chaos: a seeded kill-proxy sits between the
//! clients and the server, severing every connection after a bounded
//! number of forwarded bytes. Resilient clients must reconnect,
//! resume, and re-send — and the run must end with *exactly* the
//! effects the clients observed: the FetchAdd ledger equals the number
//! of acked increments (no duplicate applies, no lost applies), every
//! success has exactly one RTT sample, and the server's lifetime stats
//! reconcile with the churn. Two targeted plans pin the swarm's
//! recovery from a connection that goes silent mid-reply and from a
//! reconnect whose handshake is cut.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bso_client::{Connection, ResilientClient, RetryPolicy, Swarm, SwarmBuilder, SwarmReport};
use bso_objects::rng::SplitMix64;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind};
use bso_server::{Server, ServerHandle};

/// What the proxy does to one connection.
#[derive(Clone, Copy, Debug)]
enum Cut {
    /// Sever both directions once the client has sent this many bytes.
    ClientBytes(u64),
    /// Forward this many server->client bytes, then forward nothing
    /// more and close nothing: the client is owed bytes that never
    /// come, as when a corrupted length prefix announces a frame longer
    /// than what follows.
    SilenceAfter(u64),
    /// Close both sockets as soon as the client's first frame — its
    /// `Hello` — has been read, before the server sees it.
    AfterHello,
}

/// A chaos proxy that forwards bytes between each client and the
/// server, cutting each connection as its plan says.
struct KillProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl KillProxy {
    /// Kills each pair after a seeded client->server byte budget.
    /// Budgets are drawn in accept order from one seeded RNG, so a
    /// fixed seed fixes the kill schedule.
    fn spawn(upstream: SocketAddr, seed: u64, budget_lo: u64, budget_hi: u64) -> KillProxy {
        let mut rng = SplitMix64::new(seed);
        KillProxy::with_plan(upstream, move |_| {
            Cut::ClientBytes(budget_lo + rng.below(budget_hi - budget_lo))
        })
    }

    /// Cuts the `n`-th accepted connection (from 0) as `plan(n)` says.
    fn with_plan(
        upstream: SocketAddr,
        mut plan: impl FnMut(u64) -> Cut + Send + 'static,
    ) -> KillProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || {
            for (n, inbound) in (0u64..).zip(listener.incoming()) {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(client) = inbound else { break };
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                // Each direction forwards a byte budget, then severs
                // both (client -> server by default) or goes silent.
                let (up, down) = match plan(n) {
                    Cut::ClientBytes(b) => ((b, true), (u64::MAX, true)),
                    Cut::SilenceAfter(b) => ((u64::MAX, true), (b, false)),
                    Cut::AfterHello => {
                        let mut client = client;
                        let _ = bso_server::wire::read_frame(&mut client, &mut Vec::new());
                        let _ = client.shutdown(Shutdown::Both);
                        let _ = server.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let c2 = client.try_clone().unwrap();
                let s2 = server.try_clone().unwrap();
                std::thread::spawn(move || forward(client, server, up));
                std::thread::spawn(move || forward(s2, c2, down));
            }
        });
        KillProxy { addr, stop }
    }
}

impl Drop for KillProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Pumps `from` into `to` until either side closes. Once `budget`
/// bytes have passed it severs both directions — mid-frame,
/// mid-pipeline, wherever the count lands — or, without `sever`, keeps
/// reading and forwards nothing more.
fn forward(mut from: TcpStream, mut to: TcpStream, (mut budget, sever): (u64, bool)) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let pass = (n as u64).min(budget) as usize;
        budget -= pass as u64;
        if to.write_all(&buf[..pass]).is_err() || (budget == 0 && sever) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Runs a FetchAdd(1) swarm of `ops` increments on a thread and fails
/// the test if it has not finished within `limit`, so a lane that
/// waits forever shows up as a failure instead of a hung test.
fn run_watched(swarm: SwarmBuilder, addr: SocketAddr, ops: u64, limit: Duration) -> SwarmReport {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let report = swarm.run(addr, |_conn, seq| {
            (seq < ops).then(|| (0usize, Op::new(ObjectId(0), OpKind::FetchAdd(1))))
        });
        let _ = tx.send(report);
    });
    match rx.recv_timeout(limit) {
        Ok(report) => report.expect("resilient swarm finishes"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the swarm stalled: no result within {limit:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("a report or a panic"))
        }
    }
}

fn layout() -> Layout {
    let mut l = Layout::new();
    l.push(ObjectInit::FetchAdd(0));
    l
}

fn serve() -> ServerHandle {
    Server::builder()
        .shards(2)
        .pin_cores(false)
        .bind("127.0.0.1:0", &layout())
        .unwrap()
}

/// Reads the ledger directly from the server (not through the proxy).
fn read_counter(addr: SocketAddr) -> i64 {
    let mut direct = Connection::builder().connect(addr).unwrap();
    match direct.apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(0))) {
        Ok(v) => v.as_int().unwrap(),
        Err(e) => panic!("ledger read failed: {e}"),
    }
}

#[test]
fn swarm_survives_seeded_connection_churn_with_exact_effects() {
    const OPS: u64 = 4000;
    const CONNS: usize = 4;
    let handle = serve();
    let proxy = KillProxy::spawn(handle.local_addr(), 0xC4A05, 1_500, 6_000);

    let report = Swarm::builder()
        .connections(CONNS)
        .pipeline(4)
        .resilient(true)
        .session_base(0x5E55_0000)
        .retry_seed(0xC4A05)
        .run(proxy.addr, |_conn, seq| {
            (seq < OPS).then(|| (0usize, Op::new(ObjectId(0), OpKind::FetchAdd(1))))
        })
        .expect("resilient swarm rides out the churn");

    // Every issued increment was acked exactly once.
    assert_eq!(report.ops_ok, OPS);
    assert_eq!(report.ops_err, 0);
    assert_eq!(report.ops_busy, 0, "resilient mode retries busy in place");
    // Exactly one RTT sample per success, even across reconnects.
    assert_eq!(report.rtt_ns.len() as u64, report.ops_ok);
    // ~140 KiB of request traffic against 1.5–6 KiB budgets: the churn
    // really happened.
    assert!(
        report.reconnects >= 5,
        "expected real churn, saw {} reconnects",
        report.reconnects
    );

    // The ledger says every FetchAdd(1) applied exactly once: acked
    // effects all landed, replayed retries never re-applied.
    assert_eq!(read_counter(handle.local_addr()), OPS as i64);

    drop(proxy);
    let stats = handle.shutdown();
    // Exact accounting across resets: the initial lanes, one server
    // connection per reconnect, and the direct ledger probe.
    assert_eq!(stats.connections, CONNS as u64 + report.reconnects + 1);
    assert_eq!(
        stats.malformed, 0,
        "truncated frames are closes, not garbage"
    );
    assert_eq!(stats.version_rejects, 0);
    assert_eq!(stats.resumes, CONNS as u64 + report.reconnects);
    assert!(stats.requests >= OPS);
    assert!(stats.responses <= stats.requests);
}

#[test]
fn resilient_client_reconnects_and_never_double_applies() {
    const OPS: i64 = 300;
    let handle = serve();
    let proxy = KillProxy::spawn(handle.local_addr(), 0xFA17, 600, 2_000);

    let mut client = ResilientClient::builder()
        .token(0x7E57_7E57)
        .policy(RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            read_timeout: Some(Duration::from_secs(2)),
        })
        .connect(proxy.addr)
        .unwrap();

    let mut sum_of_prestates = 0i64;
    for _ in 0..OPS {
        let v = client
            .apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(1)))
            .expect("apply survives churn");
        sum_of_prestates += v.as_int().unwrap();
    }
    assert!(
        client.reconnects() >= 2,
        "budgets of <=2 KiB against ~10 KiB of traffic must force reconnects, saw {}",
        client.reconnects()
    );
    // Exactly-once: the counter's pre-states are 0,1,2,… with no value
    // skipped (lost apply) or repeated (duplicate apply), so their sum
    // is the exact arithmetic series.
    assert_eq!(sum_of_prestates, OPS * (OPS - 1) / 2);
    assert_eq!(read_counter(handle.local_addr()), OPS);

    drop(client);
    drop(proxy);
    let stats = handle.shutdown();
    assert_eq!(stats.malformed, 0);
    assert!(stats.resumes >= 3);
}

#[test]
fn swarm_recovers_a_connection_that_goes_silent_mid_reply() {
    const OPS: u64 = 2000;
    const CONNS: usize = 2;
    let handle = serve();
    // Lane 0's first connection stops delivering responses after 600
    // bytes (its handshake plus some replies, cut mid-frame) but stays
    // open; every other connection is clean.
    let proxy = KillProxy::with_plan(handle.local_addr(), |n| match n {
        0 => Cut::SilenceAfter(600),
        _ => Cut::ClientBytes(u64::MAX),
    });
    let swarm = Swarm::builder()
        .connections(CONNS)
        .pipeline(4)
        .resilient(true)
        .session_base(0x5117_0000);
    let report = run_watched(swarm, proxy.addr, OPS, Duration::from_secs(30));

    // The lane's read deadline replaced the silent connection once;
    // the re-sent ops were answered from the reply cache or applied
    // once.
    assert_eq!(report.reconnects, 1);
    assert_eq!(report.ops_ok, OPS);
    assert_eq!(report.ops_err + report.ops_busy, 0);
    assert_eq!(report.rtt_ns.len() as u64, report.ops_ok);
    assert_eq!(read_counter(handle.local_addr()), OPS as i64);
    drop(proxy);
    let stats = handle.shutdown();
    assert_eq!(stats.resumes, CONNS as u64 + 1);
}

#[test]
fn swarm_reconnects_again_when_a_reconnect_handshake_is_cut() {
    const OPS: u64 = 400;
    let handle = serve();
    // The lane's first connection is severed mid-traffic; its
    // reconnect is closed right after its `Hello`; the third
    // connection is clean.
    let proxy = KillProxy::with_plan(handle.local_addr(), |n| match n {
        0 => Cut::ClientBytes(1_500),
        1 => Cut::AfterHello,
        _ => Cut::ClientBytes(u64::MAX),
    });
    let swarm = Swarm::builder()
        .connections(1)
        .pipeline(4)
        .resilient(true)
        .session_base(0xC07_0000);
    let report = run_watched(swarm, proxy.addr, OPS, Duration::from_secs(30));

    // One reconnect completed: the cut handshake was a failed attempt,
    // not a fatal one.
    assert_eq!(report.reconnects, 1);
    assert_eq!(report.ops_ok, OPS);
    assert_eq!(report.ops_err + report.ops_busy, 0);
    assert_eq!(read_counter(handle.local_addr()), OPS as i64);
    drop(proxy);
    let stats = handle.shutdown();
    assert_eq!(stats.resumes, 2, "the cut handshake never reached Resume");
}
