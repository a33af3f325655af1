//! End-to-end checks for the observability bins: `bsotop` polling a
//! live server (including the fault-recovery counters — resumes,
//! replays and deadline sheds — and the agreement of the server's
//! three metric views: `ServerStats`, `Introspect` and the Registry),
//! `bsotop --tail` following a heartbeat file, `bsotop --cluster`
//! showing each member's routing epoch and ranges, and `trace_merge`
//! joining two sink exports.
//!
//! The binaries run as real subprocesses (`CARGO_BIN_EXE_*`), so these
//! tests cover argument parsing and output shape, not just the
//! library plumbing underneath.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bso::client::Connection;
use bso::objects::{Layout, ObjectId, ObjectInit, Op, OpKind};
use bso::server::Server;
use bso_telemetry::json::{self, Json};
use bso_telemetry::trace::{TraceArg, TraceSink};

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn bsotop_renders_two_frames_from_a_live_server() {
    let mut layout = Layout::new();
    layout.push(ObjectInit::FetchAdd(0));
    layout.push(ObjectInit::FetchAdd(0));
    let handle = Server::builder()
        .shards(2)
        .pin_cores(false)
        .bind("127.0.0.1:0", &layout)
        .unwrap();
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let traffic = std::thread::spawn(move || {
        let mut conn = Connection::builder().connect(addr).unwrap();
        while !flag.load(Ordering::Relaxed) {
            for obj in 0..2 {
                conn.apply(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                    .unwrap();
            }
        }
    });

    let out = Command::new(env!("CARGO_BIN_EXE_bsotop"))
        .args([&addr.to_string(), "--frames", "2", "--interval-ms", "50"])
        .output()
        .expect("spawn bsotop");
    stop.store(true, Ordering::Relaxed);
    traffic.join().unwrap();

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bsotop failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("bso-server"), "no header in {stdout:?}");
    assert!(stdout.contains("shard"), "no shard table in {stdout:?}");
    // One row per shard per frame.
    assert_eq!(stdout.matches("requests").count(), 2, "two frames rendered");
    handle.shutdown();
}

#[test]
fn bsotop_tails_a_serving_heartbeat_file() {
    let path = tmp("bsotop_tail.jsonl");
    std::fs::write(
        &path,
        concat!(
            r#"{"schema": "bso-progress/v1", "seq": 0, "elapsed_ms": 200, "states": 0, "#,
            r#""frontier": 0, "serve_requests": 100, "serve_responses": 90, "#,
            r#""serve_busy": 0, "serve_conns": 8, "serve_queue_depths": [1, 2]}"#,
            "\n",
            r#"{"schema": "bso-progress/v1", "seq": 1, "elapsed_ms": 400, "states": 0, "#,
            r#""frontier": 0, "serve_requests": 300, "serve_responses": 290, "#,
            r#""serve_busy": 0, "serve_conns": 8, "serve_queue_depths": [0, 3]}"#,
            "\n",
        ),
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_bsotop"))
        .args([
            "--tail",
            path.to_str().unwrap(),
            "--frames",
            "1",
            "--interval-ms",
            "20",
        ])
        .output()
        .expect("spawn bsotop");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bsotop --tail failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("300 requests"),
        "latest beat wins: {stdout:?}"
    );
    assert!(
        stdout.contains("[0, 3]"),
        "queue depths rendered: {stdout:?}"
    );
}

#[test]
fn trace_merge_joins_two_exports() {
    // Two sinks with skewed clocks, sharing two trace_ids.
    let client = TraceSink::enabled();
    let server = TraceSink::enabled();
    let cw = client.worker("conn0");
    let sw = server.worker("server-loop0");
    for id in [7u64, 9] {
        let t = cw.now_ns();
        cw.event_at(
            t,
            Some(2_000),
            "client.apply",
            [("trace_id", TraceArg::U64(id))],
        );
        let t = sw.now_ns() + 500_000;
        sw.event_at(
            t,
            Some(1_000),
            "server.apply",
            [("trace_id", TraceArg::U64(id))],
        );
    }

    let c_path = tmp("trace_merge_client.json");
    let s_path = tmp("trace_merge_server.json");
    let out_path = tmp("trace_merge_out.json");
    std::fs::write(&c_path, client.export_string()).unwrap();
    std::fs::write(&s_path, server.export_string()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_trace_merge"))
        .args([&c_path, &s_path, &out_path].map(|p| p.to_str().unwrap().to_string()))
        .output()
        .expect("spawn trace_merge");
    assert!(
        out.status.success(),
        "trace_merge failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("merged 2 requests"),
        "summary line"
    );

    let merged = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(
        merged.get("schema").and_then(Json::as_str),
        Some("bso-trace/v1"),
        "merged doc keeps the schema"
    );
    assert_eq!(
        merged
            .get("merged")
            .and_then(|m| m.get("matched"))
            .and_then(Json::as_u64),
        Some(2)
    );
}

#[test]
fn bsotop_reports_fault_recovery_counters() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use bso::objects::Value;
    use bso::server::{wire, ErrorCode, Request, Response, ServerStats};
    use bso_telemetry::Registry;

    fn send(c: &mut TcpStream, id: u64, req: &Request) {
        let mut buf = Vec::new();
        wire::encode_request(id, req, &mut buf).unwrap();
        c.write_all(&buf).unwrap();
    }
    fn recv(c: &mut TcpStream) -> (u64, Response) {
        let mut body = Vec::new();
        assert!(wire::read_frame(c, &mut body).unwrap(), "unexpected EOF");
        wire::decode_response(&body).unwrap()
    }
    fn code(resp: Response) -> Option<ErrorCode> {
        match resp {
            Response::Err { code, .. } => Some(code),
            _ => None,
        }
    }
    fn totals(s: &ServerStats) -> [(&'static str, u64); 10] {
        [
            ("busy", s.busy),
            ("connections", s.connections),
            ("malformed", s.malformed),
            ("replays", s.replays),
            ("requests", s.requests),
            ("responses", s.responses),
            ("resumes", s.resumes),
            ("shed", s.shed),
            ("version_rejects", s.version_rejects),
            ("wrong_shard", s.wrong_shard),
        ]
    }

    let mut layout = Layout::new();
    layout.push(ObjectInit::FetchAdd(0));
    layout.push(ObjectInit::FetchAdd(0));
    let registry = Registry::enabled();
    let handle = Server::builder()
        .shards(2)
        .pin_cores(false)
        .registry(registry.clone())
        .bind("127.0.0.1:0", &layout)
        .unwrap();
    let addr = handle.local_addr();

    // Force one of each recovery event: a session resume, a shed
    // zero-budget op, and (after a simulated crash) a duplicate-retry
    // replay — then the dashboard must surface all three. Around them,
    // every other outcome the server counts: an inline and a
    // cross-shard apply (one object per loop), a version reject, a
    // malformed frame and, last, a `WrongShard`.
    let token = 0x70_u64;
    let add = Request::Apply {
        pid: 0,
        op: Op::new(ObjectId(0), OpKind::FetchAdd(3)),
    };
    let mut c = TcpStream::connect(addr).unwrap();
    send(
        &mut c,
        1,
        &Request::Resume {
            token,
            last_acked: 0,
        },
    );
    recv(&mut c);
    send(&mut c, 2, &add);
    assert_eq!(recv(&mut c), (2, Response::Ok(Value::Int(0))));
    send(
        &mut c,
        3,
        &Request::Apply {
            pid: 0,
            op: Op::new(ObjectId(1), OpKind::FetchAdd(1)),
        },
    );
    assert_eq!(recv(&mut c), (3, Response::Ok(Value::Int(0))));
    send(
        &mut c,
        4,
        &Request::DeadlineApply {
            budget_us: 0,
            pid: 0,
            op: Op::new(ObjectId(0), OpKind::FetchAdd(1)),
        },
    );
    assert_eq!(code(recv(&mut c).1), Some(ErrorCode::Expired));
    drop(c);
    let mut c2 = TcpStream::connect(addr).unwrap();
    send(
        &mut c2,
        10,
        &Request::Resume {
            token,
            last_acked: 1,
        },
    );
    recv(&mut c2);
    send(&mut c2, 2, &add);
    assert_eq!(recv(&mut c2), (2, Response::Ok(Value::Int(0))), "replayed");
    send(&mut c2, 11, &Request::Hello { version: 1 });
    assert_eq!(code(recv(&mut c2).1), Some(ErrorCode::Version));
    // A frame claiming a 4 GiB body is malformed: its connection dies.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    assert_eq!(bad.read(&mut [0u8; 1]).unwrap(), 0, "malformed conn closed");

    let out = Command::new(env!("CARGO_BIN_EXE_bsotop"))
        .args([&addr.to_string(), "--frames", "1"])
        .output()
        .expect("spawn bsotop");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bsotop failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("faults: 2 resumes (+2), 1 replays (+1), 1 shed (+1)"),
        "fault counters rendered: {stdout:?}"
    );
    assert!(stdout.contains("shed/s"), "per-shard column: {stdout:?}");

    // One apply per object from c2: whichever loop c2 is not on runs
    // one of them, so that loop has committed everything it counted
    // before c2 sees the answer.
    for (id, obj) in [(12, 0), (13, 1)] {
        send(
            &mut c2,
            id,
            &Request::Apply {
                pid: 0,
                op: Op::read(ObjectId(obj)),
            },
        );
        assert!(matches!(recv(&mut c2).1, Response::Ok(_)));
    }
    // A routing table that leaves object 1 to another server.
    send(
        &mut c2,
        14,
        &Request::UpdateRouting {
            epoch: 1,
            ranges: vec![(0, 0)],
            table: String::new(),
        },
    );
    assert_eq!(recv(&mut c2), (14, Response::Ok(Value::Nil)));
    send(
        &mut c2,
        15,
        &Request::Apply {
            pid: 0,
            op: Op::read(ObjectId(1)),
        },
    );
    assert_eq!(code(recv(&mut c2).1), Some(ErrorCode::WrongShard));
    send(&mut c2, 16, &Request::Introspect);
    let Response::Introspect(text) = recv(&mut c2).1 else {
        panic!("introspect answered with something else");
    };
    let scraped = json::parse(&text).unwrap();
    drop(c2);

    let stats = handle.shutdown();
    assert_eq!((stats.resumes, stats.replays, stats.shed), (2, 1, 1));
    assert_eq!(
        (stats.version_rejects, stats.malformed, stats.wrong_shard),
        (1, 1, 1)
    );
    assert_eq!(stats.requests, stats.responses);
    // Three views of one source: the Registry mirrors equal the
    // shutdown totals exactly, and the last scrape equals both but for
    // its own request and response.
    let counters = registry.snapshot().counters;
    let stat = |name: &str| {
        scraped
            .get("stats")
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
    };
    for (name, total) in totals(&stats) {
        assert_eq!(
            counters.get(&format!("server.{name}")),
            Some(&total),
            "Registry server.{name} vs ServerStats"
        );
        let own = u64::from(name == "requests" || name == "responses");
        assert_eq!(
            stat(name),
            Some(total - own),
            "Introspect stats.{name} vs ServerStats"
        );
    }
    // The scrape counts the resumed session, and its per-shard shed
    // entries add up to its total.
    assert!(stat("sessions") >= Some(1));
    let shard_shed: u64 = scraped
        .get("shards")
        .and_then(Json::items)
        .unwrap()
        .iter()
        .map(|s| s.get("shed").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(Some(shard_shed), stat("shed"));
}

#[test]
fn bsotop_cluster_shows_each_members_epoch_and_ranges() {
    use bso::cluster::Cluster;

    let mut layout = Layout::new();
    for _ in 0..4 {
        layout.push(ObjectInit::FetchAdd(0));
    }
    let cluster = Cluster::launch(2, &layout).unwrap();
    let addrs: Vec<String> = (0..2).map(|i| cluster.addr(i).to_string()).collect();

    let out = Command::new(env!("CARGO_BIN_EXE_bsotop"))
        .args(["--cluster", &addrs.join(","), "--frames", "1"])
        .output()
        .expect("spawn bsotop");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bsotop --cluster failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Row columns: member, state, epoch, detaches, four rates and
    // counts, owned ranges.
    for (i, addr) in addrs.iter().enumerate() {
        let row: Vec<&str> = stdout
            .lines()
            .find(|l| l.starts_with(addr.as_str()))
            .unwrap_or_else(|| panic!("no row for {addr} in {stdout:?}"))
            .split_whitespace()
            .collect();
        let owned: Vec<String> = cluster
            .owned_ranges(i)
            .iter()
            .map(|&(lo, hi)| match hi {
                u64::MAX => format!("{lo}-max"),
                _ => format!("{lo}-{hi}"),
            })
            .collect();
        assert_eq!(row[1..3], ["serving", "1"], "member {i}: {row:?}");
        assert_eq!(row.last().copied(), Some(owned.join(",").as_str()));
    }
    cluster.shutdown();
}
