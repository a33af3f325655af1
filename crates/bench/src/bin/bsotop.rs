//! `bsotop` — a live per-shard dashboard for a running `bso-server`.
//!
//! ```text
//! bsotop <addr> [--interval-ms N] [--frames N]
//! bsotop --tail <progress.jsonl> [--interval-ms N] [--frames N]
//! bsotop --cluster <addr1,addr2,...> [--interval-ms N] [--frames N]
//! ```
//!
//! The default mode opens one `bso-wire/v2` connection and polls the
//! server's `Introspect` request (see DESIGN.md §3.13), differencing
//! consecutive `bso-introspect/v1` snapshots into per-shard rates:
//! ops/s, busy rate, live connections, queue depth, apply-latency
//! p50/p99 and wakeups/s, deadline-shed ops/s (the faults column),
//! plus the flight recorder's slow-request counters; the header also
//! tracks the fault-recovery counters (session resumes and
//! exactly-once replays, DESIGN.md §3.14). `--tail` instead follows a `bso-progress/v1` heartbeat
//! file written by a server process running under
//! `BSO_PROGRESS=path.jsonl BSO_TELEMETRY=...` (the serving variant
//! fields), for servers one cannot or does not want to poll.
//!
//! `--cluster` polls `Introspect` across every comma-separated member
//! of a `bso-cluster` deployment and renders one table: per-member
//! routing epoch, owned object-id ranges, migration state (detach
//! count and enablement), request and wrong-shard redirect rates, and
//! shed/s. Dead members render as `down` rows and are re-dialed every
//! frame, so a kill-and-rebalance is visible live.
//!
//! Each frame redraws in place with ANSI clear codes; `--frames N`
//! exits after N frames (0, the default, runs until interrupted or,
//! in poll mode, until the server goes away).

use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bso::client::Connection;
use bso::server::INTROSPECT_SCHEMA;
use bso_telemetry::json::{self, Json};

const USAGE: &str = "usage: bsotop <addr> [--interval-ms N] [--frames N] \
     | --tail <progress.jsonl> ... | --cluster <addr1,addr2,...> ...";

struct Config {
    target: String,
    tail: bool,
    cluster: bool,
    interval: Duration,
    frames: u64,
}

impl Config {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut target = None;
        let mut tail = false;
        let mut cluster = false;
        let mut interval = Duration::from_millis(1000);
        let mut frames = 0u64;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--tail" => {
                    tail = true;
                    target = Some(args.next().ok_or("--tail needs a file")?);
                }
                "--cluster" => {
                    cluster = true;
                    target = Some(args.next().ok_or("--cluster needs addr1,addr2,...")?);
                }
                "--interval-ms" => {
                    let ms: u64 = args
                        .next()
                        .ok_or("--interval-ms needs a value")?
                        .parse()
                        .map_err(|e| format!("--interval-ms: {e}"))?;
                    interval = Duration::from_millis(ms.max(10));
                }
                "--frames" => {
                    frames = args
                        .next()
                        .ok_or("--frames needs a value")?
                        .parse()
                        .map_err(|e| format!("--frames: {e}"))?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other if target.is_none() && !other.starts_with('-') => {
                    target = Some(other.to_string());
                }
                other => return Err(format!("unknown argument {other}\n{USAGE}")),
            }
        }
        Ok(Config {
            target: target.ok_or(USAGE)?,
            tail,
            cluster,
            interval,
            frames,
        })
    }
}

/// One differentiable reading of a shard's cumulative counters.
#[derive(Clone, Default)]
struct ShardRow {
    ops: u64,
    conns: u64,
    queue: u64,
    wakeups: u64,
    p50_ns: u64,
    p99_ns: u64,
    shed: u64,
    slow: u64,
    threshold_ns: u64,
}

/// One differentiable reading of a `bso-introspect/v1` snapshot: the
/// totals, the per-shard rows and the routing section (DESIGN.md
/// §3.15). Both the single-server and the cluster view read it.
#[derive(Clone, Default)]
struct Sample {
    requests: u64,
    responses: u64,
    busy: u64,
    resumes: u64,
    replays: u64,
    shed: u64,
    wrong_shard: u64,
    uptime_ms: u64,
    version: String,
    shards: Vec<ShardRow>,
    routing_enabled: bool,
    epoch: u64,
    detaches: u64,
    owned: Vec<(u64, u64)>,
}

fn u(doc: &Json, outer: &str, key: &str) -> u64 {
    doc.get(outer)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn parse_introspect(text: &str) -> Result<Sample, String> {
    let doc = json::parse(text).map_err(|e| format!("introspect response: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(INTROSPECT_SCHEMA) => {}
        other => return Err(format!("unexpected introspect schema {other:?}")),
    }
    let shards = doc
        .get("shards")
        .and_then(Json::items)
        .ok_or("introspect response has no \"shards\" array")?
        .iter()
        .map(|s| {
            let hist = |name: &str, field: &str| u(s, name, field);
            ShardRow {
                ops: hist("apply_ns", "count") + hist("elect_ns", "count"),
                conns: s.get("conns").and_then(Json::as_u64).unwrap_or(0),
                queue: s.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
                wakeups: s.get("wakeups").and_then(Json::as_u64).unwrap_or(0),
                p50_ns: hist("apply_ns", "p50"),
                p99_ns: hist("apply_ns", "p99"),
                shed: s.get("shed").and_then(Json::as_u64).unwrap_or(0),
                slow: s
                    .get("flight")
                    .and_then(|f| f.get("slow"))
                    .and_then(Json::len)
                    .unwrap_or(0) as u64,
                threshold_ns: u(s, "flight", "threshold_ns"),
            }
        })
        .collect();
    let routing = doc.get("routing");
    let owned = routing
        .and_then(|r| r.get("owned"))
        .and_then(Json::items)
        .map(|ranges| {
            ranges
                .iter()
                .filter_map(|r| {
                    let pair = Json::items(r)?;
                    Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Sample {
        requests: u(&doc, "stats", "requests"),
        responses: u(&doc, "stats", "responses"),
        busy: u(&doc, "stats", "busy"),
        resumes: u(&doc, "stats", "resumes"),
        replays: u(&doc, "stats", "replays"),
        shed: u(&doc, "stats", "shed"),
        wrong_shard: u(&doc, "stats", "wrong_shard"),
        uptime_ms: u(&doc, "server", "uptime_ms"),
        version: doc
            .get("server")
            .and_then(|s| s.get("version"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        shards,
        routing_enabled: matches!(
            routing.and_then(|r| r.get("enabled")),
            Some(Json::Bool(true))
        ),
        epoch: u(&doc, "routing", "epoch"),
        detaches: u(&doc, "routing", "detaches"),
        owned,
    })
}

/// Cumulative-counter rate over the wall-clock gap between two frames.
fn rate(now: u64, then: u64, dt: Duration) -> f64 {
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    now.saturating_sub(then) as f64 / secs
}

fn clear_frame(first: bool) {
    // Clear + home on every redraw after the first, so the dashboard
    // repaints in place instead of scrolling.
    if !first {
        print!("\x1b[H\x1b[J");
    }
}

fn render(cfg: &Config, s: &Sample, prev: Option<&Sample>, dt: Duration, frame: u64) {
    clear_frame(frame == 0);
    let empty = Sample::default();
    let p = prev.unwrap_or(&empty);
    let req_rate = rate(s.requests, p.requests, dt);
    let busy_d = s.busy.saturating_sub(p.busy);
    let req_d = s.requests.saturating_sub(p.requests);
    let busy_pct = if req_d == 0 {
        0.0
    } else {
        100.0 * busy_d as f64 / req_d as f64
    };
    println!(
        "bso-server v{} @ {} — up {:.1}s — {} requests ({:.0}/s), {} in flight, busy {:.1}%",
        s.version,
        cfg.target,
        s.uptime_ms as f64 / 1e3,
        s.requests,
        req_rate,
        s.requests.saturating_sub(s.responses),
        busy_pct,
    );
    println!(
        "faults: {} resumes (+{}), {} replays (+{}), {} shed (+{})",
        s.resumes,
        s.resumes.saturating_sub(p.resumes),
        s.replays,
        s.replays.saturating_sub(p.replays),
        s.shed,
        s.shed.saturating_sub(p.shed),
    );
    println!(
        "shard    ops/s  conns  queue  p50(us)  p99(us)  wakeups/s  shed/s  slow(>{{thresh}})"
    );
    for (i, row) in s.shards.iter().enumerate() {
        let prev_row = p.shards.get(i).cloned().unwrap_or_default();
        println!(
            "{:>5}  {:>7.0}  {:>5}  {:>5}  {:>7.1}  {:>7.1}  {:>9.0}  {:>6.0}  {:>3} (>{:.0}us)",
            i,
            rate(row.ops, prev_row.ops, dt),
            row.conns,
            row.queue,
            row.p50_ns as f64 / 1e3,
            row.p99_ns as f64 / 1e3,
            rate(row.wakeups, prev_row.wakeups, dt),
            rate(row.shed, prev_row.shed, dt),
            row.slow,
            row.threshold_ns as f64 / 1e3,
        );
    }
}

fn run_poll(cfg: &Config) -> Result<(), String> {
    let mut conn = Connection::builder()
        .connect(&*cfg.target)
        .map_err(|e| format!("{}: {e}", cfg.target))?;
    let mut prev: Option<(Sample, Instant)> = None;
    let mut frame = 0u64;
    loop {
        let text = conn.introspect().map_err(|e| format!("introspect: {e}"))?;
        let now = Instant::now();
        let sample = parse_introspect(&text)?;
        let dt = prev
            .as_ref()
            .map_or(cfg.interval, |(_, at)| now.duration_since(*at));
        render(cfg, &sample, prev.as_ref().map(|(s, _)| s), dt, frame);
        prev = Some((sample, now));
        frame += 1;
        if cfg.frames != 0 && frame >= cfg.frames {
            return Ok(());
        }
        std::thread::sleep(cfg.interval);
    }
}

/// Renders `[(0,4),(9,u64::MAX)]` as `0-4,9-max`.
fn render_ranges(owned: &[(u64, u64)]) -> String {
    if owned.is_empty() {
        return "∅".into();
    }
    owned
        .iter()
        .map(|&(lo, hi)| {
            let hi = if hi == u64::MAX {
                "max".into()
            } else {
                hi.to_string()
            };
            format!("{lo}-{hi}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One cluster frame; a member whose scrape failed is `None`.
fn render_cluster(
    addrs: &[String],
    now: &[Option<Sample>],
    prev: &[Option<Sample>],
    dt: Duration,
    frame: u64,
) {
    clear_frame(frame == 0);
    let epochs: Vec<u64> = now.iter().flatten().map(|m| m.epoch).collect();
    let converged = epochs.windows(2).all(|w| w[0] == w[1]);
    println!(
        "bso-cluster — {} members, {} up, epoch {}{}",
        addrs.len(),
        epochs.len(),
        epochs.iter().max().copied().unwrap_or(0),
        if converged {
            ""
        } else {
            " (table propagating)"
        },
    );
    println!(
        "member                 state     epoch  detaches   req/s  wrongshard/s  shed/s  conns  owned"
    );
    let empty = Sample::default();
    for (i, addr) in addrs.iter().enumerate() {
        let Some(m) = &now[i] else {
            println!("{addr:<22} down");
            continue;
        };
        let p = prev[i].as_ref().unwrap_or(&empty);
        println!(
            "{:<22} {:<9} {:>5}  {:>8}  {:>6.0}  {:>12.0}  {:>6.0}  {:>5}  {}",
            addr,
            if m.routing_enabled {
                "serving"
            } else {
                "unrouted"
            },
            m.epoch,
            m.detaches,
            rate(m.requests, p.requests, dt),
            rate(m.wrong_shard, p.wrong_shard, dt),
            rate(m.shed, p.shed, dt),
            m.shards.iter().map(|s| s.conns).sum::<u64>(),
            render_ranges(&m.owned),
        );
    }
}

fn run_cluster(cfg: &Config) -> Result<(), String> {
    let addrs: Vec<String> = cfg
        .target
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.len() < 2 {
        return Err("--cluster needs at least two comma-separated addresses".into());
    }
    // One connection slot per member, re-dialed whenever polling fails
    // — members may die and come back under us.
    let mut conns: Vec<Option<Connection>> = addrs.iter().map(|_| None).collect();
    let mut prev: Vec<Option<Sample>> = vec![None; addrs.len()];
    let mut last_at: Option<Instant> = None;
    let mut frame = 0u64;
    loop {
        let mut samples = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            if conns[i].is_none() {
                conns[i] = Connection::builder().connect(addr.as_str()).ok();
            }
            let sample = conns[i]
                .as_mut()
                .and_then(|c| c.introspect().ok())
                .and_then(|text| parse_introspect(&text).ok());
            if sample.is_none() {
                conns[i] = None;
            }
            samples.push(sample);
        }
        let now = Instant::now();
        let dt = last_at.map_or(cfg.interval, |at| now.duration_since(at));
        render_cluster(&addrs, &samples, &prev, dt, frame);
        prev = samples;
        last_at = Some(now);
        frame += 1;
        if cfg.frames != 0 && frame >= cfg.frames {
            return Ok(());
        }
        std::thread::sleep(cfg.interval);
    }
}

/// One parsed serving heartbeat (the `bso-progress/v1` serving
/// variant); lines without `serve_requests` are from a process that
/// hosts no server and are skipped.
struct Beat {
    elapsed_ms: u64,
    requests: u64,
    responses: u64,
    busy: u64,
    conns: u64,
    depths: Vec<u64>,
}

fn parse_beat(line: &str) -> Option<Beat> {
    let doc = json::parse(line).ok()?;
    Some(Beat {
        elapsed_ms: doc.get("elapsed_ms").and_then(Json::as_u64)?,
        requests: doc.get("serve_requests").and_then(Json::as_u64)?,
        responses: doc
            .get("serve_responses")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        busy: doc.get("serve_busy").and_then(Json::as_u64).unwrap_or(0),
        conns: doc.get("serve_conns").and_then(Json::as_u64).unwrap_or(0),
        depths: doc
            .get("serve_queue_depths")
            .and_then(Json::items)
            .map(|d| d.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default(),
    })
}

fn render_beat(cfg: &Config, b: &Beat, prev: Option<&Beat>, frame: u64) {
    clear_frame(frame == 0);
    let dt = Duration::from_millis(
        prev.map_or(0, |p| b.elapsed_ms.saturating_sub(p.elapsed_ms))
            .max(1),
    );
    let req_rate = prev.map_or(0.0, |p| rate(b.requests, p.requests, dt));
    println!(
        "heartbeat {} @ {:.1}s — {} requests ({:.0}/s), {} in flight, busy {}, conns {}",
        cfg.target,
        b.elapsed_ms as f64 / 1e3,
        b.requests,
        req_rate,
        b.requests.saturating_sub(b.responses),
        b.busy,
        b.conns,
    );
    println!("queue depths: {:?}", b.depths);
}

fn run_tail(cfg: &Config) -> Result<(), String> {
    let mut file = std::fs::File::open(&cfg.target).map_err(|e| format!("{}: {e}", cfg.target))?;
    let mut offset = 0u64;
    let mut carry = String::new();
    let mut prev: Option<Beat> = None;
    let mut frame = 0u64;
    loop {
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| format!("{}: {e}", cfg.target))?;
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)
            .map_err(|e| format!("{}: {e}", cfg.target))?;
        offset += chunk.len() as u64;
        carry.push_str(&chunk);
        // Only complete lines parse; a trailing partial write waits
        // for the next tick.
        let complete = carry.rfind('\n').map_or(0, |i| i + 1);
        let latest = carry[..complete].lines().filter_map(parse_beat).next_back();
        carry.drain(..complete);
        if let Some(beat) = latest {
            render_beat(cfg, &beat, prev.as_ref(), frame);
            prev = Some(beat);
            frame += 1;
            if cfg.frames != 0 && frame >= cfg.frames {
                return Ok(());
            }
        }
        std::thread::sleep(cfg.interval);
    }
}

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if cfg.tail {
        run_tail(&cfg)
    } else if cfg.cluster {
        run_cluster(&cfg)
    } else {
        run_poll(&cfg)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bsotop: {e}");
            ExitCode::FAILURE
        }
    }
}
