//! The serving workloads: a one-shard server driven by a pipelined
//! `Swarm` (`serve-pipelined`), and a two-member cluster driven one op
//! at a time through `ClusterClient` (`serve-routed`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bso_client::{ClientError, Connection, Swarm};
use bso_cluster::{Cluster, ClusterClient};
use bso_objects::rng::SplitMix64;
use bso_objects::spec::ObjectState;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Sym, Value};
use bso_server::wire::{self, Request, Response};
use bso_server::{Server, ServerHandle, ServerStats};
use bso_telemetry::json::{self, Json};
use bso_telemetry::TraceSink;

use crate::reference::{Model, ModelObject};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::{proc, Opts};

/// Domain size of the served compare&swap-(k).
const K: usize = 8;
const CAS: ObjectId = ObjectId(0);
const CTR: ObjectId = ObjectId(1);
const REGISTERS: usize = 64;
/// At most two connections in use at a time, so load and server fit
/// on a 2-vCPU machine.
const CONNS: usize = 2;
const PIPELINE: usize = 64;
/// Ops per timed repetition.
const PIPELINED_OPS: usize = 100_000;
const ROUTED_OPS: usize = 2_000;
/// Routed and direct reads, alternating, after each routed repetition.
const CALIBRATION_PAIRS: usize = 200;
/// Loopback echoes after each serving repetition.
const ECHOES: usize = 200;
/// Events each worker of a traced run's sinks keeps: the swarm's and
/// the server's, and the benchmark's, which records a few hundred.
const TRACE_EVENTS: usize = 4096;
/// The same for serve-routed, whose traced half records a span for
/// each of some 150,000 ops on the benchmark's worker.
const ROUTED_TRACE_EVENTS: usize = 1 << 18;

fn register(i: usize) -> ObjectId {
    ObjectId(2 + i % REGISTERS)
}

fn layout() -> Layout {
    let mut l = Layout::new();
    l.push(ObjectInit::CasK { k: K });
    l.push(ObjectInit::FetchAdd(0));
    for _ in 0..REGISTERS {
        l.push(ObjectInit::Register(Value::Nil));
    }
    l
}

fn model() -> Model {
    let mut objects = vec![
        ModelObject::CasK {
            val: Sym::BOTTOM,
            k: K,
        },
        ModelObject::Counter(0),
    ];
    objects.extend((0..REGISTERS).map(|_| ModelObject::Register(Value::Nil)));
    Model { objects }
}

/// The loadgen op mix: 40 % compare&swap-(k) (grabs from ⊥ and
/// releases back to it), 20 % fetch&add, 10 % cas-k reads, 20 %
/// register reads, 10 % register writes. Connection `conn` writes only
/// the registers `i` with `i % CONNS == conn`, so each register's last
/// value is fixed by one connection's own order.
fn mixed_op(rng: &mut SplitMix64, conn: usize, value: i64) -> Op {
    let sym = |rng: &mut SplitMix64| Value::Sym(Sym::new(rng.range_u8(0, K as u8 - 1)));
    match rng.usize_below(10) {
        0..=2 => Op::cas(CAS, Value::Sym(Sym::BOTTOM), sym(rng)),
        3 => Op::cas(CAS, sym(rng), Value::Sym(Sym::BOTTOM)),
        4..=5 => Op::new(CTR, OpKind::FetchAdd(1)),
        6 => Op::read(CAS),
        7..=8 => Op::read(register(rng.usize_below(REGISTERS))),
        _ => {
            let i = rng.usize_below(REGISTERS / CONNS) * CONNS + conn;
            Op::write(register(i), Value::Int(value))
        }
    }
}

/// Per-shard and server-wide counters from one `Introspect` scrape.
#[derive(Clone, Debug, Default)]
struct Scrape {
    requests: u64,
    shards: Vec<ShardScrape>,
}

#[derive(Clone, Debug, Default)]
struct ShardScrape {
    conns: u64,
    applies: u64,
    apply_ns: u64,
    turn_ns: u64,
    flushes: u64,
    flushed_frames: u64,
    wakeups: u64,
}

fn scrape(conn: &mut Connection) -> Result<Scrape, String> {
    let doc = conn.introspect().map_err(|e| format!("introspect: {e}"))?;
    let doc = json::parse(&doc).map_err(|e| format!("introspect document: {e:?}"))?;
    let num = |j: &Json, path: &[&str]| {
        path.iter()
            .try_fold(j, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("introspect document lacks {}", path.join(".")))
    };
    let mut s = Scrape {
        requests: num(&doc, &["stats", "requests"])?,
        shards: Vec::new(),
    };
    for sh in doc
        .get("shards")
        .and_then(Json::items)
        .ok_or("introspect document lacks shards")?
    {
        s.shards.push(ShardScrape {
            conns: num(sh, &["conns"])?,
            applies: num(sh, &["apply_ns", "count"])?,
            apply_ns: num(sh, &["apply_ns", "sum"])?,
            turn_ns: num(sh, &["turn_ns", "sum"])?,
            flushes: num(sh, &["flush_batch", "count"])?,
            flushed_frames: num(sh, &["flush_batch", "sum"])?,
            wakeups: num(sh, &["wakeups"])?,
        });
    }
    Ok(s)
}

/// Totals of the server-side counters across repetitions: sums of
/// `after − before` scrape differences.
#[derive(Default)]
struct ServerTotals {
    requests: u64,
    applies: u64,
    apply_ns: u64,
    turn_ns: u64,
    flushes: u64,
    flushed_frames: u64,
    wakeups: u64,
    /// Applies made on a loop other than the one holding the load's
    /// connection.
    remote_applies: u64,
}

impl ServerTotals {
    /// Adds the difference of two scrapes of one server whose load
    /// connection sits on loop `home` (if known).
    fn add(&mut self, before: &Scrape, after: &Scrape, home: Option<usize>) {
        self.requests += after.requests - before.requests;
        for (i, (b, a)) in before.shards.iter().zip(&after.shards).enumerate() {
            let applies = a.applies - b.applies;
            self.applies += applies;
            self.apply_ns += a.apply_ns - b.apply_ns;
            self.turn_ns += a.turn_ns - b.turn_ns;
            self.flushes += a.flushes - b.flushes;
            self.flushed_frames += a.flushed_frames - b.flushed_frames;
            self.wakeups += a.wakeups - b.wakeups;
            if home.is_some_and(|h| h != i) {
                self.remote_applies += applies;
            }
        }
    }

    fn report(&self, out: &mut Outcome) {
        let per_request = |v: u64| v as f64 / self.requests.max(1) as f64;
        out.set("server.turn_us_per_op", per_request(self.turn_ns) / 1e3);
        out.set(
            "server.apply_ns_per_op",
            self.apply_ns as f64 / self.applies.max(1) as f64,
        );
        out.set(
            "server.frames_per_flush",
            self.flushed_frames as f64 / self.flushes.max(1) as f64,
        );
        out.set(
            "server.requests_per_turn",
            self.requests as f64 / self.wakeups.max(1) as f64,
        );
        out.set(
            "server.xshard_share",
            self.remote_applies as f64 / self.applies.max(1) as f64,
        );
    }
}

/// CPU time and context switches of the server's event loops and of
/// the load thread, summed over repetitions.
#[derive(Default)]
struct ThreadTotals {
    server_cpu: Duration,
    server_ctxsw: u64,
    client_cpu: Duration,
    client_ctxsw: u64,
    ops: u64,
}

struct ThreadMark {
    server: (Duration, u64),
    client: (Duration, u64),
    client_cpu: Duration,
}

fn is_loop(name: &str) -> bool {
    name.starts_with("bso-loop")
}

fn mark() -> ThreadMark {
    ThreadMark {
        server: proc::thread_totals(is_loop),
        client: proc::thread_totals(|n| n == LOAD_THREAD),
        client_cpu: proc::thread_cpu(),
    }
}

impl ThreadTotals {
    fn add(&mut self, from: &ThreadMark, to: &ThreadMark, ops: u64) {
        self.server_cpu += to.server.0.saturating_sub(from.server.0);
        self.server_ctxsw += to.server.1 - from.server.1;
        self.client_cpu += to.client_cpu - from.client_cpu;
        self.client_ctxsw += to.client.1 - from.client.1;
        self.ops += ops;
    }

    fn report(&self, out: &mut Outcome) {
        let ops = self.ops.max(1) as f64;
        out.set(
            "server.cpu_us_per_op",
            self.server_cpu.as_secs_f64() * 1e6 / ops,
        );
        out.set(
            "client.cpu_us_per_op",
            self.client_cpu.as_secs_f64() * 1e6 / ops,
        );
        out.set("server.ctxsw_per_op", self.server_ctxsw as f64 / ops);
        out.set("client.ctxsw_per_op", self.client_ctxsw as f64 / ops);
    }
}

/// The load runs on a thread of its own name, so its CPU time and
/// context switches can be told apart from the server's.
const LOAD_THREAD: &str = "perf-load";

fn on_load_thread(f: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(LOAD_THREAD.into())
            .spawn_scoped(s, f)
            .expect("spawn load thread")
            .join()
            .expect("load thread panicked");
    });
}

fn check_drained(stats: &ServerStats, what: &str, out: &mut Outcome) {
    out.check(stats.requests == stats.responses, || {
        format!(
            "{what}: {} requests but {} responses at shutdown",
            stats.requests, stats.responses
        )
    });
    out.check(stats.busy == 0 && stats.malformed == 0, || {
        format!(
            "{what}: {} busy, {} malformed at shutdown",
            stats.busy, stats.malformed
        )
    });
}

/// The codec and object layers on the workload's own op stream, timed
/// apart from the server: encode and decode of every request and of
/// its response, and `ObjectState::apply` of every op.
fn codec_and_objects(ops: &[(usize, Op)], tracer: &mut Tracer, out: &mut Outcome) {
    let mut m = model();
    let answers: Vec<Value> = ops.iter().map(|(_, op)| m.apply(op)).collect();
    let encode = |i: usize, q: &mut Vec<u8>, r: &mut Vec<u8>| {
        let (pid, op) = &ops[i];
        let request = Request::Apply {
            pid: *pid as u32,
            op: op.clone(),
        };
        wire::encode_request(i as u64, &request, q).expect("encodable request");
        wire::encode_response(i as u64, &Response::Ok(answers[i].clone()), r)
            .expect("encodable response");
    };
    let frames: Vec<(Vec<u8>, Vec<u8>)> = (0..ops.len())
        .map(|i| {
            let (mut q, mut r) = (Vec::new(), Vec::new());
            encode(i, &mut q, &mut r);
            (q, r)
        })
        .collect();
    // The round trip must give back what went in.
    for (((pid, op), ans), (q, r)) in ops.iter().zip(&answers).zip(&frames) {
        let ok = matches!(wire::decode_request(&q[4..]), Ok((_, Request::Apply { pid: p, op: o })) if p as usize == *pid && o == *op)
            && matches!(wire::decode_response_current(&r[4..]), Ok((_, Response::Ok(v))) if v == *ans);
        out.check(ok, || format!("codec round trip changed {op}"));
    }
    let fresh = || -> Vec<ObjectState> {
        layout()
            .objects()
            .iter()
            .map(ObjectState::from_init)
            .collect()
    };
    let mut objs = fresh();
    for ((pid, op), ans) in ops.iter().zip(&answers) {
        let got = objs[op.obj.0].apply(*pid, &op.kind);
        out.check(got.as_ref() == Ok(ans), || {
            format!("ObjectState::apply({op}) gave {got:?}; the model says {ans:?}")
        });
    }

    let rounds = (200_000 / ops.len().max(1)).max(1);
    let timed = |f: &mut dyn FnMut()| {
        let c0 = proc::thread_cpu();
        for _ in 0..rounds {
            f();
        }
        (proc::thread_cpu() - c0).as_secs_f64() * 1e9 / (rounds * ops.len()) as f64
    };
    let (mut q, mut r) = (Vec::new(), Vec::new());
    let encode_ns = tracer.span("server.wire", "encode loop", |_| {
        timed(&mut || {
            for i in 0..ops.len() {
                q.clear();
                r.clear();
                encode(i, &mut q, &mut r);
            }
        })
    });
    let decode_ns = tracer.span("server.wire", "decode loop", |_| {
        timed(&mut || {
            for (q, r) in &frames {
                let _ = std::hint::black_box(wire::decode_request(&q[4..]));
                let _ = std::hint::black_box(wire::decode_response_current(&r[4..]));
            }
        })
    });
    let apply_ns = tracer.span("objects", "ObjectState::apply loop", |_| {
        timed(&mut || {
            let mut objs = fresh();
            for (pid, op) in ops {
                let _ = std::hint::black_box(objs[op.obj.0].apply(*pid, &op.kind));
            }
        })
    });
    let mean_len = |side: fn(&(Vec<u8>, Vec<u8>)) -> usize| {
        frames.iter().map(side).sum::<usize>() as f64 / frames.len() as f64
    };
    out.set("server.wire.encode_ns", encode_ns);
    out.set("server.wire.decode_ns", decode_ns);
    out.set("server.wire.request_bytes", mean_len(|f| f.0.len()));
    out.set("server.wire.response_bytes", mean_len(|f| f.1.len()));
    out.set("objects.apply_ns", apply_ns);
}

// ------------------------------------------------------------ pipelined

/// One connection's deterministic op stream: the `j`-th op this
/// connection issues in a repetition depends only on the seed, the
/// repetition and `j`, not on how the swarm interleaves connections.
struct Lane {
    rng: SplitMix64,
    issued: i64,
}

/// What the model predicts the pipelined server ends up holding.
struct PipelinedModel {
    increments: i64,
    last_write: Vec<Value>,
}

impl PipelinedModel {
    fn record(&mut self, op: &Op) {
        match &op.kind {
            OpKind::FetchAdd(d) => self.increments += d,
            OpKind::Write(v) => self.last_write[op.obj.0 - 2] = v.clone(),
            _ => {}
        }
    }
}

fn lanes(seed: u64, rep: u64) -> Vec<Lane> {
    (0..CONNS)
        .map(|c| Lane {
            rng: SplitMix64::new(seed ^ (rep << 8 | c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            issued: 0,
        })
        .collect()
}

fn lane_op(lanes: &mut [Lane], conn: usize, rep: u64) -> Op {
    let lane = &mut lanes[conn];
    let value = (rep as i64) << 32 | lane.issued << 1 | conn as i64;
    lane.issued += 1;
    mixed_op(&mut lane.rng, conn, value)
}

struct Rep {
    cpu: f64,
    wall: f64,
    rtt_p50_ns: f64,
}

impl Rep {
    fn cpu_per_op(&self) -> f64 {
        self.cpu / PIPELINED_OPS as f64
    }
}

/// One timed repetition: a fresh swarm runs `PIPELINED_OPS` ops in
/// closed loop, bracketed by scrapes; then the server's state is
/// checked against the model.
#[allow(clippy::too_many_arguments)]
fn pipelined_rep(
    addr: SocketAddr,
    checker: &mut Connection,
    rep: u64,
    seed: u64,
    model: &mut PipelinedModel,
    trace: Option<&TraceSink>,
    tracer: &mut Tracer,
    totals: (&mut ServerTotals, &mut ThreadTotals),
    out: &mut Outcome,
) -> Result<Rep, String> {
    let before = tracer.span("server.introspect", "scrape", |_| scrape(checker))?;
    let m0 = mark();
    let mut lanes = lanes(seed, rep);
    let mut builder = Swarm::builder().connections(CONNS).pipeline(PIPELINE);
    if let Some(sink) = trace {
        builder = builder.trace(sink.worker(format!("swarm-rep{rep}")));
    }
    out.attempted += PIPELINED_OPS as u64;
    let (c0, w0) = (proc::process_cpu(), Instant::now());
    let report = tracer.span("client", "Swarm::run", |_| {
        builder.run(addr, |conn, seq| {
            ((seq as usize) < PIPELINED_OPS).then(|| {
                let op = lane_op(&mut lanes, conn, rep);
                model.record(&op);
                (conn, op)
            })
        })
    });
    let cpu = (proc::process_cpu() - c0).as_secs_f64();
    let wall = w0.elapsed().as_secs_f64();
    let m1 = mark();
    let report = report.map_err(|e| {
        out.failed += PIPELINED_OPS as u64;
        format!("swarm: {e}")
    })?;
    // Busy, failed and unanswered ops alike.
    out.failed += PIPELINED_OPS as u64 - report.ops_ok.min(PIPELINED_OPS as u64);
    let after = tracer.span("server.introspect", "scrape", |_| scrape(checker))?;
    totals.0.add(&before, &after, None);
    totals.1.add(&m0, &m1, report.ops_total());

    out.check(report.ops_busy == 0 && report.ops_err == 0, || {
        format!(
            "rep {rep}: {} busy and {} failed ops",
            report.ops_busy, report.ops_err
        )
    });
    out.check(report.ops_ok == PIPELINED_OPS as u64, || {
        format!(
            "rep {rep}: {} of {PIPELINED_OPS} ops answered",
            report.ops_ok
        )
    });
    let applies: u64 = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.applies - b.applies)
        .sum();
    out.check(applies == PIPELINED_OPS as u64, || {
        format!("rep {rep}: the server applied {applies} of {PIPELINED_OPS} ops")
    });
    let ctr = checker
        .apply(0, Op::read(CTR))
        .map_err(|e| format!("read counter: {e}"))?;
    out.check(ctr == Value::Int(model.increments), || {
        format!(
            "rep {rep}: counter {ctr:?}, but {} increments were issued",
            model.increments
        )
    });
    for (i, want) in model.last_write.iter().enumerate() {
        let got = checker
            .apply(0, Op::read(register(i)))
            .map_err(|e| format!("read register: {e}"))?;
        out.check(got == *want, || {
            format!("rep {rep}: register {i} holds {got:?}, its writer last wrote {want:?}")
        });
    }
    let mut rtt = report.rtt_ns;
    rtt.sort_unstable();
    Ok(Rep {
        cpu,
        wall,
        rtt_p50_ns: rtt.get(rtt.len() / 2).copied().unwrap_or(0) as f64,
    })
}

struct PipelinedPhase {
    reps: Vec<Rep>,
    /// Echo CPU seconds per round trip after each repetition.
    echo_cpu: Vec<f64>,
    /// Each repetition's CPU seconds per op over the mean echo CPU per
    /// round trip just before and just after it.
    ratio: Vec<f64>,
    server: ServerTotals,
    threads: ThreadTotals,
}

/// Binds the one-shard server and starts the echo with their threads
/// on the first CPU the process may use, and leaves the calling load
/// thread on the second: client and server each own a core, and the
/// echo crosses cores the way every served batch does, whatever the
/// scheduler would have chosen. With one CPU, all share it.
fn bind_placed(
    server_trace: Option<&TraceSink>,
    announce: bool,
) -> Result<(ServerHandle, Echo), String> {
    let cpus = proc::allowed_cpus();
    let placed = cpus.len() >= 2 && proc::pin_current_thread(cpus[0]);
    let mut builder = Server::builder().shards(1).pin_cores(false);
    if let Some(sink) = server_trace {
        builder = builder.trace_sink(sink.clone());
    }
    // Threads inherit the pin of the thread that starts them.
    let handle = builder.bind("127.0.0.1:0", &layout());
    let echo = Echo::start();
    let placed = placed && proc::pin_current_thread(cpus[1]);
    if announce {
        if placed {
            eprintln!(
                "placement: server and echo on CPU {}, load on CPU {}",
                cpus[0], cpus[1]
            );
        } else {
            eprintln!("placement: none (CPUs allowed: {cpus:?}); server, echo and load float");
        }
    }
    Ok((
        handle.map_err(|e| format!("bind: {e}"))?,
        echo.map_err(|e| format!("echo: {e}"))?,
    ))
}

fn pipelined_phase(
    opts: &Opts,
    server_trace: Option<&TraceSink>,
    client_trace: Option<&TraceSink>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<PipelinedPhase, String> {
    let (handle, mut echo) = bind_placed(server_trace, client_trace.is_none())?;
    let addr = handle.local_addr();
    let mut checker = Connection::builder()
        .connect(addr)
        .map_err(|e| format!("connect: {e}"))?;
    let mut model = PipelinedModel {
        increments: 0,
        last_write: vec![Value::Nil; REGISTERS],
    };
    let mut phase = PipelinedPhase {
        reps: Vec::new(),
        echo_cpu: Vec::new(),
        ratio: Vec::new(),
        server: ServerTotals::default(),
        threads: ThreadTotals::default(),
    };
    // Repetition 0 warms up, untimed, and ends the set-up, which the
    // echoes after it calibrate.
    let mut scratch = (ServerTotals::default(), ThreadTotals::default());
    pipelined_rep(
        addr,
        &mut checker,
        0,
        opts.seed,
        &mut model,
        client_trace,
        tracer,
        (&mut scratch.0, &mut scratch.1),
        out,
    )?;
    let mut before = echo.block(tracer)?;
    if client_trace.is_none() {
        set_up(opts, before.cpu, out);
    }
    let start = Instant::now();
    let mut rep = 1;
    loop {
        let r = pipelined_rep(
            addr,
            &mut checker,
            rep,
            opts.seed,
            &mut model,
            client_trace,
            tracer,
            (&mut phase.server, &mut phase.threads),
            out,
        )?;
        let after = echo.block(tracer)?;
        phase.ratio.push(r.cpu_per_op() / before.mean_cpu(&after));
        phase.echo_cpu.push(after.cpu);
        phase.reps.push(r);
        before = after;
        rep += 1;
        if start.elapsed().as_secs_f64() >= opts.phase_seconds() {
            break;
        }
    }
    drop((checker, echo));
    check_drained(&handle.shutdown(), "server", out);
    Ok(phase)
}

/// `setup_s` and `setup_ms`: process CPU time from process start until
/// the first timed op, after bind or launch, connects, handshakes and
/// the untimed warm-up repetition, calibrated by `echo_cpu`, the echo
/// CPU seconds per round trip right after it; and the same span in
/// wall-clock time.
fn set_up(opts: &Opts, echo_cpu: f64, out: &mut Outcome) {
    out.set(
        "setup_s",
        proc::process_cpu().as_secs_f64() * ECHO_NOMINAL_S / echo_cpu,
    );
    out.set("setup_ms", opts.started.elapsed().as_secs_f64() * 1e3);
}

/// Median over repetitions of ops ÷ the repetition's seconds.
fn rate(ops_per_rep: usize, secs: &[f64]) -> f64 {
    median(
        &secs
            .iter()
            .map(|s| ops_per_rep as f64 / s)
            .collect::<Vec<_>>(),
    )
}

/// Sets the serving end-to-end metrics but the round trip. Wall-clock
/// throughput, which steal swamps, is printed for reference only.
fn report_serving(ops_per_cpu_s: f64, ops_per_rep: usize, reps_wall: &[f64], out: &mut Outcome) {
    eprintln!(
        "reference: {:.0} ops per wall-clock second",
        rate(ops_per_rep, reps_wall)
    );
    // The format prints every end-to-end metric on every workload: here
    // `verify_cpu_s` restates `ops_per_cpu_s` as the CPU seconds of one
    // repetition's fixed batch of ops.
    out.set("verify_cpu_s", ops_per_rep as f64 / ops_per_cpu_s);
    out.set("ops_per_cpu_s", ops_per_cpu_s);
    out.set("peak_rss_mb", proc::peak_rss_mb());
}

pub fn pipelined(opts: &Opts, out: &mut Outcome) {
    on_load_thread(|| {
        if let Err(e) = pipelined_on_load_thread(opts, out) {
            out.errors.push(e);
        }
    });
}

fn pipelined_on_load_thread(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut untraced = Tracer::off();
    let a = pipelined_phase(opts, None, None, &mut untraced, out)?;
    let cpu: Vec<f64> = a.reps.iter().map(|r| r.cpu).collect();
    let wall: Vec<f64> = a.reps.iter().map(|r| r.wall).collect();
    let rtt: Vec<f64> = a.reps.iter().map(|r| r.rtt_p50_ns).collect();
    let untraced_rate = calibrated_rate(PIPELINED_OPS, &cpu, &a.echo_cpu, &a.ratio);
    report_serving(untraced_rate, PIPELINED_OPS, &wall, out);
    // The format prints every end-to-end metric on every workload: here
    // `rtt_p50_us` restates `ops_per_cpu_s` as the time to serve the
    // requests the closed loop keeps in flight. The swarm's wall-clock
    // round trip, which steal swamps, is printed for reference only.
    out.set(
        "rtt_p50_us",
        (CONNS * PIPELINE) as f64 / untraced_rate * 1e6,
    );
    eprintln!(
        "reference: swarm round trip p50 {:.1} µs (wall clock)",
        median(&rtt) / 1e3
    );
    if !opts.trace {
        return Ok(());
    }
    a.server.report(out);
    a.threads.report(out);
    let (client_sink, server_sink) = (
        TraceSink::with_capacity(TRACE_EVENTS),
        TraceSink::with_capacity(TRACE_EVENTS),
    );
    let mut tracer = Tracer::on(&client_sink);
    let mut lanes = lanes(opts.seed, 1);
    let ops: Vec<(usize, Op)> = (0..PIPELINED_OPS)
        .map(|i| (i % CONNS, lane_op(&mut lanes, i % CONNS, 1)))
        .collect();
    codec_and_objects(&ops, &mut tracer, out);

    let b = pipelined_phase(
        opts,
        Some(&server_sink),
        Some(&client_sink),
        &mut tracer,
        out,
    )?;
    let cpu: Vec<f64> = b.reps.iter().map(|r| r.cpu).collect();
    let traced_rate = calibrated_rate(PIPELINED_OPS, &cpu, &b.echo_cpu, &b.ratio);
    crate::print_overhead("ops_per_cpu_s", untraced_rate, traced_rate);
    let client = client_sink.export();
    match bso_telemetry::trace::merge_traces(&client, &server_sink.export()) {
        Ok(merged) => crate::write_trace(&merged, opts, out),
        Err(e) => out.errors.push(format!("merge_traces: {e}")),
    }
    Ok(())
}

// --------------------------------------------------------------- routed

/// A std-only TCP echo on loopback: the round-trip floor under every
/// served op on the machine, which no change to the program moves.
/// Both serving workloads run a block of echoes after each repetition
/// and divide the repetition by the blocks around it.
struct Echo {
    client: TcpStream,
    server: Option<std::thread::JoinHandle<()>>,
}

const ECHO_BYTES: usize = 32;

/// What one block of echoes measured: process CPU seconds per round
/// trip and the median wall-clock round trip.
#[derive(Clone, Copy)]
struct EchoBlock {
    cpu: f64,
    p50_ns: f64,
}

impl EchoBlock {
    /// Echo CPU seconds per round trip, averaged with a later block.
    fn mean_cpu(&self, after: &EchoBlock) -> f64 {
        (self.cpu + after.cpu) / 2.0
    }

    /// The median echo round trip, averaged with a later block.
    fn mean_p50_ns(&self, after: &EchoBlock) -> f64 {
        (self.p50_ns + after.p50_ns) / 2.0
    }
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::Builder::new()
            .name("perf-echo".into())
            .spawn(move || {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                let mut buf = [0u8; ECHO_BYTES];
                while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
            })?;
        let client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        Ok(Echo {
            client,
            server: Some(server),
        })
    }

    /// `ECHOES` round trips in a row.
    fn block(&mut self, tracer: &mut Tracer) -> Result<EchoBlock, String> {
        let mut rtt = Vec::with_capacity(ECHOES);
        let c0 = proc::process_cpu();
        for _ in 0..ECHOES {
            let dt = tracer
                .span("loopback", "echo", |_| self.round_trip())
                .map_err(|e| format!("echo: {e}"))?;
            rtt.push(dt.as_nanos() as f64);
        }
        Ok(EchoBlock {
            cpu: (proc::process_cpu() - c0).as_secs_f64() / ECHOES as f64,
            p50_ns: median(&rtt),
        })
    }

    fn round_trip(&mut self) -> std::io::Result<Duration> {
        let msg = [7u8; ECHO_BYTES];
        let mut back = [0u8; ECHO_BYTES];
        let t0 = Instant::now();
        self.client.write_all(&msg)?;
        self.client.read_exact(&mut back)?;
        let dt = t0.elapsed();
        if back != msg {
            return Err(std::io::Error::other("echo changed the message"));
        }
        Ok(dt)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Which event loop of each member holds the load's connection, from
/// the per-loop connection counts before and after it connects.
fn home_loops(direct: &mut [Connection], before: &[Scrape]) -> Vec<Option<usize>> {
    let mut homes = vec![None; direct.len()];
    for (m, conn) in direct.iter_mut().enumerate() {
        // A connection closed just now may still be counted for a
        // moment: wait until exactly one more is open than before.
        for _ in 0..100 {
            let Ok(after) = scrape(conn) else { break };
            let total = |s: &Scrape| s.shards.iter().map(|sh| sh.conns).sum::<u64>();
            if total(&after) == total(&before[m]) + 1 {
                homes[m] = after
                    .shards
                    .iter()
                    .zip(&before[m].shards)
                    .position(|(a, b)| a.conns > b.conns);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    homes
}

/// Scrapes with a connection count that settles: the launch's admin
/// connections close asynchronously.
fn settled_scrapes(direct: &mut [Connection]) -> Result<Vec<Scrape>, String> {
    let mut out = Vec::new();
    for conn in direct.iter_mut() {
        let mut s = scrape(conn)?;
        for _ in 0..100 {
            if s.shards.iter().map(|sh| sh.conns).sum::<u64>() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            s = scrape(conn)?;
        }
        out.push(s);
    }
    Ok(out)
}

struct Routed {
    cluster: Cluster,
    client: ClusterClient,
    direct: Vec<Connection>,
    echo: Echo,
    model: Model,
    homes: Vec<Option<usize>>,
    rng: SplitMix64,
    /// Owner member of each object id.
    owner: Vec<usize>,
    /// The echo block after the previous repetition.
    echo_before: Option<EchoBlock>,
}

fn owner_of(cluster: &Cluster, nobjects: usize) -> Vec<usize> {
    (0..nobjects as u64)
        .map(|id| {
            (0..cluster.len())
                .find(|&m| {
                    cluster
                        .owned_ranges(m)
                        .iter()
                        .any(|&(lo, hi)| (lo..=hi).contains(&id))
                })
                .expect("every object has an owner")
        })
        .collect()
}

/// Per-repetition figures only, so memory does not grow with the run:
/// the median round trip, CPU and wall seconds of each repetition, and
/// the medians of the calibration reads and echoes after it.
#[derive(Default)]
struct RoutedSamples {
    rtt_p50_ns: Vec<f64>,
    rep_cpu: Vec<f64>,
    rep_wall: Vec<f64>,
    routed_p50_ns: Vec<f64>,
    direct_p50_ns: Vec<f64>,
    echo_p50_ns: Vec<f64>,
    /// Process CPU seconds per echo round trip, after each repetition.
    echo_cpu: Vec<f64>,
    /// Each repetition's CPU seconds per op over the mean echo CPU per
    /// round trip just before and just after it.
    ratio: Vec<f64>,
    /// Each repetition's median round trip over the mean of the echo's
    /// median round trips just before and just after it.
    rtt_ratio: Vec<f64>,
    server: ServerTotals,
    threads: ThreadTotals,
}

impl Routed {
    fn apply_checked(
        &mut self,
        op: Op,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<Duration, String> {
        let want = self.model.apply(&op);
        let t0 = Instant::now();
        let got = tracer.span("cluster", "ClusterClient::apply", |_| {
            self.client.apply(0, op.clone())
        });
        let dt = t0.elapsed();
        let got = out.op(got).map_err(|e: ClientError| format!("{op}: {e}"))?;
        out.check(got == want, || {
            format!("{op} answered {got:?}; the sequential model says {want:?}")
        });
        Ok(dt)
    }

    fn rep(
        &mut self,
        rep: u64,
        tracer: &mut Tracer,
        s: &mut RoutedSamples,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let before = tracer.span("server.introspect", "scrape", |_| {
            self.direct
                .iter_mut()
                .map(scrape)
                .collect::<Result<Vec<_>, _>>()
        })?;
        let m0 = mark();
        let mut rtt = Vec::with_capacity(ROUTED_OPS);
        let (c0, w0) = (proc::process_cpu(), Instant::now());
        for j in 0..ROUTED_OPS {
            let op = mixed_op(&mut self.rng, j % CONNS, (rep as i64) << 32 | j as i64);
            let dt = self.apply_checked(op, tracer, out)?;
            rtt.push(dt.as_nanos() as f64);
        }
        let c1 = proc::process_cpu();
        s.rtt_p50_ns.push(median(&rtt));
        s.rep_cpu.push((c1 - c0).as_secs_f64());
        s.rep_wall.push(w0.elapsed().as_secs_f64());
        let m1 = mark();
        let after = tracer.span("server.introspect", "scrape", |_| {
            self.direct
                .iter_mut()
                .map(scrape)
                .collect::<Result<Vec<_>, _>>()
        })?;
        for (m, (b, a)) in before.iter().zip(&after).enumerate() {
            s.server.add(b, a, self.homes[m]);
        }
        s.threads.add(&m0, &m1, ROUTED_OPS as u64);

        // Calibration, untimed: the same reads routed and sent straight
        // to the owner, alternating; then the loopback floor.
        let mut routed = Vec::with_capacity(CALIBRATION_PAIRS);
        let mut direct = Vec::with_capacity(CALIBRATION_PAIRS);
        for _ in 0..CALIBRATION_PAIRS {
            let op = Op::read(register(self.rng.usize_below(REGISTERS)));
            routed.push(self.apply_checked(op.clone(), tracer, out)?.as_nanos() as f64);
            let want = self.model.apply(&op);
            let conn = &mut self.direct[self.owner[op.obj.0]];
            let t0 = Instant::now();
            let got = tracer.span("client", "Connection::apply", |_| conn.apply(0, op.clone()));
            direct.push(t0.elapsed().as_nanos() as f64);
            let got = out.op(got).map_err(|e| format!("direct {op}: {e}"))?;
            out.check(got == want, || {
                format!("direct {op} answered {got:?}; the model says {want:?}")
            });
        }
        let echo = self.echo.block(tracer)?;
        s.routed_p50_ns.push(median(&routed));
        s.direct_p50_ns.push(median(&direct));
        s.echo_p50_ns.push(echo.p50_ns);
        s.echo_cpu.push(echo.cpu);
        // The warm-up repetition has no echo before it.
        if let Some(before) = self.echo_before {
            let per_op = (c1 - c0).as_secs_f64() / ROUTED_OPS as f64;
            s.ratio.push(per_op / before.mean_cpu(&echo));
            s.rtt_ratio.push(median(&rtt) / before.mean_p50_ns(&echo));
        }
        self.echo_before = Some(echo);
        Ok(())
    }
}

fn routed_setup(opts: &Opts, out: &mut Outcome) -> Result<Routed, String> {
    let layout = layout();
    let cluster = Cluster::launch(2, &layout).map_err(|e| format!("launch: {e}"))?;
    let seeds: Vec<String> = (0..cluster.len())
        .map(|m| cluster.addr(m).to_string())
        .collect();
    let mut direct = seeds
        .iter()
        .map(|a| Connection::builder().connect(a.as_str()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let before = settled_scrapes(&mut direct)?;
    let client = ClusterClient::connect(&seeds).map_err(|e| format!("cluster connect: {e}"))?;
    let echo = Echo::start().map_err(|e| format!("echo: {e}"))?;
    let owner = owner_of(&cluster, layout.objects().len());
    let mut r = Routed {
        cluster,
        client,
        direct,
        echo,
        model: model(),
        homes: Vec::new(),
        rng: SplitMix64::new(opts.seed),
        owner,
        echo_before: None,
    };
    // Open the load's connection to each member with a read of an
    // object that member owns; the model is unchanged by reads.
    for m in 0..r.cluster.len() {
        let obj = r
            .owner
            .iter()
            .position(|&o| o == m)
            .expect("each member owns objects");
        r.apply_checked(Op::read(ObjectId(obj)), &mut Tracer::off(), out)?;
    }
    r.homes = home_loops(&mut r.direct, &before);
    out.check(r.homes.iter().all(Option::is_some), || {
        format!(
            "could not tell which loop holds the load's connection: {:?}",
            r.homes
        )
    });
    Ok(r)
}

fn routed_phase(
    r: &mut Routed,
    seconds: f64,
    first_rep: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(RoutedSamples, u64), String> {
    let mut s = RoutedSamples::default();
    let start = Instant::now();
    let mut rep = first_rep;
    loop {
        r.rep(rep, tracer, &mut s, out)?;
        rep += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((s, rep))
}

/// The unit of the serving workloads' calibrated times: one loopback
/// echo round trip on an Intel Xeon (Sapphire Rapids, 2 GHz) KVM guest,
/// the median of its process CPU time over the runs that fixed it (34.8
/// to 35.7 µs), rounded. Its wall-clock round trip there was about the
/// same, 35 to 37 µs, and serve-routed's round trip is given in the
/// same unit.
const ECHO_NOMINAL_S: f64 = 35e-6;

/// Ops per CPU-second at the host's nominal speed, from each
/// repetition's ratio to the echoes around it: served ops cost syscalls,
/// wakeups and small-buffer work much like the frozen echo, and
/// neighbours on the host slow both alike, so the ratio holds where raw
/// CPU time drifts. Prints the raw figures beside it.
fn calibrated_rate(ops_per_rep: usize, rep_cpu: &[f64], echo_cpu: &[f64], ratio: &[f64]) -> f64 {
    let echo = median(echo_cpu);
    eprintln!(
        "raw: {:.0} ops per CPU-second; host: echo {:.2} µs of CPU per round trip, {:.2} times its nominal",
        rate(ops_per_rep, rep_cpu),
        echo * 1e6,
        echo / ECHO_NOMINAL_S
    );
    1.0 / (median(ratio) * ECHO_NOMINAL_S)
}

pub fn routed(opts: &Opts, out: &mut Outcome) {
    on_load_thread(|| {
        if let Err(e) = routed_on_load_thread(opts, out) {
            out.errors.push(e);
        }
    });
}

fn routed_on_load_thread(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut r = routed_setup(opts, out)?;
    let mut untraced = Tracer::off();
    // Repetition 0 warms up, untimed, and ends the set-up, which the
    // echoes after it calibrate.
    let mut warm = RoutedSamples::default();
    r.rep(0, &mut untraced, &mut warm, out)?;
    set_up(opts, warm.echo_cpu[0], out);

    let (a, next) = routed_phase(&mut r, opts.phase_seconds(), 1, &mut untraced, out)?;
    let untraced_rate = calibrated_rate(ROUTED_OPS, &a.rep_cpu, &a.echo_cpu, &a.ratio);
    report_serving(untraced_rate, ROUTED_OPS, &a.rep_wall, out);
    // Calibrated like the CPU time: each op waits on wakeups and the
    // loopback much like an echo round trip, and a busy host delays
    // both alike. The raw median is printed beside it.
    out.set("rtt_p50_us", median(&a.rtt_ratio) * ECHO_NOMINAL_S * 1e6);
    eprintln!(
        "raw: round trip p50 {:.2} µs; echo p50 {:.2} µs (wall clock)",
        median(&a.rtt_p50_ns) / 1e3,
        median(&a.echo_p50_ns) / 1e3
    );
    if opts.trace {
        a.server.report(out);
        a.threads.report(out);
        out.set(
            "cluster.routing_overhead_us",
            (median(&a.routed_p50_ns) - median(&a.direct_p50_ns)) / 1e3,
        );
        out.set("loopback.rtt_p50_us", median(&a.echo_p50_ns) / 1e3);
        let sink = TraceSink::with_capacity(ROUTED_TRACE_EVENTS);
        let mut tracer = Tracer::on(&sink);
        let mut rng = SplitMix64::new(opts.seed);
        let ops: Vec<(usize, Op)> = (0..ROUTED_OPS)
            .map(|j| (0, mixed_op(&mut rng, j % CONNS, j as i64)))
            .collect();
        codec_and_objects(&ops, &mut tracer, out);
        let (b, _) = routed_phase(&mut r, opts.phase_seconds(), next, &mut tracer, out)?;
        let traced_rate = calibrated_rate(ROUTED_OPS, &b.rep_cpu, &b.echo_cpu, &b.ratio);
        crate::print_overhead("ops_per_cpu_s", untraced_rate, traced_rate);
        crate::write_trace(&sink.export(), opts, out);
    }
    let reconnects = r.client.reconnects();
    out.check(reconnects == 0, || {
        format!("the cluster client reconnected {reconnects} times")
    });
    let Routed {
        cluster,
        client,
        direct,
        ..
    } = r;
    drop((client, direct));
    for (m, stats) in cluster.shutdown().iter().enumerate() {
        check_drained(stats, &format!("member {m}"), out);
    }
    Ok(())
}
