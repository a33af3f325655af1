//! The server's one source of metrics: per-loop probes, the flight
//! recorder, and the `bso-introspect/v1` snapshot document.
//!
//! Every event loop counts and times its requests in exactly one
//! place, its always-on [`LoopProbe`]: lifetime totals (the
//! [`ServerStats`] fields), plain (non-atomic) log2 histograms for
//! apply/turn/flush timings, and a fixed-size **flight recorder** ring
//! of recent request records. The request path never touches shared
//! state: it bumps plain fields and pushes onto plain `Vec`s in a
//! loop-local [`ProbeScratch`], and [`IntrospectState::commit_turn`]
//! folds the batch into the mutex-guarded probe once per readiness
//! turn — the lock is taken at turn frequency, not request frequency,
//! so the always-on cost per request is a few nanoseconds (measured
//! in EXPERIMENTS.md). Every view of the metrics derives from the
//! probes:
//!
//! * [`ServerStats`] at shutdown is the sum of the probes' totals;
//! * an [`Introspect`](crate::wire::Request::Introspect) scrape
//!   renders the same sum, plus each loop's histograms and flight
//!   recorder, as of each loop's last committed turn;
//! * the opt-in telemetry [`Registry`]'s `server.*` series (the
//!   `BSO_TELEMETRY` snapshot, `bso-progress/v1` heartbeats) are
//!   written inside `commit_turn` from the same batch, and not at all
//!   when the registry is disabled.
//!
//! The flight recorder keeps the last [`RING_CAPACITY`] request
//! records (opcode, object id, cross-shard queue time, apply time,
//! response batch depth) and separately **pins** slow requests: any
//! record whose apply time exceeds the loop's own observed p99
//! (refreshed every [`THRESHOLD_REFRESH`] records, floored at
//! [`SLOW_FLOOR_NS`] so sub-microsecond noise is never pinned). Both
//! rings are dumped through `Introspect`, written to the file named by
//! [`FLIGHT_ENV`] on shutdown, and spilled to stderr if a loop thread
//! panics — the black box a crashed server leaves behind.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use bso_telemetry::json::Json;
use bso_telemetry::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS,
};

use crate::event_loop::{Shared, Xfer};
use crate::server::ServerStats;
use crate::shard::XQueue;
use crate::wire;

/// The schema tag of the `Introspect` document (re-exported as
/// `bso_server::INTROSPECT_SCHEMA`).
pub const SCHEMA: &str = "bso-introspect/v1";

/// Environment variable naming the file the server writes its full
/// introspection snapshot (flight recorders included) to on shutdown:
/// `BSO_FLIGHT=path.json`.
pub const FLIGHT_ENV: &str = "BSO_FLIGHT";

/// Flight-recorder ring depth per loop (most recent requests).
pub(crate) const RING_CAPACITY: usize = 256;
/// At most this many slow requests stay pinned per loop (oldest pins
/// are dropped and counted).
pub(crate) const SLOW_PINS: usize = 32;
/// Floor under the slow-pin threshold: the p99 of a healthy loop sits
/// well below this, so only genuine outliers are pinned.
pub(crate) const SLOW_FLOOR_NS: u64 = 10_000;
/// The slow-pin threshold re-derives from the loop's apply histogram
/// every this many records.
pub(crate) const THRESHOLD_REFRESH: u32 = 1024;
/// `Introspect` dumps at most this many recent records per loop (the
/// shutdown/panic dumps are uncapped) so the response stays far below
/// [`crate::wire::MAX_FRAME`] at any shard count.
const SCRAPE_RECENT: usize = 16;
/// `Introspect` dumps at most this many pinned-slow records per loop.
const SCRAPE_SLOW: usize = 8;

/// Why a probe lock can fail: its loop panicked mid-commit.
const PROBE_POISONED: &str = "an event loop panicked while committing to its probe";

/// Nanoseconds since `since`, saturating.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One flight-recorder entry: what a request did and what it cost.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlightRecord {
    /// Per-loop sequence number (monotonic, never wraps in practice),
    /// assigned when the record is committed.
    pub(crate) seq: u64,
    /// The request's wire opcode.
    pub(crate) opcode: u8,
    /// Target object id (or session id for election opcodes).
    pub(crate) object: u64,
    /// Time spent queued in a cross-shard [`XQueue`](crate::shard::XQueue)
    /// (0 for requests applied inline on the arriving loop).
    pub(crate) queue_ns: u64,
    /// Time inside the shard apply/elect.
    pub(crate) apply_ns: u64,
    /// Responses already staged on the connection when this one was
    /// (i.e. its position in the turn's write batch; 0 for replies
    /// routed back from another loop).
    pub(crate) batch: u64,
}

/// A loop's private probe buffer: everything the loop counted and
/// timed since its last commit. The request path bumps plain fields
/// and pushes onto plain `Vec`s — no lock, no atomic, no shared cache
/// line — and the loop hands the whole batch to
/// [`IntrospectState::commit_turn`] once per readiness turn.
#[derive(Default)]
pub(crate) struct ProbeScratch {
    /// Counted outcomes (requests, responses, refusals by kind, ...).
    pub(crate) stats: ServerStats,
    /// Applies the object itself refused (`server.errors.object`).
    pub(crate) object_errors: u64,
    /// Election sessions opened or installed
    /// (`server.elections.opened`).
    pub(crate) elections_opened: u64,
    /// Election participants run to a decision
    /// (`server.elections.decided`).
    pub(crate) elections_decided: u64,
    /// Applies and elects run on this loop, in order (`seq` unset).
    requests: Vec<FlightRecord>,
    /// Frames per completed response flush.
    flushes: Vec<u64>,
}

impl ProbeScratch {
    /// Buffers one apply or elect this loop ran (the always-on
    /// per-request cost: one `Vec` push).
    #[inline]
    pub(crate) fn push_request(
        &mut self,
        opcode: u8,
        object: u64,
        queue_ns: u64,
        apply_ns: u64,
        batch: u64,
    ) {
        self.requests.push(FlightRecord {
            seq: 0,
            opcode,
            object,
            queue_ns,
            apply_ns,
            batch,
        });
    }

    /// Buffers one completed response flush of `batch` frames.
    #[inline]
    pub(crate) fn push_flush(&mut self, batch: u64) {
        self.flushes.push(batch);
    }
}

impl FlightRecord {
    fn to_json(self) -> Json {
        Json::obj([
            ("apply_ns", Json::U64(self.apply_ns)),
            ("batch", Json::U64(self.batch)),
            ("object", Json::U64(self.object)),
            ("opcode", Json::U64(u64::from(self.opcode))),
            ("queue_ns", Json::U64(self.queue_ns)),
            ("seq", Json::U64(self.seq)),
        ])
    }
}

/// A plain (single-writer) log2 histogram sharing the bucket layout —
/// and therefore the quantile math — of the telemetry crate's atomic
/// [`Histogram`](bso_telemetry::Histogram), without paying its atomic
/// read-modify-writes on the always-on path.
pub(crate) struct PlainHist {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl PlainHist {
    fn new() -> PlainHist {
        PlainHist {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// A [`HistogramSnapshot`] view, reusing the telemetry crate's
    /// interpolated quantile estimator.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (i as u32, *n))
                .collect(),
        }
    }
}

fn hist_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::U64(h.count)),
        ("max", Json::U64(h.max)),
        ("min", Json::U64(h.min)),
        ("p50", Json::U64(h.p50())),
        ("p90", Json::U64(h.p90())),
        ("p99", Json::U64(h.p99())),
        ("sum", Json::U64(h.sum)),
    ])
}

/// One event loop's always-on instrumentation, single-writer behind
/// the [`IntrospectState`] mutex.
pub(crate) struct LoopProbe {
    /// Lifetime totals of what this loop counted. A deadline shed
    /// counts on the loop that refused the op: the arriving loop, or
    /// the owner for a queued transfer.
    stats: ServerStats,
    conns: u64,
    wakeups: u64,
    turn_ns: PlainHist,
    apply_ns: PlainHist,
    elect_ns: PlainHist,
    flush_batch: PlainHist,
    /// Power-of-two circular buffer written at `seq % RING_CAPACITY`:
    /// one store per record, no length bookkeeping (`seq` already says
    /// how many are live).
    ring: Box<[FlightRecord; RING_CAPACITY]>,
    slow: VecDeque<FlightRecord>,
    seq: u64,
    threshold_ns: u64,
    since_refresh: u32,
    slow_dropped: u64,
    /// This loop's telemetry mirror; `None` when the registry is
    /// disabled.
    series: Option<Series>,
}

impl LoopProbe {
    fn new(series: Option<Series>) -> LoopProbe {
        LoopProbe {
            stats: ServerStats::default(),
            conns: 0,
            wakeups: 0,
            turn_ns: PlainHist::new(),
            apply_ns: PlainHist::new(),
            elect_ns: PlainHist::new(),
            flush_batch: PlainHist::new(),
            ring: Box::new([FlightRecord::default(); RING_CAPACITY]),
            slow: VecDeque::with_capacity(SLOW_PINS),
            seq: 0,
            threshold_ns: SLOW_FLOOR_NS,
            since_refresh: 0,
            slow_dropped: 0,
            series,
        }
    }

    fn record_request(&mut self, mut rec: FlightRecord) {
        rec.seq = self.seq;
        self.ring[self.seq as usize % RING_CAPACITY] = rec;
        self.seq += 1;
        if rec.opcode == wire::OP_ELECT {
            self.elect_ns.record(rec.apply_ns);
        } else {
            self.apply_ns.record(rec.apply_ns);
        }
        if rec.apply_ns >= self.threshold_ns {
            if self.slow.len() >= SLOW_PINS {
                self.slow.pop_front();
                self.slow_dropped += 1;
            }
            self.slow.push_back(rec);
        }
        self.since_refresh += 1;
        if self.since_refresh >= THRESHOLD_REFRESH {
            self.since_refresh = 0;
            self.threshold_ns = self.apply_ns.snapshot().p99().max(SLOW_FLOOR_NS);
        }
    }

    fn flight_json(&self, recent_cap: usize, slow_cap: usize) -> Json {
        // Newest `take` records end at `seq`, oldest first.
        let live = usize::try_from(self.seq)
            .unwrap_or(usize::MAX)
            .min(RING_CAPACITY);
        let take = live.min(recent_cap);
        let recent = (0..take)
            .map(|i| {
                let back = (take - i) as u64;
                self.ring[(self.seq - back) as usize % RING_CAPACITY].to_json()
            })
            .collect();
        let slow = self
            .slow
            .iter()
            .skip(self.slow.len().saturating_sub(slow_cap))
            .map(|r| r.to_json())
            .collect();
        Json::obj([
            ("recent", Json::Arr(recent)),
            ("seq", Json::U64(self.seq)),
            ("slow", Json::Arr(slow)),
            ("slow_dropped", Json::U64(self.slow_dropped)),
            ("threshold_ns", Json::U64(self.threshold_ns)),
        ])
    }

    fn to_json(&self, shard: usize, queue_depth: usize) -> Json {
        Json::obj([
            ("shard", Json::U64(shard as u64)),
            ("apply_ns", hist_json(&self.apply_ns.snapshot())),
            ("conns", Json::U64(self.conns)),
            ("elect_ns", hist_json(&self.elect_ns.snapshot())),
            ("flight", self.flight_json(SCRAPE_RECENT, SCRAPE_SLOW)),
            ("flush_batch", hist_json(&self.flush_batch.snapshot())),
            ("queue_depth", Json::U64(queue_depth as u64)),
            ("shed", Json::U64(self.stats.shed)),
            ("turn_ns", hist_json(&self.turn_ns.snapshot())),
            ("wakeups", Json::U64(self.wakeups)),
        ])
    }
}

/// A loop's `server.*` series in the telemetry [`Registry`]: mirrors
/// of its probe, written only by [`IntrospectState::commit_turn`].
/// Names and types are the serving snapshot's contract
/// (`validate_telemetry --serve`, `bso-progress/v1` heartbeats).
struct Series {
    registry: Registry,
    index: usize,
    /// `server.<name>` for each [`ServerStats::fields`] entry, in order.
    totals: [Counter; 10],
    object_errors: Counter,
    elections_opened: Counter,
    elections_decided: Counter,
    wakeups: Counter,
    conns: Gauge,
    arena_buffers: Gauge,
    queue_depth: Gauge,
    apply_ns: Histogram,
    elect_ns: Histogram,
    /// Registered on the loop's first completed flush, so a loop that
    /// never serves a connection leaves no empty histogram behind.
    flush_batch: Option<Histogram>,
}

impl Series {
    /// Registers loop `index`'s series, or `None` on a disabled
    /// registry.
    fn new(registry: &Registry, index: usize) -> Option<Series> {
        registry.is_enabled().then(|| Series {
            registry: registry.clone(),
            index,
            totals: ServerStats::default()
                .fields()
                .map(|(name, _)| registry.counter(&format!("server.{name}"))),
            object_errors: registry.counter("server.errors.object"),
            elections_opened: registry.counter("server.elections.opened"),
            elections_decided: registry.counter("server.elections.decided"),
            wakeups: registry.counter(&format!("server.loop{index}.wakeups")),
            conns: registry.gauge(&format!("server.loop{index}.conns")),
            arena_buffers: registry.gauge(&format!("server.loop{index}.arena_buffers")),
            queue_depth: registry.gauge(&format!("server.shard{index}.queue_depth")),
            apply_ns: registry.histogram("server.apply_ns"),
            elect_ns: registry.histogram("server.elect_ns"),
            flush_batch: None,
        })
    }

    /// Adds one turn's scratch to the series.
    fn write(&mut self, scratch: &ProbeScratch, conns: usize, buffers: usize, depth: usize) {
        for (counter, (_, n)) in self.totals.iter().zip(scratch.stats.fields()) {
            counter.add(n);
        }
        self.object_errors.add(scratch.object_errors);
        self.elections_opened.add(scratch.elections_opened);
        self.elections_decided.add(scratch.elections_decided);
        self.wakeups.inc();
        self.conns.set(conns as u64);
        self.arena_buffers.set(buffers as u64);
        self.queue_depth.set(depth as u64);
        for r in &scratch.requests {
            if r.opcode == wire::OP_ELECT {
                self.elect_ns.record(r.apply_ns);
            } else {
                self.apply_ns.record(r.apply_ns);
            }
        }
        if !scratch.flushes.is_empty() {
            let hist = self.flush_batch.get_or_insert_with(|| {
                self.registry
                    .histogram(&format!("server.loop{}.flush_batch", self.index))
            });
            for &batch in &scratch.flushes {
                hist.record(batch);
            }
        }
    }
}

/// The server's bind-time identity, echoed verbatim in every
/// `Introspect` snapshot so a scrape identifies what it is talking to.
pub(crate) struct ConfigInfo {
    pub(crate) shards: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) backend: String,
    pub(crate) read_chunk: usize,
    pub(crate) pin_cores: bool,
}

/// Always-on introspection state hung off the server's `Shared`: the
/// bind-time config plus one [`LoopProbe`] per event loop.
pub(crate) struct IntrospectState {
    started: Instant,
    config: ConfigInfo,
    probes: Vec<Mutex<LoopProbe>>,
}

impl IntrospectState {
    /// One probe per configured loop, each mirrored into `registry`
    /// when it is enabled (the series are registered here, at bind).
    pub(crate) fn new(config: ConfigInfo, registry: &Registry) -> IntrospectState {
        let probes = (0..config.shards)
            .map(|i| Mutex::new(LoopProbe::new(Series::new(registry, i))))
            .collect();
        IntrospectState {
            started: Instant::now(),
            config,
            probes,
        }
    }

    /// Folds loop `index`'s turn scratch into its shared probe (and
    /// the probe's Registry series), records the turn itself, and
    /// leaves the scratch empty: one uncontended lock per readiness
    /// turn, regardless of how many requests the turn served.
    /// `buffers` is the loop's arena buffers in use; `queue` its
    /// cross-shard inbox, read only for the Registry gauge.
    pub(crate) fn commit_turn(
        &self,
        index: usize,
        scratch: &mut ProbeScratch,
        turn_ns: u64,
        conns: usize,
        buffers: usize,
        queue: &XQueue<Xfer>,
    ) {
        let mut p = self.probes[index].lock().expect(PROBE_POISONED);
        if let Some(series) = &mut p.series {
            series.write(scratch, conns, buffers, queue.len());
        }
        p.stats.add(&std::mem::take(&mut scratch.stats));
        for r in scratch.requests.drain(..) {
            p.record_request(r);
        }
        for batch in scratch.flushes.drain(..) {
            p.flush_batch.record(batch);
        }
        scratch.object_errors = 0;
        scratch.elections_opened = 0;
        scratch.elections_decided = 0;
        p.wakeups += 1;
        p.turn_ns.record(turn_ns);
        p.conns = conns as u64;
    }

    /// The server's totals: the sum over every loop's probe, each as
    /// of its last committed turn.
    pub(crate) fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for p in &self.probes {
            total.add(&p.lock().expect(PROBE_POISONED).stats);
        }
        total
    }

    /// Loop `index`'s flight recorder as JSON (uncapped) — the panic
    /// dump.
    pub(crate) fn flight_json(&self, index: usize) -> Json {
        self.probes[index]
            .lock()
            .unwrap()
            .flight_json(RING_CAPACITY, SLOW_PINS)
    }
}

/// Builds the `bso-introspect/v1` document for `shared`'s server.
///
/// Deterministic rendering: keys are emitted in a fixed (sorted)
/// order and the shard array in shard order, so two scrapes of
/// identical state are byte-identical.
pub(crate) fn introspect_doc(shared: &Shared) -> Json {
    let intro = &shared.introspect;
    // The totals are summed from the very probe states the shard
    // entries render, so per-shard figures add up to them exactly.
    let mut stats = ServerStats::default();
    let mut shards = Vec::with_capacity(intro.probes.len());
    for (i, p) in intro.probes.iter().enumerate() {
        let depth = shared.loops[i].xq.len();
        let p = p.lock().expect(PROBE_POISONED);
        stats.add(&p.stats);
        shards.push(p.to_json(i, depth));
    }
    let mut totals: Vec<(&str, Json)> = stats
        .fields()
        .into_iter()
        .map(|(name, n)| (name, Json::U64(n)))
        .collect();
    totals.push(("sessions", Json::U64(shared.sessions.sessions() as u64)));
    totals.sort_by_key(|&(name, _)| name);
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        (
            "config",
            Json::obj([
                ("backend", Json::str(&intro.config.backend)),
                ("pin_cores", Json::Bool(intro.config.pin_cores)),
                (
                    "queue_capacity",
                    Json::U64(intro.config.queue_capacity as u64),
                ),
                ("read_chunk", Json::U64(intro.config.read_chunk as u64)),
                ("shards", Json::U64(intro.config.shards as u64)),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("crate", Json::str("bso-server")),
                (
                    "uptime_ms",
                    Json::U64(intro.started.elapsed().as_millis() as u64),
                ),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("wire", Json::str(wire::SCHEMA)),
            ]),
        ),
        ("stats", Json::obj(totals)),
        ("routing", shared.route.introspect()),
        ("shards", Json::Arr(shards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(object: u64, apply_ns: u64) -> FlightRecord {
        FlightRecord {
            opcode: wire::OP_APPLY,
            object,
            apply_ns,
            ..FlightRecord::default()
        }
    }

    #[test]
    fn plain_hist_matches_telemetry_quantile_semantics() {
        let mut h = PlainHist::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1024);
        assert_eq!(s.sum, 1039);
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max && s.p50() >= s.min);
    }

    #[test]
    fn flight_recorder_pins_slow_requests_and_bounds_both_rings() {
        let mut p = LoopProbe::new(None);
        // Fast requests fill (and wrap) the ring without pinning.
        for i in 0..(RING_CAPACITY as u64 + 10) {
            p.record_request(apply(i, 100));
        }
        let full = p.flight_json(RING_CAPACITY, SLOW_PINS);
        let recent = full.get("recent").and_then(Json::items).unwrap();
        assert_eq!(recent.len(), RING_CAPACITY);
        assert_eq!(
            recent[0].get("seq").and_then(Json::as_u64),
            Some(10),
            "oldest dropped"
        );
        assert_eq!(
            recent[RING_CAPACITY - 1].get("seq").and_then(Json::as_u64),
            Some(RING_CAPACITY as u64 + 9),
            "newest last"
        );
        assert!(p.slow.is_empty(), "sub-floor requests are never pinned");
        // Slow requests pin, and the pin ring is bounded too.
        for i in 0..(SLOW_PINS as u64 + 3) {
            p.record_request(apply(i, SLOW_FLOOR_NS * 2));
        }
        assert_eq!(p.slow.len(), SLOW_PINS);
        assert_eq!(p.slow_dropped, 3);
        let doc = p.flight_json(4, SLOW_PINS);
        assert_eq!(doc.get("recent").and_then(Json::len), Some(4));
        assert_eq!(doc.get("slow").and_then(Json::len), Some(SLOW_PINS));
        assert_eq!(doc.get("slow_dropped").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn threshold_refreshes_from_the_observed_p99() {
        let mut p = LoopProbe::new(None);
        // A workload whose p99 sits far above the floor raises the
        // threshold at the refresh boundary.
        for _ in 0..THRESHOLD_REFRESH {
            p.record_request(apply(0, SLOW_FLOOR_NS * 8));
        }
        assert!(p.threshold_ns >= SLOW_FLOOR_NS * 8, "{}", p.threshold_ns);
    }
}
