//! Structured event tracing with Chrome trace-event export.
//!
//! Where the metric [`Registry`](crate::Registry) aggregates *counts*,
//! this module records *events*: per-worker, ring-buffered
//! `begin`/`end` spans and `instant` markers carrying a nanosecond
//! timestamp, the worker id, a name and `key=value` arguments. A
//! [`TraceSink`] hands out one [`TraceWorker`] per thread of
//! execution; workers write into private ring buffers (bounded, oldest
//! events overwritten) so hot loops never contend on a shared lock.
//!
//! **Zero cost when disabled.** A disabled sink hands out disabled
//! workers; every recording call is a branch on a `None` — no clocks
//! read, no allocation, no locking. Instrumentation sites additionally
//! gate on [`TraceWorker::is_enabled`] so argument lists are never
//! even constructed.
//!
//! **Chrome trace-event export.** [`TraceSink::export`] renders the
//! collected events as a Chrome trace-event / Perfetto JSON document
//! (schema tag `bso-trace/v1`): spans become `"ph": "X"` complete
//! events, instants become `"ph": "i"` with thread scope, and each
//! worker gets a `thread_name` metadata record. The file loads
//! directly in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! The `BSO_TRACE=path.json` environment variable enables the global
//! sink ([`TraceSink::global`]) and names the export file, mirroring
//! the `BSO_TELEMETRY` escape hatch.
//!
//! ```
//! use bso_telemetry::trace::{TraceArg, TraceSink};
//!
//! let sink = TraceSink::enabled();
//! let w = sink.worker("explore-w0");
//! {
//!     let _span = w.begin("expand"); // "X" event recorded on drop
//! }
//! w.instant_with("dedup_hit", [("depth", TraceArg::U64(3))]);
//! let doc = sink.export();
//! assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("bso-trace/v1"));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// The schema tag every export (merged or not) carries.
pub const SCHEMA: &str = "bso-trace/v1";

/// The environment variable that enables the global sink and names the
/// trace file: `BSO_TRACE=path.json`.
pub const ENV_VAR: &str = "BSO_TRACE";

/// Default per-worker ring capacity (events). Old events are dropped
/// (and counted) once a worker's ring is full.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One `key=value` argument attached to a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceArg {
    /// An unsigned integer argument.
    U64(u64),
    /// A signed integer argument.
    I64(i64),
    /// A floating-point argument.
    F64(f64),
    /// A string argument.
    Str(String),
}

impl TraceArg {
    fn to_json(&self) -> Json {
        match self {
            TraceArg::U64(v) => Json::U64(*v),
            TraceArg::I64(v) => Json::I64(*v),
            TraceArg::F64(v) => Json::F64(*v),
            TraceArg::Str(s) => Json::str(s),
        }
    }
}

impl From<u64> for TraceArg {
    fn from(v: u64) -> TraceArg {
        TraceArg::U64(v)
    }
}

impl From<usize> for TraceArg {
    fn from(v: usize) -> TraceArg {
        TraceArg::U64(v as u64)
    }
}

impl From<i64> for TraceArg {
    fn from(v: i64) -> TraceArg {
        TraceArg::I64(v)
    }
}

impl From<f64> for TraceArg {
    fn from(v: f64) -> TraceArg {
        TraceArg::F64(v)
    }
}

impl From<&str> for TraceArg {
    fn from(s: &str) -> TraceArg {
        TraceArg::Str(s.to_string())
    }
}

impl From<String> for TraceArg {
    fn from(s: String) -> TraceArg {
        TraceArg::Str(s)
    }
}

/// One recorded event, before export.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the sink's epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `None` marks an instant.
    pub dur_ns: Option<u64>,
    /// Event name.
    pub name: String,
    /// `key=value` arguments.
    pub args: Vec<(&'static str, TraceArg)>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, ev: TraceEvent) {
        if self.events.len() >= capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[derive(Debug)]
struct WorkerBuf {
    tid: u64,
    label: String,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct SinkInner {
    epoch: Instant,
    capacity: usize,
    workers: Mutex<Vec<Arc<WorkerBuf>>>,
}

/// A trace collector: hands out per-worker event buffers and exports
/// the merged event stream as Chrome trace-event JSON.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same buffers.
#[derive(Clone, Debug)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

/// Clones [`TraceSink::global`], so any config field initialized with
/// `TraceSink::default()` honours the `BSO_TRACE` escape hatch.
impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::global().clone()
    }
}

impl TraceSink {
    /// A live sink with the default per-worker ring capacity.
    pub fn enabled() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// A live sink whose workers each keep at most `capacity` events
    /// (oldest dropped first).
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                workers: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A no-op sink: workers record nothing, exports are empty.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-wide sink: enabled iff [`ENV_VAR`] was set when it
    /// was first touched, disabled (and free) otherwise.
    pub fn global() -> &'static TraceSink {
        static GLOBAL: OnceLock<TraceSink> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            if std::env::var_os(ENV_VAR).is_some() {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            }
        })
    }

    /// Registers a new worker lane named `label` (rendered as the
    /// thread name in Perfetto) and returns its recording handle.
    pub fn worker(&self, label: impl Into<String>) -> TraceWorker {
        let Some(inner) = &self.inner else {
            return TraceWorker { ctx: None };
        };
        let buf = {
            let mut workers = inner.workers.lock().unwrap();
            let buf = Arc::new(WorkerBuf {
                tid: workers.len() as u64 + 1,
                label: label.into(),
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    dropped: 0,
                }),
            });
            workers.push(Arc::clone(&buf));
            buf
        };
        TraceWorker {
            ctx: Some(WorkerCtx {
                epoch: inner.epoch,
                capacity: inner.capacity,
                buf,
            }),
        }
    }

    /// Total events currently buffered across all workers.
    pub fn events_len(&self) -> usize {
        let Some(inner) = &self.inner else { return 0 };
        let workers = inner.workers.lock().unwrap();
        workers
            .iter()
            .map(|w| w.ring.lock().unwrap().events.len())
            .sum()
    }

    /// Exports the collected events as a Chrome trace-event JSON
    /// document.
    ///
    /// Top level:
    ///
    /// ```json
    /// {"schema": "bso-trace/v1",
    ///  "displayTimeUnit": "ms",
    ///  "dropped": 0,
    ///  "traceEvents": [ … ]}
    /// ```
    ///
    /// `traceEvents` opens with one `"ph": "M"` `thread_name` metadata
    /// record per worker, followed by the data events sorted by
    /// timestamp: spans as `"ph": "X"` (with `dur`), instants as
    /// `"ph": "i"` with thread scope. Timestamps are microseconds
    /// (fractional), as the trace-event format requires.
    pub fn export(&self) -> Json {
        let mut out: Vec<Json> = Vec::new();
        let mut data: Vec<(u64, u64, Json)> = Vec::new();
        let mut dropped = 0u64;
        if let Some(inner) = &self.inner {
            let workers = inner.workers.lock().unwrap();
            for w in workers.iter() {
                out.push(Json::obj([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(w.tid)),
                    ("args", Json::obj([("name", Json::str(&w.label))])),
                ]));
                let ring = w.ring.lock().unwrap();
                dropped += ring.dropped;
                for ev in &ring.events {
                    let mut fields: Vec<(&str, Json)> = vec![
                        ("name", Json::str(&ev.name)),
                        ("ph", Json::str(if ev.dur_ns.is_some() { "X" } else { "i" })),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(w.tid)),
                        ("ts", Json::F64(ev.ts_ns as f64 / 1_000.0)),
                    ];
                    match ev.dur_ns {
                        Some(dur) => fields.push(("dur", Json::F64(dur as f64 / 1_000.0))),
                        None => fields.push(("s", Json::str("t"))),
                    }
                    if !ev.args.is_empty() {
                        fields.push((
                            "args",
                            Json::Obj(
                                ev.args
                                    .iter()
                                    .map(|(k, v)| ((*k).to_string(), v.to_json()))
                                    .collect(),
                            ),
                        ));
                    }
                    data.push((ev.ts_ns, w.tid, Json::obj(fields)));
                }
            }
        }
        data.sort_by_key(|(ts, tid, _)| (*ts, *tid));
        out.extend(data.into_iter().map(|(_, _, j)| j));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("displayTimeUnit", Json::str("ms")),
            ("dropped", Json::U64(dropped)),
            ("traceEvents", Json::Arr(out)),
        ])
    }

    /// [`TraceSink::export`] rendered pretty, ready to write to disk.
    pub fn export_string(&self) -> String {
        self.export().render_pretty()
    }
}

#[derive(Clone, Debug)]
struct WorkerCtx {
    epoch: Instant,
    capacity: usize,
    buf: Arc<WorkerBuf>,
}

/// A per-worker recording handle obtained from [`TraceSink::worker`].
///
/// Cloning shares the worker's ring buffer. On a handle from a
/// disabled sink every method is a no-op that reads no clock.
#[derive(Clone, Debug)]
pub struct TraceWorker {
    ctx: Option<WorkerCtx>,
}

/// A disabled handle (records nothing).
impl Default for TraceWorker {
    fn default() -> TraceWorker {
        TraceWorker::disabled()
    }
}

impl TraceWorker {
    /// A handle that records nothing.
    pub fn disabled() -> TraceWorker {
        TraceWorker { ctx: None }
    }

    /// Whether events recorded here go anywhere. Hot sites check this
    /// before building argument lists.
    pub fn is_enabled(&self) -> bool {
        self.ctx.is_some()
    }

    fn push(&self, ev: TraceEvent) {
        if let Some(ctx) = &self.ctx {
            ctx.buf.ring.lock().unwrap().push(ctx.capacity, ev);
        }
    }

    fn clock_ns(ctx: &WorkerCtx) -> u64 {
        u64::try_from(ctx.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds elapsed since the parent sink's epoch — the
    /// timestamp domain of [`TraceWorker::event_at`]. Returns 0 (and
    /// reads no clock) on a disabled handle, so callers can take a
    /// stamp before an operation and emit the span after it with
    /// `event_at(t0, Some(now_ns() - t0), …)`.
    pub fn now_ns(&self) -> u64 {
        match &self.ctx {
            Some(ctx) => Self::clock_ns(ctx),
            None => 0,
        }
    }

    /// Records an instant event (no duration) stamped now.
    pub fn instant(&self, name: &str) {
        self.instant_with(name, []);
    }

    /// Records an instant event with `key=value` arguments.
    pub fn instant_with(
        &self,
        name: &str,
        args: impl IntoIterator<Item = (&'static str, TraceArg)>,
    ) {
        let Some(ctx) = &self.ctx else { return };
        self.push(TraceEvent {
            ts_ns: Self::clock_ns(ctx),
            dur_ns: None,
            name: name.to_string(),
            args: args.into_iter().collect(),
        });
    }

    /// Starts a span: a complete (`"X"`) event recorded when the
    /// returned guard is dropped or [`TraceSpan::end`]ed.
    pub fn begin(&self, name: &str) -> TraceSpan {
        match &self.ctx {
            Some(ctx) => TraceSpan {
                worker: self.clone(),
                name: name.to_string(),
                start_ns: Self::clock_ns(ctx),
                args: Vec::new(),
                done: false,
            },
            None => TraceSpan {
                worker: TraceWorker::disabled(),
                name: String::new(),
                start_ns: 0,
                args: Vec::new(),
                done: true,
            },
        }
    }

    /// Records an event with explicit timestamps, for replaying
    /// histories whose clock is not this sink's epoch (e.g. the
    /// logical clock of a recorded concurrent run).
    pub fn event_at(
        &self,
        ts_ns: u64,
        dur_ns: Option<u64>,
        name: &str,
        args: impl IntoIterator<Item = (&'static str, TraceArg)>,
    ) {
        if self.ctx.is_none() {
            return;
        }
        self.push(TraceEvent {
            ts_ns,
            dur_ns,
            name: name.to_string(),
            args: args.into_iter().collect(),
        });
    }
}

/// An open span from [`TraceWorker::begin`]; records a complete event
/// with its measured duration when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    worker: TraceWorker,
    name: String,
    start_ns: u64,
    args: Vec<(&'static str, TraceArg)>,
    done: bool,
}

impl TraceSpan {
    /// Attaches a `key=value` argument to the span (no-op when the
    /// parent sink is disabled).
    pub fn arg(&mut self, key: &'static str, value: impl Into<TraceArg>) {
        if self.worker.is_enabled() {
            self.args.push((key, value.into()));
        }
    }

    /// Ends the span now instead of at drop.
    pub fn end(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let Some(ctx) = &self.worker.ctx else { return };
        let end_ns = TraceWorker::clock_ns(ctx);
        self.worker.push(TraceEvent {
            ts_ns: self.start_ns,
            dur_ns: Some(end_ns.saturating_sub(self.start_ns)),
            name: std::mem::take(&mut self.name),
            args: std::mem::take(&mut self.args),
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.record();
    }
}

/// Writes the global sink's Chrome trace-event export to the path
/// named by [`ENV_VAR`], if the variable is set. Returns the path
/// written to, if any.
///
/// The companion of [`crate::dump_global_if_env`] for the
/// `BSO_TRACE=path.json` escape hatch; experiment regenerators call
/// both through [`crate::dump_all_if_env`].
///
/// # Errors
///
/// Propagates the I/O error from writing the file.
pub fn dump_global_trace_if_env() -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = std::env::var_os(ENV_VAR) else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    std::fs::write(&path, TraceSink::global().export_string())?;
    Ok(Some(path))
}

/// The `traceEvents` array of a [`SCHEMA`] document; `which` names
/// the document in errors.
///
/// # Errors
///
/// Rejects a document of another schema, or one whose `traceEvents`
/// is missing or not an array.
pub fn events_of<'a>(doc: &'a Json, which: &str) -> Result<&'a [Json], String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("{which} trace: schema is {other:?}, want {SCHEMA}")),
    }
    match doc.get("traceEvents") {
        Some(Json::Arr(evs)) => Ok(evs),
        _ => Err(format!(
            "{which} trace: traceEvents missing or not an array"
        )),
    }
}

/// Midpoint timestamp (µs) of the first `"X"` span per `trace_id` arg.
fn span_mids(events: &[Json]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let Some(id) = e
            .get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(Json::as_u64)
        else {
            continue;
        };
        let Some(ts) = e.get("ts").and_then(Json::as_f64) else {
            continue;
        };
        let dur = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        out.entry(id).or_insert(ts + dur / 2.0);
    }
    out
}

/// Re-emits one event with its `tid` shifted by `tid_base`, its `ts`
/// shifted by `ts_shift` µs, and (for `"M"` metadata) its thread name
/// prefixed with `side:`.
fn rebase_event(e: &Json, tid_base: u64, ts_shift: f64, side: &str) -> Json {
    let Json::Obj(entries) = e else {
        return e.clone();
    };
    let is_meta = e.get("ph").and_then(Json::as_str) == Some("M");
    Json::Obj(
        entries
            .iter()
            .map(|(k, v)| {
                let nv = match k.as_str() {
                    "tid" => Json::U64(v.as_u64().unwrap_or(0) + tid_base),
                    "ts" => Json::F64(v.as_f64().unwrap_or(0.0) + ts_shift),
                    "args" if is_meta => {
                        let name = v.get("name").and_then(Json::as_str).unwrap_or("");
                        Json::obj([("name", Json::str(format!("{side}:{name}")))])
                    }
                    _ => v.clone(),
                };
                (k.clone(), nv)
            })
            .collect(),
    )
}

/// Joins a client-side and a server-side Chrome-trace export (both
/// `bso-trace/v1`, from [`TraceSink::export`]) into one timeline.
///
/// The two sinks have independent epochs, so server timestamps are
/// shifted onto the client clock using the median offset between the
/// span midpoints of every `trace_id` that appears on both sides (the
/// ids stamped into request frames by a tracing client and echoed by
/// the server's per-shard span records). Server worker tracks are
/// renumbered after the client's, and every `thread_name` is prefixed
/// `client:` or `server:`.
///
/// The merged document keeps the `bso-trace/v1` shape (it revalidates
/// and reloads anywhere the inputs do) and adds a `"merged"` object:
/// `matched` (trace_ids seen on both sides), `client_only`,
/// `server_only`, and `offset_us` (the applied clock shift).
///
/// # Errors
///
/// Rejects documents that are not `bso-trace/v1`, and inputs that
/// share no `trace_id` (there is nothing to align the clocks with).
pub fn merge_traces(client: &Json, server: &Json) -> Result<Json, String> {
    let c_events = events_of(client, "client")?;
    let s_events = events_of(server, "server")?;
    let c_mids = span_mids(c_events);
    let s_mids = span_mids(s_events);
    let mut offsets: Vec<f64> = c_mids
        .iter()
        .filter_map(|(id, c)| s_mids.get(id).map(|s| c - s))
        .collect();
    if offsets.is_empty() {
        return Err("no trace_id appears in both traces; cannot align clocks".to_string());
    }
    offsets.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let offset = offsets[offsets.len() / 2];
    let matched = offsets.len() as u64;
    let client_only = (c_mids.len() as u64).saturating_sub(matched);
    let server_only = (s_mids.len() as u64).saturating_sub(matched);

    let tid_base = c_events
        .iter()
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .max()
        .unwrap_or(0);
    let mut meta: Vec<Json> = Vec::new();
    let mut data: Vec<(f64, u64, Json)> = Vec::new();
    for (events, base, shift, side) in [
        (c_events, 0u64, 0.0f64, "client"),
        (s_events, tid_base, offset, "server"),
    ] {
        for e in events {
            let out = rebase_event(e, base, shift, side);
            if out.get("ph").and_then(Json::as_str) == Some("M") {
                meta.push(out);
            } else {
                let ts = out.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
                let tid = out.get("tid").and_then(Json::as_u64).unwrap_or(0);
                data.push((ts, tid, out));
            }
        }
    }
    data.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    meta.extend(data.into_iter().map(|(_, _, j)| j));

    let dropped = client.get("dropped").and_then(Json::as_u64).unwrap_or(0)
        + server.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    Ok(Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("displayTimeUnit", Json::str("ms")),
        ("dropped", Json::U64(dropped)),
        (
            "merged",
            Json::obj([
                ("matched", Json::U64(matched)),
                ("client_only", Json::U64(client_only)),
                ("server_only", Json::U64(server_only)),
                ("offset_us", Json::F64(offset)),
            ]),
        ),
        ("traceEvents", Json::Arr(meta)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        let w = sink.worker("w");
        assert!(!sink.is_enabled());
        assert!(!w.is_enabled());
        w.instant("x");
        w.instant_with("y", [("k", TraceArg::U64(1))]);
        drop(w.begin("z"));
        w.event_at(5, Some(2), "e", []);
        assert_eq!(sink.events_len(), 0);
        let doc = sink.export();
        assert_eq!(
            doc.get("traceEvents").and_then(|t| t.len()),
            Some(0),
            "no events, not even metadata"
        );
    }

    #[test]
    fn span_and_instant_round_trip_through_export() {
        let sink = TraceSink::enabled();
        let w = sink.worker("explore-w0");
        {
            let mut s = w.begin("expand");
            s.arg("depth", 4u64);
        }
        w.instant_with("dedup_hit", [("shard", TraceArg::U64(7))]);
        assert_eq!(sink.events_len(), 2);

        let text = sink.export_string();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bso-trace/v1")
        );
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // Metadata first, then the two data events.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("explore-w0")
        );
        let span = &events[1];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("name").and_then(Json::as_str), Some("expand"));
        assert!(span.get("dur").is_some());
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("depth"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let inst = &events[2];
        assert_eq!(inst.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(inst.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = TraceSink::with_capacity(4);
        let w = sink.worker("w");
        for i in 0..10u64 {
            w.instant_with("e", [("i", TraceArg::U64(i))]);
        }
        assert_eq!(sink.events_len(), 4);
        let doc = sink.export();
        assert_eq!(doc.get("dropped").and_then(Json::as_u64), Some(6));
        // The survivors are the newest four.
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            _ => unreachable!(),
        };
        let is: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("i"))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .collect();
        assert_eq!(is, vec![6, 7, 8, 9]);
    }

    #[test]
    fn workers_get_distinct_tids_and_events_sort_by_time() {
        let sink = TraceSink::enabled();
        let a = sink.worker("a");
        let b = sink.worker("b");
        b.event_at(200, None, "late", []);
        a.event_at(100, None, "early", []);
        let doc = sink.export();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            _ => unreachable!(),
        };
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ["early", "late"]);
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(tids, vec![1, 2]);
    }

    #[test]
    fn explicit_timestamps_become_complete_events() {
        let sink = TraceSink::enabled();
        let w = sink.worker("proc-p0");
        w.event_at(1_000, Some(2_000), "read", [("obj", TraceArg::U64(0))]);
        let doc = sink.export();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            _ => unreachable!(),
        };
        let ev = &events[1];
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(ev.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(ev.get("dur").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn now_ns_is_monotonic_and_zero_when_disabled() {
        assert_eq!(TraceWorker::disabled().now_ns(), 0);
        let sink = TraceSink::enabled();
        let w = sink.worker("w");
        let a = w.now_ns();
        let b = w.now_ns();
        assert!(b >= a);
    }

    fn traced_span(w: &TraceWorker, ts_ns: u64, dur_ns: u64, trace_id: u64) {
        w.event_at(
            ts_ns,
            Some(dur_ns),
            "op",
            [("trace_id", TraceArg::U64(trace_id))],
        );
    }

    #[test]
    fn merge_aligns_clocks_and_counts_matches() {
        // Client spans at 10µs and 50µs; server saw the same work on a
        // clock shifted 1ms earlier, plus one span the client never
        // stamped.
        let client = TraceSink::enabled();
        let cw = client.worker("conn0");
        traced_span(&cw, 10_000, 4_000, 1);
        traced_span(&cw, 50_000, 4_000, 2);
        let server = TraceSink::enabled();
        let sw = server.worker("loop0");
        traced_span(&sw, 1_011_000, 2_000, 1);
        traced_span(&sw, 1_051_000, 2_000, 2);
        traced_span(&sw, 1_900_000, 2_000, 99);

        let merged = merge_traces(&client.export(), &server.export()).unwrap();
        assert_eq!(
            merged.get("schema").and_then(Json::as_str),
            Some("bso-trace/v1")
        );
        let m = merged.get("merged").unwrap();
        assert_eq!(m.get("matched").and_then(Json::as_u64), Some(2));
        assert_eq!(m.get("client_only").and_then(Json::as_u64), Some(0));
        assert_eq!(m.get("server_only").and_then(Json::as_u64), Some(1));
        // True offset is client − server = −1000µs.
        let off = m.get("offset_us").and_then(Json::as_f64).unwrap();
        assert!((off - (-1000.0)).abs() < 1e-6, "offset {off}");

        let events = match merged.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            _ => unreachable!(),
        };
        // Thread names are side-prefixed and tids disjoint.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(names, ["client:conn0", "server:loop0"]);
        // After the shift, server span 1 nests inside client span 1.
        let span = |tid: u64, id: u64| {
            events
                .iter()
                .find(|e| {
                    e.get("tid").and_then(Json::as_u64) == Some(tid)
                        && e.get("args")
                            .and_then(|a| a.get("trace_id"))
                            .and_then(Json::as_u64)
                            == Some(id)
                })
                .unwrap()
        };
        let c1 = span(1, 1);
        let s1 = span(2, 1);
        let (cts, cdur) = (
            c1.get("ts").and_then(Json::as_f64).unwrap(),
            c1.get("dur").and_then(Json::as_f64).unwrap(),
        );
        let (sts, sdur) = (
            s1.get("ts").and_then(Json::as_f64).unwrap(),
            s1.get("dur").and_then(Json::as_f64).unwrap(),
        );
        assert!(sts >= cts && sts + sdur <= cts + cdur, "server span nests");
    }

    #[test]
    fn merge_rejects_disjoint_traces_and_bad_schemas() {
        let a = TraceSink::enabled();
        a.worker("a").event_at(1, Some(1), "x", []);
        let b = TraceSink::enabled();
        b.worker("b").event_at(1, Some(1), "y", []);
        let err = merge_traces(&a.export(), &b.export()).unwrap_err();
        assert!(err.contains("no trace_id"), "{err}");
        let err =
            merge_traces(&Json::obj([("schema", Json::str("nope"))]), &b.export()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn trace_arg_conversions() {
        assert_eq!(TraceArg::from(3u64), TraceArg::U64(3));
        assert_eq!(TraceArg::from(3usize), TraceArg::U64(3));
        assert_eq!(TraceArg::from(-3i64), TraceArg::I64(-3));
        assert_eq!(TraceArg::from("s"), TraceArg::Str("s".to_string()));
        assert!(matches!(TraceArg::from(0.5f64), TraceArg::F64(_)));
    }
}
