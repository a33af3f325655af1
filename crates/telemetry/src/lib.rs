//! Lightweight observability for the `bso` workspace.
//!
//! The paper's results quantify over *runs*; this crate makes the cost
//! structure of those runs observable. A [`Registry`] hands out
//! [`Counter`]s, [`Gauge`]s, log2-bucketed [`Histogram`]s and
//! span-scoped timers ([`Span`]), and renders a deterministic JSON
//! [`Snapshot`]. Everything is `std`-only and thread-safe.
//!
//! **Zero cost when disabled.** A disabled registry (the default
//! unless the `BSO_TELEMETRY` environment variable is set) hands out
//! handles that hold no allocation and whose operations compile to a
//! branch on a `None` — no clocks are read, no atomics touched. Hot
//! loops can therefore keep their instrumentation unconditionally.
//!
//! **Deterministic snapshots.** [`Snapshot`] sorts metrics by name and
//! renders integers exactly, so two runs that perform the same work
//! under a fixed schedule produce byte-identical JSON — the property
//! CI leans on to validate experiment artifacts.
//!
//! ```
//! use bso_telemetry::Registry;
//!
//! let reg = Registry::enabled();
//! reg.counter("explore.states").add(17);
//! reg.histogram("explore.frontier_depth").record(5);
//! {
//!     let _span = reg.span("explore.run_ns"); // records ns on drop
//! }
//! let json = reg.snapshot().to_json_string();
//! assert!(json.contains("explore.states"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod progress;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use json::Json;
pub use progress::ProgressReporter;
pub use trace::{TraceArg, TraceSink, TraceSpan, TraceWorker};

/// The schema tag every [`Snapshot`] document carries.
pub const SCHEMA: &str = "bso-telemetry/v1";

/// The environment variable that enables the global registry and names
/// the snapshot file: `BSO_TELEMETRY=path.json`.
pub const ENV_VAR: &str = "BSO_TELEMETRY";

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `u64::MAX` (bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value falls into: 0 for 0, otherwise
/// `64 - leading_zeros(v)` (so 1 → bucket 1, 2..=3 → bucket 2, …).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The smallest value in bucket `i` (inverse of [`bucket_index`]).
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A handle-granting metric registry.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same metric
/// store. See the crate docs for the enabled/disabled contract.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

/// Clones [`Registry::global`], so any config field initialized with
/// `Registry::default()` honours the `BSO_TELEMETRY` escape hatch.
impl Default for Registry {
    fn default() -> Registry {
        Registry::global().clone()
    }
}

impl Registry {
    /// A live registry that records everything.
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op registry: handles record nothing, snapshots are empty.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-wide registry: enabled iff [`ENV_VAR`] (or
    /// [`progress::ENV_VAR`], whose heartbeats sample these metrics)
    /// was set when it was first touched, disabled (and free)
    /// otherwise.
    ///
    /// `Registry::default()` clones this, so plumbing a default
    /// registry through a config struct picks up the `BSO_TELEMETRY`
    /// escape hatch with no further wiring.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            if std::env::var_os(ENV_VAR).is_some() || std::env::var_os(progress::ENV_VAR).is_some()
            {
                Registry::enabled()
            } else {
                Registry::disabled()
            }
        })
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            let mut map = inner.counters.lock().unwrap();
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            let mut map = inner.gauges.lock().unwrap();
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            let mut map = inner.histograms.lock().unwrap();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }

    /// Starts a span timer that records its elapsed nanoseconds into
    /// the histogram named `name` when dropped. On a disabled registry
    /// no clock is read.
    pub fn span(&self, name: &str) -> Span {
        let hist = self.histogram(name);
        let start = hist.0.is_some().then(Instant::now);
        Span { hist, start }
    }

    /// A point-in-time copy of every metric, ready for rendering.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        for (name, c) in inner.counters.lock().unwrap().iter() {
            snap.counters
                .insert(name.clone(), c.load(Ordering::Relaxed));
        }
        for (name, g) in inner.gauges.lock().unwrap().iter() {
            snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
        }
        for (name, h) in inner.histograms.lock().unwrap().iter() {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        snap
    }
}

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 on a disabled registry).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins (or running-max) measurement.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` if larger.
    pub fn max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value (0 on a disabled registry).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A log2-bucketed distribution of `u64` samples.
///
/// Bucket `i ≥ 1` counts samples in `[2^(i-1), 2^i - 1]`; bucket 0
/// counts exact zeros. Good enough resolution for latencies, depths
/// and widths while staying a fixed 65 atomics wide.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Total samples recorded (0 on a disabled registry).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

/// Times a scope and records elapsed nanoseconds into a histogram on
/// drop. Obtain one from [`Registry::span`]; on a disabled registry
/// the span never reads a clock.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Stops the span early, recording now instead of at drop.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// A point-in-time copy of a histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty `(bucket index, sample count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Estimates the value at quantile `q ∈ [0, 1]` from the log2
    /// buckets: the sample rank is located in its bucket and the value
    /// linearly interpolated across the bucket's range, then clamped
    /// to the observed `[min, max]`. Exact when all samples in the
    /// rank's bucket are equal; otherwise within a factor-of-two
    /// bucket width. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            if seen + n >= rank {
                let lo = bucket_lo(i as usize);
                let hi = match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                let frac = if n <= 1 {
                    0.0
                } else {
                    (rank - seen - 1) as f64 / (n - 1) as f64
                };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Estimated median; see [`HistogramSnapshot::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile; see [`HistogramSnapshot::quantile`].
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile; see [`HistogramSnapshot::quantile`].
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time, name-sorted copy of a registry's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Total number of metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot as a JSON document:
    ///
    /// ```json
    /// {"schema": "bso-telemetry/v1",
    ///  "metrics": {"explore.states": {"type": "counter", "value": 9}, …}}
    /// ```
    ///
    /// Metrics appear sorted by name, so equal snapshots render to
    /// byte-identical documents.
    pub fn to_json(&self) -> Json {
        let mut metrics: Vec<(String, Json)> = Vec::with_capacity(self.len());
        for (name, v) in &self.counters {
            metrics.push((
                name.clone(),
                Json::obj([("type", Json::str("counter")), ("value", Json::U64(*v))]),
            ));
        }
        for (name, v) in &self.gauges {
            metrics.push((
                name.clone(),
                Json::obj([("type", Json::str("gauge")), ("value", Json::U64(*v))]),
            ));
        }
        for (name, h) in &self.histograms {
            let buckets = h
                .buckets
                .iter()
                .map(|(i, n)| Json::Arr(vec![Json::U64(u64::from(*i)), Json::U64(*n)]))
                .collect();
            metrics.push((
                name.clone(),
                Json::obj([
                    ("type", Json::str("histogram")),
                    ("count", Json::U64(h.count)),
                    ("sum", Json::U64(h.sum)),
                    ("min", Json::U64(h.min)),
                    ("max", Json::U64(h.max)),
                    ("p50", Json::U64(h.p50())),
                    ("p90", Json::U64(h.p90())),
                    ("p99", Json::U64(h.p99())),
                    ("buckets", Json::Arr(buckets)),
                ]),
            ));
        }
        metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// [`Snapshot::to_json`] rendered pretty, ready to write to disk.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }
}

/// Writes the global registry's snapshot to the path named by
/// [`ENV_VAR`], if the variable is set and the registry recorded
/// anything. Returns the path written to, if any.
///
/// Every experiment regenerator (examples, benches) calls this once
/// before exiting, which is the whole `BSO_TELEMETRY=path.json`
/// escape hatch.
pub fn dump_global_if_env() -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = std::env::var_os(ENV_VAR) else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    std::fs::write(&path, Registry::global().snapshot().to_json_string())?;
    Ok(Some(path))
}

/// Writes every artifact requested via environment variables — the
/// telemetry snapshot ([`ENV_VAR`]) and the Chrome trace
/// ([`trace::ENV_VAR`]) — and returns a `(kind, path)` pair for each
/// file written. I/O errors surface as warnings on stderr instead of
/// aborting; exit paths should prefer this over unwrapping
/// [`dump_global_if_env`].
pub fn dump_all_if_env() -> Vec<(&'static str, std::path::PathBuf)> {
    let mut written = Vec::new();
    match dump_global_if_env() {
        Ok(Some(path)) => written.push(("telemetry snapshot", path)),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write {ENV_VAR} snapshot: {e}"),
    }
    match trace::dump_global_trace_if_env() {
        Ok(Some(path)) => written.push(("trace", path)),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write {} trace: {e}", trace::ENV_VAR),
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's lower bound maps back to that bucket, and the
        // value just below it maps to the previous one.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i);
            assert_eq!(bucket_index(bucket_lo(i) - 1), i - 1);
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let reg = Registry::enabled();
        let h = reg.histogram("h");
        for v in [0, 1, 3, 1024] {
            h.record(v);
        }
        let snap = &reg.snapshot().histograms["h"];
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1028);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 1), (11, 1)]);
    }

    /// Records each value once and returns the snapshot.
    fn hist_of(values: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let reg = Registry::enabled();
        let h = reg.histogram("h");
        for v in values {
            h.record(v);
        }
        reg.snapshot().histograms["h"].clone()
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        // 1..=1000, once each: estimates stay within 5% of the truth.
        let snap = hist_of(1..=1000);
        assert_eq!(snap.p50(), 500); // the interpolation is exact here
        for (q, truth) in [(0.90, 900.0), (0.99, 990.0)] {
            let est = snap.quantile(q) as f64;
            let err = (est - truth).abs() / truth;
            assert!(err < 0.05, "q={q}: est {est} vs true {truth}");
        }
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), 1000);
    }

    #[test]
    fn quantiles_on_constant_distribution() {
        // All mass on one value: every quantile is that value, even
        // though the bucket spans [4, 7].
        let snap = hist_of(std::iter::repeat_n(7, 42));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 7);
        }
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        // Ninety 1s and ten 1000s: the median is 1, the tail is large.
        let values = std::iter::repeat_n(1, 90).chain(std::iter::repeat_n(1000, 10));
        let snap = hist_of(values);
        assert_eq!(snap.p50(), 1);
        assert_eq!(snap.p90(), 1);
        let p99 = snap.p99() as f64;
        assert!((p99 - 1000.0).abs() / 1000.0 < 0.05, "p99 {p99}");
    }

    #[test]
    fn quantiles_on_empty_histogram() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.quantile(1.0), 0);
    }

    #[test]
    fn snapshot_json_carries_quantiles() {
        let reg = Registry::enabled();
        let h = reg.histogram("q");
        for v in 1..=100 {
            h.record(v);
        }
        let doc = reg.snapshot().to_json();
        let metric = doc.get("metrics").and_then(|m| m.get("q")).unwrap();
        assert_eq!(metric.get("p50").and_then(Json::as_u64), Some(50));
        assert!(metric.get("p90").and_then(Json::as_u64).unwrap() >= 64);
        assert!(metric.get("p99").and_then(Json::as_u64).unwrap() <= 100);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("c");
        c.add(5);
        reg.gauge("g").set(7);
        reg.histogram("h").record(9);
        drop(reg.span("s"));
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn handles_share_storage_across_clones() {
        let reg = Registry::enabled();
        let a = reg.counter("n");
        let b = reg.clone().counter("n");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("n").get(), 3);
    }

    #[test]
    fn span_records_nanoseconds() {
        let reg = Registry::enabled();
        {
            let _s = reg.span("t");
        }
        reg.span("t").finish();
        let snap = &reg.snapshot().histograms["t"];
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = |order_flipped: bool| {
            let reg = Registry::enabled();
            let names = if order_flipped {
                ["z.last", "a.first"]
            } else {
                ["a.first", "z.last"]
            };
            for n in names {
                reg.counter(n).add(2);
            }
            reg.gauge("m.middle").max(9);
            reg.gauge("m.middle").max(4);
            reg.histogram("d.depth").record(3);
            reg.snapshot().to_json_string()
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(a, b);
        let doc = json::parse(&a).unwrap();
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::entries)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["a.first", "d.depth", "m.middle", "z.last"]);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("m.middle"))
                .and_then(|g| g.get("value"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }

    #[test]
    fn snapshot_counts_metrics() {
        let reg = Registry::enabled();
        reg.counter("a").inc();
        reg.gauge("b").set(1);
        reg.histogram("c").record(1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
    }
}
