//! Live progress heartbeats for long exploration runs.
//!
//! A [`ProgressReporter`] thread samples a [`Registry`] on a fixed
//! interval and appends one JSON line per sample — states/s, frontier
//! size, deepest level, dedup ratio and per-worker queue lengths, all
//! pulled from the `explore.live.*` metrics the parallel engine
//! maintains. Output goes to a file (`BSO_PROGRESS=path.jsonl`) or to
//! stderr (`BSO_PROGRESS=stderr` or `-`); the sampling interval is
//! `BSO_PROGRESS_MS` milliseconds (default 200).
//!
//! Each line is a `bso-progress/v1` document:
//!
//! ```json
//! {"schema": "bso-progress/v1", "seq": 3, "elapsed_ms": 612,
//!  "states": 80211, "states_per_sec": 131000.0, "frontier": 412,
//!  "deepest": 19, "dedup_ratio_pct": 37.2, "queues": [12, 9, 14, 8]}
//! ```
//!
//! Runs with a deadline (`Explorer::deadline` or `BSO_DEADLINE_MS`)
//! additionally report `"budget_remaining_ms"`, counting down to the
//! interrupt; the field is omitted entirely when no deadline is set.
//!
//! Processes that host a `bso-server` (whose event loops register the
//! `server.*` metrics) extend each line with a serving variant:
//! `"serve_requests"` / `"serve_responses"` / `"serve_busy"` lifetime
//! totals, the live `"serve_conns"` connection count summed across
//! loops, and `"serve_queue_depths"` per shard in index order. The
//! `bsotop --tail` dashboard consumes these lines, taking deltas
//! between samples for rates. Like the DPOR fields, the serving
//! fields are omitted entirely when no server feeds the registry.

use std::fs::File;
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::{Registry, Snapshot};

/// The schema tag every heartbeat line carries.
pub const SCHEMA: &str = "bso-progress/v1";

/// The environment variable that enables the global reporter and names
/// its output: `BSO_PROGRESS=path.jsonl`, or `stderr` / `-` for
/// stderr.
pub const ENV_VAR: &str = "BSO_PROGRESS";

/// The environment variable overriding the sampling interval in
/// milliseconds (default [`DEFAULT_INTERVAL_MS`]).
pub const INTERVAL_ENV_VAR: &str = "BSO_PROGRESS_MS";

/// Default sampling interval in milliseconds.
pub const DEFAULT_INTERVAL_MS: u64 = 200;

/// Builds one heartbeat line from a registry snapshot.
///
/// `seq` numbers the line, `elapsed` is time since the reporter
/// started, and `prev_states`/`dt` give the state count at the
/// previous sample and the time since it, for the `states_per_sec`
/// rate (whole-run average when there is no previous sample).
pub fn heartbeat(
    snap: &Snapshot,
    seq: u64,
    elapsed: Duration,
    prev_states: u64,
    dt: Duration,
) -> Json {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let states = counter("explore.live.states");
    let dedup = counter("explore.live.dedup_hits");
    let rate = if dt.as_secs_f64() > 0.0 {
        states.saturating_sub(prev_states) as f64 / dt.as_secs_f64()
    } else {
        0.0
    };
    let dedup_ratio = if states + dedup > 0 {
        dedup as f64 / (states + dedup) as f64 * 100.0
    } else {
        0.0
    };
    // Per-worker queue gauges, sorted by worker index.
    let prefix = "explore.live.queue_len.w";
    let mut queues: Vec<(u64, u64)> = snap
        .gauges
        .iter()
        .filter_map(|(name, v)| {
            let idx: u64 = name.strip_prefix(prefix)?.parse().ok()?;
            Some((idx, *v))
        })
        .collect();
    queues.sort_unstable();
    let mut fields = vec![
        ("schema", Json::str(SCHEMA)),
        ("seq", Json::U64(seq)),
        (
            "elapsed_ms",
            Json::U64(u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)),
        ),
        ("states", Json::U64(states)),
        ("states_per_sec", Json::F64(rate)),
        ("frontier", Json::U64(gauge("explore.live.frontier"))),
        ("deepest", Json::U64(gauge("explore.live.deepest"))),
        ("dedup_ratio_pct", Json::F64(dedup_ratio)),
        (
            "queues",
            Json::Arr(queues.into_iter().map(|(_, v)| Json::U64(v)).collect()),
        ),
    ];
    // Present only when a deadline is configured (the engine maintains
    // the gauge then): 0 would be ambiguous between "no budget" and
    // "budget exhausted".
    if let Some(ms) = snap.gauges.get("explore.live.budget_remaining_ms") {
        fields.push(("budget_remaining_ms", Json::U64(*ms)));
    }
    // Present only under partial-order reduction (the engine registers
    // the counters only in DPOR mode): a heartbeat without them means
    // the run is unreduced, not that nothing was pruned yet.
    if let Some(prunes) = snap.counters.get("explore.live.dpor.sleep_prunes") {
        fields.push(("dpor_sleep_prunes", Json::U64(*prunes)));
        fields.push((
            "dpor_backtrack_points",
            Json::U64(counter("explore.live.dpor.backtrack_points")),
        ));
    }
    // The serving variant: present only when a `bso-server` is feeding
    // this registry (a server registers `server.requests` when it
    // binds; its loops then write it once per turn from their probes).
    // Counters are lifetime totals — consumers (`bsotop --tail`) take
    // deltas between lines for rates.
    if let Some(reqs) = snap.counters.get("server.requests") {
        fields.push(("serve_requests", Json::U64(*reqs)));
        fields.push(("serve_responses", Json::U64(counter("server.responses"))));
        fields.push(("serve_busy", Json::U64(counter("server.busy"))));
        let conns: u64 = snap
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("server.loop") && name.ends_with(".conns"))
            .map(|(_, v)| *v)
            .sum();
        fields.push(("serve_conns", Json::U64(conns)));
        let mut depths: Vec<(u64, u64)> = snap
            .gauges
            .iter()
            .filter_map(|(name, v)| {
                let rest = name.strip_prefix("server.shard")?;
                let idx: u64 = rest.strip_suffix(".queue_depth")?.parse().ok()?;
                Some((idx, *v))
            })
            .collect();
        depths.sort_unstable();
        fields.push((
            "serve_queue_depths",
            Json::Arr(depths.into_iter().map(|(_, v)| Json::U64(v)).collect()),
        ));
    }
    Json::obj(fields)
}

enum Output {
    File(File),
    Stderr,
}

impl Output {
    fn write_line(&mut self, line: &str) {
        let res = match self {
            Output::File(f) => writeln!(f, "{line}").and_then(|()| f.flush()),
            Output::Stderr => writeln!(std::io::stderr(), "{line}"),
        };
        if let Err(e) = res {
            // A dead progress stream must never kill the run.
            let _ = e;
        }
    }
}

struct Sampler {
    registry: Registry,
    out: Output,
    started: Instant,
    seq: u64,
    prev_states: u64,
    prev_at: Instant,
}

impl Sampler {
    fn new(registry: Registry, out: Output) -> Sampler {
        let now = Instant::now();
        Sampler {
            registry,
            out,
            started: now,
            seq: 0,
            prev_states: 0,
            prev_at: now,
        }
    }

    fn sample(&mut self) {
        let snap = self.registry.snapshot();
        let now = Instant::now();
        let line = heartbeat(
            &snap,
            self.seq,
            now.duration_since(self.started),
            self.prev_states,
            now.duration_since(self.prev_at),
        );
        self.out.write_line(&line.render());
        self.seq += 1;
        self.prev_states = snap
            .counters
            .get("explore.live.states")
            .copied()
            .unwrap_or(0);
        self.prev_at = now;
    }
}

/// A sampling thread appending heartbeat lines until stopped or
/// dropped.
pub struct ProgressReporter {
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ProgressReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressReporter").finish_non_exhaustive()
    }
}

impl ProgressReporter {
    /// Starts a reporter sampling `registry` every `interval`,
    /// appending JSON lines to the file at `path` (created or
    /// truncated). The first line is written before this returns.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from creating the file.
    pub fn to_path(
        registry: Registry,
        interval: Duration,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<ProgressReporter> {
        let file = File::create(path)?;
        Ok(Self::start(registry, interval, Output::File(file)))
    }

    /// Starts a reporter sampling `registry` every `interval`, writing
    /// JSON lines to stderr. The first line is written before this
    /// returns.
    pub fn to_stderr(registry: Registry, interval: Duration) -> ProgressReporter {
        Self::start(registry, interval, Output::Stderr)
    }

    fn start(registry: Registry, interval: Duration, out: Output) -> ProgressReporter {
        let mut sampler = Sampler::new(registry, out);
        sampler.sample();
        let (stop, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("bso-progress".to_string())
            .spawn(move || loop {
                match rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => sampler.sample(),
                    // Stop requested or reporter dropped: final sample.
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                        sampler.sample();
                        return;
                    }
                }
            })
            .expect("failed to spawn progress thread");
        ProgressReporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread after one final sample and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The process-wide sampler, shared between the periodic thread and
/// [`sample_global_now`].
static GLOBAL_SAMPLER: OnceLock<std::sync::Mutex<Sampler>> = OnceLock::new();

/// Starts the process-wide reporter over [`Registry::global`] if
/// [`ENV_VAR`] is set, once; later calls (and calls without the
/// variable) are no-ops. Returns whether a reporter is running.
///
/// The reporter thread is detached and samples for the lifetime of
/// the process; the first line is written synchronously, so even a
/// run that finishes within one interval produces output. I/O errors
/// are reported to stderr once and otherwise ignored.
pub fn spawn_global_if_env() -> bool {
    static STARTED: OnceLock<bool> = OnceLock::new();
    *STARTED.get_or_init(|| {
        let Some(dest) = std::env::var_os(ENV_VAR) else {
            return false;
        };
        let interval = std::env::var(INTERVAL_ENV_VAR)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_INTERVAL_MS)
            .max(1);
        let out = if dest == "stderr" || dest == "-" {
            Output::Stderr
        } else {
            match File::create(&dest) {
                Ok(f) => Output::File(f),
                Err(e) => {
                    eprintln!("bso-telemetry: cannot open {ENV_VAR} file {dest:?}: {e}");
                    return false;
                }
            }
        };
        let sampler = GLOBAL_SAMPLER
            .get_or_init(|| std::sync::Mutex::new(Sampler::new(Registry::global().clone(), out)));
        sampler.lock().unwrap().sample();
        std::thread::Builder::new()
            .name("bso-progress".to_string())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(interval));
                sampler.lock().unwrap().sample();
            })
            .expect("failed to spawn progress thread");
        true
    })
}

/// Emits one heartbeat from the global reporter right now; a no-op
/// when no reporter is running. Engines call this when a run
/// completes, so the stream always ends with a sample of the final
/// state even if the run finished within one interval.
pub fn sample_global_now() {
    if let Some(sampler) = GLOBAL_SAMPLER.get() {
        sampler.lock().unwrap().sample();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn live_registry() -> Registry {
        let reg = Registry::enabled();
        reg.counter("explore.live.states").add(900);
        reg.counter("explore.live.dedup_hits").add(100);
        reg.gauge("explore.live.frontier").set(42);
        reg.gauge("explore.live.deepest").set(17);
        reg.gauge("explore.live.queue_len.w0").set(5);
        reg.gauge("explore.live.queue_len.w1").set(7);
        reg.gauge("explore.live.queue_len.w10").set(1);
        reg
    }

    #[test]
    fn heartbeat_reads_live_metrics() {
        let snap = live_registry().snapshot();
        let hb = heartbeat(
            &snap,
            3,
            Duration::from_millis(2_500),
            400,
            Duration::from_secs(1),
        );
        assert_eq!(
            hb.get("schema").and_then(Json::as_str),
            Some("bso-progress/v1")
        );
        assert_eq!(hb.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(hb.get("elapsed_ms").and_then(Json::as_u64), Some(2_500));
        assert_eq!(hb.get("states").and_then(Json::as_u64), Some(900));
        assert_eq!(hb.get("states_per_sec").and_then(Json::as_f64), Some(500.0));
        assert_eq!(hb.get("frontier").and_then(Json::as_u64), Some(42));
        assert_eq!(hb.get("deepest").and_then(Json::as_u64), Some(17));
        assert_eq!(hb.get("dedup_ratio_pct").and_then(Json::as_f64), Some(10.0));
        // Queues sort by worker index, numerically (w10 after w1).
        let queues: Vec<u64> = hb
            .get("queues")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|q| q.as_u64().unwrap())
            .collect();
        assert_eq!(queues, vec![5, 7, 1]);
    }

    #[test]
    fn budget_field_appears_only_under_a_deadline() {
        let reg = live_registry();
        let without = heartbeat(&reg.snapshot(), 0, Duration::ZERO, 0, Duration::ZERO);
        assert!(
            without.get("budget_remaining_ms").is_none(),
            "no deadline, no budget field"
        );
        reg.gauge("explore.live.budget_remaining_ms").set(1_500);
        let with = heartbeat(&reg.snapshot(), 1, Duration::ZERO, 0, Duration::ZERO);
        assert_eq!(
            with.get("budget_remaining_ms").and_then(Json::as_u64),
            Some(1_500)
        );
    }

    #[test]
    fn dpor_fields_appear_only_under_reduction() {
        let reg = live_registry();
        let without = heartbeat(&reg.snapshot(), 0, Duration::ZERO, 0, Duration::ZERO);
        assert!(
            without.get("dpor_sleep_prunes").is_none()
                && without.get("dpor_backtrack_points").is_none(),
            "no reduction, no dpor fields"
        );
        reg.counter("explore.live.dpor.sleep_prunes").add(240);
        let with = heartbeat(&reg.snapshot(), 1, Duration::ZERO, 0, Duration::ZERO);
        assert_eq!(
            with.get("dpor_sleep_prunes").and_then(Json::as_u64),
            Some(240)
        );
        // Both counters surface together, even before any backtrack.
        assert_eq!(
            with.get("dpor_backtrack_points").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn serve_fields_appear_only_when_serving() {
        let reg = live_registry();
        let without = heartbeat(&reg.snapshot(), 0, Duration::ZERO, 0, Duration::ZERO);
        assert!(
            without.get("serve_requests").is_none() && without.get("serve_queue_depths").is_none(),
            "no server in process, no serve fields"
        );
        reg.counter("server.requests").add(12);
        reg.counter("server.responses").add(11);
        reg.gauge("server.loop0.conns").set(3);
        reg.gauge("server.loop1.conns").set(4);
        reg.gauge("server.shard1.queue_depth").set(9);
        reg.gauge("server.shard0.queue_depth").set(2);
        let with = heartbeat(&reg.snapshot(), 1, Duration::ZERO, 0, Duration::ZERO);
        assert_eq!(with.get("serve_requests").and_then(Json::as_u64), Some(12));
        assert_eq!(with.get("serve_responses").and_then(Json::as_u64), Some(11));
        // `server.busy` surfaces as zero even before any shedding.
        assert_eq!(with.get("serve_busy").and_then(Json::as_u64), Some(0));
        assert_eq!(with.get("serve_conns").and_then(Json::as_u64), Some(7));
        let depths = with
            .get("serve_queue_depths")
            .and_then(Json::items)
            .unwrap();
        let depths: Vec<u64> = depths.iter().filter_map(Json::as_u64).collect();
        assert_eq!(depths, vec![2, 9], "depths sort by shard index");
    }

    #[test]
    fn heartbeat_on_empty_snapshot_is_all_zero() {
        let hb = heartbeat(&Snapshot::default(), 0, Duration::ZERO, 0, Duration::ZERO);
        assert_eq!(hb.get("states").and_then(Json::as_u64), Some(0));
        assert_eq!(hb.get("states_per_sec").and_then(Json::as_f64), Some(0.0));
        assert_eq!(hb.get("dedup_ratio_pct").and_then(Json::as_f64), Some(0.0));
        assert_eq!(hb.get("queues").and_then(Json::len), Some(0));
    }

    #[test]
    fn reporter_writes_parseable_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bso-progress-test-{}.jsonl", std::process::id()));
        let reg = live_registry();
        let rep = ProgressReporter::to_path(reg.clone(), Duration::from_millis(5), &path).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        reg.counter("explore.live.states").add(100);
        rep.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        // First line synchronous + at least one periodic + final.
        assert!(lines.len() >= 3, "got {} lines", lines.len());
        for (i, line) in lines.iter().enumerate() {
            let doc = json::parse(line).unwrap();
            assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(i as u64));
        }
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("states").and_then(Json::as_u64), Some(1_000));
    }
}
