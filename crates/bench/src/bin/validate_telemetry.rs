//! Validates the observability artifacts the workspace writes.
//!
//! ```text
//! validate_telemetry <snapshot.json> [min_total] [prefix=N ...]
//! validate_telemetry --trace <trace.json> [min_events]
//! validate_telemetry --progress <progress.jsonl> [min_lines]
//! validate_telemetry --checkpoint <cp.json>
//! validate_telemetry --serve <snapshot.json> [BENCH_serve.json]
//! validate_telemetry --explore <BENCH_explore.json>
//! ```
//!
//! Six modes, each reading files a run left behind:
//!
//! * the default mode exits nonzero unless the file is a
//!   `bso-telemetry/v1` snapshot whose metrics all carry a known type,
//!   holds at least `min_total` metrics (a bare number), and, for each
//!   `prefix=N` argument, has at least `N` metrics whose names start
//!   with `prefix`;
//! * `--trace` checks a `BSO_TRACE` export for Chrome trace-event
//!   shape (phases, ids, timestamps) with at least `min_events` data
//!   events;
//! * `--progress` checks a `BSO_PROGRESS` stream for well-formed
//!   `bso-progress/v1` heartbeats;
//! * `--checkpoint` checks that a `BSO_CHECKPOINT` file is a loadable
//!   `bso-checkpoint/v1` document with a non-empty frontier;
//! * `--serve` checks a snapshot captured from a live `bso-server` run
//!   for the `server.*` metric contract (request accounting that
//!   balances, per-shard queue-depth gauges, latency histograms with
//!   consistent quantiles), and with a second file also checks a
//!   `BENCH_serve.json` for the `bso-serve-bench/v2` shape, including
//!   that the peak latency distribution holds exactly one sample per
//!   successful op;
//! * `--explore` checks a `BENCH_explore.json` written by the explore
//!   bench for record shape *and* for the partial-order reduction
//!   acceptance bar (a ≥ 10× state cut at k ≥ 6), so a reduction
//!   regression fails the build instead of silently eroding the
//!   speedup.
//!
//! The live serving contracts (DESIGN.md §3.13–§3.15: `Introspect`,
//! fault recovery, cluster routing) are checked by the tests that
//! drive them, under `cargo test`. CI runs these six modes over the
//! artifacts the examples, the loadgen smoke job and the smoke bench
//! write.

use std::process::ExitCode;

use bso::sim::Checkpoint;
use bso_telemetry::json::{self, Json};
use bso_telemetry::{progress, trace};

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: validate_telemetry <snapshot.json> [min_total] [prefix=N ...] \
     | --trace <trace.json> [min_events] | --progress <progress.jsonl> [min_lines] \
     | --checkpoint <cp.json> | --serve <snapshot.json> [BENCH_serve.json] \
     | --explore <BENCH_explore.json>";

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or(USAGE)?;
    if !mode.starts_with("--") {
        return validate_snapshot(&mode, args);
    }
    let file = args.next().ok_or(USAGE)?;
    match mode.as_str() {
        "--trace" => validate_trace(&file, parse_count(args.next())?),
        "--progress" => validate_progress(&file, parse_count(args.next())?),
        "--checkpoint" => validate_checkpoint(&file),
        "--serve" => {
            let summary = validate_serve(&file)?;
            match args.next() {
                Some(bench) => Ok(format!("{summary}\n{}", validate_serve_bench(&bench)?)),
                None => Ok(summary),
            }
        }
        "--explore" => validate_explore(&file),
        _ => Err(USAGE.to_string()),
    }
}

/// Reads and parses the JSON document at `path`.
fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Reads the JSON document at `path`, which must name `want` under
/// its top-level `key` (its schema tag).
fn load(path: &str, key: &str, want: &str) -> Result<Json, String> {
    let doc = read_json(path)?;
    if doc.get(key).and_then(Json::as_str) != Some(want) {
        return Err(format!("{path}: missing or unknown {key:?}"));
    }
    Ok(doc)
}

/// The metrics of the `bso-telemetry/v1` snapshot `doc`.
fn metrics_of<'a>(doc: &'a Json, path: &str) -> Result<&'a [(String, Json)], String> {
    doc.get("metrics")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: \"metrics\" is missing or not an object"))
}

/// The default mode: a `BSO_TELEMETRY` snapshot with enough metrics of
/// known types, overall and per name prefix.
fn validate_snapshot(path: &str, floors: impl Iterator<Item = String>) -> Result<String, String> {
    let doc = load(path, "schema", bso_telemetry::SCHEMA)?;
    let metrics = metrics_of(&doc, path)?;
    for (name, m) in metrics {
        let known = matches!(
            m.get("type"),
            Some(Json::Str(t)) if t == "counter" || t == "gauge" || t == "histogram"
        );
        if !known {
            return Err(format!("{path}: metric {name:?} has no known \"type\""));
        }
    }

    for arg in floors {
        match arg.split_once('=') {
            Some((prefix, n)) => {
                let want: usize = n
                    .parse()
                    .map_err(|_| format!("bad argument {arg:?}: expected prefix=N"))?;
                let got = metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .count();
                if got < want {
                    return Err(format!(
                        "{path}: {got} metrics match prefix {prefix:?}, need at least {want}"
                    ));
                }
            }
            None => {
                let want: usize = arg
                    .parse()
                    .map_err(|_| format!("bad argument {arg:?}: expected a count or prefix=N"))?;
                if metrics.len() < want {
                    return Err(format!(
                        "{path}: {} metrics in total, need at least {want}",
                        metrics.len()
                    ));
                }
            }
        }
    }
    Ok(format!("{path}: ok ({} metrics)", metrics.len()))
}

fn parse_count(arg: Option<String>) -> Result<usize, String> {
    match arg {
        None => Ok(1),
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad count {s:?}: expected a number")),
    }
}

/// Checks a `BSO_TRACE` export for Chrome trace-event shape.
fn validate_trace(path: &str, min_events: usize) -> Result<String, String> {
    let doc = read_json(path)?;
    let events = trace::events_of(&doc, path)?;
    let mut data_events = 0;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: event #{i} has no \"ph\""))?;
        if !matches!(ph, "X" | "i" | "M" | "B" | "E") {
            return Err(format!("{path}: event #{i} has unknown phase {ph:?}"));
        }
        if e.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{path}: event #{i} has no \"name\""));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}: event #{i} has no integer {key:?}"));
            }
        }
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        data_events += 1;
        if e.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}: event #{i} has no numeric \"ts\""));
        }
        if ph == "X" && e.get("dur").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}: complete event #{i} has no \"dur\""));
        }
    }
    if data_events < min_events {
        return Err(format!(
            "{path}: {data_events} data events, need at least {min_events}"
        ));
    }
    Ok(format!(
        "{path}: ok ({data_events} data events, {} records)",
        events.len()
    ))
}

/// Checks a `BSO_CHECKPOINT` file: it must load through the same
/// typed path `Explorer::resume` uses, and describe something a
/// resume could actually continue (a non-empty frontier).
fn validate_checkpoint(path: &str) -> Result<String, String> {
    let cp = Checkpoint::load(path).map_err(|e| e.to_string())?;
    if cp.frontier.is_empty() {
        return Err(format!("{path}: checkpoint has an empty frontier"));
    }
    Ok(format!(
        "{path}: ok ({:?} interrupted by {} at {} states, {} frontier entries)",
        cp.protocol,
        cp.reason,
        cp.states,
        cp.frontier.len()
    ))
}

/// Checks a snapshot from a live `bso-server` run for the `server.*`
/// metric contract.
fn validate_serve(path: &str) -> Result<String, String> {
    let doc = load(path, "schema", bso_telemetry::SCHEMA)?;
    let metrics = metrics_of(&doc, path)?;
    let counter = |name: &str| -> Result<u64, String> {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{path}: missing counter {name:?}"))?;
        if !matches!(m.get("type"), Some(Json::Str(t)) if t == "counter") {
            return Err(format!("{path}: {name:?} is not a counter"));
        }
        m.get("value")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: {name:?} has no integer value"))
    };

    // The request ledger must balance: everything decoded was either
    // answered or refused, and refusals are answered too — so the
    // server can never owe more responses than it got requests.
    let requests = counter("server.requests")?;
    let responses = counter("server.responses")?;
    let busy = counter("server.busy")?;
    if requests == 0 {
        return Err(format!(
            "{path}: server.requests is 0 — no traffic captured"
        ));
    }
    if responses > requests {
        return Err(format!(
            "{path}: {responses} responses for {requests} requests"
        ));
    }
    if busy > requests {
        return Err(format!(
            "{path}: {busy} busy refusals for {requests} requests"
        ));
    }
    if counter("server.connections")? == 0 {
        return Err(format!("{path}: server.connections is 0"));
    }

    // Queue-depth gauges: one per shard, contiguously numbered from 0.
    let shards = metrics
        .iter()
        .filter(|(k, m)| {
            k.starts_with("server.shard")
                && k.ends_with(".queue_depth")
                && matches!(m.get("type"), Some(Json::Str(t)) if t == "gauge")
        })
        .count();
    if shards == 0 {
        return Err(format!("{path}: no server.shard<i>.queue_depth gauges"));
    }
    for i in 0..shards {
        let name = format!("server.shard{i}.queue_depth");
        if !metrics.iter().any(|(k, _)| *k == name) {
            return Err(format!(
                "{path}: shard gauges are not contiguous: no {name:?}"
            ));
        }
    }

    // Latency histograms: present, non-empty, quantiles ordered and
    // inside [min, max].
    let mut histograms = 0;
    for (name, m) in metrics {
        if !(name.starts_with("server.") || name.starts_with("client."))
            || !matches!(m.get("type"), Some(Json::Str(t)) if t == "histogram")
        {
            continue;
        }
        histograms += 1;
        let field = |key: &str| -> Result<u64, String> {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: histogram {name:?} has no integer {key:?}"))
        };
        let (count, min, max) = (field("count")?, field("min")?, field("max")?);
        let (p50, p90, p99) = (field("p50")?, field("p90")?, field("p99")?);
        if count == 0 {
            return Err(format!("{path}: histogram {name:?} is empty"));
        }
        if !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "{path}: histogram {name:?} has disordered quantiles \
                 (min {min}, p50 {p50}, p90 {p90}, p99 {p99}, max {max})"
            ));
        }
    }
    if histograms == 0 {
        return Err(format!("{path}: no server-side latency histograms"));
    }
    Ok(format!(
        "{path}: ok ({requests} requests over {shards} shards, {histograms} histograms)"
    ))
}

/// Checks a `BENCH_serve.json` written by the loadgen bench: the
/// `bso-serve-bench/v2` shape — a peak block whose latency histogram
/// counts *exactly* one sample per successful op, and a non-empty
/// latency-under-load curve with ordered quantiles per point.
fn validate_serve_bench(path: &str) -> Result<String, String> {
    let doc = load(path, "schema", "bso-serve-bench/v2")?;
    let peak = doc
        .get("peak")
        .ok_or_else(|| format!("{path}: no \"peak\" block"))?;
    let peak_u64 = |key: &str| -> Result<u64, String> {
        peak.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: peak has no integer {key:?}"))
    };
    if peak
        .get("ops_per_sec")
        .and_then(Json::as_f64)
        .is_none_or(|r| r <= 0.0)
    {
        return Err(format!(
            "{path}: peak.ops_per_sec is missing or not positive"
        ));
    }
    let ops_ok = peak_u64("ops_ok")?;
    let latency = peak
        .get("latency")
        .ok_or_else(|| format!("{path}: peak has no \"latency\""))?;
    let lat = |key: &str| -> Result<u64, String> {
        latency
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: peak.latency has no integer {key:?}"))
    };
    // The sampling contract: exactly one latency sample per successful
    // op — a histogram that over- or under-counts is lying about the
    // distribution it claims to summarize.
    let count = lat("count")?;
    if count != ops_ok {
        return Err(format!(
            "{path}: peak.latency.count is {count} but ops_ok is {ops_ok} — \
             the distribution must hold exactly one sample per successful op"
        ));
    }
    let (min, p50, p99, p999, max) = (
        lat("min_ns")?,
        lat("p50_ns")?,
        lat("p99_ns")?,
        lat("p999_ns")?,
        lat("max_ns")?,
    );
    if !(min <= p50 && p50 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "{path}: peak latency quantiles are disordered \
             (min {min}, p50 {p50}, p99 {p99}, p999 {p999}, max {max})"
        ));
    }

    let curve = doc
        .get("curve")
        .and_then(Json::items)
        .ok_or_else(|| format!("{path}: \"curve\" is missing or not an array"))?;
    if curve.is_empty() {
        return Err(format!("{path}: the latency-under-load curve is empty"));
    }
    for (i, point) in curve.iter().enumerate() {
        for key in ["offered_ops_per_sec", "achieved_ops_per_sec"] {
            if point
                .get(key)
                .and_then(Json::as_f64)
                .is_none_or(|r| r <= 0.0)
            {
                return Err(format!("{path}: curve point #{i} has no positive {key:?}"));
            }
        }
        let q = |key: &str| -> Result<u64, String> {
            point
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: curve point #{i} has no integer {key:?}"))
        };
        let (p50, p99, p999) = (q("p50_ns")?, q("p99_ns")?, q("p999_ns")?);
        if !(p50 <= p99 && p99 <= p999) {
            return Err(format!(
                "{path}: curve point #{i} has disordered quantiles \
                 (p50 {p50}, p99 {p99}, p999 {p999})"
            ));
        }
        if q("count")? == 0 {
            return Err(format!("{path}: curve point #{i} sampled nothing"));
        }
    }
    // A cluster section (written by `loadgen --cluster N`) is
    // optional, but when present it must carry the
    // bso-cluster-bench/v1 shape: real members, real throughput, at
    // least one live migration, and a routing epoch that moved
    // forward to pay for it.
    let mut cluster_note = String::new();
    if let Some(cluster) = doc.get("cluster") {
        if !matches!(cluster.get("schema"), Some(Json::Str(s)) if s == "bso-cluster-bench/v1") {
            return Err(format!(
                "{path}: cluster section has missing or unknown \"schema\""
            ));
        }
        let cu = |key: &str| -> Result<u64, String> {
            cluster
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: cluster section has no integer {key:?}"))
        };
        let members = cu("members")?;
        if members < 2 {
            return Err(format!(
                "{path}: a {members}-member cluster is not a cluster"
            ));
        }
        if cu("ops")? == 0 {
            return Err(format!("{path}: cluster bench served no ops"));
        }
        if cluster
            .get("ops_per_sec")
            .and_then(Json::as_f64)
            .is_none_or(|r| r <= 0.0)
        {
            return Err(format!(
                "{path}: cluster.ops_per_sec is missing or not positive"
            ));
        }
        let migrations = cu("migrations")?;
        if migrations == 0 {
            return Err(format!("{path}: cluster bench performed no migration"));
        }
        let (e0, e1) = (cu("epoch_initial")?, cu("epoch_final")?);
        if e1 < e0 + migrations {
            return Err(format!(
                "{path}: routing epoch went {e0} -> {e1} across {migrations} migrations \
                 — each flip must bump it"
            ));
        }
        cluster_note = format!(", {members}-member cluster across {migrations} migrations");
    }
    Ok(format!(
        "{path}: ok ({ops_ok} sampled ops at peak, {}-point curve{cluster_note})",
        curve.len()
    ))
}

/// Checks a `BENCH_explore.json` written by the explore bench: record
/// shape, the groups the acceptance checks read, and the DPOR state
/// cuts (strictly fewer states everywhere it ran, ≥ 10× at k ≥ 6).
fn validate_explore(path: &str) -> Result<String, String> {
    let doc = load(path, "bench", "explore")?;
    let records = doc
        .get("records")
        .and_then(Json::items)
        .ok_or_else(|| format!("{path}: \"records\" is missing or not an array"))?;
    for (i, r) in records.iter().enumerate() {
        if r.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{path}: record #{i} has no \"name\""));
        }
        for key in ["median_ns", "min_ns"] {
            if r.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}: record #{i} has no integer {key:?}"));
            }
        }
    }
    let has = |name: &str| {
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some(name))
    };
    for group in [
        "explore_seed_baseline/6",
        "explore_cas_only/6",
        "explore_cas_only_fp/6",
        "explore_dpor/6",
        "explore_faults/disabled",
        "explore_faults/f1",
    ] {
        if !has(group) {
            return Err(format!("{path}: no record for {group:?}"));
        }
    }
    let cuts = doc
        .get("dpor")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: \"dpor\" is missing or not an object"))?;
    if cuts.is_empty() {
        return Err(format!("{path}: \"dpor\" has no per-instance cuts"));
    }
    let mut checked = 0;
    for (name, entry) in cuts {
        let k: u64 = name
            .strip_prefix('k')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: dpor key {name:?} is not k<N>"))?;
        let field = |key: &str| -> Result<u64, String> {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: dpor.{name} has no integer {key:?}"))
        };
        let (full, dpor) = (field("states_full")?, field("states_dpor")?);
        let cut = entry
            .get("cut")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: dpor.{name} has no numeric \"cut\""))?;
        if dpor >= full {
            return Err(format!(
                "{path}: dpor.{name} explored {dpor} states of {full} — no reduction"
            ));
        }
        if k >= 6 && cut < 10.0 {
            return Err(format!(
                "{path}: dpor.{name} cut is {cut:.1}x, the acceptance bar is 10x at k >= 6"
            ));
        }
        checked += 1;
    }
    Ok(format!(
        "{path}: ok ({} records, {checked} dpor cuts)",
        records.len()
    ))
}

/// Checks a `BSO_PROGRESS` stream for well-formed heartbeats.
fn validate_progress(path: &str, min_lines: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if doc.get("schema").and_then(Json::as_str) != Some(progress::SCHEMA) {
            return Err(format!("{path}:{}: missing or unknown \"schema\"", i + 1));
        }
        for key in ["seq", "elapsed_ms", "states", "frontier"] {
            if doc.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("{path}:{}: no integer {key:?}", i + 1));
            }
        }
        lines += 1;
    }
    if lines < min_lines {
        return Err(format!(
            "{path}: {lines} heartbeat lines, need at least {min_lines}"
        ));
    }
    Ok(format!("{path}: ok ({lines} heartbeats)"))
}
