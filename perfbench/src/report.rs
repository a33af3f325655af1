//! Metric names, the result line, and the statistics behind them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one of them, with
/// untraced runs only; where one is not the workload's own, it restates
/// another (see README.md). `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verify_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_cpu_s", "ops/CPU-s"),
    ("rtt_p50_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by traced runs. A layer the workload
/// does not exercise reads 0. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.cpu_ns_per_state.label_3_4", "ns"),
    ("sim.cpu_ns_per_state.cas_only_8", "ns"),
    ("sim.cpu_ns_per_state.cas_only_7_f1", "ns"),
    ("sim.dpor.cpu_ns_per_state.cas_only_63", "ns"),
    ("sim.dpor.cpu_ns_per_state.label_3_4", "ns"),
    ("sim.symmetry.cpu_ns_per_state.cas_only_6", "ns"),
    ("sim.states.label_3_4", "count"),
    ("sim.states.cas_only_8", "count"),
    ("sim.states.cas_only_7_f1", "count"),
    ("sim.dpor.states.cas_only_63", "count"),
    ("sim.dpor.states.label_3_4", "count"),
    ("sim.symmetry.states.cas_only_6", "count"),
    ("sim.revisits_per_state", "ratio"),
    ("sim.dpor.prunes_per_state", "ratio"),
    ("sim.dpor.backtracks_per_state", "ratio"),
    ("sim.bytes_per_state", "B"),
    ("protocols.step_ns", "ns"),
    ("objects.apply_ns", "ns"),
    ("server.wire.encode_ns", "ns"),
    ("server.wire.decode_ns", "ns"),
    ("server.wire.request_bytes", "B"),
    ("server.wire.response_bytes", "B"),
    ("server.cpu_us_per_op", "us"),
    ("client.cpu_us_per_op", "us"),
    ("server.turn_us_per_op", "us"),
    ("server.apply_ns_per_op", "ns"),
    ("server.frames_per_flush", "count"),
    ("server.requests_per_turn", "count"),
    ("server.ctxsw_per_op", "count"),
    ("client.ctxsw_per_op", "count"),
    ("server.xshard_share", "ratio"),
    ("cluster.routing_overhead_us", "us"),
    ("loopback.rtt_p50_us", "us"),
    ("setup_ms", "ms"),
];

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: verifications (explore) or served ops.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every check that did not hold; the run is correct iff empty.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Counts one attempted operation, and a failed one if `res` is an
    /// error; passes `res` on.
    pub fn op<T, E>(&mut self, res: Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        self.failed += u64::from(res.is_err());
        res
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `list`, 0 where unset.
    pub fn json(&self, list: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("verify_cpu_s", 1.5);
        let line = o.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
        assert!(line.contains("\"verify_cpu_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn result_line_counts_failed_operations() {
        let mut o = Outcome::default();
        assert_eq!(o.op(Ok::<i32, String>(1)), Ok(1));
        assert!(o.op(Err::<i32, String>("refused".into())).is_err());
        o.failed += 2;
        let line = o.json(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 3,"),
            "{line}"
        );
    }

    /// The names here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = bso_telemetry::json::parse(&doc).expect("parse BENCHMARK.json");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|l| l.items())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
