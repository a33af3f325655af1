//! The repository benchmark: one named workload per process, timed in
//! process CPU time, with every output checked against a computation
//! made apart from the program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). A traced run also writes a
//! Chrome trace under `perfbench/out/` and prints each layer's self
//! time and the tracing overhead to standard error. See README.md.

mod alloc;
mod calibrate;
mod explore;
mod proc;
mod reference;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Outcome, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "explore-full",
    "explore-reduced",
    "serve-pipelined",
    "serve-routed",
];

/// No run may outlive this, measured from process start; a hang ends
/// the process with an error instead of a result.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start, as near as `main` can take it.
    pub started: Instant,
    pub workload: String,
}

impl Opts {
    /// How long each timed phase runs: the whole run, or half of it
    /// beside an equally long traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Spans of this traced run go to this Chrome trace file.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed))
    }
}

pub fn print_overhead(metric: &str, untraced: f64, traced: f64) {
    eprintln!(
        "tracing overhead: {metric} {untraced:.6} untraced, {traced:.6} traced ({:+.1} %)",
        100.0 * (traced / untraced - 1.0)
    );
}

pub fn write_trace(doc: &bso_telemetry::json::Json, opts: &Opts, out: &mut Outcome) {
    let path = opts.trace_path();
    let res = trace::finish(doc, &path);
    out.check(res.is_ok(), || {
        format!("writing {}: {:?}", path.display(), res.err())
    });
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        started: Instant::now(),
        workload: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&opts.seconds) {
                    return Err("--seconds must be within 0..=120".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let steal0 = proc::steal_jiffies();
    match opts.workload.as_str() {
        "explore-full" => explore::run(false, opts, &mut out),
        "explore-reduced" => explore::run(true, opts, &mut out),
        "serve-pipelined" => serve::pipelined(opts, &mut out),
        "serve-routed" => serve::routed(opts, &mut out),
        _ => unreachable!("parse admits only known workloads"),
    }
    eprintln!(
        "{} seed {}: host steal {:.1} % over the run",
        opts.workload,
        opts.seed,
        100.0 * proc::steal_share(steal0, proc::steal_jiffies())
    );
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    out
}

/// Every workload once, briefly, with every check: a fast test that
/// the benchmark and the program still agree.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            trace: false,
            started: Instant::now(),
            workload: w.to_string(),
        };
        let out = run(&opts);
        println!(
            "smoke {w}: {} ({} ops attempted, {:.1} s)",
            if out.errors.is_empty() {
                "ok"
            } else {
                "FAILED"
            },
            out.attempted,
            opts.started.elapsed().as_secs_f64()
        );
        ok &= out.errors.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The program's environment escape hatches (deadlines, artifacts,
    // telemetry, traces, progress files) would change what is measured
    // and write files: clear them before any thread starts.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BSO_") {
            std::env::remove_var(key);
        }
    }
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG.saturating_sub(started.elapsed()));
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return smoke();
    }
    let mut opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("       perfbench --smoke");
            return ExitCode::from(2);
        }
    };
    opts.started = started;
    let out = run(&opts);
    println!(
        "{}",
        out.json(if opts.trace { PER_LAYER } else { END_TO_END })
    );
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
