//! The explorer workloads: serial verification of the paper's
//! elections, unreduced (`explore-full`) and with DPOR and symmetry
//! reduction (`explore-reduced`), each with planted violations.

use std::hash::Hash;
use std::time::Instant;

use bso_objects::Value;
use bso_protocols::{CasOnlyElection, LabelElection};
use bso_sim::scheduler::{RandomSched, Scripted};
use bso_sim::{
    checker, DedupMode, ExploreReport, Explorer, Protocol, ProtocolExt, Scheduler, Simulation,
    SymmetricProtocol, TaskSpec, Violation,
};
use bso_telemetry::{Registry, TraceSink};

use crate::reference::{self, DfsCounts};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::{alloc, calibrate, proc, Opts};

type RunFn = Box<dyn Fn(TraceSink) -> ExploreReport>;
type ReplayFn = Box<dyn Fn(&Violation) -> Result<(), String>>;

/// What a correct report of an instance looks like.
enum Expect {
    /// Unreduced `CasOnlyElection(n, n+1)`: the closed form.
    ClosedForm(u32),
    /// Unreduced, counted by the reference search.
    Dfs(Box<dyn Fn() -> DfsCounts>),
    /// DPOR: verified in at most the given number of states, reaching
    /// exactly the given terminals (a sound reduction keeps every
    /// outcome, so every terminal state).
    Reduced(Box<dyn Fn() -> (u128, usize)>),
    /// Symmetry on `CasOnlyElection(n, n+1)`: between one state per
    /// orbit of `Sₙ` and the unreduced count.
    Orbits(u32),
    /// Refuted; the counterexample replays to a run the checker
    /// rejects.
    Planted(ReplayFn),
}

struct Instance {
    /// What is verified, for messages.
    label: String,
    /// Its per-layer metrics (CPU per state, states), `None` for planted
    /// violations.
    key: Option<(&'static str, &'static str)>,
    /// Runs per round, chosen so no instance dominates the round.
    reps: usize,
    run: RunFn,
    expect: Expect,
    /// Steps `Simulation::step` through seeded random schedules of
    /// the same protocol until the given count; returns steps taken.
    steps: Option<Box<dyn Fn(u64, u64) -> u64>>,
}

fn leak<T>(t: T) -> &'static T {
    Box::leak(Box::new(t))
}

fn explorer<P: Protocol>(proto: &'static P, sink: TraceSink) -> Explorer<'static, P> {
    // Explicit sinks: the program's environment escape hatches must not
    // change what is measured.
    Explorer::new(proto)
        .inputs(&proto.pid_inputs())
        .spec(TaskSpec::Election)
        .telemetry(Registry::disabled())
        .trace(sink)
}

fn plain<P>(proto: &'static P, dedup: DedupMode, faults: usize, dpor: bool) -> RunFn
where
    P: Protocol,
    P::State: Hash + Eq,
{
    Box::new(move |sink| {
        explorer(proto, sink)
            .dedup(dedup)
            .faults(faults)
            .dpor(dpor)
            .run()
    })
}

fn symmetric<P>(proto: &'static P, spec: TaskSpec) -> RunFn
where
    P: SymmetricProtocol + Sync,
    P::State: Hash + Eq + Ord + Send,
{
    Box::new(move |sink| {
        explorer(proto, sink)
            .spec(spec.clone())
            .symmetric(true)
            .run()
    })
}

fn step_loop<P: Protocol>(proto: &'static P) -> Option<Box<dyn Fn(u64, u64) -> u64>> {
    Some(Box::new(move |seed, target| {
        let inputs = proto.pid_inputs();
        let mut steps = 0;
        let mut run = 0u64;
        while steps < target {
            let mut sim = Simulation::new(proto, &inputs);
            let mut sched = RandomSched::new(seed.wrapping_add(run));
            loop {
                let enabled = sim.enabled();
                if enabled.is_empty() {
                    break;
                }
                sim.step(sched.pick(&enabled))
                    .expect("verified protocols make legal ops");
                steps += 1;
            }
            run += 1;
        }
        steps
    }))
}

/// The wrong specification that plants a violation: consensus on a
/// value no process proposes, which every election run breaks.
fn planted_spec(n: usize) -> Vec<Value> {
    vec![Value::Int(7); n]
}

fn replay_rejected<P: Protocol>(proto: &'static P) -> Expect {
    Expect::Planted(Box::new(move |v| {
        if v.schedule.is_empty() {
            return Err("empty counterexample schedule".into());
        }
        let mut sim = Simulation::new(proto, &proto.pid_inputs());
        let res = sim
            .run(&mut Scripted::new(v.schedule.clone()), 1 << 16)
            .map_err(|e| format!("replay failed: {e}"))?;
        match checker::check_consensus(&res, &planted_spec(proto.processes())) {
            Err(_) => Ok(()),
            Ok(()) => Err("the replayed counterexample passes the checker".into()),
        }
    }))
}

fn cas(n: usize) -> &'static CasOnlyElection {
    leak(CasOnlyElection::new(n, n + 1).expect("n ≤ k − 1"))
}

fn full_instances() -> Vec<Instance> {
    let label = leak(LabelElection::new(3, 4).expect("3 ≤ (4−1)!"));
    let (cas8, cas7, cas6) = (cas(8), cas(7), cas(6));
    vec![
        Instance {
            label: "LabelElection(3,4) exact".into(),
            key: Some(("sim.cpu_ns_per_state.label_3_4", "sim.states.label_3_4")),
            reps: 1,
            run: plain(label, DedupMode::Exact, 0, false),
            expect: Expect::Dfs(Box::new(move || {
                reference::dfs(label, &label.pid_inputs(), 0)
            })),
            steps: step_loop(label),
        },
        Instance {
            label: "CasOnlyElection(8,9) fingerprint".into(),
            key: Some(("sim.cpu_ns_per_state.cas_only_8", "sim.states.cas_only_8")),
            reps: 3,
            run: plain(cas8, DedupMode::Fingerprint, 0, false),
            expect: Expect::ClosedForm(8),
            steps: step_loop(cas8),
        },
        Instance {
            label: "CasOnlyElection(7,8) fingerprint, f = 1".into(),
            key: Some((
                "sim.cpu_ns_per_state.cas_only_7_f1",
                "sim.states.cas_only_7_f1",
            )),
            reps: 2,
            run: plain(cas7, DedupMode::Fingerprint, 1, false),
            expect: Expect::Dfs(Box::new(move || {
                reference::dfs(cas7, &cas7.pid_inputs(), 1)
            })),
            steps: step_loop(cas7),
        },
        Instance {
            label: "planted: CasOnlyElection(6,7) against consensus on 7".into(),
            key: None,
            reps: 1,
            run: Box::new(move |sink| {
                explorer(cas6, sink)
                    .dedup(DedupMode::Fingerprint)
                    .spec(TaskSpec::Consensus(planted_spec(6)))
                    .run()
            }),
            expect: replay_rejected(cas6),
            steps: None,
        },
    ]
}

fn reduced_instances() -> Vec<Instance> {
    let label = leak(LabelElection::new(3, 4).expect("3 ≤ (4−1)!"));
    let (cas63, cas6) = (cas(63), cas(6));
    vec![
        Instance {
            label: "DPOR CasOnlyElection(63,64)".into(),
            key: Some((
                "sim.dpor.cpu_ns_per_state.cas_only_63",
                "sim.dpor.states.cas_only_63",
            )),
            reps: 2,
            run: plain(cas63, DedupMode::Exact, 0, true),
            expect: Expect::Reduced(Box::new(|| {
                (
                    reference::cas_only_dpor_states(63),
                    reference::cas_only_terminals(63),
                )
            })),
            steps: step_loop(cas63),
        },
        Instance {
            label: "DPOR LabelElection(3,4)".into(),
            key: Some((
                "sim.dpor.cpu_ns_per_state.label_3_4",
                "sim.dpor.states.label_3_4",
            )),
            reps: 1,
            run: plain(label, DedupMode::Exact, 0, true),
            expect: Expect::Reduced(Box::new(move || {
                let d = reference::dfs(label, &label.pid_inputs(), 0);
                (d.states as u128, d.terminals)
            })),
            steps: step_loop(label),
        },
        Instance {
            label: "symmetric CasOnlyElection(6,7)".into(),
            key: Some((
                "sim.symmetry.cpu_ns_per_state.cas_only_6",
                "sim.symmetry.states.cas_only_6",
            )),
            reps: 4,
            run: symmetric(cas6, TaskSpec::Election),
            expect: Expect::Orbits(6),
            steps: step_loop(cas6),
        },
        Instance {
            label: "planted: DPOR CasOnlyElection(63,64) against consensus on 7".into(),
            key: None,
            reps: 1,
            run: Box::new(move |sink| {
                explorer(cas63, sink)
                    .dpor(true)
                    .spec(TaskSpec::Consensus(planted_spec(63)))
                    .run()
            }),
            expect: replay_rejected(cas63),
            steps: None,
        },
        Instance {
            label: "planted: symmetric CasOnlyElection(6,7) against consensus on 7".into(),
            key: None,
            reps: 1,
            run: symmetric(cas6, TaskSpec::Consensus(planted_spec(6))),
            expect: replay_rejected(cas6),
            steps: None,
        },
    ]
}

fn factorial(n: u32) -> u128 {
    (1..=u128::from(n)).product()
}

/// Checks every report of one instance; the reference search, where
/// one is needed, runs once.
fn check(inst: &Instance, reports: &[ExploreReport]) -> Result<(), String> {
    let first = reports.first().ok_or("never ran")?;
    for r in reports {
        if (r.states, r.terminals, r.outcome.is_verified())
            != (first.states, first.terminals, first.outcome.is_verified())
        {
            return Err(format!(
                "runs disagree: {} states / {} terminals vs {} / {}",
                r.states, r.terminals, first.states, first.terminals
            ));
        }
    }
    let verified = || {
        if first.outcome.is_verified() {
            Ok(())
        } else {
            Err(format!("expected Verified, got {:?}", first.outcome))
        }
    };
    let counts = |states: u128, terminals: usize, steps: &[usize]| {
        if (
            first.states as u128,
            first.terminals,
            first.max_steps_per_proc.as_slice(),
        ) == (states, terminals, steps)
        {
            Ok(())
        } else {
            Err(format!(
                "{} states, {} terminals, max steps {:?}; the reference says {states}, {terminals}, {steps:?}",
                first.states, first.terminals, first.max_steps_per_proc
            ))
        }
    };
    match &inst.expect {
        Expect::ClosedForm(n) => {
            verified()?;
            counts(
                reference::cas_only_states(*n),
                reference::cas_only_terminals(*n),
                &vec![reference::CAS_ONLY_STEPS_PER_PROC; *n as usize],
            )
        }
        Expect::Dfs(dfs) => {
            verified()?;
            let d = dfs();
            counts(d.states as u128, d.terminals, &d.max_steps)
        }
        Expect::Reduced(reference) => {
            verified()?;
            let (hi, terminals) = reference();
            if first.states as u128 <= hi && first.terminals == terminals {
                Ok(())
            } else {
                Err(format!(
                    "{} states, {} terminals; the reference says at most {hi} states, {terminals} terminals",
                    first.states, first.terminals
                ))
            }
        }
        Expect::Orbits(n) => {
            verified()?;
            let all = reference::cas_only_states(*n);
            let lo = all.div_ceil(factorial(*n));
            if (lo..=all).contains(&(first.states as u128)) {
                Ok(())
            } else {
                Err(format!("{} states, outside [{lo}, {all}]", first.states))
            }
        }
        Expect::Planted(replay) => match first.outcome.violation() {
            Some(v) => replay(v),
            None => Err(format!("planted violation not found: {:?}", first.outcome)),
        },
    }
}

/// CPU seconds of every run of each instance, the same divided by the
/// host's speed at the time, and the reports.
struct Samples {
    cpu: Vec<Vec<f64>>,
    /// Each run's CPU time over the mean of the yardstick searches just
    /// before and just after it.
    ratio: Vec<Vec<f64>>,
    /// CPU seconds of every yardstick search.
    yardstick: Vec<f64>,
    reports: Vec<Vec<ExploreReport>>,
    runs: u64,
}

impl Samples {
    fn new(instances: usize) -> Samples {
        Samples {
            cpu: vec![Vec::new(); instances],
            ratio: vec![Vec::new(); instances],
            yardstick: Vec::new(),
            reports: (0..instances).map(|_| Vec::new()).collect(),
            runs: 0,
        }
    }

    /// Takes over the reports and run count of `other`.
    fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.reports.iter_mut().zip(other.reports) {
            mine.extend(theirs);
        }
        self.runs += other.runs;
    }
}

/// Whole rounds of every instance until `seconds` have passed, with a
/// yardstick search between any two runs.
fn rounds(
    insts: &[Instance],
    seconds: f64,
    sink: &TraceSink,
    tracer: &mut Tracer,
    s: &mut Samples,
) {
    let start = Instant::now();
    let mut before = tracer.span("calibration", "yardstick", |_| calibrate::measure());
    s.yardstick.push(before);
    loop {
        tracer.span("bench", "round", |tracer| {
            for (i, inst) in insts.iter().enumerate() {
                for _ in 0..inst.reps {
                    let c0 = proc::process_cpu();
                    let report = tracer.span("sim", "Explorer::run", |_| (inst.run)(sink.clone()));
                    let cpu = (proc::process_cpu() - c0).as_secs_f64();
                    let after = tracer.span("calibration", "yardstick", |_| calibrate::measure());
                    s.cpu[i].push(cpu);
                    s.ratio[i].push(2.0 * cpu / (before + after));
                    s.yardstick.push(after);
                    s.reports[i].push(report);
                    s.runs += 1;
                    before = after;
                }
            }
        });
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// An instance's calibrated CPU seconds per run: its median ratio to
/// the yardstick, in the yardstick's nominal seconds.
fn calibrated(s: &Samples, i: usize) -> f64 {
    median(&s.ratio[i]) * calibrate::NOMINAL_S
}

/// Calibrated and raw CPU seconds to reach every verdict of a round.
fn round_cost(insts: &[Instance], s: &Samples) -> (f64, f64) {
    let (mut total, mut raw) = (0.0, 0.0);
    for (i, inst) in insts.iter().enumerate() {
        total += inst.reps as f64 * calibrated(s, i);
        raw += inst.reps as f64 * median(&s.cpu[i]);
        eprintln!(
            "  {:<62} {:>9.3} ms calibrated, {:>9.3} ms CPU (medians of {} runs)",
            inst.label,
            calibrated(s, i) * 1e3,
            median(&s.cpu[i]) * 1e3,
            s.cpu[i].len()
        );
    }
    let speed = median(&s.yardstick);
    eprintln!(
        "  host: yardstick median {:.2} ms, {:.2} times its nominal {:.1} ms",
        speed * 1e3,
        speed / calibrate::NOMINAL_S,
        calibrate::NOMINAL_S * 1e3
    );
    (total, raw)
}

pub fn run(reduced: bool, opts: &Opts, out: &mut Outcome) {
    let insts = if reduced {
        reduced_instances()
    } else {
        full_instances()
    };
    let n = insts.len();
    let off = TraceSink::disabled();
    let mut untraced = Tracer::off();

    // The set-up ends with one untimed round: the first, cold run of
    // every instance, so one-time work the program does on first use
    // is counted here and not hidden. Start-up and each of those runs
    // are calibrated by the yardstick search that follows them.
    let start_up = proc::process_cpu().as_secs_f64();
    let mut all = Samples::new(n);
    rounds(&insts, 0.0, &off, &mut untraced, &mut all);
    let cold: f64 = all.ratio.iter().flatten().sum::<f64>() + start_up / all.yardstick[0];
    out.set("setup_s", cold * calibrate::NOMINAL_S);
    out.set("setup_ms", opts.started.elapsed().as_secs_f64() * 1e3);

    let mut a = Samples::new(n);
    rounds(&insts, opts.phase_seconds(), &off, &mut untraced, &mut a);
    out.set("peak_rss_mb", proc::peak_rss_mb());
    let (verify, raw) = round_cost(&insts, &a);
    // The format prints every end-to-end metric on every workload; a
    // verdict is this workload's operation, so the two serving figures
    // restate `verify_cpu_s` per verdict.
    let verdicts = insts.iter().map(|i| i.reps).sum::<usize>() as f64;
    out.set("verify_cpu_s", verify);
    out.set("ops_per_cpu_s", verdicts / verify);
    out.set("rtt_p50_us", verify / verdicts * 1e6);

    if opts.trace {
        let sink = TraceSink::with_capacity(TRACE_EVENTS);
        let mut tracer = Tracer::on(&sink);
        layer_metrics(&insts, &a, opts.seed, &mut tracer, out);
        all.absorb(a);
        let mut b = Samples::new(n);
        rounds(&insts, opts.phase_seconds(), &sink, &mut tracer, &mut b);
        // The program's trace events crowd the heap and slow the
        // yardstick as well, so the overhead is taken in raw CPU time.
        crate::print_overhead("raw CPU seconds per round", raw, round_cost(&insts, &b).1);
        all.absorb(b);
        check_all(&insts, &all, &mut tracer, out);
        crate::write_trace(&sink.export(), opts, out);
    } else {
        all.absorb(a);
        check_all(&insts, &all, &mut untraced, out);
    }
    out.attempted += all.runs;
}

/// Events each worker of a traced run's sink keeps: the explorer's
/// own workers, and the benchmark's, which records a few hundred spans.
const TRACE_EVENTS: usize = 4096;

/// Checks every instance; each run of an instance that fails its check
/// counts as a failed operation.
fn check_all(insts: &[Instance], all: &Samples, tracer: &mut Tracer, out: &mut Outcome) {
    for (i, inst) in insts.iter().enumerate() {
        let res = tracer.span("reference", "check", |_| check(inst, &all.reports[i]));
        if let Err(e) = res {
            out.failed += all.reports[i].len() as u64;
            out.errors.push(format!("{}: {e}", inst.label));
        }
    }
}

/// The per-layer figures of a traced run, from its untraced runs and
/// from measurements with one span around each.
fn layer_metrics(
    insts: &[Instance],
    a: &Samples,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let (mut states, mut revisits) = (0usize, 0usize);
    let (mut dpor_states, mut prunes, mut backtracks) = (0usize, 0usize, 0usize);
    let (mut heap, mut heap_states) = (0u64, 0usize);
    let (mut step_cpu, mut steps) = (0.0f64, 0u64);
    for (i, inst) in insts.iter().enumerate() {
        let Some((cpu_key, states_key)) = inst.key else {
            continue;
        };
        let Some(r) = a.reports[i].first() else {
            continue;
        };
        out.set(cpu_key, calibrated(a, i) * 1e9 / r.states as f64);
        out.set(states_key, r.states as f64);
        states += r.states;
        revisits += r.stats.dedup_hits;
        if cpu_key.starts_with("sim.dpor.") {
            dpor_states += r.states;
            prunes += r.stats.dpor_sleep_prunes;
            backtracks += r.stats.dpor_backtrack_points;
        }
        let (r, peak) = tracer.span("sim", "Explorer::run, heap counted", |_| {
            alloc::measure(|| (inst.run)(TraceSink::disabled()))
        });
        heap += peak;
        heap_states += r.states;
        if let Some(step) = &inst.steps {
            let c0 = proc::process_cpu();
            steps += tracer.span("protocols", "Simulation::step loop", |_| {
                step(seed, 200_000)
            });
            step_cpu += (proc::process_cpu() - c0).as_secs_f64();
        }
    }
    out.set(
        "sim.revisits_per_state",
        revisits as f64 / states.max(1) as f64,
    );
    if dpor_states > 0 {
        out.set(
            "sim.dpor.prunes_per_state",
            prunes as f64 / dpor_states as f64,
        );
        out.set(
            "sim.dpor.backtracks_per_state",
            backtracks as f64 / dpor_states as f64,
        );
    }
    out.set(
        "sim.bytes_per_state",
        heap as f64 / heap_states.max(1) as f64,
    );
    out.set("protocols.step_ns", step_cpu * 1e9 / steps.max(1) as f64);
}
