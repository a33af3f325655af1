//! Exhaustive exploration of *all* interleavings of a protocol.
//!
//! For a finite-state protocol instance, [`explore`] decides the three
//! clauses of the paper's task specifications outright:
//!
//! * **Agreement / validity** are checked incrementally at every
//!   decision along every path; any counterexample is reported with a
//!   replayable schedule.
//! * **Wait-freedom** reduces to *acyclicity of the reachable global
//!   state graph*: a process always has an enabled step until it
//!   decides, so an infinite run that starves no-one out of steps
//!   exists iff the (finite) state graph has a cycle, and a cycle is
//!   exactly a schedule on which some process takes infinitely many
//!   steps without deciding. Conversely, in an acyclic finite graph
//!   every solo extension of every reachable state terminates — which
//!   is wait-freedom. The explorer therefore also yields the exact
//!   worst-case number of steps per process over all schedules.
//! * **Crash tolerance** needs no separate exploration: a crashed
//!   process is one that is never scheduled again, and every clause
//!   above is checked on every *prefix*, so a violation in a crashy
//!   run appears as a violation along the corresponding crash-free
//!   path prefix. (Validity at decision time is checked against the
//!   processes that have stepped *so far*, which is precisely the
//!   participant set of the crash-closure of that prefix.)
//!
//! The exploration itself runs on the sharded dataflow engine of
//! [`crate::engine`] (one code path for every variant; see its module
//! docs for the algorithm). The front door is the [`Explorer`]
//! builder, which scales the engine along two independent axes:
//!
//! ```
//! use bso_sim::{Explorer, ProtocolExt, TaskSpec};
//! # use bso_objects::{Layout, Value};
//! # use bso_sim::{Action, Pid, Protocol};
//! # struct Solo;
//! # impl Protocol for Solo {
//! #     type State = ();
//! #     fn processes(&self) -> usize { 1 }
//! #     fn layout(&self) -> Layout { Layout::new() }
//! #     fn init(&self, _pid: Pid, _input: &Value) {}
//! #     fn next_action(&self, _st: &()) -> Action { Action::Decide(Value::Pid(0)) }
//! #     fn on_response(&self, _st: &mut (), _resp: Value) {}
//! # }
//! # let proto = Solo;
//! let report = Explorer::new(&proto)
//!     .inputs(&proto.pid_inputs())
//!     .spec(TaskSpec::Election)
//!     .parallel(true) // work-stealing worker pool
//!     .run();
//! assert!(report.outcome.is_verified());
//! ```
//!
//! * `.parallel(true)` — a work-stealing worker pool
//!   ([`ExploreConfig::workers`]); the default is single-threaded and
//!   fully deterministic.
//! * `.symmetric(true)` — quotient the state space by the protocol's
//!   process-symmetry group
//!   ([`crate::symmetry::SymmetricProtocol`]), visiting one
//!   representative per orbit.
//!
//! [`ExploreConfig::dedup`] selects exact full-state deduplication or
//! memory-lean 64-bit [`fingerprints`](crate::fingerprint): the latter
//! stores no state clones but admits a ≈ `states²/2⁶⁵` probability of
//! a hash collision silently merging two distinct states. A collision
//! can only *lose* states (risking a wrong `Verified`), never
//! fabricate a counterexample: reported schedules always replay.
//!
//! State explosion limits exhaustive runs to small `(n, k)`; the
//! per-instance results are still genuine theorems about those
//! instances ("for n=3, k=4, `LabelElection` is a correct wait-free
//! election under **every** schedule").

use std::fmt;
use std::hash::Hash;
use std::time::Duration;

use bso_objects::Value;
use bso_telemetry::{Registry, TraceSink};

use crate::artifact::{self, ScheduleArtifact};
use crate::checkpoint::{self, Checkpoint};
use crate::engine;
use crate::symmetry::{NoCanon, SymCanon, SymmetricProtocol};
use crate::{Pid, Protocol, ProtocolExt, RunError, RunResult, SharedMemory, Simulation};

/// What task specification to enforce during exploration.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TaskSpec {
    /// Leader election: agreement on a participating process id.
    Election,
    /// Consensus over the given inputs (one per process).
    Consensus(Vec<Value>),
    /// `l`-set consensus over the given inputs.
    SetConsensus(Vec<Value>, usize),
    /// No decision-value checking (termination/step bounds only).
    #[default]
    None,
}

/// How generated states are deduplicated in the visited table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DedupMode {
    /// Full-state keys: exact, collision-free (the default).
    #[default]
    Exact,
    /// 64-bit fingerprints: no state clones are retained, at a
    /// ≈ `states²/2⁶⁵` risk of a collision merging two states (which
    /// can yield a wrong `Verified`, never a bogus counterexample).
    Fingerprint,
}

/// Exploration limits and the specification to enforce.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Abort (as [`ExploreOutcome::Exhausted`]) after visiting this
    /// many distinct states.
    pub max_states: usize,
    /// The task specification to enforce at decisions.
    pub spec: TaskSpec,
    /// Worker threads for a parallel run (`0` = one per available
    /// CPU). A serial run ([`Explorer::parallel`] off) ignores this and
    /// stays single-threaded.
    pub workers: usize,
    /// Visited-table key representation.
    pub dedup: DedupMode,
    /// Crash-fault adversary strength: the explorer may crash up to
    /// this many processes (clamped to `n − 1`) at any step. `0` (the
    /// default) explores only crash-free schedules.
    pub faults: usize,
    /// Dynamic partial-order reduction with sleep sets: prune step
    /// interleavings that provably commute (see
    /// [`Explorer::dpor`]).
    pub dpor: bool,
    /// Context-bounded search: skip any schedule whose number of
    /// context switches exceeds this bound. An *under-approximation*:
    /// a completed bounded pass reports
    /// [`ExploreOutcome::Exhausted`], never `Verified` (see
    /// [`Explorer::context_bound`]).
    pub context_bound: Option<usize>,
    /// Wait-freedom step bound: when set, any process taking more than
    /// this many of its own steps without deciding is reported as a
    /// [`ViolationKind::StepBound`] violation. States then carry
    /// per-process step counters, so the state space grows; `None`
    /// (the default) leaves keys and dedup behavior unchanged.
    pub step_bound: Option<usize>,
    /// Wall-clock deadline: a run exceeding it stops with
    /// [`ExploreOutcome::Interrupted`] and a resumable frontier.
    pub deadline: Option<Duration>,
    /// Approximate memory budget in bytes for the visited table; when
    /// the estimated footprint exceeds it the run stops with
    /// [`ExploreOutcome::Interrupted`] and a resumable frontier.
    pub memory_budget: Option<usize>,
    /// Where the run reports its metrics. The default clones the
    /// process-wide registry, which is enabled iff the `BSO_TELEMETRY`
    /// environment variable is set — so instrumentation is free unless
    /// explicitly requested.
    pub telemetry: Registry,
    /// Where worker trace events go. The default clones the
    /// process-wide sink, which is enabled iff the `BSO_TRACE`
    /// environment variable is set — same free-unless-requested
    /// contract as `telemetry`.
    pub trace: TraceSink,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_states: 2_000_000,
            spec: TaskSpec::None,
            workers: 0,
            dedup: DedupMode::Exact,
            faults: 0,
            dpor: false,
            context_bound: None,
            step_bound: None,
            deadline: None,
            memory_budget: None,
            telemetry: Registry::default(),
            trace: TraceSink::default(),
        }
    }
}

/// The kind of a discovered violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Two processes decided differently (or too many set-consensus
    /// values).
    Agreement,
    /// A decision no participant proposed.
    Validity,
    /// A cycle in the state graph: some schedule starves a process
    /// forever — the protocol is not wait-free.
    NotWaitFree,
    /// The protocol performed an illegal shared-memory operation.
    IllegalOperation,
    /// A process exceeded the configured per-process step bound
    /// ([`ExploreConfig::step_bound`]) without deciding — the protocol
    /// is not wait-free within that bound under this (possibly crashy)
    /// schedule.
    StepBound,
    /// The protocol implementation itself panicked while the explorer
    /// expanded a state; the schedule reaches the state whose
    /// expansion panicked.
    Panic,
}

/// A crash event on a schedule: after `at` scheduled steps have been
/// taken, process `pid` crashes and takes no further steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashEvent {
    /// Number of schedule steps taken before the crash.
    pub at: usize,
    /// The crashed process.
    pub pid: Pid,
}

impl fmt::Display for CrashEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{} crashes after step {}", self.pid, self.at)
    }
}

/// A concrete counterexample: a schedule driving the protocol into the
/// violation. Replay it with [`crate::scheduler::Scripted`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// Human-readable details.
    pub description: String,
    /// The schedule (pid per step) reaching the violation.
    pub schedule: Vec<Pid>,
    /// Crash events interleaved with the schedule (sorted by
    /// [`CrashEvent::at`]); empty for crash-free counterexamples.
    pub crashes: Vec<CrashEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} after {} steps{}: {}",
            self.kind,
            self.schedule.len(),
            if self.crashes.is_empty() {
                String::new()
            } else {
                format!(" and {} crash(es)", self.crashes.len())
            },
            self.description
        )
    }
}

/// The verdict of an exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every interleaving satisfies the specification and terminates.
    Verified,
    /// A counterexample was found.
    Violated(Violation),
    /// The state budget ran out before the exploration completed; no
    /// verdict. The payload reports how far the exploration got, for
    /// budget tuning.
    Exhausted {
        /// Distinct states visited before giving up (= the budget).
        states: usize,
        /// The deepest schedule prefix reached (steps from the initial
        /// state).
        deepest: usize,
    },
    /// A resource guard ([`ExploreConfig::deadline`] or
    /// [`ExploreConfig::memory_budget`]) stopped the run before a
    /// verdict. Unlike [`ExploreOutcome::Exhausted`] the run is
    /// *resumable*: the frontier identifies every unexpanded state by
    /// its schedule, and [`Explorer::resume`] continues from a
    /// [`crate::checkpoint::Checkpoint`] built from it.
    Interrupted {
        /// Which guard fired.
        reason: InterruptReason,
        /// Distinct states visited before the interrupt.
        states: usize,
        /// The deepest schedule prefix reached.
        deepest: usize,
        /// Schedules (with crash events) of every generated-but-
        /// unexpanded state; re-executing each yields the exact
        /// frontier state to continue from.
        frontier: Vec<FrontierEntry>,
    },
}

/// Which resource guard interrupted a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock [`ExploreConfig::deadline`] passed.
    Deadline,
    /// The approximate [`ExploreConfig::memory_budget`] was exceeded.
    MemoryBudget,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Deadline => write!(f, "deadline"),
            InterruptReason::MemoryBudget => write!(f, "memory-budget"),
        }
    }
}

/// One unexpanded frontier state, identified by the deterministic path
/// that reaches it: a schedule plus the crash events along it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierEntry {
    /// The schedule (pid per step) from the initial state.
    pub schedule: Vec<Pid>,
    /// Crash events along the schedule, sorted by [`CrashEvent::at`].
    pub crashes: Vec<CrashEvent>,
}

impl ExploreOutcome {
    /// Whether the outcome is [`ExploreOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, ExploreOutcome::Verified)
    }

    /// The violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            ExploreOutcome::Violated(v) => Some(v),
            _ => None,
        }
    }
}

/// Performance counters from one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreStats {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the run.
    pub duration: Duration,
    /// Distinct states visited per second of wall-clock time.
    pub states_per_sec: f64,
    /// Generated successors that were already in the visited table.
    pub dedup_hits: usize,
    /// Peak number of queued (generated but unexpanded) states.
    pub peak_frontier: usize,
    /// Successful work-steal operations (0 in serial runs).
    pub steals: usize,
    /// Contended visited-table shard acquisitions.
    pub shard_contention: usize,
    /// Crash-fault branches generated by the adversary (0 when
    /// [`ExploreConfig::faults`] is 0).
    pub crash_branches: usize,
    /// Step successors the partial-order reduction pruned (0 outside
    /// DPOR mode).
    pub dpor_sleep_prunes: usize,
    /// DPOR backtrack points: sleep-shrink re-expansions plus cycle-
    /// proviso escalations (0 outside DPOR mode).
    pub dpor_backtrack_points: usize,
}

impl ExploreStats {
    /// Folds these counters into `registry` under `explore.*` names —
    /// the canonical mapping from the bespoke stats struct onto
    /// telemetry types. The engine calls this once per run; it is
    /// public so external harnesses aggregating several reports can
    /// reuse the same names.
    pub fn record_to(&self, registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .counter("explore.dedup_hits")
            .add(self.dedup_hits as u64);
        registry.counter("explore.steals").add(self.steals as u64);
        registry
            .counter("explore.shard_contention")
            .add(self.shard_contention as u64);
        registry
            .counter("explore.fault.crash_branches")
            .add(self.crash_branches as u64);
        registry
            .counter("explore.dpor.sleep_prunes")
            .add(self.dpor_sleep_prunes as u64);
        registry
            .counter("explore.dpor.backtrack_points")
            .add(self.dpor_backtrack_points as u64);
        registry.gauge("explore.workers").max(self.workers as u64);
        registry
            .gauge("explore.peak_frontier")
            .max(self.peak_frontier as u64);
        registry
            .histogram("explore.run_ns")
            .record(u64::try_from(self.duration.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Exploration statistics and verdict.
#[derive(Clone, Debug)]
pub struct Report {
    /// The verdict.
    pub outcome: ExploreOutcome,
    /// Distinct global states visited (orbit representatives when
    /// symmetry reduction is active).
    pub states: usize,
    /// Distinct terminal (all-decided) states.
    pub terminals: usize,
    /// For each process, the exact maximum number of steps it takes
    /// over **all** schedules — the wait-freedom bound witness.
    /// Meaningful only when the outcome is `Verified`.
    pub max_steps_per_proc: Vec<usize>,
    /// Performance counters.
    pub stats: ExploreStats,
}

impl Report {
    /// Folds the whole report into `registry` under `explore.*` names:
    /// run/state/terminal counters, the dedup hit-rate gauge, and the
    /// [`ExploreStats`] counters.
    pub fn record_to(&self, registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        registry.counter("explore.runs").inc();
        registry.counter("explore.states").add(self.states as u64);
        registry
            .counter("explore.terminals")
            .add(self.terminals as u64);
        let generated = self.states + self.stats.dedup_hits;
        if let Some(pct) = (100 * self.stats.dedup_hits).checked_div(generated) {
            registry.gauge("explore.dedup_hit_rate_pct").set(pct as u64);
        }
        self.stats.record_to(registry);
    }
}

/// One global state of the explored system.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct StateKey<S> {
    pub(crate) mem: SharedMemory,
    pub(crate) states: Vec<S>,
    pub(crate) decisions: Vec<Option<Value>>,
    pub(crate) stepped: u64,
    /// Bitmask of crashed processes; always 0 without fault injection.
    pub(crate) crashed: u64,
    /// Per-process step counts. Tracked (non-empty) only when a step
    /// bound is enforced, so that keys — and therefore dedup behavior
    /// and reports — are unchanged otherwise.
    pub(crate) steps: Vec<u16>,
}

/// Checks a decision of `pid` against the task specification.
///
/// `decisions` holds the *other* processes' decisions (the decider's
/// slot still `None`); `stepped` already includes the decider's bit.
pub(crate) fn check_decision(
    spec: &TaskSpec,
    decisions: &[Option<Value>],
    stepped: u64,
    pid: Pid,
    v: &Value,
) -> Result<(), (ViolationKind, String)> {
    let n = decisions.len();
    let participants = move || (0..n).filter(move |p| stepped >> p & 1 == 1);
    match spec {
        TaskSpec::None => Ok(()),
        TaskSpec::Election => {
            match v.as_pid() {
                Some(w) if participants().any(|p| p == w) => {}
                _ => {
                    return Err((
                        ViolationKind::Validity,
                        format!("p{pid} elected {v}, not a participant"),
                    ))
                }
            }
            for (q, d) in decisions.iter().enumerate() {
                if let Some(w) = d {
                    if w != v {
                        return Err((
                            ViolationKind::Agreement,
                            format!("p{q} elected {w} but p{pid} elected {v}"),
                        ));
                    }
                }
            }
            Ok(())
        }
        TaskSpec::Consensus(inputs) => {
            if !participants().any(|p| &inputs[p] == v) {
                return Err((
                    ViolationKind::Validity,
                    format!("p{pid} decided {v}, not a participant's input"),
                ));
            }
            for (q, d) in decisions.iter().enumerate() {
                if let Some(w) = d {
                    if w != v {
                        return Err((
                            ViolationKind::Agreement,
                            format!("p{q} decided {w} but p{pid} decided {v}"),
                        ));
                    }
                }
            }
            Ok(())
        }
        TaskSpec::SetConsensus(inputs, l) => {
            if !participants().any(|p| &inputs[p] == v) {
                return Err((
                    ViolationKind::Validity,
                    format!("p{pid} decided {v}, not a participant's input"),
                ));
            }
            let mut set: Vec<&Value> = decisions.iter().flatten().collect();
            set.push(v);
            set.sort();
            set.dedup();
            if set.len() > *l {
                return Err((
                    ViolationKind::Agreement,
                    format!("{} distinct decisions exceed the {l}-set bound", set.len()),
                ));
            }
            Ok(())
        }
    }
}

fn init_key<P: Protocol>(proto: &P, inputs: &[Value], track_steps: bool) -> StateKey<P::State> {
    let n = proto.processes();
    assert!(n <= 64, "explorer supports at most 64 processes");
    assert_eq!(inputs.len(), n, "need one input per process");
    StateKey {
        mem: SharedMemory::new(&proto.layout()),
        states: inputs
            .iter()
            .enumerate()
            .map(|(p, v)| proto.init(p, v))
            .collect(),
        decisions: vec![None; n],
        stepped: 0,
        crashed: 0,
        steps: if track_steps { vec![0; n] } else { Vec::new() },
    }
}

/// Re-executes a frontier entry's path from the initial state, yielding
/// the exact [`StateKey`] to seed a resumed exploration with.
fn replay_frontier_key<P: Protocol>(
    proto: &P,
    inputs: &[Value],
    entry: &FrontierEntry,
    track_steps: bool,
) -> Result<StateKey<P::State>, String> {
    let mut key = init_key(proto, inputs, track_steps);
    let mut crashes = entry.crashes.clone();
    crashes.sort_unstable();
    let mut next_crash = 0;
    for (i, &pid) in entry.schedule.iter().enumerate() {
        while next_crash < crashes.len() && crashes[next_crash].at <= i {
            let c = crashes[next_crash];
            if c.pid >= key.states.len() {
                return Err(format!(
                    "crash event names p{} of {}",
                    c.pid,
                    key.states.len()
                ));
            }
            key.crashed |= 1 << c.pid;
            next_crash += 1;
        }
        if pid >= key.states.len() {
            return Err(format!("schedule names p{pid} of {}", key.states.len()));
        }
        if key.decisions[pid].is_some() || key.crashed >> pid & 1 == 1 {
            return Err(format!(
                "schedule steps disabled process p{pid} at step {i}"
            ));
        }
        match proto.next_action(&key.states[pid]) {
            crate::Action::Invoke(op) => {
                let resp = key
                    .mem
                    .apply(pid, &op)
                    .map_err(|e| format!("p{pid} op {op} failed during replay: {e}"))?;
                proto.on_response(&mut key.states[pid], resp);
            }
            crate::Action::Decide(v) => key.decisions[pid] = Some(v),
        }
        key.stepped |= 1 << pid;
        if track_steps {
            key.steps[pid] += 1;
        }
    }
    for c in &crashes[next_crash..] {
        if c.pid >= key.states.len() {
            return Err(format!(
                "crash event names p{} of {}",
                c.pid,
                key.states.len()
            ));
        }
        key.crashed |= 1 << c.pid;
    }
    Ok(key)
}

/// Seed states for the engine: each with the path that reaches it (an
/// empty path for the true initial state).
pub(crate) type Seeds<S> = Vec<(StateKey<S>, FrontierEntry)>;

/// The monomorphized run strategy a builder flag captures. Taking a
/// plain `fn` pointer lets [`Explorer::run`] stay free of the `Send`/
/// `Sync`/`Ord` bounds that only the parallel and symmetric modes
/// need: each mode's *setter* carries its bounds and freezes them into
/// a pointer here. `None` seeds mean "start from the initial state";
/// [`Explorer::resume`] passes a reconstructed frontier instead.
type RunFn<P> =
    fn(&P, &[Value], Option<Seeds<<P as Protocol>::State>>, &ExploreConfig, usize) -> Report;

fn initial_seeds<P: Protocol>(
    proto: &P,
    inputs: &[Value],
    config: &ExploreConfig,
) -> Seeds<P::State> {
    vec![(
        init_key(proto, inputs, config.step_bound.is_some()),
        FrontierEntry::default(),
    )]
}

fn run_plain_serial<P: Protocol>(
    proto: &P,
    inputs: &[Value],
    seeds: Option<Seeds<P::State>>,
    config: &ExploreConfig,
    _workers: usize,
) -> Report
where
    P::State: Hash + Eq,
{
    let seeds = seeds.unwrap_or_else(|| initial_seeds(proto, inputs, config));
    engine::dispatch_serial(proto, seeds, config, NoCanon)
}

fn run_plain<P>(
    proto: &P,
    inputs: &[Value],
    seeds: Option<Seeds<P::State>>,
    config: &ExploreConfig,
    workers: usize,
) -> Report
where
    P: Protocol + Sync,
    P::State: Hash + Eq + Send,
{
    let seeds = seeds.unwrap_or_else(|| initial_seeds(proto, inputs, config));
    if workers <= 1 {
        engine::dispatch_serial(proto, seeds, config, NoCanon)
    } else {
        engine::dispatch_parallel(proto, seeds, config, NoCanon, workers)
    }
}

fn run_symmetric<P>(
    proto: &P,
    inputs: &[Value],
    seeds: Option<Seeds<P::State>>,
    config: &ExploreConfig,
    workers: usize,
) -> Report
where
    P: SymmetricProtocol + Sync,
    P::State: Hash + Eq + Ord + Send,
{
    let canon = SymCanon::new(proto).unwrap_or_else(|e| panic!("{e}"));
    assert_inputs_equivariant(proto, &canon, inputs);
    let seeds = seeds.unwrap_or_else(|| initial_seeds(proto, inputs, config));
    if workers <= 1 {
        engine::dispatch_serial(proto, seeds, config, canon)
    } else {
        engine::dispatch_parallel(proto, seeds, config, canon, workers)
    }
}

/// The single front door to exhaustive exploration.
///
/// Configure what to explore (`inputs`, `config` or the per-field
/// shortcuts) and how (`parallel`, `symmetric`), then [`Explorer::run`]: serial
/// vs parallel and plain vs symmetry-reduced are two independent
/// toggles over one engine, and the report — outcome, stats, worker
/// resolution — is assembled identically for all four combinations.
///
/// ```
/// use bso_sim::{Explorer, ProtocolExt, TaskSpec};
/// # use bso_objects::{Layout, Value};
/// # use bso_sim::{Action, Pid, Protocol};
/// # struct Solo;
/// # impl Protocol for Solo {
/// #     type State = ();
/// #     fn processes(&self) -> usize { 1 }
/// #     fn layout(&self) -> Layout { Layout::new() }
/// #     fn init(&self, _pid: Pid, _input: &Value) {}
/// #     fn next_action(&self, _st: &()) -> Action { Action::Decide(Value::Pid(0)) }
/// #     fn on_response(&self, _st: &mut (), _resp: Value) {}
/// # }
/// # let proto = Solo;
/// let report = Explorer::new(&proto)
///     .inputs(&proto.pid_inputs())
///     .spec(TaskSpec::Election)
///     .run();
/// assert!(report.outcome.is_verified());
/// ```
///
/// # What a `Verified` outcome proves
///
/// See the module docs: agreement and validity on every path, plus
/// wait-freedom via acyclicity of the reachable state graph.
///
/// # Panics
///
/// [`run`](Explorer::run) panics if the protocol has more than 64
/// processes or if the inputs' length does not match; with
/// `.symmetric(true)` it additionally panics if the declared symmetry
/// group is invalid (not permutations, or not closed under
/// composition) or if the inputs are not fixed by the group — renaming
/// processes must rename their inputs onto each other, as with
/// [`crate::ProtocolExt::pid_inputs`], or the specification itself
/// would distinguish the processes and the reduction would be unsound.
#[derive(Debug)]
pub struct Explorer<'p, P: Protocol> {
    proto: &'p P,
    inputs: Option<Vec<Value>>,
    config: ExploreConfig,
    protocol_id: Option<String>,
    parallel: bool,
    par_run: Option<RunFn<P>>,
    sym_run: Option<RunFn<P>>,
}

// Derived `Clone` would demand `P: Clone` even though only `&P` is held.
impl<P: Protocol> Clone for Explorer<'_, P> {
    fn clone(&self) -> Self {
        Explorer {
            proto: self.proto,
            inputs: self.inputs.clone(),
            config: self.config.clone(),
            protocol_id: self.protocol_id.clone(),
            parallel: self.parallel,
            par_run: self.par_run,
            sym_run: self.sym_run,
        }
    }
}

impl<'p, P: Protocol> Explorer<'p, P> {
    /// Starts a builder over `proto` with the default
    /// [`ExploreConfig`], serial execution, no symmetry reduction, and
    /// [`crate::ProtocolExt::pid_inputs`] as inputs.
    pub fn new(proto: &'p P) -> Explorer<'p, P> {
        Explorer {
            proto,
            inputs: None,
            config: ExploreConfig::default(),
            protocol_id: None,
            parallel: false,
            par_run: None,
            sym_run: None,
        }
    }

    /// Sets the per-process inputs (one per process).
    #[must_use]
    pub fn inputs(mut self, inputs: &[Value]) -> Self {
        self.inputs = Some(inputs.to_vec());
        self
    }

    /// Replaces the whole configuration.
    #[must_use]
    pub fn config(mut self, config: &ExploreConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Sets the task specification ([`ExploreConfig::spec`]).
    #[must_use]
    pub fn spec(mut self, spec: TaskSpec) -> Self {
        self.config.spec = spec;
        self
    }

    /// Sets the state budget ([`ExploreConfig::max_states`]).
    #[must_use]
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.config.max_states = max_states;
        self
    }

    /// Sets the worker count for parallel runs
    /// ([`ExploreConfig::workers`]; `0` = one per available CPU).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the dedup mode ([`ExploreConfig::dedup`]).
    #[must_use]
    pub fn dedup(mut self, dedup: DedupMode) -> Self {
        self.config.dedup = dedup;
        self
    }

    /// Sets the crash-fault adversary strength
    /// ([`ExploreConfig::faults`]): up to `faults` processes (clamped
    /// to `n − 1`) may crash at any step.
    #[must_use]
    pub fn faults(mut self, faults: usize) -> Self {
        self.config.faults = faults;
        self
    }

    /// Toggles dynamic partial-order reduction with sleep sets
    /// ([`ExploreConfig::dpor`]): at every state only a *persistent
    /// set* of the enabled processes is stepped (computed from
    /// [`crate::Protocol::footprint`] and the exact one-step
    /// independence relation — operations on distinct objects commute,
    /// same-object operations conflict unless neither mutates), and
    /// sleep sets suppress orders an explored sibling already covers.
    ///
    /// Verdicts agree with the unreduced modes and counterexamples
    /// remain genuinely replayable, but the *choice* of counterexample
    /// among equally valid ones may differ (fewer schedules are
    /// enumerated), and [`Report::max_steps_per_proc`] is not reported
    /// (a pruned order can realize a higher per-process step count
    /// than any explored one). Composes with
    /// [`parallel`](Explorer::parallel),
    /// [`symmetric`](Explorer::symmetric), fault injection, and
    /// checkpoint/resume. See `DESIGN.md` §3.11.
    #[must_use]
    pub fn dpor(mut self, dpor: bool) -> Self {
        self.config.dpor = dpor;
        self
    }

    /// Enables iterative context-bounded search
    /// ([`ExploreConfig::context_bound`]): [`run`](Explorer::run)
    /// explores schedules with at most `0, 1, …, c` context switches,
    /// returning at the first bound that uncovers a violation.
    ///
    /// This is an **under-approximation** — most concurrency bugs
    /// manifest within a couple of context switches, so small bounds
    /// find them in a tiny fraction of the full space — and the
    /// verdict reflects that: a completed pass reports
    /// [`ExploreOutcome::Exhausted`], never `Verified`. Because states
    /// reached within the bound by one discovery order may be
    /// reachable below the bound by another, the set of skipped
    /// schedules is discovery-order-dependent under dedup: only a
    /// `Violated` outcome is definitive. Composes with
    /// [`dpor`](Explorer::dpor).
    #[must_use]
    pub fn context_bound(mut self, bound: usize) -> Self {
        self.config.context_bound = Some(bound);
        self
    }

    /// Sets the wait-freedom step bound
    /// ([`ExploreConfig::step_bound`]).
    #[must_use]
    pub fn step_bound(mut self, bound: usize) -> Self {
        self.config.step_bound = Some(bound);
        self
    }

    /// Sets the wall-clock deadline ([`ExploreConfig::deadline`]).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Sets the approximate memory budget in bytes
    /// ([`ExploreConfig::memory_budget`]).
    #[must_use]
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Sets the telemetry registry the run reports into
    /// ([`ExploreConfig::telemetry`]).
    #[must_use]
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.config.telemetry = registry;
        self
    }

    /// Sets the trace sink worker events go to
    /// ([`ExploreConfig::trace`]).
    #[must_use]
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.config.trace = sink;
        self
    }

    /// Sets the stable protocol identifier stamped into counterexample
    /// artifacts (default: the Rust type name of `P`).
    #[must_use]
    pub fn protocol_id(mut self, id: impl Into<String>) -> Self {
        self.protocol_id = Some(id.into());
        self
    }

    /// Toggles the work-stealing worker pool. Verdicts agree with the
    /// serial mode; with several workers the *choice* of
    /// counterexample among equally valid ones may differ (the engine
    /// keeps the lexicographically smallest schedule discovered before
    /// exploration halted).
    ///
    /// This setter (not [`run`](Explorer::run)) carries the
    /// thread-safety bounds, so purely serial exploration remains
    /// available to protocols whose states are not `Send`.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self
    where
        P: Sync,
        P::State: Hash + Eq + Send,
    {
        self.parallel = parallel;
        self.par_run = parallel.then_some(run_plain::<P> as RunFn<P>);
        self
    }

    /// Toggles process-symmetry reduction: only one representative per
    /// orbit of the protocol's symmetry group is visited (see
    /// [`SymmetricProtocol`] for the soundness contract). Composes
    /// with [`parallel`](Explorer::parallel).
    #[must_use]
    pub fn symmetric(mut self, symmetric: bool) -> Self
    where
        P: SymmetricProtocol + Sync,
        P::State: Hash + Eq + Ord + Send,
    {
        self.sym_run = symmetric.then_some(run_symmetric::<P> as RunFn<P>);
        self
    }

    /// The worker-thread count this builder will actually run with:
    /// `1` unless `.parallel(true)`, else [`ExploreConfig::workers`]
    /// with `0` resolved to the available parallelism. This is the one
    /// place serial-vs-parallel resolution happens, for all modes.
    pub fn resolved_workers(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, |v| v.get()),
            w => w,
        }
    }

    /// The per-process inputs [`run`](Explorer::run) will use:
    /// explicitly set ones, else [`crate::ProtocolExt::pid_inputs`].
    pub fn resolved_inputs(&self) -> Vec<Value> {
        match &self.inputs {
            Some(v) => v.clone(),
            None => self.proto.pid_inputs(),
        }
    }

    /// The protocol identifier stamped into artifacts: the one set via
    /// [`protocol_id`](Explorer::protocol_id), else the Rust type name.
    pub fn resolved_protocol_id(&self) -> String {
        self.protocol_id
            .clone()
            .unwrap_or_else(|| std::any::type_name::<P>().to_string())
    }

    /// Packages a violation from this explorer's configuration into a
    /// durable, replayable [`ScheduleArtifact`].
    pub fn artifact_for(&self, violation: &Violation) -> ScheduleArtifact {
        self.artifact_for_in(violation, &self.config)
    }

    /// Re-executes an artifact's exact interleaving on this explorer's
    /// protocol and returns the resulting run. The simulator is
    /// deterministic given a schedule, so two replays of the same
    /// artifact produce identical [`crate::Trace`]s; check the outcome
    /// against the artifact's claim with
    /// [`artifact::verify_replay`].
    ///
    /// Scheduled pids that are no longer enabled (decided or crashed)
    /// are skipped — a well-formed artifact never contains them. The
    /// artifact's crash events are injected at their recorded
    /// positions, so crash-schedule counterexamples replay exactly.
    ///
    /// # Errors
    ///
    /// A [`RunError::Object`] if the schedule drives the protocol into
    /// an illegal operation (which is exactly what an
    /// [`ViolationKind::IllegalOperation`] artifact replays to).
    ///
    /// # Panics
    ///
    /// Panics if the artifact's input count does not match the
    /// protocol's process count.
    pub fn replay(&self, artifact: &ScheduleArtifact) -> Result<RunResult, RunError> {
        let mut sim = Simulation::new(self.proto, &artifact.inputs);
        let mut crashes = artifact.crashes.clone();
        crashes.sort_unstable();
        let mut next_crash = 0;
        for (i, &pid) in artifact.schedule.iter().enumerate() {
            while next_crash < crashes.len() && crashes[next_crash].at <= i {
                sim.crash(crashes[next_crash].pid);
                next_crash += 1;
            }
            if sim.enabled().contains(&pid) {
                sim.step(pid)?;
            }
        }
        for c in &crashes[next_crash..] {
            sim.crash(c.pid);
        }
        Ok(sim.result())
    }

    /// Explores **all** interleavings and reports the verdict.
    ///
    /// The builder is borrowed, not consumed, so one configuration can
    /// drive several runs.
    ///
    /// Four environment escape hatches activate here: `BSO_PROGRESS`
    /// starts the process-wide heartbeat reporter before the run,
    /// `BSO_ARTIFACT=path.json` writes a replayable
    /// [`ScheduleArtifact`] if the run finds a violation,
    /// `BSO_DEADLINE_MS=n` applies a wall-clock deadline when the
    /// builder set none, and `BSO_CHECKPOINT=path.json` writes a
    /// resumable [`Checkpoint`] if the run is interrupted.
    pub fn run(&self) -> Report
    where
        P::State: Hash + Eq,
    {
        let mut config = self.config.clone();
        if config.deadline.is_none() {
            if let Some(ms) = std::env::var(checkpoint::DEADLINE_ENV_VAR)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                config.deadline = Some(Duration::from_millis(ms));
            }
        }
        if let Some(c) = config.context_bound {
            // Iterative context-bounding: explore with 0, 1, …, c
            // context switches, surfacing the first violation (found
            // at the smallest switch count that manifests it). A pass
            // that completes without a violation proves nothing about
            // the unbounded space, so only Violated and Interrupted
            // outcomes short-circuit.
            for cb in 0..c {
                let mut bounded = config.clone();
                bounded.context_bound = Some(cb);
                let report = self.run_with(None, &bounded, None);
                match report.outcome {
                    ExploreOutcome::Violated { .. } | ExploreOutcome::Interrupted { .. } => {
                        return report;
                    }
                    _ => {}
                }
            }
        }
        self.run_with(None, &config, None)
    }

    /// Continues an exploration from a [`Checkpoint`] written by an
    /// interrupted run on the *same* protocol instance and inputs.
    ///
    /// The checkpoint pins the semantics of the original run (spec,
    /// fault budget, step bound, inputs); the builder contributes the
    /// resource knobs (deadline, budgets, workers, dedup, telemetry) —
    /// so a resumed run can get a fresh deadline. The returned report
    /// accumulates the checkpoint's state/terminal counts, making the
    /// final tallies comparable with an uninterrupted run.
    /// `max_steps_per_proc` is not reconstructible across an interrupt
    /// and stays empty.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's process count does not match the
    /// protocol, or if a frontier entry does not replay on it (i.e.
    /// the checkpoint belongs to a different protocol).
    pub fn resume(&self, cp: &Checkpoint) -> Report
    where
        P::State: Hash + Eq,
    {
        assert_eq!(
            cp.inputs.len(),
            self.proto.processes(),
            "checkpoint is for {} processes but the protocol has {}",
            cp.inputs.len(),
            self.proto.processes()
        );
        let mut config = self.config.clone();
        config.spec = cp.spec.clone();
        config.faults = cp.faults;
        config.step_bound = cp.step_bound;
        let track = cp.step_bound.is_some();
        let seeds: Seeds<P::State> = cp
            .frontier
            .iter()
            .map(|entry| {
                let key =
                    replay_frontier_key(self.proto, &cp.inputs, entry, track).unwrap_or_else(|e| {
                        panic!("checkpoint frontier entry does not replay on this protocol: {e}")
                    });
                (key, entry.clone())
            })
            .collect();
        if seeds.is_empty() {
            // Degenerate checkpoint (interrupted before seeding):
            // restart from scratch under the checkpoint's semantics.
            return self.run_with(None, &config, None);
        }
        self.run_with(Some(seeds), &config, Some(cp))
    }

    /// Packages an [`ExploreOutcome::Interrupted`] report into a
    /// durable [`Checkpoint`] that [`resume`](Explorer::resume) (in
    /// this or a later process) continues from. Returns `None` for any
    /// other outcome.
    pub fn checkpoint_for(&self, report: &Report) -> Option<Checkpoint> {
        self.checkpoint_for_in(report, &self.config)
    }

    fn checkpoint_for_in(&self, report: &Report, config: &ExploreConfig) -> Option<Checkpoint> {
        let ExploreOutcome::Interrupted {
            reason,
            states,
            deepest,
            frontier,
        } = &report.outcome
        else {
            return None;
        };
        Some(Checkpoint {
            protocol: self.resolved_protocol_id(),
            inputs: self.resolved_inputs(),
            spec: config.spec.clone(),
            faults: config.faults,
            step_bound: config.step_bound,
            reason: *reason,
            states: *states,
            terminals: report.terminals,
            deepest: *deepest,
            dedup_hits: report.stats.dedup_hits,
            frontier: frontier.clone(),
        })
    }

    /// Shared tail of [`run`](Explorer::run) and
    /// [`resume`](Explorer::resume): dispatch, progress sampling, and
    /// the artifact/checkpoint escape hatches.
    fn run_with(
        &self,
        seeds: Option<Seeds<P::State>>,
        config: &ExploreConfig,
        base: Option<&Checkpoint>,
    ) -> Report
    where
        P::State: Hash + Eq,
    {
        bso_telemetry::progress::spawn_global_if_env();
        let owned;
        let inputs: &[Value] = match &self.inputs {
            Some(v) => v,
            None => {
                owned = self.proto.pid_inputs();
                &owned
            }
        };
        let run = self
            .sym_run
            .or(self.par_run)
            .unwrap_or(run_plain_serial::<P> as RunFn<P>);
        let mut report = run(self.proto, inputs, seeds, config, self.resolved_workers());
        if let Some(cp) = base {
            report.states += cp.states;
            report.terminals += cp.terminals;
            report.stats.dedup_hits += cp.dedup_hits;
            report.max_steps_per_proc = Vec::new();
            match &mut report.outcome {
                ExploreOutcome::Exhausted { states, deepest }
                | ExploreOutcome::Interrupted {
                    states, deepest, ..
                } => {
                    *states = report.states;
                    *deepest = (*deepest).max(cp.deepest);
                }
                _ => {}
            }
        }
        // The stream always ends with a sample of the final counters,
        // even when the whole run fits inside one sampling interval.
        bso_telemetry::progress::sample_global_now();
        if let Some(v) = report.outcome.violation() {
            if let Some(path) = std::env::var_os(artifact::ENV_VAR) {
                let art = self.artifact_for_in(v, config);
                match art.save(&path) {
                    Ok(()) => eprintln!(
                        "counterexample artifact written to {}",
                        std::path::Path::new(&path).display()
                    ),
                    Err(e) => eprintln!(
                        "warning: failed to write {} artifact: {e}",
                        artifact::ENV_VAR
                    ),
                }
            }
        }
        if matches!(report.outcome, ExploreOutcome::Interrupted { .. }) {
            if let Some(path) = std::env::var_os(checkpoint::ENV_VAR) {
                let cp = self
                    .checkpoint_for_in(&report, config)
                    .expect("outcome is Interrupted");
                match cp.save(&path) {
                    Ok(()) => eprintln!(
                        "checkpoint written to {}",
                        std::path::Path::new(&path).display()
                    ),
                    Err(e) => eprintln!(
                        "warning: failed to write {} checkpoint: {e}",
                        checkpoint::ENV_VAR
                    ),
                }
            }
        }
        report
    }

    /// [`artifact_for`](Explorer::artifact_for) against an explicit
    /// (possibly checkpoint-overridden) configuration.
    fn artifact_for_in(&self, violation: &Violation, config: &ExploreConfig) -> ScheduleArtifact {
        let mut art = ScheduleArtifact::from_violation(
            self.resolved_protocol_id(),
            &self.resolved_inputs(),
            &config.spec,
            violation,
        );
        art.step_bound = config.step_bound;
        art
    }
}

fn assert_inputs_equivariant<P: SymmetricProtocol>(
    proto: &P,
    canon: &SymCanon<'_, P>,
    inputs: &[Value],
) {
    for perm in canon.elements() {
        for (p, input) in inputs.iter().enumerate() {
            assert!(
                proto.permute_value(perm, input) == inputs[perm[p]],
                "symmetry reduction requires equivariant inputs: renaming by {perm:?} \
                 maps p{p}'s input {input} to {}, but p{}'s input is {}",
                proto.permute_value(perm, input),
                perm[p],
                inputs[perm[p]],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolExt;
    use crate::{Action, Protocol};
    use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind};

    /// Sound 2-process election through a test&set bit (same as the
    /// crate-level example, minus the doc scaffolding).
    struct TasElection;

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum St {
        Announce(usize),
        Grab(usize),
        ReadPeer(usize),
        Done(usize),
    }

    impl Protocol for TasElection {
        type State = St;
        fn processes(&self) -> usize {
            2
        }
        fn layout(&self) -> Layout {
            let mut l = Layout::new();
            l.push(ObjectInit::TestAndSet);
            l.push_n(ObjectInit::Register(Value::Nil), 2);
            l
        }
        fn init(&self, pid: Pid, _input: &Value) -> St {
            St::Announce(pid)
        }
        fn next_action(&self, st: &St) -> Action {
            match st {
                St::Announce(p) => Action::Invoke(Op::write(ObjectId(1 + p), Value::Pid(*p))),
                St::Grab(_) => Action::Invoke(Op::new(ObjectId(0), OpKind::TestAndSet)),
                St::ReadPeer(p) => Action::Invoke(Op::read(ObjectId(1 + (1 - p)))),
                St::Done(p) => Action::Decide(Value::Pid(*p)),
            }
        }
        fn on_response(&self, st: &mut St, resp: Value) {
            *st = match st.clone() {
                St::Announce(p) => St::Grab(p),
                St::Grab(p) => {
                    if resp == Value::Bool(false) {
                        St::Done(p)
                    } else {
                        St::ReadPeer(p)
                    }
                }
                St::ReadPeer(_) => St::Done(resp.as_pid().expect("peer announced")),
                done => done,
            };
        }
    }

    /// A *broken* election: grabs the bit before announcing, so the
    /// loser can read an empty announcement... made worse: the loser
    /// elects itself. Agreement must be violated on some schedule.
    struct BrokenElection;

    impl Protocol for BrokenElection {
        type State = St;
        fn processes(&self) -> usize {
            2
        }
        fn layout(&self) -> Layout {
            TasElection.layout()
        }
        fn init(&self, pid: Pid, _input: &Value) -> St {
            St::Grab(pid)
        }
        fn next_action(&self, st: &St) -> Action {
            match st {
                St::Grab(_) => Action::Invoke(Op::new(ObjectId(0), OpKind::TestAndSet)),
                St::Done(p) => Action::Decide(Value::Pid(*p)),
                _ => unreachable!(),
            }
        }
        fn on_response(&self, st: &mut St, resp: Value) {
            if let St::Grab(p) = st.clone() {
                // Bug: the loser also decides itself.
                let _ = resp;
                *st = St::Done(p);
            }
        }
    }

    /// A protocol that livelocks: two processes forever read.
    struct Livelock;

    impl Protocol for Livelock {
        type State = u8;
        fn processes(&self) -> usize {
            2
        }
        fn layout(&self) -> Layout {
            let mut l = Layout::new();
            l.push(ObjectInit::Register(Value::Nil));
            l
        }
        fn init(&self, _pid: Pid, _input: &Value) -> u8 {
            0
        }
        fn next_action(&self, st: &u8) -> Action {
            let _ = st;
            Action::Invoke(Op::read(ObjectId(0)))
        }
        fn on_response(&self, st: &mut u8, _resp: Value) {
            *st = (*st + 1) % 3;
        }
    }

    #[test]
    fn verifies_sound_election_and_reports_step_bounds() {
        let proto = TasElection;
        let inputs = vec![Value::Pid(0), Value::Pid(1)];
        let cfg = ExploreConfig {
            spec: TaskSpec::Election,
            ..Default::default()
        };
        let report = Explorer::new(&proto).inputs(&inputs).config(&cfg).run();
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
        assert!(report.states > 0 && report.terminals > 0);
        // announce + grab + (maybe read) + decide = at most 4 steps
        assert_eq!(report.max_steps_per_proc, vec![4, 4]);
        assert!(report.stats.states_per_sec > 0.0);
        assert!(report.stats.peak_frontier > 0);
    }

    #[test]
    fn finds_agreement_violation_with_replayable_schedule() {
        let proto = BrokenElection;
        let inputs = vec![Value::Pid(0), Value::Pid(1)];
        let cfg = ExploreConfig {
            spec: TaskSpec::Election,
            ..Default::default()
        };
        let report = Explorer::new(&proto).inputs(&inputs).config(&cfg).run();
        let v = report
            .outcome
            .violation()
            .expect("must be violated")
            .clone();
        assert_eq!(v.kind, ViolationKind::Agreement);

        // The schedule must replay to an actual disagreement.
        let mut sim = crate::Simulation::new(&proto, &inputs);
        let res = sim
            .run(
                &mut crate::scheduler::Scripted::new(v.schedule.clone()),
                100,
            )
            .unwrap();
        assert!(crate::checker::check_election(&res).is_err());
    }

    #[test]
    fn detects_livelock_as_not_wait_free() {
        let proto = Livelock;
        let cfg = ExploreConfig {
            spec: TaskSpec::None,
            ..Default::default()
        };
        let report = Explorer::new(&proto)
            .inputs(&[Value::Nil, Value::Nil])
            .config(&cfg)
            .run();
        let v = report.outcome.violation().expect("livelock must be caught");
        assert_eq!(v.kind, ViolationKind::NotWaitFree);
    }

    #[test]
    fn parallel_and_fingerprint_modes_agree_on_livelock() {
        for dedup in [DedupMode::Exact, DedupMode::Fingerprint] {
            let cfg = ExploreConfig {
                workers: 4,
                dedup,
                ..Default::default()
            };
            let report = Explorer::new(&Livelock)
                .inputs(&[Value::Nil, Value::Nil])
                .config(&cfg)
                .parallel(true)
                .run();
            let v = report.outcome.violation().expect("livelock must be caught");
            assert_eq!(v.kind, ViolationKind::NotWaitFree, "dedup {dedup:?}");
        }
    }

    #[test]
    fn consensus_spec_checks_validity_against_participants() {
        /// Decides a constant that is nobody's input.
        struct ConstDecider;
        impl Protocol for ConstDecider {
            type State = ();
            fn processes(&self) -> usize {
                1
            }
            fn layout(&self) -> Layout {
                Layout::new()
            }
            fn init(&self, _pid: Pid, _input: &Value) {}
            fn next_action(&self, _st: &()) -> Action {
                Action::Decide(Value::Int(99))
            }
            fn on_response(&self, _st: &mut (), _resp: Value) {}
        }
        let cfg = ExploreConfig {
            spec: TaskSpec::Consensus(vec![Value::Int(1)]),
            ..Default::default()
        };
        let report = Explorer::new(&ConstDecider)
            .inputs(&[Value::Int(1)])
            .config(&cfg)
            .run();
        let v = report.outcome.violation().expect("invalid decision");
        assert_eq!(v.kind, ViolationKind::Validity);
    }

    #[test]
    fn exhaustion_is_reported_not_mistaken_for_a_verdict() {
        let proto = TasElection;
        let inputs = vec![Value::Pid(0), Value::Pid(1)];
        let cfg = ExploreConfig {
            max_states: 2,
            spec: TaskSpec::Election,
            ..Default::default()
        };
        let report = Explorer::new(&proto).inputs(&inputs).config(&cfg).run();
        match report.outcome {
            ExploreOutcome::Exhausted { states, deepest } => {
                assert_eq!(states, 2);
                assert!(deepest >= 1, "progress info must be reported");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_of_exactly_the_state_count_suffices() {
        // Measure the exact state count, then re-run with precisely
        // that budget: an inclusive bound must still verify, and one
        // state less must exhaust.
        let proto = TasElection;
        let inputs = proto.pid_inputs();
        let cfg = ExploreConfig {
            spec: TaskSpec::Election,
            ..Default::default()
        };
        let base = Explorer::new(&proto).inputs(&inputs).config(&cfg);
        let full = base.run();
        assert!(full.outcome.is_verified());
        let exact = base.clone().max_states(full.states).run();
        assert!(
            exact.outcome.is_verified(),
            "max_states == states must verify: {:?}",
            exact.outcome
        );
        let starved = base.max_states(full.states - 1).run();
        match starved.outcome {
            ExploreOutcome::Exhausted { states, .. } => {
                assert_eq!(states, full.states - 1)
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn set_consensus_spec_enforces_bound() {
        /// Everyone decides its own input: n-set consensus but not
        /// (n−1)-set consensus.
        struct OwnInput;
        impl Protocol for OwnInput {
            type State = Value;
            fn processes(&self) -> usize {
                3
            }
            fn layout(&self) -> Layout {
                let mut l = Layout::new();
                l.push(ObjectInit::Register(Value::Nil));
                l
            }
            fn init(&self, _pid: Pid, input: &Value) -> Value {
                input.clone()
            }
            fn next_action(&self, st: &Value) -> Action {
                Action::Decide(st.clone())
            }
            fn on_response(&self, _st: &mut Value, _resp: Value) {}
        }
        let inputs = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let ok = Explorer::new(&OwnInput)
            .inputs(&inputs)
            .spec(TaskSpec::SetConsensus(inputs.clone(), 3))
            .run();
        assert!(ok.outcome.is_verified());
        let bad = Explorer::new(&OwnInput)
            .inputs(&inputs)
            .spec(TaskSpec::SetConsensus(inputs.clone(), 2))
            .run();
        assert_eq!(
            bad.outcome.violation().unwrap().kind,
            ViolationKind::Agreement
        );
    }

    #[test]
    fn symmetric_exploration_agrees_with_plain_on_a_symmetric_protocol() {
        /// Fully symmetric: everyone sticky-writes its pid and elects
        /// the pid the write-once register reports (the first writer).
        struct FirstWriteWins;

        #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum FS {
            Write(usize),
            Done(usize),
        }

        impl Protocol for FirstWriteWins {
            type State = FS;
            fn processes(&self) -> usize {
                3
            }
            fn layout(&self) -> Layout {
                let mut l = Layout::new();
                l.push(ObjectInit::Sticky);
                l
            }
            fn init(&self, pid: Pid, _input: &Value) -> FS {
                FS::Write(pid)
            }
            fn next_action(&self, st: &FS) -> Action {
                match st {
                    FS::Write(p) => {
                        Action::Invoke(Op::new(ObjectId(0), OpKind::StickyWrite(Value::Pid(*p))))
                    }
                    FS::Done(p) => Action::Decide(Value::Pid(*p)),
                }
            }
            fn on_response(&self, st: &mut FS, resp: Value) {
                if let FS::Write(_) = st {
                    *st = FS::Done(resp.as_pid().expect("sticky holds the winner"));
                }
            }
        }

        impl SymmetricProtocol for FirstWriteWins {
            fn symmetry_group(&self) -> Vec<Vec<Pid>> {
                // Full S₃.
                vec![
                    vec![0, 2, 1],
                    vec![1, 0, 2],
                    vec![1, 2, 0],
                    vec![2, 0, 1],
                    vec![2, 1, 0],
                ]
            }
            fn permute_state(&self, perm: &[Pid], st: &FS) -> FS {
                match st {
                    FS::Write(p) => FS::Write(perm[*p]),
                    FS::Done(p) => FS::Done(perm[*p]),
                }
            }
        }

        let proto = FirstWriteWins;
        let inputs = proto.pid_inputs();
        let cfg = ExploreConfig {
            spec: TaskSpec::Election,
            ..Default::default()
        };
        let base = Explorer::new(&proto).inputs(&inputs).config(&cfg);
        let plain = base.run();
        let sym = base.clone().symmetric(true).run();
        assert!(plain.outcome.is_verified());
        assert!(sym.outcome.is_verified());
        // Same exact step bounds from ~6× fewer states.
        assert_eq!(plain.max_steps_per_proc, sym.max_steps_per_proc);
        assert!(
            sym.states * 3 < plain.states,
            "symmetry should collapse orbits: {} vs {}",
            sym.states,
            plain.states
        );
        // And in parallel.
        let sym_par = base.symmetric(true).parallel(true).workers(3).run();
        assert!(sym_par.outcome.is_verified());
        assert_eq!(sym_par.max_steps_per_proc, sym.max_steps_per_proc);
        assert_eq!(sym_par.states, sym.states);
    }

    #[test]
    fn symmetric_exploration_rejects_non_equivariant_inputs() {
        // Symmetric protocol, but consensus inputs that distinguish
        // processes: the reduction must refuse to run.
        struct Sym2;
        impl Protocol for Sym2 {
            type State = u8;
            fn processes(&self) -> usize {
                2
            }
            fn layout(&self) -> Layout {
                Layout::new()
            }
            fn init(&self, _pid: Pid, _input: &Value) -> u8 {
                0
            }
            fn next_action(&self, _st: &u8) -> Action {
                Action::Decide(Value::Int(0))
            }
            fn on_response(&self, _st: &mut u8, _resp: Value) {}
        }
        impl SymmetricProtocol for Sym2 {
            fn symmetry_group(&self) -> Vec<Vec<Pid>> {
                vec![vec![1, 0]]
            }
            fn permute_state(&self, _perm: &[Pid], st: &u8) -> u8 {
                *st
            }
        }
        let result = std::panic::catch_unwind(|| {
            Explorer::new(&Sym2)
                .inputs(&[Value::Int(1), Value::Int(2)])
                .symmetric(true)
                .run()
        });
        assert!(result.is_err(), "non-equivariant inputs must be rejected");
    }
}
