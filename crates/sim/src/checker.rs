//! Run-level task specifications: leader election, consensus, and
//! `l`-set consensus, exactly as defined in Section 2 of the paper.
//!
//! A checker consumes a [`RunResult`] and reports the first violated
//! clause. The [`RunChecker`] trait is the uniform interface: each
//! specification is a struct ([`ElectionChecker`],
//! [`ConsensusChecker`], [`SetConsensusChecker`],
//! [`StepBoundChecker`]), several can be bundled into a
//! [`CheckerSet`], and an exploration-level
//! [`TaskSpec`] maps onto its run-level counterpart
//! via `RunChecker for TaskSpec`. The historical free functions
//! ([`check_election`] and friends) delegate to the structs.
//!
//! The definitions follow the paper:
//!
//! * **Leader election** (multi-valued consensus): *consistent* —
//!   distinct processes never elect distinct identities; *wait-free* —
//!   each process elects after a finite number of steps; *valid* — the
//!   elected identity is that of a process that proposed itself
//!   (participated).
//! * **k-set consensus**: each decision is some process's input and at
//!   most `k` distinct values are decided.

use std::fmt;

use bso_objects::Value;

use crate::explore::TaskSpec;
use crate::{Pid, ProcStatus, RunResult};

/// A violated clause of a task specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecViolation {
    /// Two processes decided differently where agreement was required.
    Disagreement {
        /// First process and its decision.
        a: (Pid, Value),
        /// Second process and its (different) decision.
        b: (Pid, Value),
    },
    /// A decision value that no participant proposed.
    InvalidDecision {
        /// The deciding process.
        pid: Pid,
        /// Its invalid decision.
        value: Value,
    },
    /// A non-crashed process failed to decide (run quiesced without
    /// it, or it was still running at the step limit).
    Undecided {
        /// The process that never decided.
        pid: Pid,
    },
    /// More distinct values decided than the set-consensus bound
    /// allows.
    TooManyValues {
        /// The bound `l`.
        allowed: usize,
        /// The distinct decisions observed.
        got: Vec<Value>,
    },
    /// A process exceeded the claimed wait-freedom step bound.
    StepBoundExceeded {
        /// The offending process.
        pid: Pid,
        /// Steps it took.
        steps: usize,
        /// The claimed bound.
        bound: usize,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::Disagreement { a, b } => write!(
                f,
                "disagreement: p{} decided {} but p{} decided {}",
                a.0, a.1, b.0, b.1
            ),
            SpecViolation::InvalidDecision { pid, value } => {
                write!(f, "p{pid} decided {value}, which no participant proposed")
            }
            SpecViolation::Undecided { pid } => {
                write!(f, "p{pid} never decided although it did not crash")
            }
            SpecViolation::TooManyValues { allowed, got } => write!(
                f,
                "{} distinct values decided, only {allowed} allowed",
                got.len()
            ),
            SpecViolation::StepBoundExceeded { pid, steps, bound } => {
                write!(f, "p{pid} took {steps} steps, claimed bound is {bound}")
            }
        }
    }
}

impl std::error::Error for SpecViolation {}

fn check_all_decided(res: &RunResult) -> Result<(), SpecViolation> {
    for (pid, st) in res.statuses.iter().enumerate() {
        if matches!(st, ProcStatus::Running) {
            return Err(SpecViolation::Undecided { pid });
        }
    }
    Ok(())
}

fn decided(res: &RunResult) -> impl Iterator<Item = (Pid, &Value)> {
    res.decisions
        .iter()
        .enumerate()
        .filter_map(|(p, d)| d.as_ref().map(|v| (p, v)))
}

/// A run-level specification that can judge a completed run.
///
/// The trait unifies the election / consensus / set-consensus /
/// step-bound checkers so harnesses (the refutations, telemetry
/// validation, [`CheckerSet`]) can attach any mix of specifications
/// uniformly instead of dispatching on free functions.
pub trait RunChecker {
    /// A short stable name for reports and telemetry.
    fn name(&self) -> &'static str;

    /// Checks the run against this specification.
    ///
    /// # Errors
    ///
    /// The first violated clause, as a [`SpecViolation`].
    fn check(&self, res: &RunResult) -> Result<(), SpecViolation>;
}

/// [`RunChecker`] for the leader-election specification.
///
/// `Validity` is interpreted as in the paper: the elected identity must
/// be a *participant* — a process that took at least one step in the
/// run (a process that never moved cannot have proposed itself).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElectionChecker;

impl RunChecker for ElectionChecker {
    fn name(&self) -> &'static str {
        "election"
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        check_all_decided(res)?;
        let participants = res.trace.participants();
        let mut first: Option<(Pid, &Value)> = None;
        for (pid, v) in decided(res) {
            match v.as_pid() {
                Some(w) if participants.contains(&w) => {}
                _ => {
                    return Err(SpecViolation::InvalidDecision {
                        pid,
                        value: v.clone(),
                    })
                }
            }
            match first {
                None => first = Some((pid, v)),
                Some((p0, v0)) => {
                    if v0 != v {
                        return Err(SpecViolation::Disagreement {
                            a: (p0, v0.clone()),
                            b: (pid, v.clone()),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// [`RunChecker`] for the consensus specification over fixed inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusChecker {
    /// The per-process proposed inputs.
    pub inputs: Vec<Value>,
}

impl RunChecker for ConsensusChecker {
    fn name(&self) -> &'static str {
        "consensus"
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        check_all_decided(res)?;
        let participants = res.trace.participants();
        let valid: Vec<&Value> = participants.iter().map(|&p| &self.inputs[p]).collect();
        let mut first: Option<(Pid, &Value)> = None;
        for (pid, v) in decided(res) {
            if !valid.contains(&v) {
                return Err(SpecViolation::InvalidDecision {
                    pid,
                    value: v.clone(),
                });
            }
            match first {
                None => first = Some((pid, v)),
                Some((p0, v0)) => {
                    if v0 != v {
                        return Err(SpecViolation::Disagreement {
                            a: (p0, v0.clone()),
                            b: (pid, v.clone()),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// [`RunChecker`] for `l`-set consensus: at most `l` distinct
/// decisions, each some participant's input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetConsensusChecker {
    /// The per-process proposed inputs.
    pub inputs: Vec<Value>,
    /// The bound on distinct decision values.
    pub l: usize,
}

impl RunChecker for SetConsensusChecker {
    fn name(&self) -> &'static str {
        "set_consensus"
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        check_all_decided(res)?;
        let participants = res.trace.participants();
        let valid: Vec<&Value> = participants.iter().map(|&p| &self.inputs[p]).collect();
        for (pid, v) in decided(res) {
            if !valid.contains(&v) {
                return Err(SpecViolation::InvalidDecision {
                    pid,
                    value: v.clone(),
                });
            }
        }
        let set = res.decision_set();
        if set.len() > self.l {
            return Err(SpecViolation::TooManyValues {
                allowed: self.l,
                got: set,
            });
        }
        Ok(())
    }
}

/// [`RunChecker`] for a claimed wait-freedom bound: every decided
/// process took at most `bound` steps (its decision step included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepBoundChecker {
    /// The claimed per-process step bound.
    pub bound: usize,
}

impl RunChecker for StepBoundChecker {
    fn name(&self) -> &'static str {
        "step_bound"
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        for (pid, &steps) in res.steps.iter().enumerate() {
            if res.decisions[pid].is_some() && steps > self.bound {
                return Err(SpecViolation::StepBoundExceeded {
                    pid,
                    steps,
                    bound: self.bound,
                });
            }
        }
        Ok(())
    }
}

/// [`RunChecker`] for wait-freedom under the paper's crash-fault
/// adversary: every **non-crashed** process must decide (crashed
/// processes owe nothing), and — when a bound is claimed — within
/// `bound` of its own steps. This is the run-level counterpart of
/// exploring with [`Explorer::faults`](crate::Explorer::faults) and
/// [`Explorer::step_bound`](crate::Explorer::step_bound): a protocol
/// is wait-free iff this checker accepts every run under every crash
/// plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitFreeChecker {
    /// The claimed per-process step bound; `None` only demands that
    /// every non-crashed process decides.
    pub bound: Option<usize>,
}

impl RunChecker for WaitFreeChecker {
    fn name(&self) -> &'static str {
        "wait_free"
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        for (pid, st) in res.statuses.iter().enumerate() {
            match st {
                ProcStatus::Running => return Err(SpecViolation::Undecided { pid }),
                ProcStatus::Crashed => {}
                ProcStatus::Decided(_) => {
                    if let Some(bound) = self.bound {
                        if res.steps[pid] > bound {
                            return Err(SpecViolation::StepBoundExceeded {
                                pid,
                                steps: res.steps[pid],
                                bound,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// An exploration-level [`TaskSpec`] *is* a run-level specification:
/// this impl maps each variant onto its checker ([`TaskSpec::None`]
/// accepts every run), letting code that holds an [`crate::Explorer`]
/// configuration judge concrete runs with it.
impl RunChecker for TaskSpec {
    fn name(&self) -> &'static str {
        match self {
            TaskSpec::Election => ElectionChecker.name(),
            TaskSpec::Consensus(_) => "consensus",
            TaskSpec::SetConsensus(..) => "set_consensus",
            TaskSpec::None => "none",
        }
    }

    fn check(&self, res: &RunResult) -> Result<(), SpecViolation> {
        match self {
            TaskSpec::Election => ElectionChecker.check(res),
            TaskSpec::Consensus(inputs) => ConsensusChecker {
                inputs: inputs.clone(),
            }
            .check(res),
            TaskSpec::SetConsensus(inputs, l) => SetConsensusChecker {
                inputs: inputs.clone(),
                l: *l,
            }
            .check(res),
            TaskSpec::None => Ok(()),
        }
    }
}

/// An ordered bundle of [`RunChecker`]s applied as one.
#[derive(Default)]
pub struct CheckerSet {
    checkers: Vec<Box<dyn RunChecker>>,
}

impl CheckerSet {
    /// An empty set (accepts every run).
    pub fn new() -> CheckerSet {
        CheckerSet::default()
    }

    /// Adds a checker, builder-style.
    #[must_use]
    pub fn with(mut self, checker: impl RunChecker + 'static) -> CheckerSet {
        self.checkers.push(Box::new(checker));
        self
    }

    /// Adds a checker in place.
    pub fn push(&mut self, checker: impl RunChecker + 'static) {
        self.checkers.push(Box::new(checker));
    }

    /// How many checkers the set holds.
    pub fn len(&self) -> usize {
        self.checkers.len()
    }

    /// Whether the set holds no checkers.
    pub fn is_empty(&self) -> bool {
        self.checkers.is_empty()
    }

    /// Runs every checker in order.
    ///
    /// # Errors
    ///
    /// The first failing checker's name and violation.
    pub fn check(&self, res: &RunResult) -> Result<(), (&'static str, SpecViolation)> {
        for c in &self.checkers {
            c.check(res).map_err(|v| (c.name(), v))?;
        }
        Ok(())
    }
}

/// Checks the leader-election specification (see [`ElectionChecker`]).
///
/// # Errors
///
/// The first violated clause, as a [`SpecViolation`].
pub fn check_election(res: &RunResult) -> Result<(), SpecViolation> {
    ElectionChecker.check(res)
}

/// Checks the consensus specification against the run's inputs (see
/// [`ConsensusChecker`]).
///
/// # Errors
///
/// The first violated clause, as a [`SpecViolation`].
pub fn check_consensus(res: &RunResult, inputs: &[Value]) -> Result<(), SpecViolation> {
    ConsensusChecker {
        inputs: inputs.to_vec(),
    }
    .check(res)
}

/// Checks the `l`-set-consensus specification (see
/// [`SetConsensusChecker`]).
///
/// # Errors
///
/// The first violated clause, as a [`SpecViolation`].
pub fn check_set_consensus(
    res: &RunResult,
    inputs: &[Value],
    l: usize,
) -> Result<(), SpecViolation> {
    SetConsensusChecker {
        inputs: inputs.to_vec(),
        l,
    }
    .check(res)
}

/// Checks a claimed wait-freedom bound (see [`StepBoundChecker`]).
///
/// # Errors
///
/// [`SpecViolation::StepBoundExceeded`] for the worst offender.
pub fn check_step_bound(res: &RunResult, bound: usize) -> Result<(), SpecViolation> {
    StepBoundChecker { bound }.check(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Trace};

    fn run_with(decisions: Vec<Option<Value>>, trace: Trace) -> RunResult {
        let statuses = decisions
            .iter()
            .map(|d| match d {
                Some(v) => ProcStatus::Decided(v.clone()),
                None => ProcStatus::Crashed,
            })
            .collect();
        let steps = decisions.iter().map(|_| 1).collect();
        RunResult {
            trace,
            decisions,
            statuses,
            steps,
        }
    }

    fn trace_of(pids: &[Pid]) -> Trace {
        let mut t = Trace::new();
        for &p in pids {
            t.push(p, EventKind::Decided(Value::Nil));
        }
        t
    }

    #[test]
    fn election_accepts_agreeing_participant() {
        let res = run_with(
            vec![Some(Value::Pid(1)), Some(Value::Pid(1))],
            trace_of(&[0, 1]),
        );
        assert!(check_election(&res).is_ok());
    }

    #[test]
    fn election_rejects_disagreement() {
        let res = run_with(
            vec![Some(Value::Pid(0)), Some(Value::Pid(1))],
            trace_of(&[0, 1]),
        );
        assert!(matches!(
            check_election(&res),
            Err(SpecViolation::Disagreement { .. })
        ));
    }

    #[test]
    fn election_rejects_non_participant_winner() {
        // Only p0 took steps, yet both decide p1.
        let res = run_with(vec![Some(Value::Pid(1)), None], trace_of(&[0]));
        assert!(matches!(
            check_election(&res),
            Err(SpecViolation::InvalidDecision { .. })
        ));
    }

    #[test]
    fn election_rejects_undecided_runner() {
        let mut res = run_with(vec![Some(Value::Pid(0)), None], trace_of(&[0, 1]));
        res.statuses[1] = ProcStatus::Running;
        assert_eq!(
            check_election(&res),
            Err(SpecViolation::Undecided { pid: 1 })
        );
    }

    #[test]
    fn consensus_validity_uses_participant_inputs() {
        let inputs = vec![Value::Int(3), Value::Int(7)];
        // p1 never stepped; deciding its input 7 is invalid.
        let res = run_with(vec![Some(Value::Int(7)), None], trace_of(&[0]));
        assert!(matches!(
            check_consensus(&res, &inputs),
            Err(SpecViolation::InvalidDecision { .. })
        ));
        let res = run_with(vec![Some(Value::Int(3)), None], trace_of(&[0]));
        assert!(check_consensus(&res, &inputs).is_ok());
    }

    #[test]
    fn set_consensus_counts_distinct_values() {
        let inputs = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let res = run_with(
            vec![
                Some(Value::Int(1)),
                Some(Value::Int(2)),
                Some(Value::Int(2)),
            ],
            trace_of(&[0, 1, 2]),
        );
        assert!(check_set_consensus(&res, &inputs, 2).is_ok());
        assert!(matches!(
            check_set_consensus(&res, &inputs, 1),
            Err(SpecViolation::TooManyValues { allowed: 1, .. })
        ));
    }

    #[test]
    fn step_bound_flags_offender() {
        let mut res = run_with(
            vec![Some(Value::Pid(0)), Some(Value::Pid(0))],
            trace_of(&[0, 1]),
        );
        res.steps = vec![3, 9];
        assert!(check_step_bound(&res, 9).is_ok());
        assert_eq!(
            check_step_bound(&res, 8),
            Err(SpecViolation::StepBoundExceeded {
                pid: 1,
                steps: 9,
                bound: 8
            })
        );
    }

    #[test]
    fn wait_free_checker_tolerates_crashes_but_not_stragglers() {
        // p0 decided in 3 steps, p1 crashed: wait-free.
        let mut res = run_with(vec![Some(Value::Pid(0)), None], trace_of(&[0, 1]));
        res.steps = vec![3, 1];
        assert!(WaitFreeChecker { bound: Some(3) }.check(&res).is_ok());
        assert!(WaitFreeChecker::default().check(&res).is_ok());
        // The decider exceeding the bound is flagged …
        assert_eq!(
            WaitFreeChecker { bound: Some(2) }.check(&res),
            Err(SpecViolation::StepBoundExceeded {
                pid: 0,
                steps: 3,
                bound: 2
            })
        );
        // … and so is a non-crashed process that never decides,
        // regardless of any bound.
        res.statuses[1] = ProcStatus::Running;
        assert_eq!(
            WaitFreeChecker::default().check(&res),
            Err(SpecViolation::Undecided { pid: 1 })
        );
        assert_eq!(WaitFreeChecker::default().name(), "wait_free");
    }

    #[test]
    fn task_spec_maps_onto_run_checkers() {
        let ok = run_with(
            vec![Some(Value::Pid(1)), Some(Value::Pid(1))],
            trace_of(&[0, 1]),
        );
        let bad = run_with(
            vec![Some(Value::Pid(0)), Some(Value::Pid(1))],
            trace_of(&[0, 1]),
        );
        assert_eq!(TaskSpec::Election.name(), "election");
        assert!(TaskSpec::Election.check(&ok).is_ok());
        assert!(TaskSpec::Election.check(&bad).is_err());
        // `None` accepts any run, even a disagreeing one.
        assert!(TaskSpec::None.check(&bad).is_ok());

        let inputs = vec![Value::Pid(0), Value::Pid(1)];
        let spec = TaskSpec::Consensus(inputs.clone());
        assert_eq!(spec.check(&ok), check_consensus(&ok, &inputs));
        assert_eq!(spec.check(&bad), check_consensus(&bad, &inputs));

        let spec = TaskSpec::SetConsensus(inputs.clone(), 1);
        assert_eq!(spec.check(&bad), check_set_consensus(&bad, &inputs, 1));
    }

    #[test]
    fn checker_set_reports_first_failure_by_name() {
        let mut res = run_with(
            vec![Some(Value::Pid(1)), Some(Value::Pid(1))],
            trace_of(&[0, 1]),
        );
        res.steps = vec![1, 5];
        let set = CheckerSet::new()
            .with(ElectionChecker)
            .with(StepBoundChecker { bound: 4 });
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        let (name, violation) = set.check(&res).unwrap_err();
        assert_eq!(name, "step_bound");
        assert!(matches!(violation, SpecViolation::StepBoundExceeded { .. }));

        res.steps = vec![1, 4];
        assert!(set.check(&res).is_ok());
        assert!(CheckerSet::new().is_empty());
    }

    #[test]
    fn struct_checkers_match_free_functions() {
        let inputs = vec![Value::Int(3), Value::Int(7)];
        let res = run_with(vec![Some(Value::Int(7)), None], trace_of(&[0]));
        assert_eq!(
            ConsensusChecker {
                inputs: inputs.clone()
            }
            .check(&res),
            check_consensus(&res, &inputs)
        );
        assert_eq!(
            SetConsensusChecker {
                inputs: inputs.clone(),
                l: 1
            }
            .check(&res),
            check_set_consensus(&res, &inputs, 1)
        );
        assert_eq!(ElectionChecker.name(), "election");
        assert_eq!(ConsensusChecker { inputs }.name(), "consensus");
    }
}
