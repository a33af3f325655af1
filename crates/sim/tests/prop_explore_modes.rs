//! Property: the fingerprint-keyed explorer never reports `Verified`
//! on an instance the exact-keyed explorer refutes.
//!
//! A 64-bit fingerprint collision can silently merge two distinct
//! states and thereby *lose* part of the state space — the documented
//! failure mode is a wrong `Verified`, never a fabricated
//! counterexample. This suite drives both key modes (serial and
//! parallel) over seeded random finite protocols and checks the
//! contract, and additionally replays every counterexample the
//! fingerprint mode produces to confirm it is genuine.
//!
//! Written as seeded loops over [`SplitMix64`] (the workspace carries
//! no external property-testing crate): every case is reproducible
//! from its seed, and failure messages report the case index.

use bso_objects::rng::SplitMix64;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Value};
use bso_sim::{
    Action, DedupMode, ExploreOutcome, Explorer, Pid, Protocol, Simulation, TaskSpec, ViolationKind,
};

/// One straight-line-with-loop-backs instruction of a random program.
#[derive(Clone, Debug)]
struct Step {
    op: Op,
    /// `Some((trigger, target))`: when the response equals `trigger`,
    /// jump back to instruction `target` instead of advancing — the
    /// source of both bounded retries and genuine livelocks.
    jump: Option<(Value, usize)>,
}

/// A randomly generated finite protocol: each process runs a short
/// program of register/test&set operations and then decides a fixed
/// value. Registers hold values from a 3-element pool, so the state
/// space is small and exactly explorable.
#[derive(Clone, Debug)]
struct RandomProtocol {
    n: usize,
    program: Vec<Vec<Step>>,
    decide: Vec<Value>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum St {
    At { pid: Pid, pc: usize },
    Done { pid: Pid },
}

impl Protocol for RandomProtocol {
    type State = St;

    fn processes(&self) -> usize {
        self.n
    }

    fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.push_n(ObjectInit::Register(Value::Nil), 2);
        l.push(ObjectInit::TestAndSet);
        l
    }

    fn init(&self, pid: Pid, _input: &Value) -> St {
        if self.program[pid].is_empty() {
            St::Done { pid }
        } else {
            St::At { pid, pc: 0 }
        }
    }

    fn next_action(&self, st: &St) -> Action {
        match st {
            St::At { pid, pc } => Action::Invoke(self.program[*pid][*pc].op.clone()),
            St::Done { pid } => Action::Decide(self.decide[*pid].clone()),
        }
    }

    fn on_response(&self, st: &mut St, resp: Value) {
        if let St::At { pid, pc } = *st {
            let step = &self.program[pid][pc];
            let next = match &step.jump {
                Some((trigger, target)) if resp == *trigger => *target,
                _ => pc + 1,
            };
            *st = if next >= self.program[pid].len() {
                St::Done { pid }
            } else {
                St::At { pid, pc: next }
            };
        }
    }
}

/// Draws a random protocol instance. Decisions are deliberately
/// sometimes invalid (a constant no one proposed) or disagreeing, and
/// loop-backs sometimes spin forever, so the sample contains plenty of
/// violations of every kind alongside correct instances.
fn arb_protocol(rng: &mut SplitMix64, inputs: &[Value]) -> RandomProtocol {
    let n = inputs.len();
    let program = (0..n)
        .map(|_| {
            (0..rng.range_usize(1, 4))
                .map(|pc| {
                    let op = match rng.usize_below(3) {
                        0 => Op::write(
                            ObjectId(rng.usize_below(2)),
                            Value::Int(rng.usize_below(3) as i64),
                        ),
                        1 => Op::read(ObjectId(rng.usize_below(2))),
                        _ => Op::new(ObjectId(2), OpKind::TestAndSet),
                    };
                    let jump = (rng.usize_below(4) == 0).then(|| {
                        let trigger = match rng.usize_below(3) {
                            0 => Value::Nil,
                            1 => Value::Int(rng.usize_below(3) as i64),
                            _ => Value::Bool(rng.bool()),
                        };
                        (trigger, rng.usize_below(pc + 1))
                    });
                    Step { op, jump }
                })
                .collect()
        })
        .collect();
    let decide = (0..n)
        .map(|p| match rng.usize_below(4) {
            0 => Value::Int(99), // no one's input: a validity violation
            1 => inputs[rng.usize_below(n)].clone(),
            _ => inputs[p].clone(),
        })
        .collect();
    RandomProtocol { n, program, decide }
}

fn kind_of(outcome: &ExploreOutcome) -> Option<&ViolationKind> {
    outcome.violation().map(|v| &v.kind)
}

#[test]
fn fingerprint_mode_never_verifies_what_exact_mode_refutes() {
    let mut rng = SplitMix64::new(0x5EED_CA5E);
    let mut violated = 0usize;
    let mut verified = 0usize;
    for case in 0..80 {
        let n = rng.range_usize(2, 4);
        // A 2-value input pool: distinct inputs make every random
        // candidate refutable (deciding a peer's input is invalidated
        // by scheduling that peer last), while coinciding inputs let
        // some candidates genuinely verify — both sides get exercised.
        let inputs: Vec<Value> = (0..n)
            .map(|_| Value::Int(10 + rng.usize_below(2) as i64))
            .collect();
        let proto = arb_protocol(&mut rng, &inputs);
        let base = Explorer::new(&proto)
            .inputs(&inputs)
            .spec(TaskSpec::Consensus(inputs.clone()));
        let exact = base.clone().run();
        let serial = base.clone().dedup(DedupMode::Fingerprint).run();
        let parallel = base
            .clone()
            .dedup(DedupMode::Fingerprint)
            .parallel(true)
            .workers(3)
            .run();
        // The serial fingerprint run explores in the exact run's order,
        // so (collisions aside: probability ≈ states²/2⁶⁵ at these
        // counts) it reports the same verdict. With several workers
        // the choice among counterexamples depends on timing
        // (`Explorer::parallel`), so the parallel run must only refute
        // exactly when the exact run does.
        assert_eq!(
            kind_of(&exact.outcome),
            kind_of(&serial.outcome),
            "case {case}: verdicts diverged: {proto:?}"
        );
        assert_eq!(
            exact.outcome.violation().is_some(),
            parallel.outcome.violation().is_some(),
            "case {case}: parallel refutation diverged: {proto:?}"
        );
        for fp in [&serial, &parallel] {
            // The central contract: a violation found by the exact
            // explorer is never papered over as `Verified` by the
            // fingerprint explorer.
            if exact.outcome.violation().is_some() {
                assert!(
                    !fp.outcome.is_verified(),
                    "case {case}: exact refuted but fingerprint verified: {proto:?}"
                );
            }
            // Fingerprint counterexamples must be genuine: replay the
            // exact schedule (step by step — the run may livelock if
            // continued past it) and confirm the decisions made along
            // it already break the reported property.
            if let Some(v) = fp.outcome.violation() {
                if v.kind == ViolationKind::NotWaitFree {
                    continue; // cycles don't replay to a violated terminal
                }
                let mut sim = Simulation::new(&proto, &inputs);
                for &p in &v.schedule {
                    sim.step(p).unwrap();
                }
                let res = sim.result();
                let participants = res.trace.participants();
                let valid: Vec<&Value> = participants.iter().map(|&p| &inputs[p]).collect();
                let decided: Vec<&Value> = res.decisions.iter().flatten().collect();
                let broken = match v.kind {
                    ViolationKind::Agreement => decided.iter().any(|d| **d != *decided[0]),
                    ViolationKind::Validity => decided.iter().any(|d| !valid.contains(d)),
                    _ => false,
                };
                assert!(
                    broken,
                    "case {case}: fingerprint {:?} counterexample did not replay: {proto:?}",
                    v.kind
                );
            }
        }
        match &exact.outcome {
            ExploreOutcome::Violated(_) => violated += 1,
            ExploreOutcome::Verified => verified += 1,
            ExploreOutcome::Exhausted { .. } | ExploreOutcome::Interrupted { .. } => {}
        }
    }
    // The sample must genuinely exercise both sides of the property.
    assert!(
        violated >= 10,
        "only {violated} refuted cases — weak sample"
    );
    assert!(
        verified >= 5,
        "only {verified} verified cases — weak sample"
    );
}

#[test]
fn exact_and_fingerprint_agree_on_state_counts_when_verified() {
    // On verified instances the fingerprint table must (collisions
    // aside, see above) count exactly the states the exact table does:
    // the key representation changes, the graph does not.
    let mut rng = SplitMix64::new(0xF17E_C0DE);
    let mut verified = 0usize;
    for case in 0..60 {
        let n = rng.range_usize(2, 4);
        let inputs: Vec<Value> = (0..n)
            .map(|_| Value::Int(10 + rng.usize_below(2) as i64))
            .collect();
        let proto = arb_protocol(&mut rng, &inputs);
        let base = Explorer::new(&proto)
            .inputs(&inputs)
            .spec(TaskSpec::Consensus(inputs.clone()));
        let exact = base.clone().run();
        if !exact.outcome.is_verified() {
            continue;
        }
        let fp = base.dedup(DedupMode::Fingerprint).run();
        assert!(fp.outcome.is_verified(), "case {case}: {proto:?}");
        assert_eq!(exact.states, fp.states, "case {case}: {proto:?}");
        assert_eq!(exact.terminals, fp.terminals, "case {case}: {proto:?}");
        assert_eq!(
            exact.max_steps_per_proc, fp.max_steps_per_proc,
            "case {case}: {proto:?}"
        );
        verified += 1;
    }
    assert!(
        verified >= 5,
        "only {verified} verified cases — weak sample"
    );
}
