use bso_combinatorics::perm::{factorial, nth_permutation};
use bso_objects::spec::ObjectState;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, Sym, Value};
use bso_sim::{Action, DecideHint, Footprint, Pid, Protocol, SharedMemory, SymmetricProtocol};

/// Leader election among `n ≤ k − 1` processes using a
/// `compare&swap-(k)` register **alone** — no read/write registers.
///
/// This is the regime of Burns, Cruz and Loui \[5\], who prove `k − 1`
/// is exactly the ceiling for a `k`-valued register used by itself (in
/// their write-once read-modify-write model). The construction is the
/// matching algorithm:
///
/// * process `p` owns the non-⊥ symbol `p` and performs a single
///   `c&s(⊥ → p)`;
/// * the operation's response is the register's previous value: ⊥
///   means `p`'s own swap succeeded and `p` is the leader; any other
///   value `v` is the *winner's* symbol, because the first successful
///   swap is the only one that ever changes the register (every
///   attempt expects ⊥, and ⊥ never returns).
///
/// One shared-memory operation per process; the domain affords only
/// `k − 1` distinct owner symbols, which is why the algorithm cannot
/// be stretched further — and why the jump to `(k−1)!` processes in
/// [`crate::LabelElection`] needs the read/write registers.
///
/// # Example
///
/// ```
/// use bso_protocols::CasOnlyElection;
/// use bso_sim::{checker, scheduler::RoundRobin, ProtocolExt, Simulation};
///
/// let proto = CasOnlyElection::new(3, 4).unwrap(); // 3 ≤ 4 − 1
/// let mut sim = Simulation::new(&proto, &proto.pid_inputs());
/// let res = sim.run(&mut RoundRobin::new(), 100).unwrap();
/// checker::check_election(&res).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct CasOnlyElection {
    n: usize,
    k: usize,
}

impl CasOnlyElection {
    /// Configures an election among `n` processes with a
    /// `compare&swap-(k)`.
    ///
    /// # Errors
    ///
    /// Returns the Burns–Cruz–Loui ceiling as an error message when
    /// `n > k − 1` (or `k < 2`): this protocol *cannot* host more
    /// processes because it has no spare symbols.
    pub fn new(n: usize, k: usize) -> Result<CasOnlyElection, String> {
        if k < 2 {
            return Err(format!("compare&swap-(k) needs k >= 2, got {k}"));
        }
        if n == 0 || n > k - 1 {
            return Err(format!(
                "a compare&swap-({k}) alone elects at most {} processes, got {n}",
                k - 1
            ));
        }
        Ok(CasOnlyElection { n, k })
    }

    /// The register's domain size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    const CAS: ObjectId = ObjectId(0);
}

/// Local state: about to swap, or done.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CasOnlyState {
    /// About to perform `c&s(⊥ → own symbol)`.
    Grab {
        /// This process's id (and owned symbol).
        pid: Pid,
    },
    /// Learned the winner.
    Done {
        /// The elected process.
        winner: Pid,
    },
}

impl Protocol for CasOnlyElection {
    type State = CasOnlyState;

    fn processes(&self) -> usize {
        self.n
    }

    fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.push(ObjectInit::CasK { k: self.k });
        l
    }

    fn init(&self, pid: Pid, _input: &Value) -> CasOnlyState {
        CasOnlyState::Grab { pid }
    }

    fn next_action(&self, state: &CasOnlyState) -> Action {
        match state {
            CasOnlyState::Grab { pid } => Action::Invoke(Op::cas(
                Self::CAS,
                Sym::BOTTOM.into(),
                Sym::new(*pid as u8).into(),
            )),
            CasOnlyState::Done { winner } => Action::Decide(Value::Pid(*winner)),
        }
    }

    fn on_response(&self, state: &mut CasOnlyState, resp: Value) {
        if let CasOnlyState::Grab { pid } = *state {
            let prev = resp.as_sym().expect("compare&swap returns a symbol");
            let winner = match prev.value() {
                None => pid, // register held ⊥: our swap succeeded
                Some(sym) => sym as Pid,
            };
            *state = CasOnlyState::Done { winner };
        }
    }

    /// The winner is sealed by the first successful swap: once the
    /// register holds a non-⊥ symbol every pending `c&s(⊥ → ·)` is a
    /// read-only failure and every future decision equals that symbol.
    /// Exposing this lets the explorer's partial-order reduction
    /// collapse the `(n−1)!` orderings of the losers.
    fn footprint(&self, state: &CasOnlyState, mem: &SharedMemory) -> Footprint {
        match state {
            CasOnlyState::Grab { .. } => match mem.object(Self::CAS) {
                Some(ObjectState::CasK { val, .. }) if val.value().is_some() => Footprint::empty()
                    .read(Self::CAS)
                    .decide(DecideHint::Exactly(Value::Pid(val.value().unwrap() as Pid))),
                _ => Footprint::empty()
                    .read(Self::CAS)
                    .write(Self::CAS)
                    .decide(DecideHint::Unknown),
            },
            CasOnlyState::Done { winner } => {
                Footprint::empty().decide(DecideHint::Exactly(Value::Pid(*winner)))
            }
        }
    }
}

/// The protocol is fully symmetric: process `p`'s only pid-dependent
/// behaviour is owning symbol `p`, so relabelling the processes by any
/// permutation — provided the owned symbols are relabelled in lockstep
/// — maps runs to runs. The symmetry group is all of `Sₙ`, collapsing
/// the explorer's state space by up to `n!`.
impl SymmetricProtocol for CasOnlyElection {
    fn symmetry_group(&self) -> Vec<Vec<Pid>> {
        // The explorer compares each successor with all n! − 1
        // renamings of it, while the unreduced graph has only
        // 1 + 2n·3^(n−1) states. At n = 8 (40,319 renamings per
        // successor) a symmetric run of 73 states measured 17–22× the
        // time of the unreduced fingerprint run of 34,993 (n = 7: ~3×,
        // n = 6: ~1.2×; 2-vCPU x86-64 Xeon), so past n = 7 no group
        // is declared.
        if self.n > 7 {
            return Vec::new();
        }
        // Rank 0 is the identity, which is implied.
        (1..factorial(self.n))
            .map(|rank| {
                nth_permutation(rank, self.n)
                    .into_iter()
                    .map(usize::from)
                    .collect()
            })
            .collect()
    }

    fn permute_state(&self, perm: &[Pid], state: &CasOnlyState) -> CasOnlyState {
        match state {
            CasOnlyState::Grab { pid } => CasOnlyState::Grab { pid: perm[*pid] },
            CasOnlyState::Done { winner } => CasOnlyState::Done {
                winner: perm[*winner],
            },
        }
    }

    fn permute_value(&self, perm: &[Pid], v: &Value) -> Value {
        match v {
            Value::Pid(p) if *p < perm.len() => Value::Pid(perm[*p]),
            // Symbol `p` is owned by process `p` and moves with it;
            // ⊥ and out-of-range symbols are fixed.
            Value::Sym(s) => match s.value() {
                Some(code) if (code as usize) < perm.len() => {
                    Value::Sym(Sym::new(perm[code as usize] as u8))
                }
                _ => v.clone(),
            },
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso_sim::{checker, scheduler, Explorer, ProtocolExt, Simulation};
    use bso_sim::{ExploreOutcome, TaskSpec};

    #[test]
    fn construction_enforces_burns_ceiling() {
        assert!(CasOnlyElection::new(2, 3).is_ok());
        let err = CasOnlyElection::new(3, 3).unwrap_err();
        assert!(err.contains("at most 2"), "{err}");
        assert!(CasOnlyElection::new(0, 3).is_err());
        assert!(CasOnlyElection::new(1, 1).is_err());
    }

    #[test]
    fn exhaustively_correct_at_the_ceiling() {
        // Every n ≤ k−1 for k = 3..6, all schedules.
        for k in 3..=6 {
            let proto = CasOnlyElection::new(k - 1, k).unwrap();
            let report = Explorer::new(&proto)
                .inputs(&proto.pid_inputs())
                .spec(TaskSpec::Election)
                .run();
            assert!(report.outcome.is_verified(), "k={k}: {:?}", report.outcome);
            // One c&s + one decide per process: exactly 2 steps.
            assert!(report.max_steps_per_proc.iter().all(|&s| s == 2));
        }
    }

    #[test]
    fn parallel_exploration_agrees_with_serial_at_the_ceiling() {
        for k in 3..=6 {
            let proto = CasOnlyElection::new(k - 1, k).unwrap();
            let base = Explorer::new(&proto)
                .inputs(&proto.pid_inputs())
                .spec(TaskSpec::Election);
            let serial = base.clone().run();
            let parallel = base.parallel(true).workers(4).run();
            assert!(serial.outcome.is_verified());
            assert!(
                parallel.outcome.is_verified(),
                "k={k}: {:?}",
                parallel.outcome
            );
            assert_eq!(serial.states, parallel.states, "k={k}");
            assert_eq!(serial.max_steps_per_proc, parallel.max_steps_per_proc);
        }
    }

    #[test]
    fn symmetry_reduction_turns_exhaustion_into_verification() {
        // The k = 6 ceiling instance: 5 processes, 5! = 120 relabellings
        // per orbit. A state budget the plain explorer exhausts is
        // ample once orbits collapse to representatives.
        let proto = CasOnlyElection::new(5, 6).unwrap();
        let inputs = proto.pid_inputs();
        let base = Explorer::new(&proto)
            .inputs(&inputs)
            .spec(TaskSpec::Election);
        let plain = base.clone().run();
        let sym = base.clone().symmetric(true).run();
        assert!(plain.outcome.is_verified() && sym.outcome.is_verified());
        assert_eq!(plain.max_steps_per_proc, sym.max_steps_per_proc);
        assert!(
            sym.states * 10 < plain.states,
            "orbits should collapse: {} vs {}",
            sym.states,
            plain.states
        );
        let tight = base.max_states(sym.states);
        assert!(
            matches!(
                tight.clone().run().outcome,
                ExploreOutcome::Exhausted { .. }
            ),
            "the plain explorer must exhaust a {}-state budget",
            sym.states
        );
        assert!(
            tight.symmetric(true).run().outcome.is_verified(),
            "the same budget must suffice under symmetry reduction"
        );
    }

    #[test]
    fn footprint_tracks_the_sealed_winner() {
        let proto = CasOnlyElection::new(3, 4).unwrap();
        let mut sim = Simulation::new(&proto, &proto.pid_inputs());
        // Before anyone swaps: a pending c&s may mutate and the
        // decision is open.
        let st = CasOnlyState::Grab { pid: 1 };
        let fp = proto.footprint(&st, sim.memory());
        assert_eq!(
            fp,
            Footprint::empty()
                .read(CasOnlyElection::CAS)
                .write(CasOnlyElection::CAS)
                .decide(DecideHint::Unknown)
        );
        // Run to completion: the register is sealed, so a (stale)
        // grabber is read-only and its decision pinned to the winner.
        let res = sim.run(&mut scheduler::RoundRobin::new(), 100).unwrap();
        let winner = res.decisions[0].as_ref().unwrap().clone();
        let fp = proto.footprint(&st, sim.memory());
        assert_eq!(
            fp,
            Footprint::empty()
                .read(CasOnlyElection::CAS)
                .decide(DecideHint::Exactly(winner.clone()))
        );
        // A decided process touches nothing and decides exactly once.
        let done = CasOnlyState::Done {
            winner: winner.as_pid().unwrap(),
        };
        let fp = proto.footprint(&done, sim.memory());
        assert_eq!(fp, Footprint::empty().decide(DecideHint::Exactly(winner)));
    }

    #[test]
    fn dpor_prunes_commuting_loser_orders() {
        // Once the winner is sealed, the explorer should not enumerate
        // the orderings of the losers' failed swaps — DPOR collapses
        // the state count from Θ(3ⁿ) to Θ(n²).
        for k in 4..=6 {
            let proto = CasOnlyElection::new(k - 1, k).unwrap();
            let base = Explorer::new(&proto)
                .inputs(&proto.pid_inputs())
                .spec(TaskSpec::Election);
            let plain = base.clone().run();
            let dpor = base.dpor(true).run();
            assert!(plain.outcome.is_verified());
            assert!(dpor.outcome.is_verified(), "k={k}: {:?}", dpor.outcome);
            assert!(
                dpor.states < plain.states,
                "k={k}: dpor {} vs plain {}",
                dpor.states,
                plain.states
            );
            if k >= 6 {
                assert!(
                    dpor.states * 10 < plain.states,
                    "k={k}: expected ≥10x cut, got {} vs {}",
                    dpor.states,
                    plain.states
                );
            }
        }
    }

    #[test]
    fn dpor_verifies_beyond_plain_frontier() {
        // The k = 9 instance: 8 processes, 3⁸-ish reachable states in
        // the plain graph. A budget the plain explorer exhausts is
        // ample once commuting loser orders are pruned.
        let proto = CasOnlyElection::new(8, 9).unwrap();
        let base = Explorer::new(&proto)
            .inputs(&proto.pid_inputs())
            .spec(TaskSpec::Election)
            .max_states(500);
        assert!(
            matches!(base.clone().run().outcome, ExploreOutcome::Exhausted { .. }),
            "the plain explorer must exhaust a 500-state budget"
        );
        let dpor = base.dpor(true).run();
        assert!(
            dpor.outcome.is_verified(),
            "the same budget must suffice under DPOR: {:?}",
            dpor.outcome
        );
    }

    #[test]
    fn solo_runner_elects_itself() {
        let proto = CasOnlyElection::new(3, 4).unwrap();
        let mut sim = Simulation::new(&proto, &proto.pid_inputs());
        // Only process 2 runs (others crash immediately).
        let plan = bso_sim::CrashPlan::none().crash(0, 0).crash(1, 0);
        let mut sim2 = sim.clone().with_crash_plan(plan);
        let res = sim2.run(&mut scheduler::RoundRobin::new(), 100).unwrap();
        assert_eq!(res.decisions[2], Some(Value::Pid(2)));
        // And a full run is still a correct election.
        let res = sim.run(&mut scheduler::RandomSched::new(1), 100).unwrap();
        checker::check_election(&res).unwrap();
    }

    #[test]
    fn register_value_never_changes_after_first_success() {
        let proto = CasOnlyElection::new(4, 5).unwrap();
        for seed in 0..50 {
            let mut sim = Simulation::new(&proto, &proto.pid_inputs());
            let res = sim
                .run(&mut scheduler::RandomSched::new(seed), 100)
                .unwrap();
            checker::check_election(&res).unwrap();
            let winner = res.decisions[0].as_ref().unwrap().as_pid().unwrap();
            // The register ends holding the winner's symbol.
            let mem = sim.memory();
            match mem.object(CasOnlyElection::CAS).unwrap() {
                bso_objects::spec::ObjectState::CasK { val, .. } => {
                    assert_eq!(val.value(), Some(winner as u8));
                }
                other => panic!("unexpected object {other:?}"),
            }
        }
    }
}
