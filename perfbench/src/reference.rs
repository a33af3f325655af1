//! Answers computed apart from the program under test, which every
//! workload checks the program's outputs against:
//!
//! - the closed form of the unreduced `CasOnlyElection(n, n+1)` graph;
//! - an independent depth-first search over the public [`Protocol`]
//!   trait (full-state memo, no fingerprints, no reductions), after
//!   the seed explorer that `crates/bench/benches/explore.rs` keeps as
//!   `seed_baseline`, extended with the crash adversary;
//! - a sequential model of the served objects: register, fetch&add
//!   and compare&swap-(k).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use bso_objects::{Op, OpKind, Sym, Value};
use bso_sim::{Action, Pid, Protocol, SharedMemory};

/// Distinct states of the unreduced `CasOnlyElection(n, n+1)` graph:
/// `1 + 2n·3^(n−1)`. Each process is in one of three local phases
/// (about to swap, swapped but undecided, decided); the register holds
/// ⊥ until the first swap, so a state is the winner (or none) and the
/// phase of everyone else.
pub fn cas_only_states(n: u32) -> u128 {
    1 + 2 * u128::from(n) * 3u128.pow(n - 1)
}

/// Terminal states of the same graph: one per possible winner.
pub fn cas_only_terminals(n: u32) -> usize {
    n as usize
}

/// States the explorer's DPOR visits on `CasOnlyElection(n, n+1)`:
/// `2n² + 1`, the known count of its persistent-set reduction on this
/// instance (a test below ties it to the explorer for n ≤ 12). A
/// stronger reduction may visit fewer; none may visit more.
pub fn cas_only_dpor_states(n: u32) -> u128 {
    2 * u128::from(n) * u128::from(n) + 1
}

/// Steps each process takes on every schedule: one swap, one decide.
pub const CAS_ONLY_STEPS_PER_PROC: usize = 2;

/// What the reference search found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsCounts {
    /// Distinct reachable states.
    pub states: usize,
    /// Distinct states in which no process can step.
    pub terminals: usize,
    /// Per process, the most steps it takes on any schedule.
    pub max_steps: Vec<usize>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Node<S> {
    mem: SharedMemory,
    locals: Vec<S>,
    decisions: Vec<Option<Value>>,
    /// Processes that have taken at least one step.
    stepped: u64,
    /// Processes the adversary has crashed.
    crashed: u64,
}

struct Search<'p, P: Protocol> {
    proto: &'p P,
    faults: usize,
    memo: HashMap<Node<P::State>, Vec<usize>>,
    gray: HashSet<Node<P::State>>,
    terminals: usize,
}

impl<P: Protocol> Search<'_, P>
where
    P::State: Hash + Eq,
{
    fn step(&self, node: &Node<P::State>, pid: Pid) -> Node<P::State> {
        let mut next = node.clone();
        next.stepped |= 1 << pid;
        match self.proto.next_action(&next.locals[pid]) {
            Action::Invoke(op) => {
                let resp = next
                    .mem
                    .apply(pid, &op)
                    .expect("reference instances make legal ops");
                self.proto.on_response(&mut next.locals[pid], resp);
            }
            Action::Decide(v) => {
                let participant = v.as_pid().is_some_and(|w| next.stepped >> w & 1 == 1);
                let agrees = next.decisions.iter().flatten().all(|w| *w == v);
                assert!(
                    participant && agrees,
                    "reference search: p{pid} decides {v:?}, breaking the election spec"
                );
                next.decisions[pid] = Some(v);
            }
        }
        next
    }

    fn dfs(&mut self, node: Node<P::State>) -> Vec<usize> {
        if let Some(hit) = self.memo.get(&node) {
            return hit.clone();
        }
        assert!(
            !self.gray.contains(&node),
            "reference search: cycle, not wait-free"
        );
        let n = node.decisions.len();
        let enabled: Vec<Pid> = (0..n)
            .filter(|&p| node.decisions[p].is_none() && node.crashed >> p & 1 == 0)
            .collect();
        let mut best = vec![0; n];
        if enabled.is_empty() {
            self.terminals += 1;
            self.memo.insert(node, best.clone());
            return best;
        }
        self.gray.insert(node.clone());
        let may_crash = (node.crashed.count_ones() as usize) < self.faults.min(n - 1);
        for &pid in &enabled {
            let next = self.step(&node, pid);
            for (p, r) in self.dfs(next).iter().enumerate() {
                best[p] = best[p].max(r + usize::from(p == pid));
            }
            if may_crash {
                let mut crashed = node.clone();
                crashed.crashed |= 1 << pid;
                for (p, r) in self.dfs(crashed).iter().enumerate() {
                    best[p] = best[p].max(*r);
                }
            }
        }
        self.gray.remove(&node);
        self.memo.insert(node, best.clone());
        best
    }
}

/// Explores every interleaving of an election protocol, with up to
/// `faults` crashes anywhere, and counts what it reaches.
///
/// # Panics
///
/// If any reachable decision breaks the election specification or the
/// state graph has a cycle: the reference instances are verified.
pub fn dfs<P: Protocol>(proto: &P, inputs: &[Value], faults: usize) -> DfsCounts
where
    P::State: Hash + Eq,
{
    let n = proto.processes();
    let root = Node {
        mem: SharedMemory::new(&proto.layout()),
        locals: inputs
            .iter()
            .enumerate()
            .map(|(p, v)| proto.init(p, v))
            .collect(),
        decisions: vec![None; n],
        stepped: 0,
        crashed: 0,
    };
    let mut search = Search {
        proto,
        faults,
        memo: HashMap::new(),
        gray: HashSet::new(),
        terminals: 0,
    };
    let max_steps = search.dfs(root);
    DfsCounts {
        states: search.memo.len(),
        terminals: search.terminals,
        max_steps,
    }
}

/// One served object, kept by the sequential model.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelObject {
    /// A read/write register.
    Register(Value),
    /// A fetch&add counter (wrapping, as the served object).
    Counter(i64),
    /// A compare&swap-(k): ⊥ or one of the symbols `0..k−1`.
    CasK { val: Sym, k: usize },
}

/// The served objects applied one operation at a time, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    pub objects: Vec<ModelObject>,
}

impl Model {
    /// The answer the object would give to `op` applied now, and the
    /// object's new state.
    ///
    /// # Panics
    ///
    /// On an operation the object does not support or a symbol outside
    /// its domain: the workloads only issue legal operations.
    pub fn apply(&mut self, op: &Op) -> Value {
        let obj = &mut self.objects[op.obj.0];
        match (obj, &op.kind) {
            (ModelObject::Register(v), OpKind::Read) => v.clone(),
            (ModelObject::Register(v), OpKind::Write(new)) => {
                *v = new.clone();
                Value::Nil
            }
            (ModelObject::Counter(c), OpKind::Read) => Value::Int(*c),
            (ModelObject::Counter(c), OpKind::FetchAdd(d)) => {
                let prev = *c;
                *c = c.wrapping_add(*d);
                Value::Int(prev)
            }
            (ModelObject::CasK { val, .. }, OpKind::Read) => Value::Sym(*val),
            (ModelObject::CasK { val, k }, OpKind::Cas { expect, new }) => {
                let (Value::Sym(e), Value::Sym(n)) = (expect, new) else {
                    panic!("model: compare&swap-({k}) takes symbols, got {op}");
                };
                assert!(
                    e.in_domain(*k) && n.in_domain(*k),
                    "model: {op} leaves the domain of {k}"
                );
                let prev = *val;
                if prev == *e {
                    *val = *n;
                }
                Value::Sym(prev)
            }
            (obj, _) => panic!("model: {op} is not an operation of {obj:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso_objects::ObjectId;
    use bso_protocols::{CasOnlyElection, LabelElection};
    use bso_sim::{Explorer, ProtocolExt, TaskSpec};

    #[test]
    fn dfs_matches_the_closed_form() {
        for n in 1..=6u32 {
            let proto = CasOnlyElection::new(n as usize, n as usize + 1).unwrap();
            let got = dfs(&proto, &proto.pid_inputs(), 0);
            assert_eq!(got.states as u128, cas_only_states(n), "n = {n}");
            assert_eq!(got.terminals, cas_only_terminals(n), "n = {n}");
            assert_eq!(got.max_steps, vec![CAS_ONLY_STEPS_PER_PROC; n as usize]);
        }
    }

    #[test]
    fn dpor_visits_the_known_count() {
        for n in 1..=12u32 {
            let proto = CasOnlyElection::new(n as usize, n as usize + 1).unwrap();
            let r = Explorer::new(&proto)
                .inputs(&proto.pid_inputs())
                .spec(TaskSpec::Election)
                .dpor(true)
                .run();
            assert!(r.outcome.is_verified(), "n = {n}");
            assert_eq!(r.states as u128, cas_only_dpor_states(n), "n = {n}");
            assert_eq!(r.terminals, cas_only_terminals(n), "n = {n}");
        }
    }

    #[test]
    fn closed_form_first_values() {
        // 1 + 2·1·1, 1 + 2·2·3, 1 + 2·3·9, 1 + 2·4·27.
        let got: Vec<u128> = (1..=4).map(cas_only_states).collect();
        assert_eq!(got, vec![3, 13, 55, 217]);
    }

    #[test]
    fn crash_adversary_only_adds_states() {
        let proto = CasOnlyElection::new(3, 4).unwrap();
        let clean = dfs(&proto, &proto.pid_inputs(), 0);
        let crashy = dfs(&proto, &proto.pid_inputs(), 1);
        assert!(crashy.states > clean.states);
        assert!(crashy.terminals > clean.terminals);
        // A crash takes no step: nobody steps more than without one.
        assert_eq!(crashy.max_steps, clean.max_steps);
    }

    #[test]
    fn label_election_is_searched_to_the_end() {
        let proto = LabelElection::new(2, 3).unwrap();
        let got = dfs(&proto, &proto.pid_inputs(), 0);
        assert!(got.states > 1 && got.terminals >= 1);
    }

    fn model() -> Model {
        Model {
            objects: vec![
                ModelObject::CasK {
                    val: Sym::BOTTOM,
                    k: 4,
                },
                ModelObject::Counter(0),
                ModelObject::Register(Value::Nil),
            ],
        }
    }

    #[test]
    fn cas_k_by_hand() {
        let mut m = model();
        let cas = |e: Sym, n: Sym| Op::cas(ObjectId(0), Value::Sym(e), Value::Sym(n));
        let (bot, one, two) = (Sym::BOTTOM, Sym::new(1), Sym::new(2));
        assert_eq!(m.apply(&cas(bot, one)), Value::Sym(bot)); // swaps in 1
        assert_eq!(m.apply(&cas(bot, two)), Value::Sym(one)); // fails, sees 1
        assert_eq!(m.apply(&Op::read(ObjectId(0))), Value::Sym(one));
        assert_eq!(m.apply(&cas(one, bot)), Value::Sym(one)); // back to ⊥
        assert_eq!(m.apply(&Op::read(ObjectId(0))), Value::Sym(bot));
    }

    #[test]
    fn fetch_add_by_hand() {
        let mut m = model();
        let fa = |d| Op::new(ObjectId(1), OpKind::FetchAdd(d));
        assert_eq!(m.apply(&fa(1)), Value::Int(0));
        assert_eq!(m.apply(&fa(1)), Value::Int(1));
        assert_eq!(m.apply(&fa(-5)), Value::Int(2));
        assert_eq!(m.apply(&Op::read(ObjectId(1))), Value::Int(-3));
    }

    #[test]
    fn register_by_hand() {
        let mut m = model();
        assert_eq!(m.apply(&Op::read(ObjectId(2))), Value::Nil);
        assert_eq!(m.apply(&Op::write(ObjectId(2), Value::Int(5))), Value::Nil);
        assert_eq!(m.apply(&Op::write(ObjectId(2), Value::Int(9))), Value::Nil);
        assert_eq!(m.apply(&Op::read(ObjectId(2))), Value::Int(9));
    }

    #[test]
    #[should_panic(expected = "not an operation")]
    fn model_refuses_a_foreign_op() {
        model().apply(&Op::new(ObjectId(2), OpKind::FetchAdd(1)));
    }
}
