//! Process-symmetry reduction for the exhaustive explorer.
//!
//! Many protocols treat process identities generically: renaming the
//! processes by a permutation π (and renaming every pid-derived datum —
//! decisions, announced names, owned symbols — consistently) maps legal
//! runs to legal runs. The explorer then only needs to visit one
//! representative per *orbit* of global states under the protocol's
//! symmetry group: up to `n!` states collapse into one.
//!
//! A protocol opts in by implementing [`SymmetricProtocol`], declaring
//! its group of pid permutations and how a permutation acts on local
//! states and values. The engine handles the global-state action
//! itself (reindexing the per-process vectors, the `stepped` bitmap,
//! and the shared memory — including per-process snapshot slots).
//!
//! **Soundness contract.** For every declared permutation π the
//! protocol must be *equivariant*: stepping process `p` from state `s`
//! and then applying π must give the same global state as applying π
//! first and then stepping `π(p)`. This holds exactly when
//! `next_action`/`on_response` commute with the renaming, which the
//! implementor must ensure (the engine validates the cheap algebraic
//! prerequisites: each element is a permutation, the set is closed
//! under composition, and the exploration inputs are fixed by the
//! renaming). Counterexample schedules remain genuinely replayable:
//! the engine always expands a *concrete* reachable representative of
//! each orbit, never an abstract canonical form.
//!
//! **Composition with partial-order reduction.** Symmetry composes
//! with [`crate::Explorer::dpor`]: persistent sets are a function of
//! the stored (representative) state alone, so whichever concrete
//! orbit member arrives first, the reduction decisions over the
//! quotient graph are well-defined. Sleep-set masks are indexed by
//! pid, so when a dedup hit lands on a representative reached under a
//! different permutation the arriving mask is translated through the
//! composed pid map before being intersected with the stored one (see
//! `engine::rep_map` and DESIGN.md §3.11).

use std::cmp::Ordering;
use std::collections::HashSet;

use bso_objects::{spec::ObjectState, Sym, Value};

use crate::explore::StateKey;
use crate::{Pid, Protocol, SharedMemory};

/// A [`Protocol`] whose transition relation is invariant under a group
/// of process permutations.
///
/// See the module docs for the equivariance contract. Implementing
/// this trait unlocks [`crate::Explorer::symmetric`].
pub trait SymmetricProtocol: Protocol {
    /// The pid permutations under which the protocol is equivariant.
    ///
    /// Element `perm` maps process `p` to `perm[p]`. The identity is
    /// implied and need not be listed; the returned set plus the
    /// identity must be closed under composition (a group). Returning
    /// an empty vector degrades gracefully to no reduction.
    fn symmetry_group(&self) -> Vec<Vec<Pid>>;

    /// The action of `perm` on one process's local state.
    ///
    /// This renames pid-derived data *inside* the state; the engine
    /// itself moves the state from index `p` to index `perm[p]`.
    fn permute_state(&self, perm: &[Pid], state: &Self::State) -> Self::State;

    /// The action of `perm` on a shared-memory or decision value.
    ///
    /// The default renames `Value::Pid` payloads (recursively through
    /// pairs and sequences) and leaves everything else alone. Override
    /// when other data encodes process identities — e.g. a protocol
    /// whose process `p` owns symbol `p` must also rename symbols.
    fn permute_value(&self, perm: &[Pid], v: &Value) -> Value {
        permute_pids_in_value(perm, v)
    }
}

/// Renames every `Value::Pid(p)` with `p < perm.len()` to
/// `Value::Pid(perm[p])`, recursing through pairs and sequences.
pub fn permute_pids_in_value(perm: &[Pid], v: &Value) -> Value {
    match v {
        Value::Pid(p) if *p < perm.len() => Value::Pid(perm[*p]),
        Value::Pair(a, b) => Value::Pair(
            Box::new(permute_pids_in_value(perm, a)),
            Box::new(permute_pids_in_value(perm, b)),
        ),
        Value::Seq(xs) => Value::Seq(xs.iter().map(|x| permute_pids_in_value(perm, x)).collect()),
        other => other.clone(),
    }
}

/// Checks that `raw` (plus the identity) is a permutation group on
/// `0..n` and returns its non-identity elements, deduplicated.
///
/// Closure costs O(|G|·|S|) compositions rather than O(|G|²): a
/// generating set `S` is picked greedily (each element not yet in
/// ⟨S⟩ joins it, so |S| ≤ log₂|G|), and ⟨S⟩ is built breadth-first,
/// failing at the first product outside the set. By construction
/// every element lies in ⟨S⟩, so the set is closed exactly when ⟨S⟩
/// stays inside it.
pub(crate) fn validated_group(n: usize, raw: Vec<Vec<Pid>>) -> Result<Vec<Vec<Pid>>, String> {
    let identity: Vec<Pid> = (0..n).collect();
    let mut set: HashSet<Vec<Pid>> = HashSet::new();
    set.insert(identity.clone());
    for perm in raw {
        if perm.len() != n {
            return Err(format!(
                "symmetry element {perm:?} is not a permutation of 0..{n}"
            ));
        }
        let mut seen = vec![false; n];
        for &q in &perm {
            if q >= n || seen[q] {
                return Err(format!(
                    "symmetry element {perm:?} is not a permutation of 0..{n}"
                ));
            }
            seen[q] = true;
        }
        set.insert(perm);
    }
    let mut elems: Vec<Vec<Pid>> = set.iter().filter(|g| **g != identity).cloned().collect();
    elems.sort();
    let mut gens: Vec<&[Pid]> = Vec::new();
    // ⟨gens⟩ in discovery order; closed under right multiplication by
    // every generator between additions.
    let mut span: Vec<Vec<Pid>> = vec![identity.clone()];
    let mut in_span: HashSet<Vec<Pid>> = HashSet::from([identity]);
    for g in &elems {
        if in_span.contains(g) {
            continue;
        }
        gens.push(g);
        // Old elements only meet the new generator; new ones meet all.
        let old = span.len();
        let mut i = 0;
        while i < span.len() {
            let from = if i < old { gens.len() - 1 } else { 0 };
            for b in &gens[from..] {
                let a = &span[i];
                let composed: Vec<Pid> = b.iter().map(|&p| a[p]).collect();
                if !set.contains(&composed) {
                    return Err(format!(
                        "symmetry set is not closed under composition: {a:?} ∘ {b:?} = \
                         {composed:?} is missing"
                    ));
                }
                if in_span.insert(composed.clone()) {
                    span.push(composed);
                }
            }
            i += 1;
        }
    }
    Ok(elems)
}

/// A canonicalization result: the orbit-minimal form of a state and
/// the pid permutation mapping the state's coordinates to canonical
/// coordinates — or `None` when the state is already canonical.
pub(crate) type Canonical<S> = Option<(StateKey<S>, Box<[Pid]>)>;

/// How the engine maps each generated successor to the key it
/// deduplicates on. The non-reducing case is a free no-op; the
/// symmetric case picks the orbit minimum.
pub(crate) trait Canonicalizer<P: Protocol> {
    /// Returns the canonical (orbit-minimal) form of `key` and the pid
    /// permutation mapping `key`'s coordinates to canonical
    /// coordinates — or `None` when `key` is already canonical.
    fn canonicalize(&self, key: &StateKey<P::State>) -> Canonical<P::State>;
}

/// The trivial canonicalizer: every state is its own representative.
pub(crate) struct NoCanon;

impl<P: Protocol> Canonicalizer<P> for NoCanon {
    fn canonicalize(&self, _key: &StateKey<P::State>) -> Canonical<P::State> {
        None
    }
}

/// Orbit-minimum canonicalization under a validated symmetry group.
pub(crate) struct SymCanon<'p, P: SymmetricProtocol> {
    proto: &'p P,
    /// Non-identity group elements.
    elems: Vec<Vec<Pid>>,
    /// `inverses[i]` inverts `elems[i]`: slot `q` of the permuted
    /// state comes from slot `inverses[i][q]` of the original.
    inverses: Vec<Vec<Pid>>,
}

impl<'p, P: SymmetricProtocol> SymCanon<'p, P> {
    /// Validates the protocol's declared group.
    ///
    /// # Errors
    ///
    /// Any element that is not a permutation of `0..n`, or a set not
    /// closed under composition, is rejected with a description.
    pub(crate) fn new(proto: &'p P) -> Result<SymCanon<'p, P>, String> {
        let elems = validated_group(proto.processes(), proto.symmetry_group())?;
        let inverses = elems
            .iter()
            .map(|perm| {
                let mut inv = vec![0; perm.len()];
                for (p, &q) in perm.iter().enumerate() {
                    inv[q] = p;
                }
                inv
            })
            .collect();
        Ok(SymCanon {
            proto,
            elems,
            inverses,
        })
    }

    /// The validated non-identity elements.
    pub(crate) fn elements(&self) -> &[Vec<Pid>] {
        &self.elems
    }

    /// Applies the global-state action of `perm` to `key`.
    fn apply(&self, perm: &[Pid], key: &StateKey<P::State>) -> StateKey<P::State> {
        let n = perm.len();
        debug_assert_eq!(key.states.len(), n);
        let mut states: Vec<P::State> = key.states.clone();
        let mut decisions: Vec<Option<Value>> = vec![None; n];
        let mut steps = key.steps.clone();
        for p in 0..n {
            let q = perm[p];
            states[q] = self.proto.permute_state(perm, &key.states[p]);
            decisions[q] = key.decisions[p]
                .as_ref()
                .map(|v| self.proto.permute_value(perm, v));
            if !steps.is_empty() {
                steps[q] = key.steps[p];
            }
        }
        let objects = key
            .mem
            .objects()
            .iter()
            .map(|obj| self.apply_object(perm, obj))
            .collect();
        StateKey {
            mem: SharedMemory::from_objects(objects),
            states,
            decisions,
            stepped: permute_mask(perm, key.stepped),
            crashed: permute_mask(perm, key.crashed),
            steps,
        }
    }

    /// Applies the action of `perm` to one shared object.
    fn apply_object(&self, perm: &[Pid], obj: &ObjectState) -> ObjectState {
        let pv = |v: &Value| self.proto.permute_value(perm, v);
        let psym = |s: Sym| -> Sym {
            match pv(&Value::Sym(s)) {
                Value::Sym(t) => t,
                other => panic!("permute_value must map symbols to symbols, got {other:?}"),
            }
        };
        match obj {
            ObjectState::Register { val } => ObjectState::Register { val: pv(val) },
            ObjectState::CasK { val, k } => ObjectState::CasK {
                val: psym(*val),
                k: *k,
            },
            ObjectState::CasReg { val } => ObjectState::CasReg { val: pv(val) },
            ObjectState::TestAndSet { set } => ObjectState::TestAndSet { set: *set },
            ObjectState::FetchAdd { val } => ObjectState::FetchAdd { val: *val },
            ObjectState::Snapshot { slots } => {
                // Slot `i` is owned by process `i`, so the slots move
                // with the processes.
                assert_eq!(
                    slots.len(),
                    perm.len(),
                    "symmetry reduction requires per-process snapshot slots"
                );
                let mut moved: Vec<Value> = slots.clone();
                for (i, slot) in slots.iter().enumerate() {
                    moved[perm[i]] = pv(slot);
                }
                ObjectState::Snapshot { slots: moved }
            }
            ObjectState::Sticky { val } => ObjectState::Sticky { val: pv(val) },
            ObjectState::Queue { items } => ObjectState::Queue {
                items: items.iter().map(pv).collect(),
            },
            ObjectState::RmwK { val, k, functions } => ObjectState::RmwK {
                val: psym(*val),
                k: *k,
                functions: functions.clone(),
            },
        }
    }

    /// Compares `apply(perm, key)` with `min` in `StateKey`'s derived
    /// order without building it: field by field, returning at the
    /// first that differs. Both keys come from one run, so every
    /// vector pair has equal length and the elementwise order is the
    /// derived one.
    fn cmp_permuted(
        &self,
        perm: &[Pid],
        inv: &[Pid],
        key: &StateKey<P::State>,
        min: &StateKey<P::State>,
    ) -> Ordering
    where
        P::State: Ord,
    {
        let objects = key.mem.objects().iter().zip(min.mem.objects());
        for (obj, m) in objects {
            match self.apply_object(perm, obj).cmp(m) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        for (m, &p) in min.states.iter().zip(inv) {
            match self.proto.permute_state(perm, &key.states[p]).cmp(m) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        for (m, &p) in min.decisions.iter().zip(inv) {
            let d = key.decisions[p]
                .as_ref()
                .map(|v| self.proto.permute_value(perm, v));
            match d.cmp(m) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        permute_mask(perm, key.stepped)
            .cmp(&min.stepped)
            .then_with(|| permute_mask(perm, key.crashed).cmp(&min.crashed))
            .then_with(|| {
                // Empty in both keys unless a step bound is enforced.
                let steps = inv.iter().take(key.steps.len()).map(|&p| key.steps[p]);
                steps.cmp(min.steps.iter().copied())
            })
    }
}

/// Moves bit `p` of `mask` to bit `perm[p]`.
fn permute_mask(perm: &[Pid], mask: u64) -> u64 {
    perm.iter()
        .enumerate()
        .filter(|&(p, _)| mask >> p & 1 == 1)
        .fold(0, |acc, (_, &q)| acc | 1 << q)
}

impl<P: SymmetricProtocol> Canonicalizer<P> for SymCanon<'_, P>
where
    P::State: Ord,
{
    /// Picks the first strictly smaller candidate in element order, as
    /// building every candidate would, but builds one only when it
    /// beats the running minimum.
    fn canonicalize(&self, key: &StateKey<P::State>) -> Canonical<P::State> {
        let mut best: Option<(StateKey<P::State>, &[Pid])> = None;
        for (perm, inv) in self.elems.iter().zip(&self.inverses) {
            let min = best.as_ref().map_or(key, |(b, _)| b);
            if self.cmp_permuted(perm, inv, key, min) == Ordering::Less {
                best = Some((self.apply(perm, key), perm));
            }
        }
        best.map(|(cand, perm)| (cand, perm.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;
    use bso_objects::rng::SplitMix64;
    use bso_objects::Layout;

    impl<P: SymmetricProtocol> SymCanon<'_, P>
    where
        P::State: Ord,
    {
        /// The reference canonicalizer: builds every candidate and
        /// keeps the first strictly smallest.
        fn canonicalize_reference(&self, key: &StateKey<P::State>) -> Canonical<P::State> {
            let mut best: Option<(StateKey<P::State>, &[Pid])> = None;
            for perm in &self.elems {
                let cand = self.apply(perm, key);
                let beats_key = cand < *key;
                let beats_best = best.as_ref().is_none_or(|(b, _)| cand < *b);
                if beats_key && beats_best {
                    best = Some((cand, perm));
                }
            }
            best.map(|(cand, perm)| (cand, perm.to_vec().into_boxed_slice()))
        }
    }

    /// Every permutation of `0..n`, the identity included.
    fn all_perms(n: usize) -> Vec<Vec<Pid>> {
        let mut out: Vec<Vec<Pid>> = vec![Vec::new()];
        for len in 0..n {
            out = out
                .into_iter()
                .flat_map(|p| {
                    (0..=len).map(move |i| {
                        let mut q = p.clone();
                        q.insert(i, len);
                        q
                    })
                })
                .collect();
        }
        out
    }

    /// The cyclic group of rotations of `0..n`.
    fn rotations(n: usize) -> Vec<Vec<Pid>> {
        (0..n)
            .map(|r| (0..n).map(|p| (p + r) % n).collect())
            .collect()
    }

    fn is_even(perm: &[Pid]) -> bool {
        let inversions = (0..perm.len())
            .flat_map(|i| (i + 1..perm.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| perm[i] > perm[j])
            .count();
        inversions % 2 == 0
    }

    #[test]
    fn group_validation_accepts_s3_and_rejects_non_groups() {
        // Full S₃ (identity omitted).
        let s3 = vec![
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let elems = validated_group(3, s3).unwrap();
        assert_eq!(elems.len(), 5);

        // A lone 3-cycle is not closed (its square is missing).
        let err = validated_group(3, vec![vec![1, 2, 0]]).unwrap_err();
        assert!(err.contains("not closed"), "{err}");

        // Not a permutation.
        assert!(validated_group(3, vec![vec![0, 0, 1]]).is_err());
        assert!(validated_group(3, vec![vec![0, 1]]).is_err());

        // The empty set (identity only) is a group.
        assert!(validated_group(3, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn pid_renaming_recurses_through_structures() {
        let perm = vec![1usize, 0];
        let v = Value::Pair(
            Box::new(Value::Pid(0)),
            Box::new(Value::Seq(vec![Value::Pid(1), Value::Int(7)])),
        );
        let w = permute_pids_in_value(&perm, &v);
        assert_eq!(
            w,
            Value::Pair(
                Box::new(Value::Pid(1)),
                Box::new(Value::Seq(vec![Value::Pid(0), Value::Int(7)])),
            )
        );
        // Out-of-range pids (foreign data) are left alone.
        assert_eq!(permute_pids_in_value(&perm, &Value::Pid(9)), Value::Pid(9));
    }

    #[test]
    fn group_validation_accepts_s4_a4_c5_and_s7() {
        assert_eq!(validated_group(4, all_perms(4)).unwrap().len(), 23);
        let a4: Vec<Vec<Pid>> = all_perms(4).into_iter().filter(|p| is_even(p)).collect();
        assert_eq!(validated_group(4, a4).unwrap().len(), 11);
        assert_eq!(validated_group(5, rotations(5)).unwrap().len(), 4);
        let s7 = validated_group(7, all_perms(7)).unwrap();
        assert_eq!(s7.len(), 5039);
        assert!(
            s7.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated"
        );
    }

    #[test]
    fn group_validation_rejects_a_missing_product_of_two_subgroups() {
        // {id, (0 1)} ∪ {id, (2 3)}: each half is a group, but their
        // product (0 1)(2 3) is missing.
        let err = validated_group(4, vec![vec![1, 0, 2, 3], vec![0, 1, 3, 2]]).unwrap_err();
        assert!(err.contains("not closed"), "{err}");
        // C₄ without r³: the missing element is a product of depth 3.
        let mut c4 = rotations(4);
        c4.pop();
        let err = validated_group(4, c4).unwrap_err();
        assert!(err.contains("not closed"), "{err}");
        // A₄ plus one odd permutation generates S₄, not the set.
        let mut a4: Vec<Vec<Pid>> = all_perms(4).into_iter().filter(|p| is_even(p)).collect();
        a4.push(vec![1, 0, 2, 3]);
        let err = validated_group(4, a4).unwrap_err();
        assert!(err.contains("not closed"), "{err}");
    }

    /// A symmetric protocol that only supplies a group and renamings:
    /// the local state `(pid, tag)` names a process, and process `p`
    /// owns symbol `p`, as in `CasOnlyElection`.
    struct Renaming {
        n: usize,
        group: Vec<Vec<Pid>>,
    }

    impl Protocol for Renaming {
        type State = (Pid, u8);

        fn processes(&self) -> usize {
            self.n
        }

        fn layout(&self) -> Layout {
            Layout::new()
        }

        fn init(&self, pid: Pid, _input: &Value) -> (Pid, u8) {
            (pid, 0)
        }

        fn next_action(&self, _state: &(Pid, u8)) -> Action {
            Action::Decide(Value::Nil)
        }

        fn on_response(&self, _state: &mut (Pid, u8), _resp: Value) {}
    }

    impl SymmetricProtocol for Renaming {
        fn symmetry_group(&self) -> Vec<Vec<Pid>> {
            self.group.clone()
        }

        fn permute_state(&self, perm: &[Pid], &(pid, tag): &(Pid, u8)) -> (Pid, u8) {
            (perm[pid], tag)
        }

        fn permute_value(&self, perm: &[Pid], v: &Value) -> Value {
            match v {
                Value::Sym(s) => match s.value() {
                    Some(c) if usize::from(c) < perm.len() => {
                        Value::Sym(Sym::new(perm[usize::from(c)] as u8))
                    }
                    _ => v.clone(),
                },
                Value::Pair(a, b) => Value::Pair(
                    Box::new(self.permute_value(perm, a)),
                    Box::new(self.permute_value(perm, b)),
                ),
                Value::Seq(xs) => {
                    Value::Seq(xs.iter().map(|x| self.permute_value(perm, x)).collect())
                }
                other => permute_pids_in_value(perm, other),
            }
        }
    }

    fn arb_sym(rng: &mut SplitMix64, n: usize) -> Sym {
        match rng.usize_below(n + 1) {
            0 => Sym::BOTTOM,
            i => Sym::new((i - 1) as u8),
        }
    }

    /// Values from a small pool, half of them fixed by every renaming,
    /// so that candidates often tie on a field and later fields decide.
    fn arb_value(rng: &mut SplitMix64, n: usize) -> Value {
        match rng.usize_below(8) {
            0 | 1 => Value::Nil,
            2 | 3 => Value::Int(rng.usize_below(2) as i64),
            4 => Value::Pid(rng.usize_below(n)),
            5 => Value::Sym(arb_sym(rng, n)),
            6 => Value::Pair(
                Box::new(Value::Pid(rng.usize_below(n))),
                Box::new(Value::Sym(arb_sym(rng, n))),
            ),
            _ => Value::Seq(
                (0..rng.usize_below(3))
                    .map(|_| Value::Pid(rng.usize_below(n)))
                    .collect(),
            ),
        }
    }

    fn arb_object(rng: &mut SplitMix64, n: usize) -> ObjectState {
        let k = n + 1;
        match rng.usize_below(9) {
            0 => ObjectState::Register {
                val: arb_value(rng, n),
            },
            1 => ObjectState::CasReg {
                val: arb_value(rng, n),
            },
            2 => ObjectState::Sticky {
                val: arb_value(rng, n),
            },
            3 => ObjectState::CasK {
                val: arb_sym(rng, n),
                k,
            },
            4 => ObjectState::RmwK {
                val: arb_sym(rng, n),
                k,
                functions: vec![(0..k as u8).rev().collect()],
            },
            5 => ObjectState::Snapshot {
                slots: (0..n).map(|_| arb_value(rng, n)).collect(),
            },
            6 => ObjectState::Queue {
                items: (0..rng.usize_below(3)).map(|_| arb_value(rng, n)).collect(),
            },
            7 => ObjectState::TestAndSet { set: rng.bool() },
            _ => ObjectState::FetchAdd {
                val: rng.usize_below(2) as i64,
            },
        }
    }

    fn arb_mask(rng: &mut SplitMix64, n: usize) -> u64 {
        rng.next_u64() & ((1 << n) - 1)
    }

    /// A random global state: most processes hold their own pid, so
    /// renamed states often tie with the running minimum.
    fn arb_key(rng: &mut SplitMix64, n: usize, bounded: bool) -> StateKey<(Pid, u8)> {
        let objects = (0..rng.usize_below(4))
            .map(|_| arb_object(rng, n))
            .collect();
        let states = (0..n)
            .map(|p| {
                let pid = if rng.usize_below(4) == 0 {
                    rng.usize_below(n)
                } else {
                    p
                };
                (pid, rng.usize_below(2) as u8)
            })
            .collect();
        let decisions = (0..n)
            .map(|p| match rng.usize_below(3) {
                0 => None,
                1 => Some(Value::Pid(p)),
                _ => Some(arb_value(rng, n)),
            })
            .collect();
        let stepped = arb_mask(rng, n);
        let crashed = if rng.bool() { arb_mask(rng, n) } else { 0 };
        let steps = if bounded {
            (0..n).map(|_| rng.usize_below(3) as u16).collect()
        } else {
            Vec::new()
        };
        StateKey {
            mem: SharedMemory::from_objects(objects),
            states,
            decisions,
            stepped,
            crashed,
            steps,
        }
    }

    /// The first `StateKey` field, in derived order, on which `a` and
    /// `b` differ (6 when equal).
    fn first_difference<S: Eq>(a: &StateKey<S>, b: &StateKey<S>) -> usize {
        [
            a.mem != b.mem,
            a.states != b.states,
            a.decisions != b.decisions,
            a.stepped != b.stepped,
            a.crashed != b.crashed,
            a.steps != b.steps,
        ]
        .iter()
        .position(|&d| d)
        .unwrap_or(6)
    }

    #[test]
    fn canonicalize_matches_the_reference_and_is_orbit_invariant() {
        let s22 = vec![vec![1, 0, 2, 3], vec![0, 1, 3, 2], vec![1, 0, 3, 2]];
        let groups = [
            ("S3", 3, all_perms(3)),
            ("S4", 4, all_perms(4)),
            ("C4", 4, rotations(4)),
            ("S2xS2", 4, s22),
        ];
        let mut rng = SplitMix64::new(0x5EED_CA40);
        let mut variants = HashSet::new();
        let mut decided_by = [0usize; 7];
        for (name, n, group) in groups {
            let proto = Renaming { n, group };
            let canon = SymCanon::new(&proto).unwrap();
            let mut whole: Vec<Vec<Pid>> = canon.elements().to_vec();
            whole.push((0..n).collect());
            for case in 0..400 {
                let key = arb_key(&mut rng, n, case % 2 == 1);
                for obj in key.mem.objects() {
                    variants.insert(std::mem::discriminant(obj));
                }
                let fast = canon.canonicalize(&key);
                assert!(
                    fast == canon.canonicalize_reference(&key),
                    "{name} case {case}: the fast canonicalizer disagrees"
                );
                let canonical = match &fast {
                    Some((c, perm)) => {
                        assert!(*c < key, "{name} case {case}: not strictly smaller");
                        assert!(canon.apply(perm, &key) == *c, "{name} case {case}");
                        c.clone()
                    }
                    None => key.clone(),
                };
                for g in &whole {
                    let moved = canon.apply(g, &key);
                    decided_by[first_difference(&moved, &key)] += 1;
                    let again = canon.canonicalize(&moved).map_or(moved, |(c, _)| c);
                    assert!(
                        again == canonical,
                        "{name} case {case}: {g:?} leaves the orbit's canonical form"
                    );
                }
            }
        }
        // Every object variant the action touches was drawn, and the
        // keys tie often enough that every field decided some order.
        assert_eq!(variants.len(), 9, "object variants drawn");
        assert!(
            decided_by[..6].iter().all(|&c| c > 0),
            "fields deciding the order: {decided_by:?}"
        );
    }
}
