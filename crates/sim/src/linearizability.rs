//! A Wing–Gong style linearizability checker.
//!
//! Validates a recorded concurrent history (see [`crate::record`])
//! against the sequential object specifications of `bso-objects`.
//! Linearizability is *local* (Herlihy & Wing): a history is
//! linearizable iff its per-object projections are, so
//! [`check_history`] splits the log by object and checks each
//! projection independently.
//!
//! The per-object check is the classical branch-and-bound search: pick
//! any operation that is minimal in the real-time precedence order,
//! apply it to the sequential specification, and accept it if the
//! specification produces the recorded response; backtrack otherwise.
//! Failed (used-set, object state) pairs are memoized, so `k` mutually
//! concurrent operations cost at most `2ᵏ` dead ends per object state
//! instead of `k!` orderings. Worst-case exponential, practical for
//! the short, contended windows our stress tests record.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use bso_objects::spec::ObjectState;
use bso_objects::{Layout, ObjectId, OpKind};

use crate::record::RecordedOp;

/// Why a history failed the check.
#[derive(Clone, Debug)]
pub struct NotLinearizable {
    /// The object whose projection has no valid linearization.
    pub obj: ObjectId,
    /// Number of operations in the failing projection.
    pub ops: usize,
    /// The failing projection itself, in the order it was checked —
    /// every recorded operation on [`Self::obj`] with its pid, kind,
    /// response, and invocation/response ticks, so a violation seen
    /// e.g. on the wire server is actionable without a re-run.
    pub log: Vec<RecordedOp>,
}

/// How many operations [`NotLinearizable`]'s `Display` prints before
/// eliding the rest (the full projection stays in the `log` field).
const DISPLAY_OPS: usize = 12;

impl fmt::Display for NotLinearizable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no linearization of the {} operations on {} matches the sequential spec",
            self.ops, self.obj
        )?;
        for r in self.log.iter().take(DISPLAY_OPS) {
            write!(
                f,
                "\n  p{} {}.{:?} -> {} @[{},{}]",
                r.pid, r.op.obj, r.op.kind, r.resp, r.invoked_at, r.responded_at
            )?;
        }
        if self.log.len() > DISPLAY_OPS {
            write!(f, "\n  … {} more", self.log.len() - DISPLAY_OPS)?;
        }
        Ok(())
    }
}

impl std::error::Error for NotLinearizable {}

/// Checks one object's history against its sequential specification.
///
/// Returns a witness linearization (indices into `history` in
/// linearization order) on success.
///
/// # Errors
///
/// [`NotLinearizable`] if no linearization explains the responses.
pub fn check_object_history(
    obj: ObjectId,
    initial: &ObjectState,
    history: &[RecordedOp],
) -> Result<Vec<usize>, NotLinearizable> {
    search(initial, history).ok_or_else(|| NotLinearizable {
        obj,
        ops: history.len(),
        log: history.to_vec(),
    })
}

/// One level of the depth-first search: the object state the ops
/// linearized so far leave, and the candidates not yet tried from it.
struct Level {
    spec: ObjectState,
    untried: std::vec::IntoIter<usize>,
}

/// Searches for a linearization depth first, on an explicit stack so
/// that long histories cannot overflow the thread's. Failed levels are
/// memoized: whether the remaining operations linearize depends only on
/// which are left and on the object's state.
fn search(initial: &ObjectState, history: &[RecordedOp]) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = Vec::with_capacity(history.len());
    if history.is_empty() {
        return Some(order);
    }
    let mut used = vec![0u64; history.len().div_ceil(64)];
    let mut dead: HashSet<(Vec<u64>, ObjectState)> = HashSet::new();
    let mut stack = vec![Level {
        spec: initial.clone(),
        untried: candidates(history, &used).into_iter(),
    }];
    while let Some(level) = stack.last_mut() {
        let step = level.untried.find_map(|i| {
            let mut next = level.spec.clone();
            let resp = next.apply(history[i].pid, &history[i].op.kind);
            matches!(resp, Ok(r) if r == history[i].resp).then_some((i, next))
        });
        let Some((i, next)) = step else {
            // `used` is back to this level's set: record the dead end
            // and undo the op that led here.
            let failed = stack.pop().expect("a level is on the stack");
            dead.insert((used.clone(), failed.spec));
            if let Some(i) = order.pop() {
                used[i / 64] ^= 1 << (i % 64);
            }
            continue;
        };
        used[i / 64] ^= 1 << (i % 64);
        order.push(i);
        if order.len() == history.len() {
            return Some(order);
        }
        let key = (used.clone(), next);
        if dead.contains(&key) {
            order.pop();
            used[i / 64] ^= 1 << (i % 64);
            continue;
        }
        stack.push(Level {
            spec: key.1,
            untried: candidates(history, &used).into_iter(),
        });
    }
    None
}

/// The unused ops minimal in the precedence order, i.e. those no other
/// unused op responded before: the earliest and second-earliest
/// responses among unused ops bound their invocations.
fn candidates(history: &[RecordedOp], used: &[u64]) -> Vec<usize> {
    let unused = || (0..history.len()).filter(|&i| used[i / 64] >> (i % 64) & 1 == 0);
    let (mut first, mut second) = ((u64::MAX, usize::MAX), u64::MAX);
    for j in unused() {
        let at = history[j].responded_at;
        if at < first.0 {
            second = first.0;
            first = (at, j);
        } else if at < second {
            second = at;
        }
    }
    unused()
        .filter(|&i| history[i].invoked_at <= if i == first.1 { second } else { first.0 })
        .collect()
}

/// Checks a multi-object history by locality: splits by object and
/// checks each projection.
///
/// # Errors
///
/// The first non-linearizable per-object projection.
///
/// # Panics
///
/// Panics if the log references an object that is not in `layout`.
pub fn check_history(layout: &Layout, log: &[RecordedOp]) -> Result<(), NotLinearizable> {
    let mut by_obj: BTreeMap<ObjectId, Vec<RecordedOp>> = BTreeMap::new();
    for r in log {
        by_obj.entry(r.op.obj).or_default().push(r.clone());
    }
    for (obj, ops) in by_obj {
        let init = layout
            .objects()
            .get(obj.0)
            .unwrap_or_else(|| panic!("log references unknown object {obj}"));
        check_object_history(obj, &ObjectState::from_init(init), &ops)?;
    }
    Ok(())
}

/// Why a per-process operation family has no legal serialization.
#[derive(Clone, Debug)]
pub struct NotSerializable {
    /// Number of operations in the failing instance.
    pub ops: usize,
}

impl fmt::Display for NotSerializable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no interleaving of the {} per-process operation sequences matches the \
             sequential specs",
            self.ops
        )
    }
}

impl std::error::Error for NotSerializable {}

/// Checks **run legality without real-time constraints**: is there a
/// single total order of all operations — across *all* objects,
/// consistent with each process's program order — in which every
/// recorded response matches the sequential specifications?
///
/// This is the legality notion of a *run* in the asynchronous model
/// (and of the paper's Lemma 1.2): the emulation constructs runs by
/// placing suspended processes' operations at earlier points than the
/// emulation's wall clock, so [`check_history`]'s real-time order
/// would be too strict. Unlike linearizability, this criterion is
/// **not** local — all objects are replayed jointly.
///
/// `ops_by_proc[p]` is process `p`'s operation/response sequence in
/// program order. Returns a witness interleaving as `(process, index)`
/// pairs.
///
/// # Errors
///
/// [`NotSerializable`] if no interleaving works.
///
/// # Panics
///
/// Panics if an operation references an object outside `layout`.
pub fn check_run_legality(
    layout: &Layout,
    ops_by_proc: &[Vec<(usize, bso_objects::Op, bso_objects::Value)>],
) -> Result<Vec<(usize, usize)>, NotSerializable> {
    let objects: Vec<ObjectState> = layout
        .objects()
        .iter()
        .map(ObjectState::from_init)
        .collect();
    let mut pos = vec![0usize; ops_by_proc.len()];
    let mut order = Vec::new();
    let total: usize = ops_by_proc.iter().map(Vec::len).sum();
    let mut memo = HashSet::new();
    if serialize(&objects, ops_by_proc, &mut pos, &mut order, &mut memo) {
        Ok(order)
    } else {
        Err(NotSerializable { ops: total })
    }
}

fn serialize(
    objects: &[ObjectState],
    ops: &[Vec<(usize, bso_objects::Op, bso_objects::Value)>],
    pos: &mut [usize],
    order: &mut Vec<(usize, usize)>,
    memo: &mut HashSet<(Vec<usize>, Vec<ObjectState>)>,
) -> bool {
    if pos.iter().enumerate().all(|(p, &i)| i == ops[p].len()) {
        return true;
    }
    // Dead-end memoization: the reachable continuations depend only on
    // the queue positions and current object states.
    let key = (pos.to_vec(), objects.to_vec());
    if memo.contains(&key) {
        return false;
    }
    'cand: for p in 0..ops.len() {
        let i = pos[p];
        if i >= ops[p].len() {
            continue;
        }
        // Symmetry reduction: processes with identical remaining
        // operation/response suffixes are interchangeable — exploring
        // the first of each equivalence class is complete. (Emulated
        // workloads are highly symmetric; without this the search is
        // factorial in the number of identical v-processes.) Only
        // pid-insensitive operations qualify: a `SnapshotUpdate`'s
        // effect depends on who performs it.
        let pid_insensitive = |o: &[(usize, bso_objects::Op, bso_objects::Value)]| {
            o.iter()
                .all(|(_, op, _)| !matches!(op.kind, OpKind::SnapshotUpdate(_)))
        };
        if pid_insensitive(&ops[p][i..]) {
            for q in 0..p {
                if pid_insensitive(&ops[q][pos[q]..])
                    && ops[q][pos[q]..]
                        .iter()
                        .map(|(_, op, r)| (op, r))
                        .eq(ops[p][i..].iter().map(|(_, op, r)| (op, r)))
                {
                    continue 'cand;
                }
            }
        }
        let (pid, op, resp) = &ops[p][i];
        let mut next_objects = objects.to_vec();
        let obj = next_objects
            .get_mut(op.obj.0)
            .unwrap_or_else(|| panic!("operation references unknown object {}", op.obj));
        match obj.apply(*pid, &op.kind) {
            Ok(r) if r == *resp => {}
            _ => continue,
        }
        pos[p] += 1;
        order.push((p, i));
        if serialize(&next_objects, ops, pos, order, memo) {
            return true;
        }
        order.pop();
        pos[p] -= 1;
    }
    memo.insert(key);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso_objects::{ObjectInit, Op, OpKind, Value};

    fn rec(pid: usize, op: Op, resp: Value, at: (u64, u64)) -> RecordedOp {
        RecordedOp {
            pid,
            op,
            resp,
            invoked_at: at.0,
            responded_at: at.1,
        }
    }

    #[test]
    fn sequential_history_linearizes_in_order() {
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::Register(Value::Nil));
        let h = vec![
            rec(0, Op::write(obj, Value::Int(1)), Value::Nil, (0, 1)),
            rec(1, Op::read(obj), Value::Int(1), (2, 3)),
        ];
        assert_eq!(check_object_history(obj, &init, &h).unwrap(), vec![0, 1]);
    }

    #[test]
    fn concurrent_reads_may_reorder() {
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::Register(Value::Nil));
        // Write of 1 concurrent with a read of Nil: the read must be
        // linearized before the write even though it *responded* later.
        let h = vec![
            rec(0, Op::write(obj, Value::Int(1)), Value::Nil, (0, 3)),
            rec(1, Op::read(obj), Value::Nil, (1, 4)),
        ];
        let order = check_object_history(obj, &init, &h).unwrap();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn stale_read_after_completed_write_is_rejected() {
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::Register(Value::Nil));
        // The write finished (tick 1) before the read began (tick 2),
        // yet the read returned the old value: not linearizable.
        let h = vec![
            rec(0, Op::write(obj, Value::Int(1)), Value::Nil, (0, 1)),
            rec(1, Op::read(obj), Value::Nil, (2, 3)),
        ];
        let err = check_object_history(obj, &init, &h).unwrap_err();
        // The error carries the failing projection itself …
        assert_eq!(err.ops, 2);
        assert_eq!(err.log.len(), 2);
        assert_eq!(err.log[1].pid, 1);
        // … and its display names each op with pid, kind, response
        // and ticks, so the violation is actionable from the message
        // alone.
        let msg = err.to_string();
        assert!(
            msg.starts_with("no linearization of the 2 operations on o0"),
            "unexpected headline: {msg}"
        );
        assert!(msg.contains("p0 o0.Write(1) -> "), "{msg}");
        assert!(msg.contains("p1 o0.Read -> "), "{msg}");
        assert!(msg.contains("@[0,1]") && msg.contains("@[2,3]"), "{msg}");
        assert!(!msg.contains("more"), "nothing should be elided: {msg}");
    }

    #[test]
    fn long_failing_projections_are_elided_in_display() {
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::Register(Value::Nil));
        // 15 sequential reads that all claim to have seen a value
        // nobody wrote: hopeless, and longer than the display cap.
        let h: Vec<RecordedOp> = (0..15)
            .map(|i| {
                rec(
                    i % 2,
                    Op::read(obj),
                    Value::Int(7),
                    (2 * i as u64, 2 * i as u64 + 1),
                )
            })
            .collect();
        let err = check_object_history(obj, &init, &h).unwrap_err();
        assert_eq!(err.log.len(), 15, "the log field holds everything");
        let msg = err.to_string();
        assert!(msg.contains("… 3 more"), "expected elision note: {msg}");
    }

    /// `k` mutually concurrent writes of `0..k`, then a read returning
    /// `read`, invoked after every write responded.
    fn concurrent_writes_then_read(k: usize, read: Value) -> Vec<RecordedOp> {
        let obj = ObjectId(0);
        let k64 = k as u64;
        let mut h: Vec<RecordedOp> = (0..k)
            .map(|i| {
                let at = (i as u64, k64 + i as u64);
                rec(i, Op::write(obj, Value::Int(i as i64)), Value::Nil, at)
            })
            .collect();
        h.push(rec(k, Op::read(obj), read, (2 * k64, 2 * k64 + 1)));
        h
    }

    #[test]
    fn dead_ends_are_memoized_across_orderings_of_concurrent_ops() {
        // Without the memo the search tries up to 14! orderings of the
        // writes; with it, each (used-set, register value) pair fails
        // at most once.
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::Register(Value::Nil));
        let h = concurrent_writes_then_read(14, Value::Int(99));
        let err = check_object_history(obj, &init, &h).unwrap_err();
        assert_eq!(err.ops, 15);
        // The legal read of one write's value is still accepted, with
        // that write linearized last before it.
        let h = concurrent_writes_then_read(14, Value::Int(3));
        let order = check_object_history(obj, &init, &h).unwrap();
        assert_eq!(order.len(), 15);
        assert_eq!(order[13..], [3, 14]);
    }

    #[test]
    fn two_cas_winners_on_same_expect_are_rejected() {
        use bso_objects::Sym;
        let obj = ObjectId(0);
        let init = ObjectState::from_init(&ObjectInit::CasK { k: 3 });
        // Two *successful* c&s(⊥ → ·) responses: impossible.
        let h = vec![
            rec(
                0,
                Op::cas(obj, Sym::BOTTOM.into(), Sym::new(0).into()),
                Value::Sym(Sym::BOTTOM),
                (0, 3),
            ),
            rec(
                1,
                Op::cas(obj, Sym::BOTTOM.into(), Sym::new(1).into()),
                Value::Sym(Sym::BOTTOM),
                (1, 4),
            ),
        ];
        assert!(check_object_history(obj, &init, &h).is_err());
        // The legal variant: the second sees the first's value.
        let h = vec![
            rec(
                0,
                Op::cas(obj, Sym::BOTTOM.into(), Sym::new(0).into()),
                Value::Sym(Sym::BOTTOM),
                (0, 3),
            ),
            rec(
                1,
                Op::cas(obj, Sym::BOTTOM.into(), Sym::new(1).into()),
                Value::Sym(Sym::new(0)),
                (1, 4),
            ),
        ];
        assert!(check_object_history(obj, &init, &h).is_ok());
    }

    #[test]
    fn run_legality_reorders_across_real_time() {
        use bso_objects::Sym;
        // p0's successful c&s(⊥→0) "happened" before p1's failing
        // c&s(⊥→1) that saw 0 — even if the emulation published them in
        // the other order, the legality check finds the interleaving.
        let mut layout = Layout::new();
        let cas = layout.push(ObjectInit::CasK { k: 3 });
        let ops = vec![
            // p0: one successful c&s
            vec![(
                0usize,
                Op::cas(cas, Sym::BOTTOM.into(), Sym::new(0).into()),
                Value::Sym(Sym::BOTTOM),
            )],
            // p1: a failing c&s that observed 0
            vec![(
                1usize,
                Op::cas(cas, Sym::BOTTOM.into(), Sym::new(1).into()),
                Value::Sym(Sym::new(0)),
            )],
        ];
        let order = check_run_legality(&layout, &ops).unwrap();
        assert_eq!(order, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn run_legality_rejects_two_winners() {
        use bso_objects::Sym;
        let mut layout = Layout::new();
        let cas = layout.push(ObjectInit::CasK { k: 3 });
        let ops = vec![
            vec![(
                0usize,
                Op::cas(cas, Sym::BOTTOM.into(), Sym::new(0).into()),
                Value::Sym(Sym::BOTTOM),
            )],
            vec![(
                1usize,
                Op::cas(cas, Sym::BOTTOM.into(), Sym::new(1).into()),
                Value::Sym(Sym::BOTTOM),
            )],
        ];
        assert!(check_run_legality(&layout, &ops).is_err());
    }

    #[test]
    fn run_legality_respects_program_order() {
        // p0 writes 1 then 2; p1 reads 2 then 1: impossible in any
        // interleaving respecting p0's program order... actually
        // reading 2 then 1 IS impossible since writes are ordered.
        let mut layout = Layout::new();
        let r = layout.push(ObjectInit::Register(Value::Nil));
        let ops = vec![
            vec![
                (0usize, Op::write(r, Value::Int(1)), Value::Nil),
                (0usize, Op::write(r, Value::Int(2)), Value::Nil),
            ],
            vec![
                (1usize, Op::read(r), Value::Int(2)),
                (1usize, Op::read(r), Value::Int(1)),
            ],
        ];
        assert!(check_run_legality(&layout, &ops).is_err());
        // The legal variant: reads in write order.
        let ops = vec![
            ops[0].clone(),
            vec![
                (1usize, Op::read(r), Value::Int(1)),
                (1usize, Op::read(r), Value::Int(2)),
            ],
        ];
        assert!(check_run_legality(&layout, &ops).is_ok());
    }

    #[test]
    fn run_legality_spans_objects_jointly() {
        // Cross-object constraint: p0 writes a then b; p1 sees b's
        // write but then a's old value — inconsistent with any single
        // total order... p1 reads objB=1 (after p0's second write)
        // then objA=Nil (before p0's first): impossible.
        let mut layout = Layout::new();
        let a = layout.push(ObjectInit::Register(Value::Nil));
        let b = layout.push(ObjectInit::Register(Value::Nil));
        let ops = vec![
            vec![
                (0usize, Op::write(a, Value::Int(1)), Value::Nil),
                (0usize, Op::write(b, Value::Int(1)), Value::Nil),
            ],
            vec![
                (1usize, Op::read(b), Value::Int(1)),
                (1usize, Op::read(a), Value::Nil),
            ],
        ];
        assert!(check_run_legality(&layout, &ops).is_err());
    }

    #[test]
    fn multi_object_locality() {
        let mut layout = Layout::new();
        let a = layout.push(ObjectInit::Register(Value::Nil));
        let b = layout.push(ObjectInit::FetchAdd(0));
        let log = vec![
            rec(0, Op::write(a, Value::Int(9)), Value::Nil, (0, 1)),
            rec(1, Op::new(b, OpKind::FetchAdd(1)), Value::Int(0), (0, 2)),
            rec(0, Op::read(a), Value::Int(9), (2, 3)),
            rec(1, Op::new(b, OpKind::FetchAdd(1)), Value::Int(1), (3, 4)),
        ];
        assert!(check_history(&layout, &log).is_ok());
    }
}
