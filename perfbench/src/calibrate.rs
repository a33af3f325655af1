//! A frozen yardstick for the host's speed at the moment, which the
//! explore workloads divide their CPU times by.
//!
//! Neighbours on the host slow the vCPU by tens of percent for seconds
//! at a time without any of it showing as steal, and the explorer, which
//! hashes and deduplicates tens of thousands of small heap states, feels
//! it most. The yardstick does the same kind of work with the standard
//! library alone: a depth-first search of the `CasOnlyElection(8,9)`
//! state graph written out by hand, with `Vec<u8>` states in a
//! `HashSet`. No change to the program moves it; the host slows it as
//! much as it slows the explorer, so the ratio of the two stays put.

use std::collections::HashSet;

use crate::proc;

/// Processes of the synthetic election: 1 + 2n·3^(n−1) = 34,993
/// states, the size of the explorer's `CasOnlyElection(8,9)` graph.
const N: usize = 8;

/// No winner yet.
const NONE: u8 = u8::MAX;

/// The unit calibrated figures are given in: CPU seconds of one
/// yardstick search on an Intel Xeon (Sapphire Rapids, 2 GHz) KVM
/// guest when no neighbour slows it, rounded from its fastest runs
/// (18.7 ms fastest, 22.4 ms 5th percentile, 32.5 ms median over 949
/// runs). A calibrated figure is what the run would take at that speed.
pub const NOMINAL_S: f64 = 0.020;

/// Searches the graph and returns its number of states. A state is
/// each process's phase (0 about to swap, 1 swapped, 2 decided) and
/// the winner, the first process to swap.
pub fn search() -> usize {
    let mut root = vec![0u8; N + 1];
    root[N] = NONE;
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    seen.insert(root.clone());
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        for p in 0..N {
            if s[p] == 2 {
                continue;
            }
            let mut t = s.clone();
            if t[p] == 0 && t[N] == NONE {
                t[N] = p as u8;
            }
            t[p] += 1;
            if seen.insert(t.clone()) {
                stack.push(t);
            }
        }
    }
    seen.len()
}

/// CPU seconds of one search.
pub fn measure() -> f64 {
    let c0 = proc::process_cpu();
    let states = std::hint::black_box(search());
    let cpu = (proc::process_cpu() - c0).as_secs_f64();
    debug_assert_eq!(states as u128, crate::reference::cas_only_states(N as u32));
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_walks_the_whole_graph() {
        assert_eq!(
            search() as u128,
            crate::reference::cas_only_states(N as u32)
        );
    }
}
