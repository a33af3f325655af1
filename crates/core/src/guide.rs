//! # A guided tour: the paper, section by section, in code
//!
//! This module contains no items — it is the map from Afek & Stupp's
//! text to this repository. Read it with the paper (or DESIGN.md's
//! summary) at hand.
//!
//! ## §1 Introduction
//!
//! > *"It is by now well known that the type of operations supported
//! > on the shared memory cells greatly effects the kind of tasks that
//! > the n processes can solve."*
//!
//! The object zoo lives in [`bso_objects::spec::ObjectState`]: atomic
//! read/write registers, `compare&swap-(k)` over Σ = {⊥, 0, …, k−2},
//! unbounded compare&swap, test&set, fetch&add, FIFO queues, sticky
//! registers, snapshot objects, and the general bounded `rmw-(k)`.
//! Each has a sequential specification (the linearization reference)
//! and a hardware implementation ([`bso_objects::atomic`]) so the same
//! protocols run under the model checker and on real threads.
//!
//! > *"If only atomic read or write operations are supported … the
//! > system cannot wait-freely reach consensus, even if n = 2. …
//! > test-and-set … 2 processes can elect a leader …, but 3 can solve
//! > neither."*
//!
//! [`bso_hierarchy`] reproduces this landscape: the *possible* side by
//! exhaustive model checking ([`bso_sim::Explorer`] — a `Verified`
//! outcome covers **every** interleaving, and wait-freedom is decided
//! as acyclicity of the reachable state graph), the *impossible* side
//! by refutation ([`bso_sim::refute`] — a concrete counterexample
//! schedule against each natural candidate). `examples/hierarchy.rs`
//! prints the table; `examples/valence.rs` dissects the FLP mechanics
//! (bivalent and critical states) that power the refuter.
//!
//! > *"Herlihy showed that given these operation types any
//! > sequentially specified problem can be solved."*
//!
//! [`bso_protocols::universal`] is that construction — the consensus
//! log with announcement helping — exercised as universal counters,
//! test&set bits and registers, every response validated by agreed-log
//! replay.
//!
//! ## §2 Model and definitions
//!
//! The asynchronous shared-memory model is [`bso_sim`]: protocols are
//! state machines performing exactly one atomic shared-memory
//! operation per step ([`bso_sim::Protocol`]), the adversary is a
//! [`bso_sim::Scheduler`], crashes are fail-stops
//! ([`bso_sim::CrashPlan`]). The task specifications of §2 — leader
//! election (consistent / wait-free / valid) and k-set consensus — are
//! [`bso_sim::checker`]'s functions, enforced both on recorded runs
//! and incrementally inside the explorer.
//!
//! ## The two sides of `n_k`
//!
//! * **`k − 1` with the register alone** (Burns–Cruz–Loui \[5\],
//!   quoted in §1/§4): [`bso_protocols::CasOnlyElection`] — one
//!   `c&s(⊥ → own symbol)` per process, the response names the winner.
//!   Generalized to arbitrary bounded read-modify-write registers in
//!   the exact write-once model of \[5\] by
//!   [`bso_protocols::RmwOnlyElection`].
//! * **`(k − 1)!` with registers added** (the Ω(k!) algorithm of the
//!   FOCS '93 companion \[1\]): [`bso_protocols::LabelElection`] — the
//!   register's value history is driven to be a *permutation prefix*
//!   (the paper's label), recorded in a write-ahead log; the completed
//!   permutation names the leader via the Lehmer bijection
//!   ([`bso_combinatorics::perm`]). Verified exhaustively for small
//!   instances, stressed to n = 120 at k = 6, and run on hardware
//!   atomics. [`bso_protocols::LabelElectionRw`] is the
//!   fully-from-scratch twin: the snapshot object replaced by the
//!   register-built snapshot ([`bso_protocols::swmr`]), so nothing
//!   below the compare&swap is stronger than a read or a write.
//! * **`O(k^(k²+3))` at most** (Theorem 1): not runnable — it is an
//!   impossibility — but its *proof object* is: see below.
//!
//! `examples/bounds_table.rs` prints the whole landscape, including
//! the paper's closing conjecture `n_k = Θ(k!)`.
//!
//! ## §3 The reduction (Theorem 1)
//!
//! The proof emulates a hypothetical big election `A` by
//! `m = (k−1)!+1` emulators restricted to read/write memory; the
//! emulators split into at most `(k−1)!` groups (one per label) and
//! would solve (k−1)!-set consensus — impossible from registers.
//!
//! Two executable engines:
//!
//! * [`bso_emulation::Reduction`] — the base-case splitting of \[1\]
//!   (one branch per conflicting successful compare&swap), validated
//!   per branch by real-time linearizability replay. For the
//!   value-fresh algorithms above, branch = label and the `(k−1)!`
//!   counting is observable (`examples/reduction.rs`, including a
//!   scripted schedule that *forces* a group split).
//! * [`bso_emulation::rich`] — the full PODC '94 machinery:
//!   suspension quotas (Fig. 3 ll. 4–5), rebalancing releases with the
//!   concurrency margin (Fig. 5), and tree-routed history updates
//!   through excess-graph cycles (Fig. 6). Exercised by the
//!   value-reusing [`bso_emulation::pingpong::PingPong`] workload and
//!   validated by **run legality**
//!   ([`bso_sim::linearizability::check_run_legality`]) with frozen
//!   suspended operations *mapped into* the run — exactly how Lemma
//!   1.2 builds `R|λ`. Under-provisioned instances *stall*, which is
//!   the paper's Φ requirement made measurable
//!   (`examples/rich_emulation.rs`).
//!
//! The figures map to modules one-to-one:
//!
//! | figure | module |
//! |---|---|
//! | Fig. 1 (tree `T`, small trees `t`, `FromParent`/`ToParent`, m-tuple records) | [`bso_emulation::tree`] |
//! | Fig. 2 (vp-graph) | suspension records in [`bso_emulation::rich`] + Definition 1 counting in [`bso_emulation::excess`] |
//! | Fig. 3 (`Emulation`) | [`bso_emulation::EmulationProtocol`] / [`bso_emulation::rich::RichEmulation`] |
//! | Fig. 4 (`ComputeHistory`) | [`bso_emulation::tree::HistoryTree::compute_history`] |
//! | Fig. 5 (`CanRebalance`) | `RichEmulation::try_rebalance` |
//! | Fig. 6 (`UpdateC&S`) | `RichEmulation::try_update` over [`bso_emulation::excess`] |
//!
//! ## Lemma 1.1 (the move/jump game)
//!
//! [`bso_combinatorics::game`] with exhaustive strategy search in
//! [`bso_combinatorics::search`]: at most `m^k` moves before the
//! painted edges contain a cycle (for m ≥ 2 — see the module docs for
//! two subtleties the extended abstract glosses over, found *by*
//! implementing it: the jump rule's parenthetical is load-bearing, and
//! m = 1 degenerates to k−1). `examples/game.rs` prints measured
//! maxima against the bound.
//!
//! ## §4 Conclusions
//!
//! * *"adding read/write registers to the compare&swap register
//!   increases its power"* — `examples/election.rs`, the k−1 vs
//!   (k−1)! table.
//! * *"we believe that the results … can be extended to hold for
//!   arbitrary read-modify-write registers of size k"* —
//!   [`bso_objects::ObjectInit::RmwK`] and
//!   [`bso_protocols::RmwOnlyElection`] lay that groundwork
//!   (compare&swap-(k) is verified to be an `rmw-(k)` instance).
//! * The related-work Kleinberg–Mullainathan direction —
//!   [`bso_hierarchy::km::BinaryFromElection`].

// This module intentionally declares nothing.
