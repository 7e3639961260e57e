// Package jets is a from-scratch Go reproduction of JETS, the
// many-parallel-task computing (MPTC) middleware of Wozniak, Wilde, and
// Katz ("JETS: Language and System Support for Many-Parallel-Task
// Computing", ICPP 2011; journal version J Grid Computing 11:341-360,
// 2013).
//
// JETS runs very large batches of short, tightly coupled MPI jobs inside a
// single scheduler allocation: persistent pilot-job workers pull tasks from
// a highly concurrent central dispatcher, which transforms each MPI job
// specification into a set of process-manager proxy launches
// (MPICH2/Hydra's launcher=manual mechanism) and assembles worker groups
// dynamically, first-come-first-served.
//
// The repository implements the complete stack:
//
//   - internal/dispatch, internal/worker, internal/core — the JETS
//     dispatcher, pilot agents, and stand-alone engine (the paper's primary
//     contribution);
//   - internal/hydra, internal/pmi — the mpiexec/proxy process manager and
//     the PMI-1 protocol it serves;
//   - internal/mpi — a pure-Go MPI (point-to-point with tag matching,
//     tree collectives, two-phase collective writes) over channel and TCP
//     transports;
//   - internal/swiftlang, internal/dataflow — the mini-Swift dataflow
//     language, whose app calls reach JETS through internal/core (the
//     paper's CoasterService path, cmd/swiftrun);
//   - internal/namd, internal/rem — the synthetic NAMD application and the
//     replica exchange method;
//   - internal/event, internal/simjets, internal/fsim —
//     the discrete-event simulator that replays the paper's Blue Gene/P
//     scale experiments in virtual time.
//
// bench_test.go regenerates every evaluation figure; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-vs-measured results.
package jets
