// ppa/mpl/spmd.hpp
//
// The SPMD runtime: run the same body on N "processes" (threads with
// private mailboxes), join, and propagate failures. This is the
// archetype-supplied "code skeleton needed to create and connect the N
// processes" (paper sections 3.5.3 and 5.3).
//
// Every run is one job (a JobContext, world.hpp), warm or cold. spmd_run is
// a thin wrapper over the lazily-created process-wide mpl::Engine
// (engine.hpp): the rank threads and mailboxes are created once and
// *reused* across calls — each call is one job on warm ranks, which is what
// lets a serving-shaped workload issue a stream of SPMD computations
// without paying thread creation per request. spmd_run_cold runs the same
// job on a fresh World with one new thread per rank (the nested-run
// fallback, and the cold-start baseline for benchmarks); it shares the
// engine's per-rank code and failure ranking, so both report the same
// trace and the same failure for the same body.
//
// Failure semantics: if any rank throws, the job is aborted — every other
// rank blocked in a recv/barrier/collective is released with WorldAborted —
// and the first non-WorldAborted exception is rethrown in the caller. The
// process-wide engine survives the abort and the next call runs clean.
//
// Thread-safety: spmd_run blocks the calling thread until every rank joins.
// Warm runs go through the process-wide Scheduler (scheduler.hpp), which
// space-shares the engine: two concurrent narrow spmd_run calls run side by
// side on disjoint rank sets when the engine is wide enough. The scheduler
// path is admit-now-or-never — a call that cannot be admitted immediately
// (ranks busy, or jobs already queued ahead of it) falls back to a cold
// one-shot world, so interdependent runs — e.g. a call issued (possibly
// through a thread pool) from work an in-flight job depends on — can never
// deadlock on scheduler queueing. A
// nested spmd_run — called from inside a rank's body — likewise runs on a
// cold world. The body runs concurrently on N threads, each owning its
// Process, its grids and its plans. State captured by reference into the
// body is shared across ranks — share only immutable inputs (problem
// configs, topologies) or rank-indexed slots (as spmd_collect does for
// results).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "mpl/engine.hpp"
#include "mpl/process.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/world.hpp"

namespace ppa::mpl {

/// One-shot SPMD run: one job on a fresh World with N fresh threads
/// (run_cold_job, engine.hpp). Kept as the nested-run fallback and as the
/// cold-start contrast for the engine benchmarks; new code should prefer
/// spmd_run (warm process engine) or an explicit Engine.
template <typename Body>
TraceSnapshot spmd_run_cold(int nprocs, Body&& body) {
  return run_cold_job(nprocs,
                      std::function<void(Process&)>([&body](Process& p) { body(p); }));
}

/// Run `body(process)` on `nprocs` ranks; returns the job's communication
/// trace for the run. Executes as one job on the warm process-wide engine —
/// via the process scheduler's non-queueing admission, so concurrent narrow
/// runs space-share the engine — when it can be admitted immediately; a
/// nested call from inside an SPMD body, or a call that cannot get ranks
/// right now, falls back to a cold one-shot world (see header notes —
/// queueing on a busy engine could deadlock when the in-flight job
/// transitively depends on this run).
template <typename Body>
TraceSnapshot spmd_run(int nprocs, Body&& body) {
  const std::function<void(Process&)> fn([&body](Process& p) { body(p); });
  if (!on_engine_rank_thread()) {
    TraceSnapshot out;
    if (process_scheduler(nprocs)->try_run_job(nprocs, fn, out)) return out;
  }
  return run_cold_job(nprocs, fn);
}

/// Run an SPMD computation in which each rank produces a result; returns the
/// per-rank results in rank order (and the trace via out-param if given).
template <typename R, typename Body>
std::vector<R> spmd_collect(int nprocs, Body&& body, TraceSnapshot* trace = nullptr) {
  // One slot object per rank: for R = bool a std::vector<R> packs the ranks'
  // results into shared words, which concurrent ranks would write racily.
  struct Slot {
    R value;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(nprocs));
  auto snapshot = spmd_run(nprocs, [&](Process& p) {
    slots[static_cast<std::size_t>(p.rank())].value = body(p);
  });
  if (trace != nullptr) *trace = snapshot;
  std::vector<R> results;
  results.reserve(slots.size());
  for (auto& s : slots) results.push_back(std::move(s.value));
  return results;
}

}  // namespace ppa::mpl
