// ppa/mpl/engine.hpp
//
// The persistent SPMD engine: the paper's code skeletons "create and connect
// the N processes" once per *computation*; a serving-shaped system creates
// them once per *process lifetime* and amortizes that cost across a stream
// of computations. An Engine spawns its rank threads at construction, parks
// them between jobs, and accepts job submissions:
//
//   mpl::Engine engine(8);                 // 8 warm rank threads, one World
//   auto trace = engine.run(4, body);      // job 1: ranks 0..3 run body
//   auto more  = engine.run(8, other);     // job 2: all 8 ranks, fresh epoch
//
// Space-sharing: the engine admits *concurrent* jobs on disjoint rank sets
// of the one reusable World — two np=4 jobs on a width-8 engine run side by
// side. Each job gets its own JobContext (world.hpp): a private barrier,
// trace, abort/cancel flags, and a logical->physical rank mapping, so a job
// on physical ranks {4..7} observes exactly what it would observe running
// solo on ranks 0..3 — bitwise-identical results and identical traces,
// pinned by tests/test_scheduler.cpp. run(nprocs, ...) occupies ranks
// [0, nprocs) and blocks until they are free; run_on_ranks(...) names an
// explicit set. mpl::Scheduler (scheduler.hpp) is the serving front-end
// that allocates rank sets and queues excess jobs with priorities.
//
// Every SPMD run is a job. A cold run (spmd_run_cold, spmd.hpp) goes through
// run_cold_job below: a JobContext over ranks [0, nprocs) of a fresh World,
// one new thread per rank, with the same per-rank code and the same failure
// ranking as the engine — only the lifetimes of the threads and mailboxes
// differ.
//
// Each job opens a fresh *epoch* over its rank set (JobContext::begin): the
// job barrier is armed for the job's width, the set's mailboxes are emptied
// (their lane tables — the expensive part — persist), and the job's trace
// starts at zero, so concurrent and consecutive jobs report independent
// traces exactly as separate spmd_run calls would. Tag blocks reserved from
// the World's shared TagSpace by runs inside a job are released when those
// runs end; concurrent jobs' reservations are disjoint by construction (the
// allocator is thread-safe), so jobs can never collide on user tags.
//
// Failure semantics (identical to a cold run, but scoped to the job): if any
// rank of a job throws, that job's context aborts — every rank *of that
// job* blocked in a recv/barrier/collective is released with WorldAborted,
// while concurrent jobs on disjoint ranks keep running — and the first
// non-WorldAborted exception is rethrown from run(). The abort tears down
// the *job*, not the engine: its rank threads rendezvous and park, the next
// job epoch on those ranks starts clean, and the engine remains fully
// usable.
//
// Per-job control (job.hpp): run(nprocs, body, JobOptions{...}) attaches a
// wall-clock deadline, a CancelToken, and/or a stuck-job watchdog grace to
// the job. A dedicated monitor thread (parked when no armed job is in
// flight) watches every armed job independently and, on deadline expiry /
// token fire / a full grace period with no progress *by that job's ranks*,
// requests cooperative cancellation (Process::cancelled() turns true) and
// aborts that job's context so its blocked ranks release immediately —
// sibling jobs are untouched. The submitter then sees a typed
// JobDeadlineExceeded, JobCancelled, or JobStalled instead of a bare
// WorldAborted — unless some rank failed with its own root-cause exception
// first, which still wins. See docs/substrate.md § Failure semantics and
// § Serving layer.
//
// Thread-safety: run()/run_on_ranks() may be called from any thread;
// submissions whose rank sets overlap serialize (the later call blocks
// until the ranks free up), disjoint submissions run concurrently. run()
// must NOT be called from one of this engine's own rank threads (a rank
// submitting to its own engine could be transitively self-waiting); that is
// detected and throws std::logic_error. The process-wide engine behind
// spmd_run() instead falls back to a cold one-shot world when the call is
// nested, and uses the process scheduler's non-queueing try-admission when
// it is not (scheduler.hpp), so nested and interdependent spmd_run calls
// keep working.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mpl/job.hpp"
#include "mpl/process.hpp"
#include "mpl/world.hpp"

namespace ppa::mpl {

class Engine {
 public:
  /// Spawn `width` rank threads over one reusable World.
  explicit Engine(int width);
  /// Same, with an injected tag space for the World (tests use a small
  /// range to exercise exhaustion/recycling cheaply).
  Engine(int width, std::shared_ptr<TagSpace> tags);
  /// Signals shutdown and joins the rank threads. Blocks until running
  /// jobs complete (jobs are never torn down mid-flight by destruction).
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Maximum job width (rank threads spawned at construction).
  [[nodiscard]] int width() const noexcept { return width_; }
  /// The engine's reusable World. Between jobs only; a job's body reaches
  /// it through its Process.
  [[nodiscard]] World& world() noexcept { return *world_; }
  /// Jobs completed so far (including aborted ones).
  [[nodiscard]] std::uint64_t jobs_run() const noexcept {
    return jobs_.load(std::memory_order_relaxed);
  }
  /// True when the calling thread is one of *this* engine's rank threads —
  /// i.e. we are inside one of its job bodies. Submitting from such a
  /// thread throws (the running job may transitively depend on the
  /// submission); the scheduler checks this before queueing.
  [[nodiscard]] bool calling_from_rank_thread() const noexcept;

  /// Submit `body(process)` as one job on ranks [0, nprocs) and block until
  /// every rank finishes; returns the job's communication trace. Requires
  /// 1 <= nprocs <= width(); blocks while any of those ranks is busy with a
  /// concurrent job. Rethrows the job's root-cause exception (the engine
  /// stays usable afterward). `options` attaches a deadline, cancel token
  /// and/or watchdog to the job (see job.hpp); the default — no options —
  /// costs nothing.
  template <typename Body>
  TraceSnapshot run(int nprocs, Body&& body, const JobOptions& options = {}) {
    // The std::function wraps a reference — run_job blocks until the job is
    // done, so the callable safely outlives every rank's use of it.
    return run_job(nprocs,
                   std::function<void(Process&)>([&body](Process& p) { body(p); }),
                   options);
  }

  /// Type-erased core of run().
  TraceSnapshot run_job(int nprocs, const std::function<void(Process&)>& body,
                        const JobOptions& options = {});

  /// Submit one job on an explicit set of physical ranks (distinct, each in
  /// [0, width())), concurrently with other jobs on disjoint rank sets.
  /// The body sees logical ranks 0..ranks.size()-1 in ascending physical
  /// order. Blocks while any named rank is busy; the scheduler allocates
  /// disjoint sets so its grants never wait here.
  TraceSnapshot run_on_ranks(const std::vector<int>& ranks,
                             const std::function<void(Process&)>& body,
                             const JobOptions& options = {});

 private:
  /// Why the monitor tore a job down (kNone = it did not).
  enum class FailureReason : int { kNone = 0, kCancelled, kDeadline, kStalled };

  /// One armed job's monitor state; lives in the submitter's JobExec frame
  /// and is linked into monitor_armed_ while the job runs with options.
  struct MonitorEntry {
    JobContext* ctx = nullptr;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    CancelToken cancel{};
    std::chrono::nanoseconds grace{0};
    std::uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change{};
    std::atomic<FailureReason> reason{FailureReason::kNone};
  };

  /// Everything one in-flight job needs, allocated in the submitting
  /// call's frame (the submitter blocks until every rank is done, so the
  /// frame outlives all rank-side use).
  struct JobExec {
    JobExec(World& world, const std::vector<int>& ranks)
        : ctx(world, ranks),
          failures(static_cast<std::size_t>(ctx.nprocs())) {}
    JobContext ctx;
    std::vector<std::exception_ptr> failures;  ///< per logical rank
    const std::function<void(Process&)>* body = nullptr;
    int remaining = 0;  ///< ranks still running; guarded by done_mutex_
    MonitorEntry monitor;
  };

  /// What a parked rank thread wakes up to; guarded by ctrl_mutex_.
  struct RankAssignment {
    std::uint64_t ticket = 0;  ///< bumped per dispatch to this rank
    int logical = -1;
    JobExec* exec = nullptr;
  };

  void rank_main(int rank);
  void monitor_main();
  /// Arm the monitor for the job about to start (no-op for empty options).
  void arm_monitor(JobExec& exec, const JobOptions& options);
  /// Disarm after the job's ranks have rendezvoused; after this returns the
  /// monitor can no longer abort on the finished job's behalf.
  void disarm_monitor(JobExec& exec);
  /// Block until every rank in the set is idle, then mark them busy.
  void acquire_ranks(const std::vector<int>& ranks);
  void release_ranks(const std::vector<int>& ranks);
  /// Dispatch + rendezvous + failure processing; ranks already acquired.
  TraceSnapshot execute(JobExec& exec, const std::function<void(Process&)>& body,
                        const JobOptions& options);

  /// Counts submitter frames inside run_on_ranks so the
  /// destructor can drain them before tearing down members they touch.
  class InflightGuard;

  int width_;
  std::unique_ptr<World> world_;

  // Rank dispatch and rank-set ownership: ctrl_mutex_ guards the
  // assignment table and the busy map; ctrl_cv_ wakes parked ranks,
  // free_cv_ wakes submitters waiting for busy ranks.
  std::mutex ctrl_mutex_;
  std::condition_variable ctrl_cv_;
  std::condition_variable free_cv_;
  std::vector<RankAssignment> assign_;
  std::vector<bool> rank_busy_;
  bool shutdown_ = false;

  // Rank-to-submitter rendezvous: the last active rank of a job wakes its
  // submitting thread; also drains inflight_ for the destructor.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  int inflight_ = 0;

  std::atomic<std::uint64_t> jobs_{0};

  // Per-job monitors (deadline / cancel / watchdog). The monitor owns its
  // own mutex — never ctrl_mutex_ or done_mutex_ — so it can fire while
  // ranks and submitters hold those. Entries live in submitter frames.
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  std::vector<MonitorEntry*> monitor_armed_;

  std::jthread monitor_thread_;        ///< joins after the rank threads
  std::vector<std::jthread> threads_;  ///< last member: joins before the rest die
};

/// True when the calling thread is one of *any* Engine's rank threads —
/// i.e. we are inside an SPMD job body. spmd_run uses this to route nested
/// runs to a cold one-shot world instead of deadlocking on the engine.
[[nodiscard]] bool on_engine_rank_thread() noexcept;

/// Type-erased core of spmd_run_cold (spmd.hpp): one job over ranks
/// [0, nprocs) of a fresh World, each rank on its own new thread, joined
/// before return. Runs the engine's per-rank code and failure ranking, so
/// a cold run reports what the same job reports on an engine.
TraceSnapshot run_cold_job(int nprocs, const std::function<void(Process&)>& body);

/// The lazily-created process-wide engine backing spmd_run, grown (by
/// replacement) to at least `min_width` ranks. Returns a shared_ptr so a
/// caller's engine survives a concurrent grow; the replaced engine drains
/// and joins when its last user releases it.
[[nodiscard]] std::shared_ptr<Engine> process_engine(int min_width);

}  // namespace ppa::mpl
