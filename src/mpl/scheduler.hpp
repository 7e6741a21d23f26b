// ppa/mpl/scheduler.hpp
//
// The serving front-end for the persistent engine: a space-sharing job
// scheduler. Where Engine::run(nprocs, ...) always occupies ranks
// [0, nprocs) — so two narrow jobs serialize even when the engine is wide
// enough for both — the Scheduler allocates *disjoint rank sets* and admits
// concurrent jobs side by side:
//
//   auto engine = std::make_shared<mpl::Engine>(8);
//   mpl::Scheduler sched(engine);
//   // From two threads: both admitted at once, on ranks {0..3} and {4..7}.
//   auto a = sched.run(4, body_a);
//   auto b = sched.run(4, body_b);
//
// Jobs that do not fit the currently-free ranks wait in a bounded admission
// queue ordered by (priority, submission order). The grant scan is strict:
// it stops at the first queued job that does not fit, so a wide high-
// priority job is never starved by a stream of narrow low-priority ones
// slipping past it (no backfill — predictability over utilization, the
// right trade for a latency-SLO serving layer; BENCH_serving.json
// quantifies the concurrency win). Ranks are granted lowest-index-first,
// so a solo job on np ranks gets exactly the set {0..np-1} it would get
// from Engine::run — and, by JobContext's isolation guarantees, bitwise-
// identical results and traces no matter what runs beside it
// (tests/test_scheduler.cpp pins this at several width splits).
//
// Queue semantics:
//  * Bounded depth (SchedulerConfig::queue_depth): when the queue is full,
//    run() blocks until space frees up — backpressure, not rejection.
//  * A queued job whose CancelToken fires is removed without ever running
//    and its submitter sees JobCancelled.
//  * A JobOptions::deadline is measured from *submission* — or from
//    JobOptions::anchor when set (a composed graph charging many hosted
//    jobs against one budget, core/compose.hpp): if it expires while the
//    job is still queued (or blocked on backpressure), the submitter sees
//    JobDeadlineExceeded without the job ever being admitted; if the job
//    is granted in time, only the *remaining* budget is handed to the
//    engine's per-job monitor.
//
// Deadlock rules (the transitive-dependency hazard documented on
// Scheduler::try_run_job applies doubly to a queue: a queued job whose
// admission depends on a running job that is itself waiting on the queued
// job's submitter would wedge both):
//  * run() from one of the engine's own rank threads throws
//    std::logic_error — a job body must not queue on its own engine.
//  * try_run_job() never queues: it admits only if the queue is empty and
//    enough ranks are free *right now*, else returns false without running.
//    spmd_run uses exactly this, falling back to a cold one-shot world, so
//    interdependent spmd_run calls keep working (pinned by the dependent-
//    concurrent-jobs tests).
//
// Thread-safety: all methods may be called from any thread; stats() is a
// consistent snapshot. The Scheduler must outlive every run() call.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>

#include "mpl/engine.hpp"

namespace ppa::mpl {

/// Admission priority classes; lower value admits first. Within a class,
/// jobs admit in submission order (FIFO).
enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };

struct SchedulerConfig {
  /// Maximum number of jobs waiting for ranks; further run() calls block
  /// (backpressure) until the queue drains below this.
  std::size_t queue_depth = 64;
};

/// Monotonic counters plus high-water marks; see Scheduler::stats().
struct SchedulerStats {
  std::uint64_t submitted = 0;         ///< jobs accepted (queued or try-admitted)
  std::uint64_t admitted = 0;          ///< granted a rank set and dispatched
  std::uint64_t completed = 0;         ///< dispatched jobs that returned
  std::uint64_t failed = 0;            ///< dispatched jobs that threw
  std::uint64_t cancelled_queued = 0;  ///< cancelled before admission
  std::uint64_t expired_queued = 0;    ///< deadline passed before admission
  std::size_t queue_high_water = 0;    ///< max jobs queued at once
  int concurrency_high_water = 0;      ///< max jobs running at once
};

class Scheduler {
 public:
  /// Serve jobs onto `engine` (shared: the scheduler keeps it alive).
  explicit Scheduler(std::shared_ptr<Engine> engine, SchedulerConfig config = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  /// Engine width == total ranks available for space-sharing.
  [[nodiscard]] int width() const noexcept { return engine_->width(); }
  [[nodiscard]] SchedulerStats stats() const;

  /// Submit `body(process)` as one job of width `nprocs` and block until it
  /// completes; returns the job's trace. Queues (bounded, priority-ordered)
  /// when the job does not fit the free ranks. Rethrows the job's failure;
  /// throws JobCancelled / JobDeadlineExceeded if options cancel or expire
  /// the job *before* admission (see queue semantics above).
  template <typename Body>
  TraceSnapshot run(int nprocs, Body&& body, Priority priority = Priority::kNormal,
                    const JobOptions& options = {}) {
    return run_job(nprocs,
                   std::function<void(Process&)>([&body](Process& p) { body(p); }),
                   priority, options);
  }

  /// Type-erased core of run().
  TraceSnapshot run_job(int nprocs, const std::function<void(Process&)>& body,
                        Priority priority = Priority::kNormal,
                        const JobOptions& options = {});

  /// Admit-now-or-never: run the job only if the queue is empty and
  /// `nprocs` ranks are free right now; false (nothing ran) otherwise.
  /// Never waits and never queues: the submitted run may be a transitive
  /// dependency of an in-flight job (e.g. a thread-pool task the running
  /// job is waiting on issues its own spmd_run), so blocking could
  /// deadlock. spmd_run's warm path. Exceptions from a job that did run
  /// propagate as in run().
  bool try_run_job(int nprocs, const std::function<void(Process&)>& body,
                   TraceSnapshot& out);

 private:
  /// One queued submission, allocated in its submitter's run_job frame.
  struct Ticket {
    int nprocs = 0;
    Priority priority = Priority::kNormal;
    std::uint64_t seq = 0;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    CancelToken cancel{};
    bool granted = false;
    std::vector<int> ranks;  ///< filled at grant
  };

  /// Scan the queue in (priority, seq) order: sweep cancelled/expired
  /// tickets, grant every fitting job lowest-index-first, stop at the
  /// first job that does not fit. Caller holds mutex_; caller notifies
  /// cv_ after unlocking when this may have changed any ticket's state.
  /// Returns true when any ticket changed state.
  bool grant_locked(std::chrono::steady_clock::time_point now);
  /// Both entry points' checks, in messages that name `entry`: nprocs in
  /// [1, width()] (std::invalid_argument), and a caller that is not one of
  /// the engine's rank threads (std::logic_error).
  void validate_submission(int nprocs, const char* entry) const;
  /// Lowest-index allocation; empty result when nprocs ranks are not free.
  std::vector<int> allocate_locked(int nprocs);
  void release_locked(const std::vector<int>& ranks);
  /// Dispatch a granted ticket to the engine and release its ranks after.
  TraceSnapshot dispatch(Ticket& ticket, const std::function<void(Process&)>& body,
                         const JobOptions& options);

  std::shared_ptr<Engine> engine_;
  SchedulerConfig config_;

  mutable std::mutex mutex_;
  /// Wakes queued submitters (grant / cancel / expiry) and backpressured
  /// ones (queue space). Submitters also poll on a short tick so their own
  /// cancel/deadline is observed promptly even with no queue activity.
  std::condition_variable cv_;
  std::list<Ticket*> queue_;    ///< (priority, seq) order; tickets live in
                                ///< their submitters' frames
  std::vector<bool> rank_busy_; ///< the scheduler's own allocation map
  std::uint64_t next_seq_ = 0;
  int running_ = 0;
  SchedulerStats stats_;
};

/// The process-wide scheduler over process_engine(min_width), rebuilt when
/// the engine grows. Backs spmd_run's warm path.
[[nodiscard]] std::shared_ptr<Scheduler> process_scheduler(int min_width);

}  // namespace ppa::mpl
