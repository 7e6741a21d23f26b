#include "mpl/engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "mpl/fault.hpp"

namespace ppa::mpl {

namespace {
/// The engine whose rank thread this is (set at rank_main entry, never
/// cleared — rank threads live exactly as long as their engine); lets
/// spmd_run and Engine::run detect submission from inside a job body.
thread_local const Engine* t_rank_engine = nullptr;

/// Monitor tick while a job with options is in flight: bounds how stale a
/// deadline/cancel/stall decision can be, and therefore (together with
/// abort's wakeup latency) the teardown latency pinned by tests.
constexpr auto kMonitorTick = std::chrono::milliseconds(1);

std::vector<int> first_ranks(int nprocs) {
  std::vector<int> ranks(static_cast<std::size_t>(nprocs));
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

/// The per-rank code of every job, cold or warm: bind logical rank
/// `logical` of `ctx`, run the body, and on failure record it and abort the
/// job so its ranks blocked in a recv/barrier/collective release.
template <typename Body>
void run_rank(JobContext& ctx, int logical, const Body& body,
              std::exception_ptr& failure) {
  Process process(ctx, logical);
  try {
    body(process);
  } catch (...) {
    failure = std::current_exception();
    ctx.abort();
  }
}

/// Rank a finished job's per-rank failures: a root cause beats the
/// secondary WorldAborted ones its abort provoked. Rethrows the first root
/// cause; otherwise returns the first WorldAborted, or null when every rank
/// returned.
std::exception_ptr rethrow_root_cause(
    const std::vector<std::exception_ptr>& failures) {
  std::exception_ptr first_aborted;
  for (const auto& failure : failures) {
    if (!failure) continue;
    try {
      std::rethrow_exception(failure);
    } catch (const WorldAborted&) {
      if (!first_aborted) first_aborted = failure;
    } catch (...) {
      std::rethrow_exception(failure);
    }
  }
  return first_aborted;
}
}  // namespace

bool on_engine_rank_thread() noexcept { return t_rank_engine != nullptr; }

bool Engine::calling_from_rank_thread() const noexcept {
  return t_rank_engine == this;
}

class Engine::InflightGuard {
 public:
  explicit InflightGuard(Engine& engine) : engine_(engine) {
    const std::scoped_lock lock(engine_.done_mutex_);
    ++engine_.inflight_;
  }
  ~InflightGuard() {
    // Notify while holding the mutex: the engine destructor destroys
    // done_cv_ as soon as it observes inflight_ == 0, so an unlocked
    // notify here could land on a dead condvar.
    const std::scoped_lock lock(engine_.done_mutex_);
    --engine_.inflight_;
    engine_.done_cv_.notify_all();
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  Engine& engine_;
};

Engine::Engine(int width) : Engine(width, nullptr) {}

Engine::Engine(int width, std::shared_ptr<TagSpace> tags) : width_(width) {
  if (width < 1) throw std::invalid_argument("Engine width must be positive");
  world_ = tags ? std::make_unique<World>(width, std::move(tags))
                : std::make_unique<World>(width);
  assign_.resize(static_cast<std::size_t>(width));
  rank_busy_.assign(static_cast<std::size_t>(width), false);
  monitor_thread_ = std::jthread([this] { monitor_main(); });
  threads_.reserve(static_cast<std::size_t>(width));
  try {
    for (int r = 0; r < width; ++r) {
      threads_.emplace_back([this, r] { rank_main(r); });
    }
  } catch (...) {
    // Partial spawn (e.g. std::system_error on a thread-limited system):
    // signal shutdown so the ranks already parked in rank_main exit — and
    // the monitor likewise — then let the jthread members join them during
    // unwinding.
    {
      const std::scoped_lock lock(ctrl_mutex_);
      shutdown_ = true;
    }
    ctrl_cv_.notify_all();
    free_cv_.notify_all();
    {
      const std::scoped_lock lock(monitor_mutex_);
      monitor_stop_ = true;
    }
    monitor_cv_.notify_all();
    throw;
  }
}

Engine::~Engine() {
  {
    const std::scoped_lock lock(ctrl_mutex_);
    shutdown_ = true;
  }
  ctrl_cv_.notify_all();
  free_cv_.notify_all();  // submitters parked in acquire_ranks bail out
  // Join explicitly (rather than via member destruction) so the order is
  // deliberate: ranks first — they may be finishing jobs, possibly ones
  // that are mid-abort, and a *wedged* job with a deadline/watchdog still
  // needs the live monitor to rescue it — then drain the submitter frames
  // (they read monitor entries and the busy map after their ranks finish),
  // then stop and join the monitor.
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&] { return inflight_ == 0; });
  }
  {
    const std::scoped_lock lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

void Engine::rank_main(int rank) {
  t_rank_engine = this;
  const auto slot = static_cast<std::size_t>(rank);
  std::uint64_t seen = 0;
  for (;;) {
    int logical = -1;
    JobExec* exec = nullptr;
    {
      std::unique_lock lock(ctrl_mutex_);
      ctrl_cv_.wait(lock,
                    [&] { return shutdown_ || assign_[slot].ticket != seen; });
      if (assign_[slot].ticket == seen) return;  // shutdown, no pending work
      // A pending assignment outranks shutdown: its submitter is blocked on
      // our rendezvous, so run it; the next loop iteration exits.
      seen = assign_[slot].ticket;
      logical = assign_[slot].logical;
      exec = assign_[slot].exec;
    }
    run_rank(
        exec->ctx, logical,
        [&](Process& process) {
          // Fault-injection crash site: a kThrow rule here models the whole
          // rank body failing at job start. Keyed by physical rank so each
          // rank's op-count stream stays deterministic under space-sharing.
          (void)fault_point(FaultSite::kRankBody, rank);
          (*exec->body)(process);
        },
        exec->failures[static_cast<std::size_t>(logical)]);
    {
      // exec lives in the submitter's frame: once remaining hits zero the
      // submitter may return, so exec must not be touched past this block.
      const std::scoped_lock lock(done_mutex_);
      if (--exec->remaining == 0) done_cv_.notify_all();
    }
  }
}

void Engine::monitor_main() {
  std::unique_lock lock(monitor_mutex_);
  for (;;) {
    if (monitor_stop_) return;
    if (monitor_armed_.empty()) {
      // Parked: zero cost while every in-flight job runs without options.
      monitor_cv_.wait(lock,
                       [&] { return monitor_stop_ || !monitor_armed_.empty(); });
      continue;
    }
    monitor_cv_.wait_for(lock, kMonitorTick);
    if (monitor_stop_) return;

    const auto now = std::chrono::steady_clock::now();
    for (auto it = monitor_armed_.begin(); it != monitor_armed_.end();) {
      MonitorEntry& entry = **it;
      FailureReason reason = FailureReason::kNone;
      if (entry.cancel.cancelled()) {
        reason = FailureReason::kCancelled;
      } else if (entry.has_deadline && now >= entry.deadline) {
        reason = FailureReason::kDeadline;
      } else if (entry.grace.count() > 0) {
        // Progress of this job's ranks only: a busy sibling job must not
        // mask this one's stall, nor a stalled sibling trip this one.
        const std::uint64_t progress = entry.ctx->progress_total();
        if (progress != entry.last_progress) {
          entry.last_progress = progress;
          entry.last_change = now;
        } else if (now - entry.last_change >= entry.grace) {
          reason = FailureReason::kStalled;
        }
      }
      if (reason != FailureReason::kNone) {
        // One shot per job: record why, raise the cooperative flag so
        // compute-bound ranks can observe it, then abort so blocked ranks
        // release with WorldAborted — this job's ranks only; siblings keep
        // running. All non-blocking, so holding monitor_mutex_ is fine.
        entry.reason.store(reason, std::memory_order_release);
        entry.ctx->request_cancel();
        entry.ctx->abort();
        it = monitor_armed_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Engine::arm_monitor(JobExec& exec, const JobOptions& options) {
  if (!options.any()) return;  // option-free jobs never touch the monitor
  MonitorEntry& entry = exec.monitor;
  const auto now = std::chrono::steady_clock::now();
  entry.ctx = &exec.ctx;
  entry.has_deadline = options.deadline.count() > 0;
  entry.deadline = options.deadline_anchor(now) + options.deadline;
  entry.cancel = options.cancel;
  entry.grace = options.watchdog_grace;
  entry.last_progress = exec.ctx.progress_total();
  entry.last_change = now;
  {
    const std::scoped_lock lock(monitor_mutex_);
    monitor_armed_.push_back(&entry);
  }
  monitor_cv_.notify_all();
}

void Engine::disarm_monitor(JobExec& exec) {
  const std::scoped_lock lock(monitor_mutex_);
  // Holding monitor_mutex_ guarantees the monitor is not mid-decision:
  // after this returns it can never abort on the finished job's behalf
  // (which would otherwise leak into a later job on the same ranks). The
  // entry may already be gone — the monitor erases it when it fires.
  const auto it =
      std::find(monitor_armed_.begin(), monitor_armed_.end(), &exec.monitor);
  if (it != monitor_armed_.end()) monitor_armed_.erase(it);
}

void Engine::acquire_ranks(const std::vector<int>& ranks) {
  std::unique_lock lock(ctrl_mutex_);
  free_cv_.wait(lock, [&] {
    if (shutdown_) return true;
    for (const int r : ranks) {
      if (rank_busy_[static_cast<std::size_t>(r)]) return false;
    }
    return true;
  });
  if (shutdown_) {
    throw std::logic_error("Engine::run: engine is shutting down");
  }
  for (const int r : ranks) rank_busy_[static_cast<std::size_t>(r)] = true;
}

void Engine::release_ranks(const std::vector<int>& ranks) {
  {
    const std::scoped_lock lock(ctrl_mutex_);
    for (const int r : ranks) rank_busy_[static_cast<std::size_t>(r)] = false;
  }
  free_cv_.notify_all();
}

TraceSnapshot Engine::execute(JobExec& exec,
                              const std::function<void(Process&)>& body,
                              const JobOptions& options) {
  // Fresh job epoch over this rank set: re-armed barrier, emptied
  // mailboxes, zeroed trace, cleared abort/cancel. Siblings untouched.
  exec.ctx.begin();
  exec.body = &body;
  const int nprocs = exec.ctx.nprocs();
  {
    const std::scoped_lock lock(done_mutex_);
    exec.remaining = nprocs;
  }
  // Arm before the ranks start so the full job is covered; the monitor can
  // only abort *this* job's context, which begin() just reset.
  arm_monitor(exec, options);
  {
    const std::scoped_lock lock(ctrl_mutex_);
    if (shutdown_) {
      // Ranks may already have exited; dispatching would hang the
      // rendezvous forever. Unwind instead — nothing has started.
      if (options.any()) disarm_monitor(exec);
      throw std::logic_error("Engine::run: engine is shutting down");
    }
    for (int i = 0; i < nprocs; ++i) {
      auto& slot = assign_[static_cast<std::size_t>(exec.ctx.physical(i))];
      ++slot.ticket;
      slot.logical = i;
      slot.exec = &exec;
    }
  }
  ctrl_cv_.notify_all();
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&] { return exec.remaining == 0; });
  }
  if (options.any()) disarm_monitor(exec);
  jobs_.fetch_add(1, std::memory_order_relaxed);

  if (const std::exception_ptr first_aborted = rethrow_root_cause(exec.failures)) {
    // Every failure is a secondary WorldAborted: if the monitor initiated
    // the abort, surface its typed reason instead. (A job whose every rank
    // returned cleanly despite a late monitor abort reports success below —
    // cancellation raced completion and completion won.)
    switch (exec.monitor.reason.load(std::memory_order_acquire)) {
      case FailureReason::kCancelled:
        throw JobCancelled{};
      case FailureReason::kDeadline:
        throw JobDeadlineExceeded{};
      case FailureReason::kStalled:
        throw JobStalled{};
      case FailureReason::kNone:
        break;
    }
    std::rethrow_exception(first_aborted);
  }

  // The job trace is already job-shaped: indexed by logical rank, sized to
  // the job width.
  return exec.ctx.trace().snapshot();
}

TraceSnapshot Engine::run_job(int nprocs,
                              const std::function<void(Process&)>& body,
                              const JobOptions& options) {
  if (nprocs < 1 || nprocs > width_) {
    throw std::invalid_argument("Engine::run: nprocs must be in [1, width()]");
  }
  return run_on_ranks(first_ranks(nprocs), body, options);
}

TraceSnapshot Engine::run_on_ranks(const std::vector<int>& ranks,
                                   const std::function<void(Process&)>& body,
                                   const JobOptions& options) {
  if (t_rank_engine == this) {
    throw std::logic_error(
        "Engine::run called from one of this engine's own rank threads (a "
        "job cannot submit to its own engine); use spmd_run, which falls "
        "back to a cold world");
  }
  const InflightGuard guard(*this);
  JobExec exec(*world_, ranks);  // validates the rank set
  acquire_ranks(ranks);
  try {
    TraceSnapshot out = execute(exec, body, options);
    release_ranks(ranks);
    return out;
  } catch (...) {
    release_ranks(ranks);
    throw;
  }
}

TraceSnapshot run_cold_job(int nprocs,
                           const std::function<void(Process&)>& body) {
  World world(nprocs);
  JobContext ctx(world, first_ranks(nprocs));
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(nprocs));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs));
    try {
      for (int r = 0; r < nprocs; ++r) {
        threads.emplace_back([&, r] {
          run_rank(ctx, r, body, failures[static_cast<std::size_t>(r)]);
        });
      }
    } catch (...) {
      // A rank thread failed to start: release the started ranks, which
      // may be blocked on the missing one, so the joins below return.
      ctx.abort();
      throw;
    }
  }  // jthreads join here
  if (const std::exception_ptr aborted = rethrow_root_cause(failures)) {
    std::rethrow_exception(aborted);
  }
  return ctx.trace().snapshot();
}

std::shared_ptr<Engine> process_engine(int min_width) {
  static std::mutex mutex;
  static std::shared_ptr<Engine> engine;
  const std::scoped_lock lock(mutex);
  if (!engine || engine->width() < min_width) {
    const int width = engine ? std::max(min_width, engine->width()) : min_width;
    // Replace rather than grow in place: a caller mid-job on the old engine
    // keeps its shared_ptr; the old engine drains and joins when released.
    engine = std::make_shared<Engine>(width);
  }
  return engine;
}

}  // namespace ppa::mpl
