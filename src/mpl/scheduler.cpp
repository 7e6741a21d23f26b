#include "mpl/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ppa::mpl {

namespace {
/// Queued submitters poll on this tick so their own cancel/deadline is
/// observed promptly even when no grant/release activity wakes them; also
/// bounds how long a doomed (cancelled/expired) ticket can sit in the
/// queue before its owner removes it.
constexpr auto kQueueTick = std::chrono::milliseconds(1);
}  // namespace

Scheduler::Scheduler(std::shared_ptr<Engine> engine, SchedulerConfig config)
    : engine_(std::move(engine)), config_(config) {
  if (!engine_) throw std::invalid_argument("Scheduler: engine must be non-null");
  if (config_.queue_depth < 1) {
    throw std::invalid_argument("Scheduler: queue_depth must be positive");
  }
  rank_busy_.assign(static_cast<std::size_t>(engine_->width()), false);
}

SchedulerStats Scheduler::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

std::vector<int> Scheduler::allocate_locked(int nprocs) {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(nprocs));
  const int width = static_cast<int>(rank_busy_.size());
  for (int r = 0; r < width && static_cast<int>(ranks.size()) < nprocs; ++r) {
    if (!rank_busy_[static_cast<std::size_t>(r)]) ranks.push_back(r);
  }
  if (static_cast<int>(ranks.size()) < nprocs) return {};
  for (const int r : ranks) rank_busy_[static_cast<std::size_t>(r)] = true;
  return ranks;
}

void Scheduler::release_locked(const std::vector<int>& ranks) {
  for (const int r : ranks) rank_busy_[static_cast<std::size_t>(r)] = false;
}

bool Scheduler::grant_locked(std::chrono::steady_clock::time_point now) {
  bool changed = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    Ticket& ticket = **it;
    // A doomed ticket (cancelled, or deadline already passed) must not
    // block the scan; its owner removes it and throws on its next poll.
    if (ticket.cancel.cancelled() ||
        (ticket.has_deadline && now >= ticket.deadline)) {
      ++it;
      continue;
    }
    std::vector<int> ranks = allocate_locked(ticket.nprocs);
    if (ranks.empty()) break;  // strict order: no backfill past this job
    ticket.ranks = std::move(ranks);
    ticket.granted = true;
    it = queue_.erase(it);
    ++stats_.admitted;
    ++running_;
    stats_.concurrency_high_water =
        std::max(stats_.concurrency_high_water, running_);
    changed = true;
  }
  return changed;
}

TraceSnapshot Scheduler::dispatch(Ticket& ticket,
                                  const std::function<void(Process&)>& body,
                                  const JobOptions& options) {
  std::exception_ptr error;
  TraceSnapshot out;
  try {
    out = engine_->run_on_ranks(ticket.ranks, body, options);
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::scoped_lock lock(mutex_);
    release_locked(ticket.ranks);
    --running_;
    if (error) {
      ++stats_.failed;
    } else {
      ++stats_.completed;
    }
    grant_locked(std::chrono::steady_clock::now());
  }
  cv_.notify_all();
  if (error) std::rethrow_exception(error);
  return out;
}

void Scheduler::validate_submission(int nprocs, const char* entry) const {
  if (nprocs < 1 || nprocs > engine_->width()) {
    throw std::invalid_argument(std::string(entry) +
                                ": nprocs must be in [1, width()]");
  }
  if (engine_->calling_from_rank_thread()) {
    throw std::logic_error(
        std::string(entry) +
        " called from one of the engine's own rank threads (a job body must "
        "not submit to its own engine); use spmd_run, which falls back to a "
        "cold world");
  }
}

TraceSnapshot Scheduler::run_job(int nprocs,
                                 const std::function<void(Process&)>& body,
                                 Priority priority, const JobOptions& options) {
  validate_submission(nprocs, "Scheduler::run");

  Ticket ticket;
  ticket.nprocs = nprocs;
  ticket.priority = priority;
  ticket.has_deadline = options.deadline.count() > 0;
  if (ticket.has_deadline) {
    // The SLO clock starts at the anchor — submission by default, earlier
    // when the caller set one (a composed graph sharing a budget): queueing
    // time counts against the deadline, and only the remaining budget
    // reaches the engine monitor.
    ticket.deadline =
        options.deadline_anchor(std::chrono::steady_clock::now()) +
        options.deadline;
  }
  ticket.cancel = options.cancel;

  std::unique_lock lock(mutex_);
  ticket.seq = next_seq_++;

  // Backpressure: a full queue blocks the submitter (it is not yet queued,
  // so it cannot be granted; its cancel/deadline still apply).
  while (queue_.size() >= config_.queue_depth) {
    if (ticket.cancel.cancelled()) {
      ++stats_.cancelled_queued;
      throw JobCancelled{};
    }
    if (ticket.has_deadline &&
        std::chrono::steady_clock::now() >= ticket.deadline) {
      ++stats_.expired_queued;
      throw JobDeadlineExceeded{};
    }
    cv_.wait_for(lock, kQueueTick);
  }

  // Enqueue in (priority, seq) order: behind every ticket of equal-or-
  // higher class (FIFO within a class — seq is monotone).
  const auto pos = std::find_if(queue_.begin(), queue_.end(), [&](const Ticket* t) {
    return static_cast<int>(t->priority) > static_cast<int>(priority);
  });
  queue_.insert(pos, &ticket);
  ++stats_.submitted;
  stats_.queue_high_water = std::max(stats_.queue_high_water, queue_.size());

  grant_locked(std::chrono::steady_clock::now());
  while (!ticket.granted) {
    if (ticket.cancel.cancelled()) {
      queue_.remove(&ticket);
      ++stats_.cancelled_queued;
      cv_.notify_all();  // queue space freed for backpressured submitters
      throw JobCancelled{};
    }
    if (ticket.has_deadline &&
        std::chrono::steady_clock::now() >= ticket.deadline) {
      queue_.remove(&ticket);
      ++stats_.expired_queued;
      cv_.notify_all();
      throw JobDeadlineExceeded{};
    }
    cv_.wait_for(lock, kQueueTick);
    if (!ticket.granted) grant_locked(std::chrono::steady_clock::now());
  }
  lock.unlock();
  cv_.notify_all();  // our grant freed queue space; wake backpressured peers

  JobOptions engine_options = options;
  if (ticket.has_deadline) {
    const auto remaining = ticket.deadline - std::chrono::steady_clock::now();
    // Clamp to a positive budget: a deadline that expired between grant and
    // dispatch must still reach the monitor (deadline == 0 means "none").
    engine_options.deadline =
        std::max(std::chrono::duration_cast<std::chrono::nanoseconds>(remaining),
                 std::chrono::nanoseconds(1));
    // The budget is already remaining-from-now; the engine must not apply
    // the original anchor a second time.
    engine_options.anchor = {};
  }
  return dispatch(ticket, body, engine_options);
}

bool Scheduler::try_run_job(int nprocs,
                            const std::function<void(Process&)>& body,
                            TraceSnapshot& out) {
  validate_submission(nprocs, "Scheduler::try_run_job");
  Ticket ticket;
  ticket.nprocs = nprocs;
  {
    const std::scoped_lock lock(mutex_);
    // Admit-now-or-never — and never ahead of queued jobs: overtaking the
    // queue would invert priorities, so an empty queue is required.
    if (!queue_.empty()) return false;
    ticket.ranks = allocate_locked(nprocs);
    if (ticket.ranks.empty()) return false;
    ticket.seq = next_seq_++;
    ticket.granted = true;
    ++stats_.submitted;
    ++stats_.admitted;
    ++running_;
    stats_.concurrency_high_water =
        std::max(stats_.concurrency_high_water, running_);
  }
  out = dispatch(ticket, body, JobOptions{});
  return true;
}

std::shared_ptr<Scheduler> process_scheduler(int min_width) {
  static std::mutex mutex;
  static std::shared_ptr<Scheduler> scheduler;
  auto engine = process_engine(min_width);
  const std::scoped_lock lock(mutex);
  if (!scheduler || &scheduler->engine() != engine.get()) {
    // The engine grew (by replacement): rebuild the front-end over the new
    // one. In-flight runs on the old scheduler keep their shared_ptr.
    scheduler = std::make_shared<Scheduler>(std::move(engine));
  }
  return scheduler;
}

}  // namespace ppa::mpl
