// ppa/mpl/job.hpp
//
// Per-job control for the persistent engine: deadlines, cooperative
// cancellation, and the stuck-job watchdog — the serving-layer knobs that
// ride the existing abort-the-job machinery (engine.hpp, world.hpp).
//
//   mpl::CancelSource cancel;
//   mpl::Engine engine(8);
//   auto fut = std::async([&] {
//     return engine.run(4, body, mpl::JobOptions{
//         .deadline = std::chrono::seconds(2),
//         .cancel = cancel.token(),
//         .watchdog_grace = std::chrono::milliseconds(200)});
//   });
//   cancel.cancel();  // fut.get() throws mpl::JobCancelled
//
// Failure classes (all subclasses of std::runtime_error, all distinct from
// WorldAborted): JobCancelled (the job's CancelToken fired), JobDeadlineExceeded
// (wall-clock budget elapsed), JobStalled (the watchdog saw no rank make
// progress for a full grace period). In every case the engine's monitor
// aborts the job — its ranks blocked in recv/barrier/collectives are
// released immediately — and the engine parks cleanly for the next job.
// Bodies that poll Process::cancelled() between compute phases can exit
// early; throw_if_cancelled() packages the common pattern.
//
// Thread-safety: CancelSource/CancelToken are freely copyable handles over
// one shared atomic flag; cancel() may race job execution and submission
// arbitrarily. JobOptions is a value type read once at submission.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

namespace ppa::mpl {

/// The job observed its cancellation (token fired, monitor tore it down).
struct JobCancelled : std::runtime_error {
  JobCancelled() : std::runtime_error("ppa::mpl job cancelled") {}
};

/// The job's wall-clock deadline elapsed before it finished.
struct JobDeadlineExceeded : std::runtime_error {
  JobDeadlineExceeded()
      : std::runtime_error("ppa::mpl job deadline exceeded") {}
};

/// The watchdog saw no rank complete any send/recv/barrier for a full grace
/// period and tore the job down as wedged.
struct JobStalled : std::runtime_error {
  JobStalled()
      : std::runtime_error(
            "ppa::mpl job stalled (watchdog: no progress within grace)") {}
};

/// Read side of a cancellation flag. Default-constructed tokens are inert
/// (valid() == false); jobs poll via Process::cancelled().
class CancelToken {
 public:
  CancelToken() = default;
  [[nodiscard]] bool valid() const noexcept { return flag_ != nullptr; }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: hand token() to a job submission, call cancel() from any
/// thread to request teardown. Idempotent; one source may feed many jobs.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void cancel() noexcept { flag_->store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  [[nodiscard]] CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-job control passed to Engine::run. Every field defaults to "off":
/// JobOptions{} submits exactly as the option-free overload does, with zero
/// monitor interaction.
struct JobOptions {
  /// Wall-clock budget measured from `anchor` (or submission); zero =
  /// unlimited.
  std::chrono::nanoseconds deadline{0};
  /// Where the deadline clock starts. Default ({}) anchors at submission —
  /// the serving SLO contract. A composed graph (core/compose.hpp) that
  /// submits many hosted jobs under one budget sets this to the graph run's
  /// start, so every hosted job shares the remaining graph budget instead of
  /// each restarting the clock. An anchor already past its deadline makes the
  /// submission throw JobDeadlineExceeded without admission.
  std::chrono::steady_clock::time_point anchor{};
  /// Cancellation handle; an invalid (default) token is never consulted.
  CancelToken cancel{};
  /// Watchdog: abort as stalled when no rank makes progress (completes a
  /// send, receive, or barrier arrival) for this long; zero = watchdog off.
  /// Pure-compute phases longer than the grace look like stalls — size it
  /// above the job's longest communication-free stretch.
  std::chrono::nanoseconds watchdog_grace{0};

  [[nodiscard]] bool any() const noexcept {
    return deadline.count() > 0 || cancel.valid() || watchdog_grace.count() > 0;
  }

  /// The instant the deadline clock starts: `anchor` when set, else `now`
  /// (the moment of submission). Callers pass std::chrono::steady_clock::now().
  [[nodiscard]] std::chrono::steady_clock::time_point deadline_anchor(
      std::chrono::steady_clock::time_point now) const noexcept {
    return anchor == std::chrono::steady_clock::time_point{} ? now : anchor;
  }
};

}  // namespace ppa::mpl
