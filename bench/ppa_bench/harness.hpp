// bench/ppa_bench/harness.hpp
//
// Shared scaffolding of the ppa_bench workloads: the run options, the
// metric record a run fills, order statistics, the span log a traced run
// writes as Chrome trace-event JSON, and the stamps the bench takes around
// one SPMD job (submit, each rank's body entry and exit, return).
//
// Everything here lives in the bench: spans are taken around calls into
// the library's public functions, never inside the library.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/poisson/poisson.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/trace.hpp"
#include "support/ndarray.hpp"
#include "support/rng.hpp"

namespace ppa_bench {

using Clock = std::chrono::steady_clock;

/// Engine width every workload runs on: one warm engine, one rank thread
/// per core of the 4-core reference host.
inline constexpr int kWidth = 4;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A traced serve_mixed or compose_stream run alternates this many pairs of
/// equally long untraced and traced phases: host speed drifts over
/// seconds, and short alternating phases expose both sides to it alike.
inline constexpr int kTracedRounds = 4;

/// What one invocation asks for.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool traced = false;    ///< per-layer run (spans on) instead of end-to-end
  bool check = false;     ///< smoke sizes: small inputs, short phases
};

/// Linear-interpolation quantile (numpy's default) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// The metrics and the correctness tally of one run.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< ops checked against an oracle
  std::uint64_t failed = 0;     ///< ops that threw, or mismatched the oracle
  int load_threads = 1;         ///< submitting threads the workload used

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Run `op`, which returns whether its output matched the oracle; a
  /// throw counts as a failure and is reported on stderr once per kind.
  void checked(const char* what, const std::function<bool()>& op);
};

/// The machine's stolen CPU time, sampled by a background thread every
/// 100 ms from the `steal` column of /proc/stat while the monitor lives.
///
/// On the reference host the hypervisor takes CPU time from this machine's
/// vCPUs in episodes of seconds to minutes. A lockstep op waits for its
/// slowest rank, so one rank whose vCPU is taken away stalls all of them:
/// mesh_latency solves ran up to 7x slower in such seconds, and the slow
/// seconds were the stolen ones. Those ops measure the host, not the
/// program, so the end-to-end statistics leave them out (see kept()).
class StealMonitor {
 public:
  /// Ops whose window lost more than this share of the machine's CPU time
  /// are left out. Quiet seconds lose 0-1%, and op times in them are level;
  /// seconds that lose more run visibly slower.
  static constexpr double kMaxShare = 0.01;

  StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Share of the machine's CPU time stolen over [t0, t1], widened to at
  /// least one second centred on it (the counter ticks in 10 ms steps).
  [[nodiscard]] double share(Clock::time_point t0, Clock::time_point t1) const;
  /// Which ops, op i spanning [start[i], end[i]], to take statistics over:
  /// those whose share() is at most kMaxShare. When fewer than a quarter
  /// pass, the quarter with the least steal instead, so a run inside an
  /// episode still reports its least disturbed ops.
  [[nodiscard]] std::vector<bool> kept(const std::vector<Clock::time_point>& start,
                                       const std::vector<Clock::time_point>& end) const;

 private:
  struct Sample {
    Clock::time_point t;
    double stolen_s = 0.0;  ///< summed over CPUs since boot
  };
  void sample() const;

  double cpus_ = 1.0;
  mutable std::mutex mutex_;  ///< guards samples_
  mutable std::vector<Sample> samples_;
  std::condition_variable_any wake_;
  std::jthread thread_;  ///< declared last: stops and joins first
};

/// Start and completion times of the ops of one measured phase, in
/// completion order.
struct OpLog {
  std::vector<Clock::time_point> start, done;
  void add(Clock::time_point t0, Clock::time_point t1) {
    start.push_back(t0);
    done.push_back(t1);
  }
  /// Every op's wall time.
  [[nodiscard]] std::vector<double> seconds() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < start.size(); ++i) out.push_back(seconds_between(start[i], done[i]));
    return out;
  }
};

/// One warm engine of kWidth ranks, each rank thread pinned to its own CPU
/// when the process may use at least kWidth, and the scheduler every
/// workload submits through.
struct Serving {
  Serving();
  std::shared_ptr<ppa::mpl::Engine> engine;
  std::unique_ptr<ppa::mpl::Scheduler> sched;
};

/// Keep kWidth threads busy for at least 1.5 s and until fixed-size chunks
/// of arithmetic run at a steady speed (at most 4 s). On a virtual machine
/// whose idle vCPUs the host parks, the first second of load can run
/// several times slower; this spends it before anything is timed. Touches
/// no library code.
void condition_host();

/// Times set-ups. One set-up builds a fresh Serving, runs `setup` on it
/// (whatever the workload builds, and its first op), and is timed as a
/// whole. Half the set-ups run before the measured phase and half after
/// it: a host episode that covers a second or two of the run then cannot
/// take them all.
class SetupTimer {
 public:
  SetupTimer(const RunOptions& opt, const StealMonitor& steal,
             std::function<void(Serving&)> setup);

  /// Condition the host (not in a --check run), time the first half of the
  /// set-ups, and return the last Serving, for the measured phase.
  [[nodiscard]] std::unique_ptr<Serving> before();
  /// Release the measured phase's Serving, time the second half, and
  /// return the median over all set-ups that StealMonitor::kept() keeps.
  [[nodiscard]] double after(std::unique_ptr<Serving> used);

 private:
  std::unique_ptr<Serving> time(int reps);

  const RunOptions& opt_;
  const StealMonitor& steal_;
  std::function<void(Serving&)> setup_;
  std::vector<Clock::time_point> t0s_, t1s_;
};

/// Peak resident set of this process image (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Emit the end-to-end metrics of a phase of ops that began at
/// `phase_start`, all but setup_s: per-op time quantiles, ops completed per
/// second, and peak memory, plus the share of ops the statistics kept.
/// Stolen ops are left out: the quantiles are over the kept ops, and
/// ops_per_s is the kept ops over the time they took to complete, each op
/// charged the interval since the previous completion. With every op kept,
/// that is the ops completed over the phase.
void emit_end_to_end(Outcome& out, const StealMonitor& steal,
                     Clock::time_point phase_start, const OpLog& ops);

/// Run `op(k)` for k = 0, 1, ... back to back until `seconds` have elapsed.
void run_for(double seconds, const std::function<void(std::size_t)>& op);

// ------------------------------------------------------------------ spans --

/// One timed interval on one thread's lane.
struct Span {
  const char* name = "";
  const char* cat = "";
  Clock::time_point t0{};
  Clock::time_point t1{};
  std::uint64_t op = 0;
};

/// Per-thread span lanes kept in memory and written once, at the end, as
/// Chrome trace-event JSON (pid = workload, tid = one lane per thread:
/// engine rank threads, submitters, main). Recording stops storing after
/// kCap spans so a long run's file stays a few MB; the workloads keep
/// their aggregates separately.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 60000;

  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Record a span on the calling thread's lane; `role` names the lane the
  /// first time this thread records ("engine", "submitter", ...).
  void add(const char* role, const Span& span);
  /// Write every stored span; false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& workload,
                    Clock::time_point origin) const;

 private:
  struct Lane {
    std::string label;
    std::vector<Span> spans;
  };
  Lane& lane(const char* role);

  mutable std::mutex mutex_;  ///< guards lane registration
  std::deque<Lane> lanes_;    ///< push_back keeps references to lanes valid
  std::atomic<std::size_t> stored_{0};
};

/// Record `name` from `t0` to now on `log` (no-op when log is null) and
/// return now, so consecutive spans chain without extra clock reads.
inline Clock::time_point mark(SpanLog* log, const char* role, const char* cat,
                              const char* name, Clock::time_point t0,
                              std::uint64_t op) {
  const auto t1 = Clock::now();
  if (log != nullptr) log->add(role, Span{name, cat, t0, t1, op});
  return t1;
}

// ------------------------------------------------------------- job stamps --

/// The bench's view of one SPMD job: the submit call, each logical rank's
/// body entry and exit, the submit call's return, and the job's trace.
struct JobStamps {
  explicit JobStamps(int np)
      : entry(static_cast<std::size_t>(np)), exit(static_cast<std::size_t>(np)) {}
  Clock::time_point submit{};
  Clock::time_point done{};
  std::vector<Clock::time_point> entry;
  std::vector<Clock::time_point> exit;
  ppa::mpl::TraceSnapshot trace;

  /// submit -> rank 0's body entry (scheduler admission + dispatch).
  [[nodiscard]] double admit_s() const { return seconds_between(submit, entry[0]); }
  /// submit -> the last rank's body entry.
  [[nodiscard]] double dispatch_s() const;
  /// the last rank's body exit -> submit returns.
  [[nodiscard]] double join_s() const;
  /// median over ranks of body entry -> exit.
  [[nodiscard]] double service_s() const;
  /// rank 0's body entry -> exit.
  [[nodiscard]] double body_s() const { return seconds_between(entry[0], exit[0]); }
};

/// Submit `body` as one np-wide job through `sched`, stamping it. Each rank
/// writes only its own slots, and the submitter reads them after run()
/// returns, which orders the writes before the reads.
JobStamps run_stamped(ppa::mpl::Scheduler& sched, int np,
                      const std::function<void(ppa::mpl::Process&)>& body,
                      SpanLog* log, const char* name, std::uint64_t op);

/// Per-layer samples of the submission layers, one entry per traced job,
/// plus trace counters summed per op.
struct LayerSamples {
  std::vector<double> admit, dispatch, join, service;
  double msgs = 0, bytes = 0, copied = 0, allreduce = 0;
  std::uint64_t ops = 0;  ///< ops the counters are summed over

  void add_job(const JobStamps& js);
  void add_counts(const ppa::mpl::TraceSnapshot& t);
  /// Emit the submission-layer metrics and the per-op trace counts.
  void emit(Outcome& out, const ppa::mpl::SchedulerStats& stats) const;
};

/// Emit the mesh-solve and scaling metrics every workload reports for its
/// mesh solves: iterations per solve, solve time per iteration, the excess
/// over a perfect np-way split of the sequential time, and the sequential
/// baseline on the same inputs. `iterations`/`par_s` hold one entry per
/// traced parallel solve (rank 0's body time); `seq_iterations`/`seq_s`
/// one per sequential solve of the input pool.
void emit_mesh_scaling(Outcome& out, int np, const std::vector<double>& iterations,
                       const std::vector<double>& par_s,
                       const std::vector<double>& seq_iterations,
                       const std::vector<double>& seq_s);

// ------------------------------------------------------ inputs and oracles --

/// An n x n Poisson problem drawn from `rng`: coefficients within 2% of
/// one base problem (f = c(x - y), g = a xy + b x), so every draw takes
/// nearly the same number of Jacobi iterations to reach `tol`.
[[nodiscard]] ppa::app::PoissonProblem seeded_poisson(ppa::Rng& rng, std::size_t n,
                                                      double tol);

/// Same shape and the same bytes (NaNs and signed zeros included).
template <typename T>
[[nodiscard]] bool bitwise_equal(const ppa::Array2D<T>& a, const ppa::Array2D<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// ---------------------------------------------------------------- workloads --
//
// Each runs one workload and returns its metrics: the end-to-end set when
// opt.traced is false, the per-layer set (spans recorded on `log`) when it
// is true. The per-layer medians are over every traced op; only the
// end-to-end statistics leave stolen ops out.

Outcome run_mesh_latency(const RunOptions& opt, const StealMonitor& steal, SpanLog* log);
Outcome run_mesh_bandwidth(const RunOptions& opt, const StealMonitor& steal, SpanLog* log);
Outcome run_serve_mixed(const RunOptions& opt, const StealMonitor& steal, SpanLog* log);
Outcome run_compose_stream(const RunOptions& opt, const StealMonitor& steal, SpanLog* log);

}  // namespace ppa_bench
