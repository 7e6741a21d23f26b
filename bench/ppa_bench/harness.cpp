#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

namespace ppa_bench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

void Outcome::checked(const char* what, const std::function<bool()>& op) {
  // Guards the tally and `reported` against concurrent submitters; static
  // because a mutex member would make Outcome immovable.
  static std::mutex mutex;
  static std::set<std::string> reported;
  bool ok = false;
  std::string error;
  try {
    ok = op();
    if (!ok) error = "output differs from the oracle";
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::scoped_lock lock(mutex);
  ++attempted;
  if (!ok) ++failed;
  if (!ok && reported.insert(what).second) {
    std::fprintf(stderr, "ppa_bench: %s failed: %s\n", what, error.c_str());
  }
}

Serving::Serving()
    : engine(std::make_shared<ppa::mpl::Engine>(kWidth)),
      sched(std::make_unique<ppa::mpl::Scheduler>(engine)) {
  // Pin engine rank thread r to the r-th CPU this process may use. A solo
  // width-wide job runs logical rank r on physical rank r (the scheduler
  // grants lowest-index-first), so each rank thread pins itself. Unpinned,
  // op times stepped between plateaus up to 2x apart for seconds at a
  // time, and the p90 varied about twice as much from run to run.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (static_cast<int>(cpus.size()) < kWidth) return;  // oversubscribed: OS places
  sched->run(kWidth, [&cpus](ppa::mpl::Process& p) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(p.rank())], &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  });
}

void condition_host() {
  constexpr long kChunkWork = 2000000;  // ~3 ms per thread once warm
  constexpr auto kMinSpin = std::chrono::milliseconds(1500);
  constexpr auto kMaxSpin = std::chrono::seconds(4);
  const auto start = Clock::now();
  double fastest = 1e300;
  int steady = 0;  // consecutive chunks within 25% of the fastest
  while ((steady < 20 || Clock::now() - start < kMinSpin) &&
         Clock::now() - start < kMaxSpin) {
    const auto t0 = Clock::now();
    std::vector<std::jthread> spinners;
    for (int t = 0; t < kWidth; ++t) {
      spinners.emplace_back([] {
        volatile double x = 1.0;
        for (long i = 0; i < kChunkWork; ++i) x = x * 1.0000001 + 1e-9;
      });
    }
    spinners.clear();  // joins
    const double dt = seconds_between(t0, Clock::now());
    fastest = std::min(fastest, dt);
    steady = dt <= 1.25 * fastest ? steady + 1 : 0;
  }
}

// ------------------------------------------------------------- host steal --

StealMonitor::StealMonitor()
    : cpus_(static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)))) {
  sample();
  thread_ = std::jthread([this](std::stop_token stop) {
    std::mutex idle;
    std::unique_lock lock(idle);
    while (!stop.stop_requested()) {
      // Returns early when the destructor requests the stop.
      (void)wake_.wait_for(lock, stop, std::chrono::milliseconds(100), [] { return false; });
      if (!stop.stop_requested()) sample();
    }
  });
}

void StealMonitor::sample() const {
  // The summary line: cpu user nice system idle iowait irq softirq steal.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  const double stolen = stat ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
  const std::scoped_lock lock(mutex_);
  samples_.push_back({Clock::now(), stolen});
}

double StealMonitor::share(Clock::time_point t0, Clock::time_point t1) const {
  const auto half = std::chrono::milliseconds(500);
  const auto mid = t0 + (t1 - t0) / 2;
  t0 = std::min(t0, mid - half);
  t1 = std::max(t1, mid + half);
  bool covered = false;
  {
    const std::scoped_lock lock(mutex_);
    covered = samples_.back().t >= t1;
  }
  if (!covered) sample();  // the window reaches past the last sample
  const std::scoped_lock lock(mutex_);
  // The last sample at or before t0 and the first at or after t1 (or the
  // ends of the record).
  const auto later = [](const Sample& s, Clock::time_point t) { return s.t < t; };
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), t1, later);
  if (hi == samples_.end()) --hi;
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), t0, later);
  if (lo != samples_.begin() && (lo == samples_.end() || lo->t > t0)) --lo;
  const double wall = seconds_between(lo->t, hi->t);
  return wall > 0.0 ? (hi->stolen_s - lo->stolen_s) / (cpus_ * wall) : 0.0;
}

std::vector<bool> StealMonitor::kept(const std::vector<Clock::time_point>& start,
                                     const std::vector<Clock::time_point>& end) const {
  const std::size_t n = start.size();
  std::vector<double> shares(n);
  std::vector<bool> keep(n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    shares[i] = share(start[i], end[i]);
    keep[i] = shares[i] <= kMaxShare;
    count += keep[i] ? 1 : 0;
  }
  const std::size_t quarter = (n + 3) / 4;
  if (count >= quarter) return keep;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return shares[a] < shares[b]; });
  std::fill(keep.begin(), keep.end(), false);
  for (std::size_t i = 0; i < quarter; ++i) keep[order[i]] = true;
  return keep;
}

SetupTimer::SetupTimer(const RunOptions& opt, const StealMonitor& steal,
                       std::function<void(Serving&)> setup)
    : opt_(opt), steal_(steal), setup_(std::move(setup)) {}

std::unique_ptr<Serving> SetupTimer::time(int reps) {
  std::unique_ptr<Serving> keep;
  for (int r = 0; r < reps; ++r) {
    keep.reset();  // the previous engine joins outside the timed region
    t0s_.push_back(Clock::now());
    keep = std::make_unique<Serving>();
    setup_(*keep);
    t1s_.push_back(Clock::now());
  }
  return keep;
}

std::unique_ptr<Serving> SetupTimer::before() {
  if (!opt_.check) condition_host();
  return time(opt_.check ? 1 : 4);
}

double SetupTimer::after(std::unique_ptr<Serving> used) {
  used.reset();
  (void)time(opt_.check ? 0 : 4);
  const auto use = steal_.kept(t0s_, t1s_);
  std::vector<double> times;
  for (std::size_t r = 0; r < t0s_.size(); ++r) {
    if (use[r]) times.push_back(seconds_between(t0s_[r], t1s_[r]));
  }
  return median(times);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec and would
  // report the launching process's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void emit_end_to_end(Outcome& out, const StealMonitor& steal,
                     Clock::time_point phase_start, const OpLog& ops) {
  const auto use = steal.kept(ops.start, ops.done);
  std::vector<double> op_s;
  double busy_s = 0.0;
  auto previous = phase_start;
  for (std::size_t i = 0; i < use.size(); ++i) {
    if (use[i]) {
      op_s.push_back(seconds_between(ops.start[i], ops.done[i]));
      busy_s += seconds_between(previous, ops.done[i]);
    }
    previous = ops.done[i];
  }
  out.add("op_s.p50", quantile(op_s, 0.5), "s");
  out.add("op_s.p90", quantile(op_s, 0.9), "s");
  out.add("ops_per_s", busy_s > 0.0 ? static_cast<double>(op_s.size()) / busy_s : 0.0,
          "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("host.kept_share",
          static_cast<double>(op_s.size()) / static_cast<double>(std::max<std::size_t>(use.size(), 1)),
          "ratio");
}

void run_for(double seconds, const std::function<void(std::size_t)>& op) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t k = 0; Clock::now() < end; ++k) op(k);
}

// ------------------------------------------------------------------ spans --

SpanLog::Lane& SpanLog::lane(const char* role) {
  thread_local const SpanLog* owner = nullptr;
  thread_local Lane* cached = nullptr;
  if (owner == this) return *cached;
  const std::scoped_lock lock(mutex_);
  int same_role = 0;
  for (const auto& l : lanes_) {
    if (l.label.rfind(role, 0) == 0) ++same_role;
  }
  lanes_.push_back(Lane{std::string(role) + " " + std::to_string(same_role), {}});
  owner = this;
  cached = &lanes_.back();
  return *cached;
}

void SpanLog::add(const char* role, const Span& span) {
  Lane& l = lane(role);
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= kCap) return;
  l.spans.push_back(span);
}

bool SpanLog::write_chrome(const std::string& path, const std::string& workload,
                           Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const std::scoped_lock lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\""
      << workload << "\"}}";
  int tid = 0;
  char buf[96];
  for (const auto& l : lanes_) {
    ++tid;
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << l.label << "\"}}";
    for (const auto& s : l.spans) {
      std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", us(s.t0),
                    us(s.t1) - us(s.t0));
      out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << buf
          << ",\"args\":{\"op\":" << s.op << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- job stamps --

double JobStamps::dispatch_s() const {
  return seconds_between(submit, *std::max_element(entry.begin(), entry.end()));
}

double JobStamps::join_s() const {
  return seconds_between(*std::max_element(exit.begin(), exit.end()), done);
}

double JobStamps::service_s() const {
  std::vector<double> per_rank;
  for (std::size_t r = 0; r < entry.size(); ++r) {
    per_rank.push_back(seconds_between(entry[r], exit[r]));
  }
  return median(per_rank);
}

JobStamps run_stamped(ppa::mpl::Scheduler& sched, int np,
                      const std::function<void(ppa::mpl::Process&)>& body,
                      SpanLog* log, const char* name, std::uint64_t op) {
  JobStamps js(np);
  js.submit = Clock::now();
  js.trace = sched.run(np, [&](ppa::mpl::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    js.entry[r] = Clock::now();
    body(p);
    js.exit[r] = mark(log, "engine", "job", name, js.entry[r], op);
  });
  js.done = mark(log, "submitter", "mpl.scheduler", "submit", js.submit, op);
  return js;
}

void LayerSamples::add_job(const JobStamps& js) {
  admit.push_back(js.admit_s());
  dispatch.push_back(js.dispatch_s());
  join.push_back(js.join_s());
  service.push_back(js.service_s());
}

void LayerSamples::add_counts(const ppa::mpl::TraceSnapshot& t) {
  msgs += static_cast<double>(t.messages);
  bytes += static_cast<double>(t.bytes);
  copied += static_cast<double>(t.copied_bytes);
  allreduce += static_cast<double>(t.op(ppa::mpl::Op::kAllreduce));
}

void LayerSamples::emit(Outcome& out, const ppa::mpl::SchedulerStats& stats) const {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  out.add("mpl.scheduler.admit_s.p50", quantile(admit, 0.5), "s");
  out.add("mpl.scheduler.admit_s.p90", quantile(admit, 0.9), "s");
  out.add("mpl.engine.dispatch_s", median(dispatch), "s");
  out.add("mpl.engine.join_s", median(join), "s");
  out.add("mpl.scheduler.queue_high_water",
          static_cast<double>(stats.queue_high_water), "count");
  out.add("mpl.scheduler.concurrency_high_water",
          static_cast<double>(stats.concurrency_high_water), "count");
  out.add("job.service_s.p50", median(service), "s");
  out.add("mpl.trace.msgs_per_op", msgs / n, "count");
  out.add("mpl.trace.bytes_per_op", bytes / n, "B");
  out.add("mpl.trace.copied_bytes_per_op", copied / n, "B");
  out.add("mpl.trace.allreduce_per_op", allreduce / n, "count");
}

void emit_mesh_scaling(Outcome& out, int np, const std::vector<double>& iterations,
                       const std::vector<double>& par_s,
                       const std::vector<double>& seq_iterations,
                       const std::vector<double>& seq_s) {
  std::vector<double> per_iter, seq_per_iter;
  for (std::size_t i = 0; i < par_s.size(); ++i) {
    per_iter.push_back(par_s[i] / std::max(iterations[i], 1.0));
  }
  for (std::size_t i = 0; i < seq_s.size(); ++i) {
    seq_per_iter.push_back(seq_s[i] / std::max(seq_iterations[i], 1.0));
  }
  const double iter_s = median(per_iter);
  out.add("mesh.iterations", median(iterations), "count");
  out.add("mesh.iter_s", iter_s, "s");
  out.add("mesh.parallel_overhead_s", iter_s - median(seq_per_iter) / np, "s");
  out.add("scaling.seq_s", median(seq_s), "s");
  out.add("scaling.speedup_vs_seq", median(seq_s) / median(par_s), "ratio");
}

ppa::app::PoissonProblem seeded_poisson(ppa::Rng& rng, std::size_t n, double tol) {
  const double a = rng.uniform(0.98, 1.02);
  const double b = rng.uniform(-0.02, 0.02);
  const double c = rng.uniform(0.98, 1.02);
  ppa::app::PoissonProblem prob;
  prob.nx = n;
  prob.ny = n;
  prob.tolerance = tol;
  prob.f = [c](double x, double y) { return c * (x - y); };
  prob.g = [a, b](double x, double y) { return a * x * y + b * x; };
  return prob;
}

}  // namespace ppa_bench
